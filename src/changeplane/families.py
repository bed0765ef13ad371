"""Per-family estimating equations.

For each regression family this module provides:

* ``fit_null``        -- the null-model fit (beta = 0) solving the nuisance
                         estimating equation,
* ``score_psi0``      -- the theta-free score factor per observation,
* ``sst_derivatives`` -- the row factors of K(theta) and the J matrix needed
                         by the supremum score test,
* ``bootstrap_sample``-- a resampled dataset for calibration, per the
                         family-specific scheme (parametric for GLM/probit,
                         two-point wild for quantile, Gaussian wild for the
                         semiparametric model).

Families: gaussian / binomial / poisson GLMs with canonical links, probit,
quantile (check-loss, any tau in (0,1)), and the semiparametric
treatment-effect model with working logistic propensity and linear baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit
from scipy.stats import norm

from .data import Dataset, validate
from .errors import ParameterError, SingularDesignError

__all__ = [
    "FamilyKind", "NullFit", "ScoreVector", "SstDerivatives",
    "fit_null", "score_psi0", "sst_derivatives", "bootstrap_sample",
]

_GLM_FAMILIES = ("gaussian", "binomial", "poisson")
_ALL_FAMILIES = _GLM_FAMILIES + ("probit", "quantile", "semiparametric")

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class FamilyKind:
    """Regression family selector; quantile carries its level tau."""

    name: str
    tau: float = 0.5

    def __post_init__(self):
        if self.name not in _ALL_FAMILIES:
            raise ParameterError(
                f"unknown family {self.name!r}; expected one of {_ALL_FAMILIES}")
        if self.name == "quantile" and not 0.0 < self.tau < 1.0:
            raise ParameterError(f"tau must lie strictly in (0,1), got {self.tau}")

    def describe(self) -> str:
        return f"quantile(tau={self.tau})" if self.name == "quantile" else self.name


@dataclass(frozen=True)
class NullFit:
    """Null-model coefficient estimate and convergence diagnostics.

    For the semiparametric family ``alpha_hat`` is the concatenation of the
    propensity coefficients (length q) and the baseline coefficients
    (length r), in that order.
    """

    alpha_hat: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScoreVector:
    """n x p matrix whose row i is the theta-free score factor psi0(V_i)."""

    psi0: np.ndarray


@dataclass(frozen=True)
class SstDerivatives:
    """Row factors of K(theta), the inverse of J and the nuisance rows.

    K(theta) = n^-1 sum_i d_i(theta) g_i h_i', d_i(theta) = 1(z_i' theta >= 0),
    is the p x r derivative of the mean half-space score in the nuisance
    coefficients; ``g`` (n x p) and ``h`` (n x r) are its theta-free row
    factors.  ``j_inv`` is the inverse of the derivative of the nuisance
    estimating function; the score-covariance correction is
    ``K(theta) @ j_inv @ psi1_i``.
    """

    g: np.ndarray
    h: np.ndarray
    j_inv: np.ndarray
    psi1: np.ndarray  # n x r matrix of nuisance estimating-function rows
    z: np.ndarray     # grouping rows the indicator is taken over

    def k_of_theta(self, theta) -> np.ndarray:
        """K(theta) at one plane."""
        ind = self.z @ np.asarray(theta, float) >= 0
        return self.g[ind].T @ self.h[ind] / self.z.shape[0]


# --------------------------------------------------------------------------
# canonical-link GLM pieces
# --------------------------------------------------------------------------

def _glm_mean(name: str, eta: np.ndarray) -> np.ndarray:
    if name == "gaussian":
        return eta
    if name == "binomial":
        return expit(eta)
    return np.exp(eta)  # poisson


def _glm_var(name: str, eta: np.ndarray) -> np.ndarray:
    """c''(eta): variance function at the canonical parameter."""
    if name == "gaussian":
        return np.ones_like(eta)
    if name == "binomial":
        p = expit(eta)
        return p * (1.0 - p)
    return np.exp(eta)  # poisson


def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("singular information matrix") from exc


def _check_rank(x: np.ndarray, what: str) -> None:
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise SingularDesignError(f"{what} design is rank-deficient")


def _fit_glm(y, x, name, tol, max_iter) -> NullFit:
    """IRLS on the canonical link until the max score component is <= tol."""
    _check_rank(x, "baseline")
    n, r = x.shape
    alpha = np.zeros(r)
    if name == "gaussian":
        alpha, *_ = np.linalg.lstsq(x, y, rcond=None)
        score = x.T @ (y - x @ alpha) / n
        return NullFit(alpha, True, 1, float(np.max(np.abs(score))))
    # start from the intercept-only moment match where possible
    for it in range(1, max_iter + 1):
        eta = x @ alpha
        mu = _glm_mean(name, eta)
        w = _glm_var(name, eta)
        score = x.T @ (y - mu)
        gnorm = float(np.max(np.abs(score)) / n)
        if gnorm <= tol:
            return NullFit(alpha, True, it, gnorm)
        info = x.T @ (x * w[:, None])
        alpha = alpha + _solve_spd(info, score)
    eta = x @ alpha
    gnorm = float(np.max(np.abs(x.T @ (y - _glm_mean(name, eta)))) / n)
    return NullFit(alpha, gnorm <= tol, max_iter, gnorm)


# --------------------------------------------------------------------------
# probit pieces (numerically stable Mills ratios)
# --------------------------------------------------------------------------

def _mills(eta: np.ndarray) -> np.ndarray:
    """phi(eta)/Phi(eta), computed on the log scale to avoid overflow."""
    return np.exp(norm.logpdf(eta) - norm.logcdf(eta))


def _probit_score_weight(y: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Per-row score factor y*lam(eta) - (1-y)*lam(-eta)."""
    return y * _mills(eta) - (1.0 - y) * _mills(-eta)


def _probit_score_deriv(y: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """d/d eta of the probit score factor (observed, y-dependent)."""
    lam_p = _mills(eta)
    lam_m = _mills(-eta)
    return -(y * lam_p * (eta + lam_p) + (1.0 - y) * lam_m * (lam_m - eta))


def _fit_probit(y, x, tol, max_iter) -> NullFit:
    _check_rank(x, "baseline")
    n, r = x.shape
    alpha = np.zeros(r)
    for it in range(1, max_iter + 1):
        eta = x @ alpha
        s = _probit_score_weight(y, eta)
        score = x.T @ s
        gnorm = float(np.max(np.abs(score)) / n)
        if gnorm <= tol:
            return NullFit(alpha, True, it, gnorm)
        # Fisher scoring: expected information weight phi^2 / (Phi * Phi(-))
        lam_p = _mills(eta)
        lam_m = _mills(-eta)
        w = lam_p * lam_m
        info = x.T @ (x * w[:, None])
        alpha = alpha + _solve_spd(info, score)
    eta = x @ alpha
    gnorm = float(np.max(np.abs(x.T @ _probit_score_weight(y, eta))) / n)
    return NullFit(alpha, gnorm <= tol, max_iter, gnorm)


# --------------------------------------------------------------------------
# quantile pieces (majorize-minimize on smoothed check loss)
# --------------------------------------------------------------------------

def _fit_quantile(y, x, tau, tol, max_iter) -> NullFit:
    """IRLS on |r| + eps weights with eps annealed to 1e-8.

    Convergence target is the subgradient box: the fitted alpha must satisfy
    ||sum [1(resid <= 0) - tau] x_i||_inf <= r * max|x|, the discrete
    analogue of the estimating equation.
    """
    _check_rank(x, "baseline")
    n, r = x.shape
    alpha, *_ = np.linalg.lstsq(x, y, rcond=None)
    eps = 1e-2
    last = alpha
    for it in range(1, max_iter + 1):
        resid = y - x @ alpha
        # check-loss weights: rho_tau(r) = r (tau - 1(r<=0)); MM surrogate
        w = np.where(resid > 0, tau, 1.0 - tau) / np.maximum(np.abs(resid), eps)
        xw = x * w[:, None]
        alpha_new = _solve_spd(x.T @ xw, xw.T @ y)
        step = float(np.max(np.abs(alpha_new - last)))
        last = alpha_new
        alpha = alpha_new
        eps = max(eps * 0.5, 1e-8)
        if step <= tol and eps <= 1e-8:
            break
    resid = y - x @ alpha
    sub = x.T @ (np.where(resid <= 0, 1.0, 0.0) - tau)
    box = r * float(np.max(np.abs(x)))
    gnorm = float(np.max(np.abs(sub)))
    return NullFit(alpha, gnorm <= box, it, gnorm)


# --------------------------------------------------------------------------
# semiparametric pieces
# --------------------------------------------------------------------------

def _fit_semiparametric(ds: Dataset, tol, max_iter) -> NullFit:
    """Working logistic propensity A ~ Z and working linear baseline Y ~ x_base."""
    a = ds.x_diff[:, 0]
    prop = _fit_glm(a, ds.z_group, "binomial", tol, max_iter)
    base = _fit_glm(ds.y, ds.x_base, "gaussian", tol, max_iter)
    alpha = np.concatenate([prop.alpha_hat, base.alpha_hat])
    return NullFit(
        alpha,
        prop.converged and base.converged,
        max(prop.iterations, base.iterations),
        max(prop.gradient_norm, base.gradient_norm),
        extra={"q": ds.q, "r": ds.r},
    )


def _semi_split(ds: Dataset, fit: NullFit):
    a1 = fit.alpha_hat[: ds.q]
    a2 = fit.alpha_hat[ds.q:]
    return a1, a2


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------

def fit_null(ds: Dataset, family: FamilyKind, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> NullFit:
    """Solve the nuisance estimating equation Psi_1n(alpha) = 0 for beta = 0."""
    validate(ds, family.name)
    if family.name in _GLM_FAMILIES:
        return _fit_glm(ds.y, ds.x_base, family.name, tol, max_iter)
    if family.name == "probit":
        return _fit_probit(ds.y, ds.x_base, tol, max_iter)
    if family.name == "quantile":
        return _fit_quantile(ds.y, ds.x_base, family.tau, tol, max_iter)
    return _fit_semiparametric(ds, tol, max_iter)


def score_psi0(ds: Dataset, family: FamilyKind, fit: NullFit) -> ScoreVector:
    """The theta-free score factor psi0(V_i, alpha_hat), one row per observation."""
    if family.name in _GLM_FAMILIES:
        eta = ds.x_base @ fit.alpha_hat
        resid = ds.y - _glm_mean(family.name, eta)
        return ScoreVector(resid[:, None] * ds.x_diff)
    if family.name == "probit":
        eta = ds.x_base @ fit.alpha_hat
        s = _probit_score_weight(ds.y, eta)
        return ScoreVector(s[:, None] * ds.x_diff)
    if family.name == "quantile":
        resid = ds.y - ds.x_base @ fit.alpha_hat
        s = np.where(resid <= 0, 1.0, 0.0) - family.tau
        return ScoreVector(s[:, None] * ds.x_diff)
    # semiparametric: scalar factor (A - pi(Z)) (Y - gamma(x_base))
    a1, a2 = _semi_split(ds, fit)
    pi_hat = expit(ds.z_group @ a1)
    gam_hat = ds.x_base @ a2
    s = (ds.x_diff[:, 0] - pi_hat) * (ds.y - gam_hat)
    return ScoreVector(s[:, None])


def _silverman_f0(resid: np.ndarray, bandwidth: float | None) -> float:
    """Gaussian-kernel density estimate of the residual density at zero."""
    n = resid.size
    sd = float(np.std(resid))
    if bandwidth is None:
        bandwidth = 1.06 * max(sd, 1e-12) * n ** (-0.2)
    return float(np.mean(norm.pdf(resid / bandwidth)) / bandwidth)


def sst_derivatives(ds: Dataset, family: FamilyKind, fit: NullFit,
                    bandwidth: float | None = None) -> SstDerivatives:
    """Row factors of K(theta), the inverse of J and the psi1 rows."""
    x, xd, z = ds.x_base, ds.x_diff, ds.z_group
    n = ds.n

    if family.name in _GLM_FAMILIES or family.name == "probit":
        eta = x @ fit.alpha_hat
        if family.name == "probit":
            dpsi = _probit_score_deriv(ds.y, eta)  # y-dependent derivative
            s = _probit_score_weight(ds.y, eta)
            psi1 = s[:, None] * x
        else:
            dpsi = -_glm_var(family.name, eta)
            psi1 = (ds.y - _glm_mean(family.name, eta))[:, None] * x
        j_base = (x * dpsi[:, None]).T @ x / n
        try:
            j_inv = np.linalg.inv(j_base)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError("singular J matrix") from exc
        return SstDerivatives(xd * dpsi[:, None], x, j_inv, psi1, z)

    if family.name == "quantile":
        resid = ds.y - x @ fit.alpha_hat
        f0 = _silverman_f0(resid, bandwidth)
        s = np.where(resid <= 0, 1.0, 0.0) - family.tau
        psi1 = s[:, None] * x
        j_base = -f0 * (x.T @ x) / n
        try:
            j_inv = np.linalg.inv(j_base)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError("singular J matrix") from exc
        return SstDerivatives(-f0 * xd, x, j_inv, psi1, z)

    # semiparametric: nuisance blocks (propensity over Z, baseline over x_base)
    a1, a2 = _semi_split(ds, fit)
    pi_hat = expit(z @ a1)
    gam_hat = x @ a2
    resid_a, resid_y = xd[:, 0] - pi_hat, ds.y - gam_hat
    psi1 = np.hstack([resid_a[:, None] * z, resid_y[:, None] * x])
    w1 = pi_hat * (1.0 - pi_hat)
    j11 = -(z * w1[:, None]).T @ z / n
    j22 = -(x.T @ x) / n
    j_base = np.zeros((ds.q + ds.r, ds.q + ds.r))
    j_base[: ds.q, : ds.q] = j11
    j_base[ds.q:, ds.q:] = j22
    try:
        j_inv = np.linalg.inv(j_base)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("singular J matrix") from exc
    h = -np.hstack([(w1 * resid_y)[:, None] * z, resid_a[:, None] * x])
    return SstDerivatives(np.ones((n, 1)), h, j_inv, psi1, z)


def bootstrap_sample(ds: Dataset, family: FamilyKind, fit: NullFit,
                     rng) -> Dataset:
    """Resampled dataset for calibration; covariates unchanged, Y redrawn.

    GLM/probit draw from the fitted null distribution; quantile uses the
    two-point wild multiplier P(nu = 2(1-tau)) = 1 - tau, P(nu = -2 tau) = tau
    on absolute residuals; the semiparametric model uses a Gaussian wild
    multiplier on signed residuals.
    """
    rng = np.random.default_rng(rng)
    name = family.name
    if name in _GLM_FAMILIES or name == "probit":
        eta = ds.x_base @ fit.alpha_hat
        if name == "gaussian":
            sigma2 = float(np.mean((ds.y - eta) ** 2))  # MLE dispersion
            y_star = eta + rng.standard_normal(ds.n) * np.sqrt(sigma2)
        elif name == "binomial":
            y_star = (rng.random(ds.n) < expit(eta)).astype(float)
        elif name == "poisson":
            y_star = rng.poisson(np.exp(eta)).astype(float)
        else:  # probit: Y* = 1(nu <= eta), nu ~ N(0,1)
            y_star = (rng.standard_normal(ds.n) <= eta).astype(float)
        return ds.with_response(y_star)
    if name == "quantile":
        tau = family.tau
        eta = ds.x_base @ fit.alpha_hat
        resid = ds.y - eta
        nu = np.where(rng.random(ds.n) < 1.0 - tau, 2.0 * (1.0 - tau), -2.0 * tau)
        return ds.with_response(eta + nu * np.abs(resid))
    # semiparametric
    _, a2 = _semi_split(ds, fit)
    gam_hat = ds.x_base @ a2
    resid = ds.y - gam_hat
    nu = rng.standard_normal(ds.n)
    return ds.with_response(gam_hat + nu * resid)
