"""Per-family estimating equations.

Each family is stated once, through its per-row score factor s_i = s(Y_i,
eta_i) at eta = x_base alpha (``_factor``).  The null fit solves
sum_i s_i x_base,i = 0; the test score rows are psi0_i = s_i x_diff,i and the
nuisance rows psi1_i = s_i x_base,i.  This module provides:

* ``fit_null``        -- the null-model fit (beta = 0) solving the nuisance
                         estimating equation: one least-squares solve for
                         gaussian, one Newton loop for binomial and poisson
                         (IRLS) and probit (Fisher scoring), majorize-minimize
                         for quantile,
* ``score_psi0``      -- the n x p theta-free score rows psi0,
* ``sst_derivatives`` -- the row factors of K(theta) and the J matrix needed
                         by the supremum score test,
* ``plane_projections``-- which rows lie inside which change planes,
* ``bootstrap_sample``-- a resampled dataset for calibration, per the
                         family-specific scheme (parametric for GLM/probit,
                         two-point wild for quantile, Gaussian wild for the
                         semiparametric model).

Families: gaussian / binomial / poisson GLMs with canonical links, probit,
quantile (check-loss, any tau in (0,1)), and the semiparametric
treatment-effect model with working logistic propensity pi(Z) and linear
baseline gamma(x_base), whose scalar score factor is (A - pi(Z))(Y - gamma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr

from .data import Dataset, validate
from .errors import ParameterError, SingularDesignError

__all__ = [
    "FamilyKind", "NullFit", "SstDerivatives", "plane_projections",
    "fit_null", "score_psi0", "sst_derivatives", "bootstrap_sample",
]

_ALL_FAMILIES = ("gaussian", "binomial", "poisson", "probit", "quantile",
                 "semiparametric")

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

# sqrt(2 pi) and its log, formed as scipy.stats.norm forms them, so the
# normal density and the Mills ratio below keep scipy's bits.
_SQRT_2PI = np.sqrt(2 * np.pi)
_LOG_SQRT_2PI = np.log(_SQRT_2PI)


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


@dataclass(frozen=True)
class SstDerivatives:
    """Row factors of K(theta), the inverse of J and the nuisance rows.

    K(theta) = n^-1 sum_i d_i(theta) g_i h_i', d_i(theta) the membership of
    ``plane_projections``, is the p x r derivative of the mean half-space
    score in the nuisance coefficients; ``g`` (n x p) and ``h`` (n x r) are
    its theta-free row factors.  ``j_inv`` is the inverse of the derivative
    of the nuisance estimating function; the score-covariance correction is
    ``K(theta) @ j_inv @ psi1_i``.
    """

    g: np.ndarray
    h: np.ndarray
    j_inv: np.ndarray
    psi1: np.ndarray  # n x r matrix of nuisance estimating-function rows
    z: np.ndarray     # grouping rows the indicator is taken over

    def k_of_theta(self, theta) -> np.ndarray:
        """K(theta) at one plane."""
        theta = np.asarray(theta, float)
        ind = plane_projections(self.z, theta[None])[0] >= -theta[0]
        return self.g[ind].T @ self.h[ind] / self.z.shape[0]


def plane_projections(z: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """K x n projections z_tail,i' theta_tail,k of the grouping rows on the
    planes; row i is inside plane k when its projection is >= -theta_1k.

    The theta grid takes its intercepts as quantiles of these rows and the
    SST kernel its indicator from them, both over the same thetas array, so
    the row at a quantile is inside its plane.  theta_1 is the intercept:
    z's first column must be all ones.
    """
    if not np.all(z[:, 0] == 1.0):
        raise ParameterError("change planes need an all-ones first grouping column")
    return thetas[:, 1:] @ z[:, 1:].T


# --------------------------------------------------------------------------
# the per-row score factor and its Newton weight
# --------------------------------------------------------------------------

def _mills(eta: np.ndarray) -> np.ndarray:
    """phi(eta)/Phi(eta), computed on the log scale to avoid overflow."""
    return np.exp(-eta**2 / 2.0 - _LOG_SQRT_2PI - log_ndtr(eta))


def _factor(family: FamilyKind, y: np.ndarray, eta: np.ndarray):
    """Score factor s(y, eta) of every family but the semiparametric one, and
    its Newton weight: c''(eta) = -ds/d eta of a canonical GLM, for probit the
    expected information phi^2 / (Phi Phi(-)) = lam(eta) lam(-eta), None for
    quantile.  The mean, or each Mills ratio, is evaluated once for both."""
    name = family.name
    if name == "gaussian":
        return y - eta, np.ones_like(eta)
    if name == "binomial":
        mu = expit(eta)
        return y - mu, mu * (1.0 - mu)
    if name == "poisson":
        mu = np.exp(eta)
        return y - mu, mu
    if name == "probit":
        lam_p, lam_m = _mills(eta), _mills(-eta)
        return y * lam_p - (1.0 - y) * lam_m, lam_p * lam_m
    # quantile: the check-loss subgradient 1(y - eta <= 0) - tau
    return np.where(y - eta <= 0, 1.0, 0.0) - family.tau, None


# --------------------------------------------------------------------------
# null fits
# --------------------------------------------------------------------------

def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("singular information matrix") from exc


def _newton(family: FamilyKind, y, x, tol, max_iter) -> NullFit:
    """Newton steps on X's = 0 from alpha = 0 until max|X's|/n <= tol.

    With the weights of ``_factor`` this is IRLS for binomial and poisson and
    Fisher scoring for probit.  After ``max_iter`` steps the last alpha is
    returned, converged only if it meets tol.
    """
    n, r = x.shape
    alpha = np.zeros(r)
    for it in range(1, max_iter + 2):
        s, w = _factor(family, y, x @ alpha)
        score = x.T @ s
        gnorm = float(np.max(np.abs(score)) / n)
        if gnorm <= tol or it > max_iter:
            return NullFit(alpha, gnorm <= tol, min(it, max_iter), gnorm)
        info = x.T @ (x * w[:, None])
        alpha = alpha + _solve_spd(info, score)


def _fit_quantile(y, x, family: FamilyKind, tol, max_iter) -> NullFit:
    """IRLS on |r| + eps weights with eps annealed to 1e-8.

    Convergence target is the subgradient box: the fitted alpha must satisfy
    ||sum [1(resid <= 0) - tau] x_i||_inf <= r * max|x|, the discrete
    analogue of the estimating equation.
    """
    tau = family.tau
    r = x.shape[1]
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
    sub = x.T @ _factor(family, y, x @ alpha)[0]
    box = r * float(np.max(np.abs(x)))
    gnorm = float(np.max(np.abs(sub)))
    return NullFit(alpha, gnorm <= box, it, gnorm)


def _fit(family: FamilyKind, y, x, tol, max_iter, design="baseline") -> NullFit:
    """Solve X's = 0 for one family on the design x, which must have full rank."""
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise SingularDesignError(f"{design} design is rank-deficient")
    if family.name == "quantile":
        return _fit_quantile(y, x, family, tol, max_iter)
    if family.name != "gaussian":
        return _newton(family, y, x, tol, max_iter)
    alpha, *_ = np.linalg.lstsq(x, y, rcond=None)
    gnorm = float(np.max(np.abs(x.T @ _factor(family, y, x @ alpha)[0])) / x.shape[0])
    return NullFit(alpha, True, 1, gnorm)


def _semi_fitted(ds: Dataset, fit: NullFit):
    """pi_hat(Z) and gamma_hat(x_base) of the semiparametric working fits."""
    return expit(ds.z_group @ fit.alpha_hat[: ds.q]), ds.x_base @ fit.alpha_hat[ds.q:]


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------

def fit_null(ds: Dataset, family: FamilyKind, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> NullFit:
    """Solve the nuisance estimating equation Psi_1n(alpha) = 0 for beta = 0."""
    validate(ds, family.name)
    if family.name != "semiparametric":
        return _fit(family, ds.y, ds.x_base, tol, max_iter)
    # working logistic propensity A ~ Z and working linear baseline Y ~ x_base
    prop = _fit(FamilyKind("binomial"), ds.x_diff[:, 0], ds.z_group, tol, max_iter,
                "grouping")
    base = _fit(FamilyKind("gaussian"), ds.y, ds.x_base, tol, max_iter)
    return NullFit(
        np.concatenate([prop.alpha_hat, base.alpha_hat]),
        prop.converged and base.converged,
        max(prop.iterations, base.iterations),
        max(prop.gradient_norm, base.gradient_norm),
    )


def score_psi0(ds: Dataset, family: FamilyKind, fit: NullFit) -> np.ndarray:
    """The n x p theta-free score rows psi0(V_i, alpha_hat) = s_i x_diff,i.

    For the semiparametric family it is the n x 1 scalar factor
    (A - pi_hat(Z)) (Y - gamma_hat(x_base)).
    """
    if family.name == "semiparametric":
        pi_hat, gam_hat = _semi_fitted(ds, fit)
        return ((ds.x_diff[:, 0] - pi_hat) * (ds.y - gam_hat))[:, None]
    return _factor(family, ds.y, ds.x_base @ fit.alpha_hat)[0][:, None] * ds.x_diff


def _silverman_f0(resid: np.ndarray) -> float:
    """Gaussian-kernel density estimate of the residual density at zero,
    at Silverman's rule-of-thumb bandwidth."""
    bandwidth = 1.06 * max(float(np.std(resid)), 1e-12) * resid.size ** (-0.2)
    u = resid / bandwidth
    return float(np.mean(np.exp(-u**2 / 2.0) / _SQRT_2PI) / bandwidth)


def sst_derivatives(ds: Dataset, family: FamilyKind, fit: NullFit) -> SstDerivatives:
    """Row factors of K(theta), the inverse of J and the psi1 rows."""
    x, xd, z = ds.x_base, ds.x_diff, ds.z_group
    n = ds.n

    if family.name == "semiparametric":
        # nuisance blocks: propensity over Z, baseline over x_base
        pi_hat, gam_hat = _semi_fitted(ds, fit)
        resid_a, resid_y = xd[:, 0] - pi_hat, ds.y - gam_hat
        psi1 = np.hstack([resid_a[:, None] * z, resid_y[:, None] * x])
        w1 = pi_hat * (1.0 - pi_hat)
        j_base = np.zeros((ds.q + ds.r, ds.q + ds.r))
        j_base[: ds.q, : ds.q] = -(z * w1[:, None]).T @ z / n
        j_base[ds.q:, ds.q:] = -(x.T @ x) / n
        g = np.ones((n, 1))
        h = -np.hstack([(w1 * resid_y)[:, None] * z, resid_a[:, None] * x])
    else:
        eta = x @ fit.alpha_hat
        s, w = _factor(family, ds.y, eta)
        psi1 = s[:, None] * x
        h = x
        if family.name == "quantile":
            f0 = _silverman_f0(ds.y - eta)
            g, j_base = -f0 * xd, -f0 * (x.T @ x) / n
        else:
            # probit takes the observed slope of its factor, which for a 0/1
            # response is -s (s + eta)
            dpsi = -s * (s + eta) if family.name == "probit" else -w
            g, j_base = xd * dpsi[:, None], (x * dpsi[:, None]).T @ x / n
    try:
        j_inv = np.linalg.inv(j_base)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("singular J matrix") from exc
    return SstDerivatives(g, h, j_inv, psi1, z)


def bootstrap_sample(ds: Dataset, family: FamilyKind, fit: NullFit,
                     rng) -> Dataset:
    """Resampled dataset for calibration; covariates unchanged, Y redrawn.

    GLM/probit draw from the fitted null distribution; quantile uses the
    two-point wild multiplier P(nu = 2(1-tau)) = 1 - tau, P(nu = -2 tau) = tau
    on absolute residuals; the semiparametric model uses a Gaussian wild
    multiplier on signed residuals around gamma_hat(x_base).
    """
    rng = np.random.default_rng(rng)
    name = family.name
    if name == "semiparametric":
        _, eta = _semi_fitted(ds, fit)
    else:
        eta = ds.x_base @ fit.alpha_hat
    if name == "gaussian":
        sigma2 = float(np.mean((ds.y - eta) ** 2))  # MLE dispersion
        y_star = eta + rng.standard_normal(ds.n) * np.sqrt(sigma2)
    elif name == "binomial":
        y_star = (rng.random(ds.n) < expit(eta)).astype(float)
    elif name == "poisson":
        y_star = rng.poisson(np.exp(eta)).astype(float)
    elif name == "probit":  # Y* = 1(nu <= eta), nu ~ N(0,1)
        y_star = (rng.standard_normal(ds.n) <= eta).astype(float)
    elif name == "quantile":
        tau = family.tau
        nu = np.where(rng.random(ds.n) < 1.0 - tau, 2.0 * (1.0 - tau), -2.0 * tau)
        y_star = eta + nu * np.abs(ds.y - eta)
    else:
        y_star = eta + rng.standard_normal(ds.n) * (ds.y - eta)
    return ds.with_response(y_star)
