"""Per-family estimating equations.

Each family is stated once, through its per-row score factor s_i = s(Y_i,
eta_i) at eta = x_base alpha (``_factor``).  The null fit solves
sum_i s_i x_base,i = 0; the test score rows are psi0_i = s_i d_i, d = x_diff
(the propensity residual for the semiparametric model), and the nuisance
rows psi1_i = s_i x_base,i.  This module provides:

* ``validate``        -- each family's rules on the response, and on the
                         semiparametric treatment column,
* ``fit_null``        -- the null-model fit (beta = 0) solving the nuisance
                         estimating equation: one least-squares solve for
                         gaussian, one Newton loop for binomial and poisson
                         (IRLS) and probit (Fisher scoring), an exact simplex
                         certified by the Koenker-Bassett condition for
                         quantile,
* ``refit_null``      -- the same fit, in lock step, on every column of an
                         n x B bootstrap response matrix, with each column's
                         score factor,
* ``score_factor``    -- the factor s and the row d of psi0_i = s_i d_i,
* ``score_psi0``      -- the n x p theta-free score rows psi0,
* ``sst_derivatives`` -- the row factors of K(theta) and the J matrix needed
                         by the supremum score test,
* ``bootstrap_sampler``-- redrawn responses for calibration, an n x m block
                         per call, per the family-specific scheme
                         (parametric for GLM/probit, two-point wild for
                         quantile, Gaussian wild for the semiparametric
                         model); ``bootstrap_sample`` draws one.

Families: gaussian / binomial / poisson GLMs with canonical links, probit,
quantile (check-loss, any tau in (0,1)), and the semiparametric
treatment-effect model with working logistic propensity pi(Z) and linear
baseline gamma(x_base), whose scalar score row is (A - pi(Z))(Y - gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset
from .errors import ParameterError, SingularDesignError, ValidationError

__all__ = [
    "FAMILIES", "FamilyKind", "NullFit", "SstDerivatives", "validate",
    "fit_null", "refit_null", "score_factor", "score_psi0", "sst_derivatives",
    "bootstrap_sampler", "bootstrap_sample",
]

FAMILIES = ("gaussian", "binomial", "poisson", "probit", "quantile", "semiparametric")

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

_EPS = np.finfo(float).eps
# A quantile residual within _ZERO_ULPS ulps of its rounding scale is zero
# (``_quantile_residual``).
_ZERO_ULPS = 16

_SQRT_2PI = np.sqrt(2 * np.pi)

# The rational forms of erf and erfc below are those of fdlibm's s_erf.c:
#
#   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
#
#   Developed at SunPro, a Sun Microsystems, Inc. business.
#   Permission to use, copy, modify, and distribute this
#   software is freely granted, provided that this notice
#   is preserved.
#
# Each pair (numerator, denominator) lists coefficients in increasing powers.
# erf(x) = x + x R(x^2)/S(x^2) on [0, 0.84375):
_ERF_LOW = ((1.28379167095512558561e-01, -3.25042107247001499370e-01,
             -2.84817495755985104766e-02, -5.77027029648944159157e-03,
             -2.37630166566501626084e-05),
            (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
             5.08130628187576562776e-03, 1.32494738004321644526e-04,
             -3.96022827877536812320e-06))
# erf(x) = erx + P(x - 1)/Q(x - 1) on [0.84375, 1.25):
_ERX = 8.45062911510467529297e-01
_ERF_MID = ((-2.36211856075265944077e-03, 4.14856118683748331666e-01,
             -3.72207876035701323847e-01, 3.18346619901161753674e-01,
             -1.10894694282396677476e-01, 3.54783043256182359371e-02,
             -2.16637559486879084300e-03),
            (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
             7.18286544141962662868e-02, 1.26171219808761642112e-01,
             1.36370839120290507362e-02, 1.19844998467991074170e-02))
# erfc(x) = exp(-x^2 - 0.5625 + R(1/x^2)/S(1/x^2)) / x on [1.25, 1/0.35) ...
_ERFC_NEAR = ((-9.86494403484714822705e-03, -6.93858572707181764372e-01,
               -1.05586262253232909814e+01, -6.23753324503260060396e+01,
               -1.62396669462573470355e+02, -1.84605092906711035994e+02,
               -8.12874355063065934246e+01, -9.81432934416914548592e+00),
              (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
               4.34565877475229228821e+02, 6.45387271733267880336e+02,
               4.29008140027567833386e+02, 1.08635005541779435134e+02,
               6.57024977031928170135e+00, -6.04244152148580987438e-02))
# ... and on [1/0.35, inf).  fdlibm stops at 28, where erfc underflows; the
# Mills ratio takes R/S alone and needs no such end.
_ERFC_FAR = ((-9.86494292470009928597e-03, -7.99283237680523006574e-01,
              -1.77579549177547519889e+01, -1.60636384855821916062e+02,
              -6.37566443368389627722e+02, -1.02509513161107724954e+03,
              -4.83519191608651397019e+02),
             (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
              1.53672958608443695994e+03, 3.19985821950859553908e+03,
              2.55305040643316442583e+03, 4.74528541206955367215e+02,
              -2.24409524465858183362e+01))


@dataclass(frozen=True)
class FamilyKind:
    """Regression family selector; quantile carries its level tau."""

    name: str
    tau: float = 0.5

    def __post_init__(self):
        if self.name not in FAMILIES:
            raise ParameterError(f"unknown family {self.name!r}; expected one of {FAMILIES}")
        if self.name == "quantile" and not 0.0 < self.tau < 1.0:
            raise ParameterError(f"tau must lie strictly in (0,1), got {self.tau}")

    def describe(self) -> str:
        return f"quantile(tau={self.tau})" if self.name == "quantile" else self.name


def validate(ds: Dataset, family: str) -> None:
    """Check the rules of the family named ``family``: a 0/1 response for
    binomial and probit, nonnegative integers for poisson, one 0/1 treatment
    column for semiparametric.  Raises ValidationError, or ParameterError for
    a name not in FAMILIES; never mutates the dataset."""
    name, y = FamilyKind(family).name, ds.y
    if name in ("binomial", "probit"):
        bad = np.flatnonzero((y != 0.0) & (y != 1.0))
        if bad.size:
            raise ValidationError(f"{name}: response must be 0/1; first violation at row "
                                  f"{bad[0] + 1} (y={y[bad[0]]})")
    elif name == "poisson":
        bad = np.flatnonzero((y < 0) | (y != np.floor(y)))
        if bad.size:
            raise ValidationError(f"poisson: response must be a nonnegative integer; first "
                                  f"violation at row {bad[0] + 1} (y={y[bad[0]]})")
    elif name == "semiparametric":
        if ds.p != 1:
            raise ValidationError("semiparametric: x_diff must be a single treatment column")
        a = ds.x_diff[:, 0]
        bad = np.flatnonzero((a != 0.0) & (a != 1.0))
        if bad.size:
            raise ValidationError(f"semiparametric: treatment must be 0/1; first violation at "
                                  f"row {bad[0] + 1} (A={a[bad[0]]})")


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

    K(theta) = n^-1 sum_i d_i(theta) g_i h_i', d_i(theta) row i's membership
    of the plane, is the p x r derivative of the mean half-space score in the
    nuisance coefficients; ``g`` (n x p) and ``h`` (n x r) are its theta-free
    row factors.  ``j_inv`` is the inverse of the derivative of the nuisance
    estimating function; the score-covariance correction is
    ``K(theta) @ j_inv @ psi1_i``.
    """

    g: np.ndarray
    h: np.ndarray
    j_inv: np.ndarray
    psi1: np.ndarray  # n x r matrix of nuisance estimating-function rows


# --------------------------------------------------------------------------
# the per-row score factor and its Newton weight
# --------------------------------------------------------------------------

def _logistic(eta: np.ndarray, out=None) -> np.ndarray:
    """The logistic mean 1 / (1 + exp(-eta)), into ``out`` if given (it may
    be eta); exp overflows to inf below eta = -709, where the mean is 0."""
    mu = np.negative(eta, out=out)
    with np.errstate(over="ignore"):
        np.exp(mu, out=mu)
    mu += 1.0
    return np.reciprocal(mu, out=mu)


def _rational(coef, t: np.ndarray) -> np.ndarray:
    """P(t)/Q(t) by Horner's rule, for coef = (P's, Q's coefficients)."""
    p, q = coef
    num, den = p[-1] * t, q[-1] * t
    for c in p[-2:0:-1]:
        num += c
        num *= t
    for c in q[-2:0:-1]:
        den += c
        den *= t
    num += p[0]
    den += q[0]
    num /= den
    return num


def _half_erfc_low(x):
    """erfc(x)/2 for x < 0.84375; 1 - erf(x) is formed as fdlibm does."""
    return 0.5 * (0.5 - (x * _rational(_ERF_LOW, x * x) + (x - 0.5)))


def _half_erfc_mid(x):
    """erfc(x)/2 for 0.84375 <= x < 1.25."""
    return 0.5 * ((1.0 - _ERX) - _rational(_ERF_MID, x - 1.0))


def _lam_tail(coef, x):
    """2 phi / erfc(x) for x >= 1.25, with phi = exp(-x^2)/sqrt(2 pi): the
    exp(-x^2) of phi and of erfc cancel exactly, so no exp(-x^2) is formed
    and nothing underflows."""
    return (2.0 / _SQRT_2PI) * x * np.exp(0.5625 - _rational(coef, 1.0 / (x * x)))


def _mills_pair(eta: np.ndarray):
    """The Mills ratios lambda(eta) = phi(eta)/Phi(eta) and lambda(-eta).

    Both come from one erfc of x = |eta|/sqrt(2), by fdlibm's rational
    forms: lam_s = phi/Phi(-|eta|) = 2 phi/erfc(x), which on the tail branch
    (x >= 1.25) is free of cancellation, and lam_l = phi/Phi(|eta|) =
    phi / (1 - phi/lam_s).  Relative error is within (4 + eta^2/2) eps for
    |eta| <= 37, where the rounding of exp(-eta^2/2) sets it; on the left
    tail lambda(eta) ~ |eta| stays accurate for any finite eta.  Each branch
    gathers its rows by mask, with no index array, and phi is formed only
    after the branches, so it is not held while their buffers are.
    """
    e = np.ravel(eta)
    x = np.abs(e) * np.sqrt(0.5)
    lam_s = np.empty_like(x)
    # Four branches partition x; NaN goes to the third and stays NaN.  Below
    # x = 1.25 a branch gives erfc(x)/2, and lam_s = phi / (erfc(x)/2).
    near, low, far = x < 1.25, x < 0.84375, x >= 1.0 / 0.35
    for inside, branch in ((low, _half_erfc_low), (near ^ low, _half_erfc_mid),
                           (~(near | far), partial(_lam_tail, _ERFC_NEAR)),
                           (far, partial(_lam_tail, _ERFC_FAR))):
        rows = x[inside]
        if rows.size:
            lam_s[inside] = branch(rows)
    phi = np.exp(-0.5 * e * e) / _SQRT_2PI
    np.divide(phi, lam_s, out=lam_s, where=near)
    lam_l = phi / (1.0 - phi / lam_s)
    neg = e < 0
    lam_p = np.where(neg, lam_s, lam_l)
    np.copyto(lam_s, lam_l, where=neg)  # lam_s becomes lambda(-eta)
    return lam_p.reshape(np.shape(eta)), lam_s.reshape(np.shape(eta))


def _factor(family: FamilyKind, y: np.ndarray, x: np.ndarray, alpha: np.ndarray):
    """Score factor s(y, eta) at eta = x alpha of every family but the
    semiparametric one, and its Newton weight: c''(eta) = -ds/d eta of a
    canonical GLM, for probit the expected information phi^2 / (Phi Phi(-))
    = lam(eta) lam(-eta), None for quantile.  The mean, or the Mills-ratio
    pair, is evaluated once for both; the GLM means overwrite eta."""
    name = family.name
    if name == "quantile":  # the check-loss subgradient 1(y - eta <= 0) - tau
        return np.where(_quantile_residual(y, x, alpha) <= 0, 1.0, 0.0) - family.tau, None
    if name == "probit":
        lam_p, lam_m = _mills_pair(x @ alpha)
        w = lam_p * lam_m
        lam_p *= y
        lam_p -= (1.0 - y) * lam_m
        return lam_p, w
    eta = x @ alpha
    if name == "gaussian":
        return y - eta, np.ones_like(eta)
    if name == "binomial":
        mu = _logistic(eta, out=eta)
        w = np.subtract(1.0, mu)
        w *= mu
        return np.subtract(y, mu, out=mu), w
    # poisson: exp overflows to inf, and the column's score goes non-finite
    with np.errstate(over="ignore"):
        mu = np.exp(eta, out=eta)
    return y - mu, mu


def _quantile_residual(y: np.ndarray, x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """y - x alpha, with a residual within _ZERO_ULPS ulps of its rounding
    scale |y| + |x| |alpha| counted as zero.  An exact fit leaves its basis
    rows at a few ulps of that scale, with a sign that depends on the shape
    of the product forming x alpha; counted as zero, they take
    1(y - eta <= 0) = 1 whatever product formed it.  The scale is not
    max(|y|, |eta|): a row with y near 0 is rounded on the size of the terms
    x_ik alpha_k that cancel in eta."""
    resid = y - x @ alpha
    resid[np.abs(resid) <= _ZERO_ULPS * _EPS * (np.abs(y) + np.abs(x) @ np.abs(alpha))] = 0.0
    return resid


# --------------------------------------------------------------------------
# null fits: every column of an n x B response in lock step
# --------------------------------------------------------------------------

def _solve_spd(xx: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r x m solutions of (x' W_b x) a_b = b_b, with xx the n x r^2 row
    products x_ia x_ic of x, w the n x m weights and b the r x m right-hand
    sides: one GEMM for the m Grams, one batched solve."""
    r = b.shape[0]
    gram = (xx.T @ w).T.reshape(-1, r, r)
    try:
        return np.linalg.solve(gram, b.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("singular information matrix") from exc


def _newton(family: FamilyKind, y, x, tol, max_iter):
    """Newton steps on X's = 0 from alpha = 0: IRLS for binomial and poisson,
    Fisher scoring for probit.  A column stops at its first evaluation with
    max|X's|/n <= tol, or with a non-finite score, the evaluations made being
    its iterations; a column still live after max_iter steps is evaluated
    once more and stops there.  Returns alpha, iterations, and per column
    the gradient norm max|X's|/n and score factor s of the evaluation that
    stopped it.  When every column stops at the same evaluation, its s is
    returned as computed; otherwise the factors are gathered into one n x B
    array, made at the first stop, and the live responses are compacted
    (C-ordered, by ``np.compress``) only when a column stops."""
    n, r = x.shape
    xx = (x[:, :, None] * x[:, None, :]).reshape(n, r * r)
    alpha, s_out = np.zeros((r, y.shape[1])), None
    iterations, gnorm = np.full(y.shape[1], max_iter), np.empty(y.shape[1])
    live = np.arange(y.shape[1])
    for it in range(1, max_iter + 2):
        s, w = _factor(family, y, x, alpha[:, live])
        with np.errstate(invalid="ignore"):  # inf - inf in a non-finite column
            score = x.T @ s
        norm = np.max(np.abs(score), axis=0) / n
        stop = (norm <= tol) | ~np.isfinite(norm) | (it > max_iter)
        if stop.any():
            done, keep = live[stop], ~stop
            iterations[done], gnorm[done] = min(it, max_iter), norm[stop]
            if s_out is None:
                if not keep.any():
                    return alpha, iterations, gnorm, s
                s_out = np.empty((n, iterations.size))
            s_out[:, done] = s[:, stop]
            live = live[keep]
            if not live.size:
                break
            y, w, score = (np.compress(keep, a, axis=1) for a in (y, w, score))
        alpha[:, live] += _solve_spd(xx, w, score)
        del s, w  # before the next evaluation forms its own
    return alpha, iterations, gnorm, s_out


def _fit(family: FamilyKind, y, x, tol, max_iter, design="baseline"):
    """Solve X's = 0 on the full-rank design x for every column of the n x B
    response y in lock step; a stopped column is never touched again.
    Returns alpha (r x B), per column converged, iterations and the gradient
    norm max|X's|/n, the n x B score factor s at alpha, evaluated once, and
    per column degenerate.  A Newton column is converged when the evaluation
    that stopped it met the tolerance.  For quantile, X's = 0 is the minimum
    of the check loss: converged means certified optimal
    (``quantile.fit_quantile``), iterations counts simplex pivots, the
    gradient norm is max|X's|, and degenerate marks a fit that met a
    degenerate vertex; it is False for every other family."""
    n, r = x.shape
    if np.linalg.matrix_rank(x) < r:
        raise SingularDesignError(f"{design} design is rank-deficient")
    if family.name == "gaussian":
        alpha = np.linalg.lstsq(x, y, rcond=None)[0]
        iterations, s = np.ones(y.shape[1], int), y - x @ alpha
        gnorm = np.max(np.abs(x.T @ s), axis=0) / n
    elif family.name == "quantile":
        from .quantile import fit_quantile  # compiled only when a quantile fit runs
        alpha, converged, iterations, degenerate = fit_quantile(y, x, family.tau, max_iter)
        s = _factor(family, y, x, alpha)[0]
        return alpha, converged, iterations, np.max(np.abs(x.T @ s), axis=0), s, degenerate
    else:
        alpha, iterations, gnorm, s = _newton(family, y, x, tol, max_iter)
    return (alpha, (gnorm <= tol) | (family.name == "gaussian"), iterations, gnorm, s,
            np.zeros(y.shape[1], bool))


def _fit_family(family: FamilyKind) -> FamilyKind:
    """The family fitted on x_base: the semiparametric baseline Y ~ x_base
    is a least-squares fit, its score factor the residual Y - gamma."""
    return FamilyKind("gaussian") if family.name == "semiparametric" else family


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------

def fit_null(ds: Dataset, family: FamilyKind) -> NullFit:
    """Solve the nuisance estimating equation Psi_1n(alpha) = 0 for beta = 0,
    stopping at ``DEFAULT_TOL`` or ``DEFAULT_MAX_ITER``, as every refit does."""
    validate(ds, family.name)
    tol, max_iter = DEFAULT_TOL, DEFAULT_MAX_ITER
    if family.name != "semiparametric":
        fits = [_fit(family, ds.y[:, None], ds.x_base, tol, max_iter)]
    else:  # working logistic propensity A ~ Z and working linear baseline Y ~ x_base
        fits = [_fit(FamilyKind("binomial"), ds.x_diff, ds.z_group, tol, max_iter, "grouping"),
                _fit(FamilyKind("gaussian"), ds.y[:, None], ds.x_base, tol, max_iter)]
    alpha, converged, iterations, gnorm = (np.concatenate(v)
                                           for v in zip(*(f[:4] for f in fits)))
    return NullFit(alpha[:, 0], bool(converged.all()), int(iterations.max()),
                   float(gnorm.max()))


def refit_null(ds: Dataset, family: FamilyKind, fit: NullFit, y: np.ndarray):
    """Refit the null model on every column of the n x B response y: the
    n x B score factor at each column's refit, the s of ``score_factor``,
    and converged, iterations and degenerate (a quantile fit that met a
    degenerate vertex) per column.  The semiparametric propensity
    A ~ Z does not involve Y: ``fit``'s is reused, its iterations counted."""
    _, converged, iterations, _, s, degenerate = _fit(_fit_family(family), y, ds.x_base,
                                                      DEFAULT_TOL, DEFAULT_MAX_ITER)
    if family.name == "semiparametric":
        iterations = np.maximum(iterations, fit.iterations)
    return s, converged, iterations, degenerate


def score_factor(ds: Dataset, family: FamilyKind, fit: NullFit):
    """The theta-free score rows as psi0_i = s_i d_i: the n-vector s of
    factors at alpha_hat and the n x p rows d = x_diff.  For the
    semiparametric family s is the residual Y - gamma_hat(x_base) and d the
    n x 1 propensity residual A - pi_hat(Z)."""
    alpha = fit.alpha_hat[-ds.r:, None]  # the x_base coefficients come last
    s = _factor(_fit_family(family), ds.y[:, None], ds.x_base, alpha)[0][:, 0]
    if family.name == "semiparametric":
        return s, ds.x_diff - _logistic(ds.z_group @ fit.alpha_hat[: ds.q, None])
    return s, ds.x_diff


def score_psi0(ds: Dataset, family: FamilyKind, fit: NullFit) -> np.ndarray:
    """The n x p theta-free score rows psi0(V_i, alpha_hat) = s_i d_i."""
    s, d = score_factor(ds, family, fit)
    return s[:, None] * d


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
        pi_hat = _logistic(z @ fit.alpha_hat[: ds.q])
        resid_a, resid_y = xd[:, 0] - pi_hat, ds.y - x @ fit.alpha_hat[ds.q:]
        psi1 = np.hstack([resid_a[:, None] * z, resid_y[:, None] * x])
        w1 = pi_hat * (1.0 - pi_hat)
        j_base = np.zeros((ds.q + ds.r, ds.q + ds.r))
        j_base[: ds.q, : ds.q] = -(z * w1[:, None]).T @ z / n
        j_base[ds.q:, ds.q:] = -(x.T @ x) / n
        g = np.ones((n, 1))
        h = -np.hstack([(w1 * resid_y)[:, None] * z, resid_a[:, None] * x])
    else:
        eta = x @ fit.alpha_hat
        s, w = _factor(family, ds.y, x, fit.alpha_hat)
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
    return SstDerivatives(g, h, j_inv, psi1)


def bootstrap_sampler(ds: Dataset, family: FamilyKind, fit: NullFit):
    """Redrawn responses for calibration; the covariates stay those of ``ds``.

    GLM/probit draw from the fitted null distribution; quantile uses the
    two-point wild multiplier P(nu = 2(1-tau)) = 1 - tau, P(nu = -2 tau) = tau
    on absolute residuals (0 at the fit's basis rows, ``_quantile_residual``,
    so those are redrawn at eta); the semiparametric model uses a Gaussian wild
    multiplier on signed residuals around gamma_hat(x_base).  Each family's
    raw draw and its map to responses are chosen here, once, with the fitted
    eta, mean, dispersion or residuals they use; the returned ``draw(rngs)``
    gives the n x m block whose column b is drawn from ``rngs[b]`` alone.
    """
    name, tau = family.name, family.tau
    eta = ds.x_base @ fit.alpha_hat[-ds.r:]  # the x_base coefficients come last
    loc = eta[:, None]
    if name == "poisson":
        lam = np.exp(eta)
        raw, law = (lambda rng: rng.poisson(lam)), (lambda v: v)
    elif name == "binomial":
        mu = _logistic(eta)[:, None]
        raw, law = (lambda rng: rng.random(ds.n)), (lambda v: (v < mu).astype(float))
    elif name == "quantile":
        spread = np.abs(_quantile_residual(ds.y, ds.x_base, fit.alpha_hat))[:, None]
        raw, law = (lambda rng: rng.random(ds.n)), (
            lambda v: loc + np.where(v < 1.0 - tau, 2.0 * (1.0 - tau), -2.0 * tau) * spread)
    elif name == "probit":  # Y* = 1(nu <= eta), nu ~ N(0,1)
        raw, law = (lambda rng: rng.standard_normal(ds.n)), (lambda v: (v <= loc).astype(float))
    else:  # gaussian: MLE dispersion; semiparametric: signed residuals
        scale = (np.sqrt(np.mean((ds.y - eta) ** 2)) if name == "gaussian"
                 else (ds.y - eta)[:, None])
        raw, law = (lambda rng: rng.standard_normal(ds.n)), (lambda v: loc + v * scale)

    def draw(rngs) -> np.ndarray:
        v = np.empty((ds.n, len(rngs)))
        for b, rng in enumerate(rngs):
            v[:, b] = raw(np.random.default_rng(rng))
        return law(v)

    return draw


def bootstrap_sample(ds: Dataset, family: FamilyKind, fit: NullFit,
                     rng) -> np.ndarray:
    """One redrawn response: the one-column block of ``bootstrap_sampler``."""
    return bootstrap_sampler(ds, family, fit)([rng])[:, 0]
