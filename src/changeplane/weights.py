"""Pairwise prior weights for the weighted-average score test.

The core quantity is, for each pair of observations (i, j), the probability
that both grouping rows fall on the same side of a random hyperplane
{z : z' theta >= 0} with theta drawn from a prior density w(theta):

    omega_ij = integral 1(Z_i' theta >= 0) 1(Z_j' theta >= 0) w(theta) d theta

Under a standard Gaussian prior this is a bivariate-normal orthant
probability with closed form 1/4 + arctan(rho / sqrt(1 - rho^2)) / (2 pi),
where rho is the cosine between the two grouping rows.  A general Gaussian
prior is handled by Monte-Carlo over a single shared standard-normal stream;
scalar-threshold priors (beta, univariate Gaussian) reduce to CDF
evaluations at min(Z_i, Z_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, LinAlgError
from scipy.special import betainc, ndtr

from .errors import DegenerateVectorError, ParameterError

__all__ = [
    "WeightSpec", "standard_gaussian", "gaussian", "beta_prior",
    "univariate_gaussian", "varrho", "omega_closed_form", "omega_gaussian_mc",
    "omega_beta", "omega_univariate_gaussian", "weight_matrix",
]

# Endpoint guard for arctan(rho/sqrt(1-rho^2)): below this, return the limits.
_ENDPOINT_EPS = 1e-12


@dataclass(frozen=True)
class WeightSpec:
    """Prior selection for omega_ij.

    variant is one of:
      "std_gaussian"   closed form, mu = 0, Sigma = I (the default elsewhere)
      "gaussian"       general (mu, sigma) via Monte-Carlo with mc_draws/seed
      "beta"           scalar threshold prior Beta(lambda1, lambda2); q must be 1
      "uni_gaussian"   scalar threshold prior N(mu, sigma2); q must be 1
    """

    variant: str
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None
    mc_draws: int = 10_000
    seed: int = 0
    lambda1: float = 1.0
    lambda2: float = 1.0
    scalar_mu: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self):
        if self.variant not in ("std_gaussian", "gaussian", "beta", "uni_gaussian"):
            raise ParameterError(f"unknown weight variant {self.variant!r}")
        if self.variant == "gaussian":
            if self.mc_draws < 1:
                raise ParameterError("mc_draws must be >= 1")
            if self.mu is None or self.sigma is None:
                raise ParameterError("gaussian variant requires mu and sigma")
            try:
                cholesky(np.asarray(self.sigma), lower=True)
            except LinAlgError as exc:
                raise ParameterError("sigma must be symmetric positive definite") from exc
        if self.variant == "beta" and (self.lambda1 <= 0 or self.lambda2 <= 0):
            raise ParameterError("beta shape parameters must be positive")
        if self.variant == "uni_gaussian" and self.sigma2 <= 0:
            raise ParameterError("sigma2 must be positive")

    def describe(self) -> str:
        if self.variant == "gaussian":
            return f"gaussian(mc_draws={self.mc_draws},seed={self.seed})"
        if self.variant == "beta":
            return f"beta({self.lambda1},{self.lambda2})"
        if self.variant == "uni_gaussian":
            return f"uni_gaussian({self.scalar_mu},{self.sigma2})"
        return "std_gaussian"


def standard_gaussian() -> WeightSpec:
    return WeightSpec("std_gaussian")


def gaussian(mu, sigma, mc_draws: int = 10_000, seed: int = 0) -> WeightSpec:
    return WeightSpec("gaussian", mu=np.asarray(mu, float),
                      sigma=np.asarray(sigma, float), mc_draws=mc_draws, seed=seed)


def beta_prior(lambda1: float, lambda2: float) -> WeightSpec:
    return WeightSpec("beta", lambda1=lambda1, lambda2=lambda2)


def univariate_gaussian(mu: float, sigma2: float) -> WeightSpec:
    return WeightSpec("uni_gaussian", scalar_mu=mu, sigma2=sigma2)


def varrho(z_i, z_j, sigma) -> float:
    """Sigma-weighted cosine between two grouping rows, clamped to [-1, 1]."""
    z_i = np.asarray(z_i, float)
    z_j = np.asarray(z_j, float)
    sigma = np.asarray(sigma, float)
    si = z_i @ sigma @ z_i
    sj = z_j @ sigma @ z_j
    if si <= 0 or sj <= 0:
        raise DegenerateVectorError("grouping row has zero Sigma-norm")
    rho = (z_i @ sigma @ z_j) / np.sqrt(si * sj)
    return float(np.clip(rho, -1.0, 1.0))


def omega_closed_form(rho) -> np.ndarray | float:
    """Orthant probability 1/4 + arctan(rho/sqrt(1-rho^2))/(2 pi).

    At rho = +-1 the analytic limits 1/2 and 0 are returned.
    """
    rho = np.clip(np.asarray(rho, float), -1.0, 1.0)
    one_minus = 1.0 - rho * rho
    interior = one_minus > _ENDPOINT_EPS
    out = np.where(rho > 0, 0.5, 0.0)
    safe = np.where(interior, one_minus, 1.0)
    val = 0.25 + np.arctan(rho / np.sqrt(safe)) / (2.0 * np.pi)
    out = np.where(interior, val, out)
    return out if out.ndim else float(out)


def omega_gaussian_mc(z_i, z_j, mu, sigma, n_draws: int | None = None,
                      rng=None, draws: np.ndarray | None = None) -> float:
    """Monte-Carlo omega_ij for a general Gaussian prior N(mu, sigma).

    Averages Phi((a_i - rho z) / sqrt(1 - rho^2)) over standard-normal draws z
    restricted to z <= a_j, where a_k = Z_k' mu / ||Z_k||_Sigma.  A shared
    ``draws`` array may be passed to reuse one stream across pairs.
    """
    mu = np.asarray(mu, float)
    sigma = np.asarray(sigma, float)
    z_i = np.asarray(z_i, float)
    z_j = np.asarray(z_j, float)
    if draws is None:
        if n_draws is None or n_draws < 1:
            raise ParameterError("n_draws must be >= 1")
        rng = np.random.default_rng(rng)
        draws = rng.standard_normal(n_draws)
    rho = varrho(z_i, z_j, sigma)
    a_i = (z_i @ mu) / np.sqrt(z_i @ sigma @ z_i)
    a_j = (z_j @ mu) / np.sqrt(z_j @ sigma @ z_j)
    inside = draws <= a_j
    one_minus = 1.0 - rho * rho
    if one_minus <= _ENDPOINT_EPS:
        # Degenerate correlation: the conditional CDF is a step function.
        if rho > 0:
            vals = (draws <= a_i).astype(float)
        else:
            vals = (-draws <= a_i).astype(float)
    else:
        vals = ndtr((a_i - rho * draws) / np.sqrt(one_minus))
    return float(np.mean(vals * inside))


def omega_beta(z_i: float, z_j: float, lambda1: float, lambda2: float) -> float:
    """Beta(lambda1, lambda2) CDF at min(z_i, z_j), clamped to [0, 1] support."""
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError("beta shape parameters must be positive")
    m = min(float(z_i), float(z_j))
    if m <= 0.0:
        return 0.0
    if m >= 1.0:
        return 1.0
    return float(betainc(lambda1, lambda2, m))


def omega_univariate_gaussian(z_i: float, z_j: float, mu: float, sigma2: float) -> float:
    """N(mu, sigma2) CDF at min(z_i, z_j)."""
    if sigma2 <= 0:
        raise ParameterError("sigma2 must be positive")
    m = min(float(z_i), float(z_j))
    return float(ndtr((m - mu) / np.sqrt(sigma2)))


def _omega_std_gaussian(z: np.ndarray) -> np.ndarray:
    """``omega_closed_form`` of the pairwise cosines, in two n x n buffers.

    Same operations, in the same order, as ``omega_closed_form`` applied to
    the clipped cosine matrix, so the result is bit-identical to it; the
    chain of whole-matrix temporaries is replaced by in-place ufuncs.
    """
    rho = z @ np.eye(z.shape[1]) @ z.T
    norms = np.sqrt(np.diag(rho))
    if np.any(norms <= 0):
        raise DegenerateVectorError("grouping row has zero Sigma-norm")
    out = np.multiply.outer(norms, norms)
    np.divide(rho, out, out=rho)
    np.clip(rho, -1.0, 1.0, out=rho)
    np.multiply(rho, rho, out=out)
    np.subtract(1.0, out, out=out)
    # Where 1 - rho^2 is not above the guard, the limits at rho = +-1 (1/2
    # and 0) replace the arctan form.
    edge = out > _ENDPOINT_EPS
    np.invert(edge, out=edge)
    np.putmask(out, edge, 1.0)
    np.sqrt(out, out=out)
    np.divide(rho, out, out=out)
    np.arctan(out, out=out)
    np.divide(out, 2.0 * np.pi, out=out)
    np.add(0.25, out, out=out)
    np.greater(rho, 0, out=rho)
    rho *= 0.5
    np.copyto(out, rho, where=edge)
    return out


def weight_matrix(ds_or_z, spec: WeightSpec | None = None) -> np.ndarray:
    """n x n symmetric matrix of omega_ij; diagonal filled but unused upstream.

    Accepts either a Dataset or the raw grouping matrix Z.  For the MC
    variant, one shared draw stream is materialized up front so the result is
    deterministic given the WeightSpec seed, regardless of evaluation order.
    """
    if spec is None:
        spec = standard_gaussian()
    z = getattr(ds_or_z, "z_group", ds_or_z)
    z = np.asarray(z, float)
    if z.ndim == 1:
        z = z[:, None]
    n, q = z.shape

    if spec.variant == "std_gaussian":
        return _omega_std_gaussian(z)

    if spec.variant == "gaussian":
        mu = np.asarray(spec.mu, float)
        sigma = np.asarray(spec.sigma, float)
        if mu.shape != (q,) or sigma.shape != (q, q):
            raise ParameterError(f"mu/sigma shapes must match q={q}")
        rng = np.random.default_rng(spec.seed)
        draws = rng.standard_normal(spec.mc_draws)
        omega = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                omega[i, j] = omega[j, i] = omega_gaussian_mc(
                    z[i], z[j], mu, sigma, draws=draws)
        return omega

    # Scalar-threshold priors need a single grouping variable.
    if q != 1:
        raise ParameterError(
            f"{spec.variant} weight requires exactly one grouping column, got q={q}")
    zv = z[:, 0]
    m = np.minimum.outer(zv, zv)
    if spec.variant == "beta":
        return np.clip(betainc(spec.lambda1, spec.lambda2, np.clip(m, 0.0, 1.0)),
                       0.0, 1.0)
    return ndtr((m - spec.scalar_mu) / np.sqrt(spec.sigma2))
