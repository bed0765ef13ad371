"""Pairwise prior weights for the weighted-average score test.

The core quantity is, for each pair of observations (i, j), the probability
that both grouping rows fall on the same side of a random hyperplane
{z : z' theta >= 0} with theta drawn from a prior density w(theta):

    omega_ij = integral 1(Z_i' theta >= 0) 1(Z_j' theta >= 0) w(theta) d theta

Under a Gaussian prior N(mu, Sigma) this is the bivariate-normal orthant
probability Phi_2(a_i, a_j; rho_ij), where rho_ij is the Sigma-cosine between
the two grouping rows and a_k = Z_k' mu / ||Z_k||_Sigma.  At mu = 0 it has
Sheppard's (1899) closed form 1/4 + arcsin(rho) / (2 pi), half the degree-0
arc-cosine kernel; otherwise Owen's (1956) T-function form gives it exactly.
Scalar-threshold priors (beta, univariate Gaussian) reduce to CDF
evaluations at min(Z_i, Z_j).

Every prior gives omega through one generator, ``omega_tiles``, a square
tile of the upper triangle at a time; ``weight_matrix`` assembles the n x n
matrix from those tiles.

scipy.special is imported inside the paths that need it (the scalar priors
and mu != 0): its import costs more than the rest of the package, and the
default mu = 0 prior uses numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, ParameterError

__all__ = [
    "VARIANTS", "WeightSpec", "standard_gaussian", "gaussian", "beta_prior",
    "univariate_gaussian", "omega_tiles", "upper_tiles", "weight_matrix",
]

# Endpoint guard of the Owen's T path, which divides by sqrt(1 - rho^2):
# where 1 - rho^2 is not above it, it takes the limits at rho = +-1.  The
# arcsin closed form needs no guard.
_ENDPOINT_EPS = 1e-12

# Side of the square omega tiles: every consumer of omega takes it one
# _TILE x _TILE tile at a time, so its temporaries stay O(_TILE^2).
_TILE = 256

VARIANTS = ("std_gaussian", "gaussian", "beta", "uni_gaussian")  # of WeightSpec


@dataclass(frozen=True)
class WeightSpec:
    """Prior selection for omega_ij.

    variant is one of:
      "std_gaussian"   closed form, mu = 0, Sigma = I (the default elsewhere)
      "gaussian"       general (mu, sigma), exact via Owen's T function
      "beta"           scalar threshold prior Beta(lambda1, lambda2); q must be 1
      "uni_gaussian"   scalar threshold prior N(mu, sigma2); q must be 1
    """

    variant: str
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None
    lambda1: float = 1.0
    lambda2: float = 1.0
    scalar_mu: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown weight variant {self.variant!r}")
        if self.variant == "gaussian":
            mu, sigma = np.asarray(self.mu, float), np.asarray(self.sigma, float)
            if mu.ndim != 1 or not np.all(np.isfinite(mu)):
                raise ParameterError("mu must be a finite vector")
            # cholesky reads one triangle only and does not reject inf or
            # NaN, so finiteness and symmetry are checked apart.
            if (sigma.shape != (mu.size, mu.size) or not np.all(np.isfinite(sigma))
                    or not np.array_equal(sigma, sigma.T)):
                raise ParameterError("sigma must be finite, symmetric and match mu")
            try:
                np.linalg.cholesky(sigma)
            except np.linalg.LinAlgError as exc:
                raise ParameterError("sigma must be positive definite") from exc
        # 0 < x < inf is False for NaN too, which passes a plain x <= 0 test.
        if self.variant == "beta" and not (0 < self.lambda1 < np.inf
                                           and 0 < self.lambda2 < np.inf):
            raise ParameterError("beta shape parameters must be finite and positive")
        if self.variant == "uni_gaussian" and not (np.isfinite(self.scalar_mu)
                                                   and 0 < self.sigma2 < np.inf):
            raise ParameterError("mu must be finite and sigma2 finite and positive")

    def describe(self) -> str:
        if self.variant == "gaussian":
            return f"gaussian({np.asarray(self.mu).tolist()},{np.asarray(self.sigma).tolist()})"
        if self.variant == "beta":
            return f"beta({self.lambda1},{self.lambda2})"
        if self.variant == "uni_gaussian":
            return f"uni_gaussian({self.scalar_mu},{self.sigma2})"
        return "std_gaussian"


def standard_gaussian() -> WeightSpec:
    return WeightSpec("std_gaussian")


def gaussian(mu, sigma) -> WeightSpec:
    return WeightSpec("gaussian", mu=np.asarray(mu, float), sigma=np.asarray(sigma, float))


def beta_prior(lambda1: float, lambda2: float) -> WeightSpec:
    return WeightSpec("beta", lambda1=lambda1, lambda2=lambda2)


def univariate_gaussian(mu: float, sigma2: float) -> WeightSpec:
    return WeightSpec("uni_gaussian", scalar_mu=mu, sigma2=sigma2)


def _arcsin_map(rho: np.ndarray) -> np.ndarray:
    """1/4 + arcsin(rho)/(2 pi), in place on an array of cosines in [-1, 1]."""
    np.arcsin(rho, out=rho)
    rho *= 1.0 / (2.0 * np.pi)
    rho += 0.25
    return rho


def _orthant(h, k, rho):
    """Phi_2(h, k; rho) elementwise, by Owen's (1956) T-function form.

    Phi_2 = [Phi(h) + Phi(k)]/2 - T(h, a_h) - T(k, a_k) - beta, with
    a_h = (k - rho h) / (h sqrt(1 - rho^2)) and beta = 1/2 when exactly one of
    h, k is negative.  As h -> 0, T(h, a_h) tends to sign(k)/4.  At h = k = 0
    the arcsin closed form is used, and where 1 - rho^2 is not above the
    guard the limits at rho = +-1.  rho must already lie in [-1, 1].
    """
    from scipy.special import ndtr, owens_t
    one_minus = 1.0 - rho * rho
    interior = one_minus > _ENDPOINT_EPS
    s = np.sqrt(np.where(interior, one_minus, 1.0))
    ph, pk = ndtr(h), ndtr(k)
    # Rows T(h, a_h) and T(k, a_k), added before being subtracted so that
    # swapping h and k gives the same bits.
    hh, kk = np.stack([h, k]), np.stack([k, h])
    zero = hh == 0
    t = np.where(zero, np.sign(kk) / 4.0,
                 owens_t(hh, (kk - rho * hh) / (np.where(zero, 1.0, hh) * s))).sum(axis=0)
    out = 0.5 * (ph + pk) - t - 0.5 * ((h < 0) != (k < 0))
    out = np.where((h == 0) & (k == 0), _arcsin_map(rho.copy()), out)
    edge = np.where(rho > 0, ndtr(np.minimum(h, k)), np.maximum(0.0, ph + pk - 1.0))
    return np.where(interior, out, edge)


def _grouping(ds_or_z) -> np.ndarray:
    """The n x q grouping matrix of a Dataset, or Z itself as a 2-D array."""
    z = np.asarray(getattr(ds_or_z, "z_group", ds_or_z), float)
    return z[:, None] if z.ndim == 1 else z


def upper_tiles(n: int):
    """(rows, cols) slice pairs of side ``_TILE`` covering the upper triangle
    of an n x n matrix, diagonal tiles (rows == cols) included."""
    for s in range(0, n, _TILE):
        for t in range(s, n, _TILE):
            yield slice(s, min(s + _TILE, n)), slice(t, min(t + _TILE, n))


def _gaussian_block(z: np.ndarray, mu: np.ndarray, sigma: np.ndarray):
    """omega(rows, cols) under the prior N(mu, sigma), one tile at a time.

    With w = z L, Sigma = L L', the rows of w are divided by their norms
    once; a tile's Sigma-cosines are then the Gram wn[rows] wn[cols]' of the
    unit rows.  numpy forms a diagonal tile's by syrk, so that tile is
    exactly symmetric.  The cosines are clipped to [-1, 1] once and mapped
    in place by the arcsin closed form at mu = 0, by ``_orthant`` otherwise.
    A Gram of two equal unit rows is 1 - O(eps), which arcsin turns into an
    error of O(sqrt(eps)): at mu = 0, when rows repeat, each row's id among
    the distinct rows (one ``np.unique`` of z's rows as bytes, -0.0 made
    0.0) sets the cosine of every tied pair to exactly 1, so omega is
    exactly 1/2 there.  ``_orthant``'s endpoint guard is already exact.
    """
    w = z @ np.linalg.cholesky(sigma)
    norms = np.sqrt(np.einsum("ij,ij->i", w, w))
    if np.any(norms <= 0):
        row = int(np.argmax(norms <= 0)) + 1
        raise DegenerateVectorError(f"grouping row {row} has zero Sigma-norm")
    wn = w / norms[:, None]
    a = (z @ mu) / norms if np.any(mu) else None
    ids = None
    if a is None:
        zc = np.ascontiguousarray(z + 0.0)
        ids = np.unique(zc.view(np.dtype((np.void, zc.itemsize * zc.shape[1]))).ravel(),
                        return_inverse=True)[1]
        if ids.max() == len(z) - 1:  # every row distinct: no tied pair
            ids = None

    def block(rows, cols):
        rho = wn[rows] @ wn[cols].T
        np.clip(rho, -1.0, 1.0, out=rho)
        if a is not None:
            return _orthant(*np.broadcast_arrays(a[rows, None], a[None, cols]), rho)
        if ids is not None:
            rho[ids[rows, None] == ids[None, cols]] = 1.0
        return _arcsin_map(rho)

    return block


def omega_tiles(ds_or_z, spec: WeightSpec | None = None):
    """omega over the upper triangle, one tile at a time.

    Returns an iterator of (rows, cols, tile) in ``upper_tiles`` order, with
    tile = omega[rows, cols]; each pair is evaluated once.  Accepts either a
    Dataset or the raw grouping matrix Z; the prior is checked against Z
    here, before the first tile.
    """
    if spec is None:
        spec = standard_gaussian()
    z = _grouping(ds_or_z)
    q = z.shape[1]

    if spec.variant == "std_gaussian":
        block = _gaussian_block(z, np.zeros(q), np.eye(q))
    elif spec.variant == "gaussian":
        if np.shape(spec.mu) != (q,):
            raise ParameterError(f"mu/sigma shapes must match q={q}")
        block = _gaussian_block(z, np.asarray(spec.mu, float), np.asarray(spec.sigma, float))
    else:
        # Scalar-threshold priors need a single grouping variable.
        if q != 1:
            raise ParameterError(
                f"{spec.variant} weight requires exactly one grouping column, got q={q}")
        # The prior CDF F is nondecreasing: F(min(z_i, z_j)) = min(F(z_i), F(z_j)).
        from scipy.special import betainc, ndtr
        zv = z[:, 0]
        if spec.variant == "beta":
            cdf = betainc(spec.lambda1, spec.lambda2, np.clip(zv, 0.0, 1.0))
        else:
            cdf = ndtr((zv - spec.scalar_mu) / np.sqrt(spec.sigma2))

        def block(rows, cols):
            return np.minimum.outer(cdf[rows], cdf[cols])

    return ((rows, cols, block(rows, cols)) for rows, cols in upper_tiles(len(z)))


def weight_matrix(ds_or_z, spec: WeightSpec | None = None) -> np.ndarray:
    """n x n exactly symmetric matrix of omega_ij; diagonal filled but unused upstream.

    Accepts either a Dataset or the raw grouping matrix Z.  It is assembled
    from the tiles of ``omega_tiles``, each written to both triangles; the
    WAST kernel consumes the same tiles without ever storing this matrix.
    """
    z = _grouping(ds_or_z)
    out = np.empty((len(z), len(z)))
    for rows, cols, tile in omega_tiles(z, spec):
        out[rows, cols] = tile
        out[cols, rows] = tile.T
    return out
