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

A prior is a ``WeightSpec(variant, params)``, params holding exactly what
the variant reads, as its factory (``gaussian(mu, sigma)`` and so on) names.

Every prior gives omega through one private source, ``_omega_source``, as
(shift, scale, tiles) with omega = shift + scale * tile, a square tile of
the upper triangle at a time (``upper_tiles``: side ``_TILE`` off the
diagonal, half that on it).  Sheppard's form gives (1/4, 1/(2 pi),
arcsin tiles), so the WAST kernel reads arcsin(rho) alone and applies the
two constants once per factor column; every other prior gives (0, 1, omega
tiles).  ``weight_matrix`` composes the parts, times scale then plus
shift, and assembles the n x n matrix from the tiles.

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
    "univariate_gaussian", "upper_tiles", "weight_matrix",
]

# Endpoint guard of the Owen's T path, which divides by sqrt(1 - rho^2):
# where 1 - rho^2 is not above it, it takes the limits at rho = +-1.  The
# arcsin closed form needs no guard.
_ENDPOINT_EPS = 1e-12

# Side of the square off-diagonal omega tiles (``upper_tiles`` halves it on
# the diagonal): every consumer of omega takes it one tile at a time, so its
# temporaries stay O(_TILE^2).
_TILE = 256

# The parameters each WeightSpec variant reads, in the order of its params.
_PARAMS = {"std_gaussian": (), "gaussian": ("mu", "sigma"),
           "beta": ("lambda1", "lambda2"), "uni_gaussian": ("mu", "sigma2")}
VARIANTS = tuple(_PARAMS)  # of WeightSpec


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Prior selection for omega_ij: variant, and params as it reads them.

      "std_gaussian", ()            closed form, mu = 0, Sigma = I (the default)
      "gaussian", (mu, sigma)       general N(mu, sigma), exact via Owen's T function
      "beta", (lambda1, lambda2)    scalar threshold prior Beta(lambda1, lambda2); q = 1
      "uni_gaussian", (mu, sigma2)  scalar threshold prior N(mu, sigma2); q = 1

    A spec is a value: two compare equal, and hash alike, when their
    variants match and their params hold the same numbers in the same shapes.
    """

    variant: str
    params: tuple = ()

    def __post_init__(self):
        names = _PARAMS.get(self.variant)
        if names is None:
            raise ParameterError(f"unknown weight variant {self.variant!r}")
        if len(self.params) != len(names):
            raise ParameterError(f"{self.variant} prior takes params ({', '.join(names)}), "
                                 f"got {len(self.params)}")
        if self.variant == "gaussian":
            mu, sigma = (np.asarray(v, float) for v in self.params)
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
            object.__setattr__(self, "params", (mu, sigma))
        # 0 < x < inf is False for NaN too, which passes a plain x <= 0 test.
        if self.variant == "beta" and not all(0 < v < np.inf for v in self.params):
            raise ParameterError("beta shape parameters must be finite and positive")
        if self.variant == "uni_gaussian" and not (np.isfinite(self.params[0])
                                                   and 0 < self.params[1] < np.inf):
            raise ParameterError("mu must be finite and sigma2 finite and positive")

    def _key(self):
        return self.variant, tuple((np.shape(v), tuple(np.asarray(v, float).ravel().tolist()))
                                   for v in self.params)

    def __eq__(self, other):
        if not isinstance(other, WeightSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def describe(self) -> str:
        return self.variant + (f"({','.join(str(np.asarray(v).tolist()) for v in self.params)})"
                               if self.params else "")


def standard_gaussian() -> WeightSpec:
    return WeightSpec("std_gaussian")


def gaussian(mu, sigma) -> WeightSpec:
    return WeightSpec("gaussian", (mu, sigma))


def beta_prior(lambda1: float, lambda2: float) -> WeightSpec:
    return WeightSpec("beta", (lambda1, lambda2))


def univariate_gaussian(mu: float, sigma2: float) -> WeightSpec:
    return WeightSpec("uni_gaussian", (mu, sigma2))


# Sheppard's omega = 1/4 + arcsin(rho)/(2 pi), as the (shift, scale) of
# its arcsin tiles.
_SHEPPARD = (0.25, 1.0 / (2.0 * np.pi))


def _arcsin_map(rho: np.ndarray) -> np.ndarray:
    """1/4 + arcsin(rho)/(2 pi), in place on an array of cosines in [-1, 1]."""
    np.arcsin(rho, out=rho)
    rho *= _SHEPPARD[1]
    rho += _SHEPPARD[0]
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
    """(rows, cols) slice pairs covering the upper triangle of an n x n
    matrix once, diagonal tiles (rows == cols) included, row strip by row
    strip.

    Off the diagonal the tiles have side ``_TILE``.  Each diagonal
    ``_TILE`` block is covered by the upper tiles of side
    h = max(1, _TILE // 2) within it, cut at its own end, so a consumer
    that evaluates whole diagonal tiles evaluates at most n h / 2 entries
    below the diagonal.
    """
    h = max(1, _TILE // 2)
    for s in range(0, n, _TILE):
        end = min(s + _TILE, n)
        for a in range(s, end, h):
            for b in range(a, end, h):
                yield slice(a, min(a + h, end)), slice(b, min(b + h, end))
        for t in range(end, n, _TILE):
            yield slice(s, end), slice(t, min(t + _TILE, n))


def _gaussian_block(z: np.ndarray, mu: np.ndarray, sigma: np.ndarray):
    """(shift, scale, block) under the prior N(mu, sigma), with
    omega(rows, cols) = shift + scale * block(rows, cols), one tile at a time.

    With w = z L, Sigma = L L', the rows of w are divided by their norms
    once; a tile's Sigma-cosines are then the Gram wn[rows] wn[cols]' of the
    unit rows.  numpy forms a diagonal tile's by syrk, so that tile is
    exactly symmetric.  The cosines are clipped to [-1, 1] once and mapped
    in place, by arcsin at mu = 0 (Sheppard's constants are the shift and
    scale) and by ``_orthant`` otherwise (shift 0, scale 1).
    A Gram of two equal unit rows is 1 - O(eps), which arcsin turns into an
    error of O(sqrt(eps)): at mu = 0, when rows repeat, each row's id among
    the distinct rows (one ``np.unique`` of z's rows as bytes, -0.0 made
    0.0) sets the cosine of every tied pair to exactly 1, so arcsin is
    exactly pi/2 there and ``weight_matrix``'s omega exactly 1/2.
    ``_orthant``'s endpoint guard is already exact.
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
        return np.arcsin(rho, out=rho)

    shift, scale = _SHEPPARD if a is None else (0.0, 1.0)
    return shift, scale, block


def _omega_source(ds_or_z, spec: WeightSpec):
    """(shift, scale, tiles): omega over the upper triangle as
    shift + scale * tile, one tile at a time.

    ``tiles`` is an iterator of (rows, cols, tile) in ``upper_tiles`` order;
    each pair is evaluated once.  Sheppard's form (mu = 0) gives
    (1/4, 1/(2 pi), arcsin(rho) tiles), every other prior (0, 1, omega
    tiles).  Accepts either a Dataset or the raw grouping matrix Z; the
    prior is checked against Z here, before the first tile.
    """
    z = _grouping(ds_or_z)
    q = z.shape[1]

    if spec.variant in ("std_gaussian", "gaussian"):
        mu, sigma = spec.params or (np.zeros(q), np.eye(q))
        if mu.shape != (q,):
            raise ParameterError(f"mu/sigma shapes must match q={q}")
        shift, scale, block = _gaussian_block(z, mu, sigma)
    else:
        # Scalar-threshold priors need a single grouping variable.
        if q != 1:
            raise ParameterError(
                f"{spec.variant} weight requires exactly one grouping column, got q={q}")
        # The prior CDF F is nondecreasing: F(min(z_i, z_j)) = min(F(z_i), F(z_j)).
        from scipy.special import betainc, ndtr
        zv = z[:, 0]
        if spec.variant == "beta":
            cdf = betainc(*spec.params, np.clip(zv, 0.0, 1.0))
        else:
            mu, sigma2 = spec.params
            cdf = ndtr((zv - mu) / np.sqrt(sigma2))

        def block(rows, cols):
            return np.minimum.outer(cdf[rows], cdf[cols])

        shift, scale = 0.0, 1.0
    return shift, scale, ((rows, cols, block(rows, cols)) for rows, cols in upper_tiles(len(z)))


def weight_matrix(ds_or_z, spec: WeightSpec | None = None) -> np.ndarray:
    """n x n exactly symmetric matrix of omega_ij; diagonal filled but unused upstream.

    Accepts either a Dataset or the raw grouping matrix Z, and the standard
    Gaussian prior when ``spec`` is None.  Each of ``_omega_source``'s
    tiles is multiplied by its scale, then its shift added, in place, and
    written to both triangles; the WAST kernel reads the tiles without
    ever storing this matrix.  At mu = 0 tied grouping rows get exactly
    1/2 here, as 1/4 + (pi/2)/(2 pi) rounds to it.
    """
    z = _grouping(ds_or_z)
    shift, scale, tiles = _omega_source(z, spec or standard_gaussian())
    out = np.empty((len(z), len(z)))
    for rows, cols, tile in tiles:
        tile *= scale
        tile += shift
        out[rows, cols] = tile
        out[cols, rows] = tile.T
    return out
