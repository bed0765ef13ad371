"""Supremum score test over a grid of candidate change planes.

For a fixed plane theta the squared score statistic is

    T~_n(theta) = n^-1 || Psi_n(alpha_hat, 0, theta) ||^2_{V(theta)^-1}

with V(theta) the empirical covariance of the nuisance-corrected score.  The
test statistic is the supremum over a random grid of unit directions with
percentile-calibrated intercepts, and the critical value comes from
perturbation resampling with standard-normal multipliers.

``sst_statistic`` and ``sst_test`` share one kernel; a fixed plane is a
grid of one.  A plane enters only through its membership, the rows
inside it, and K planes have U <= K distinct memberships: the kernel finds
them from bit-packed rows, keeps only the U packed rows, and gets their
quantities through GEMMs of the indicator, unpacked ``_unpack_rows(n)``
rows at a time, and one batched Cholesky.  Memory is O(PLANE_BUDGET + K n/8
+ R n + (n + U) p DRAW_BLOCK), R = ``_unpack_rows(n)``: no K x n or U x n
float array is formed, and from n of about 1000 up the R x n block of
unpacked float rows is the largest array.

A halving plane and its antipode split the rows into complementary halves,
so at q = 3 with one median level and even n about 90 % of the distinct
memberships come in pairs d, 1 - d (``_fold``).  Every indicator product
unpacks and multiplies only the U' memberships that are not the complement
of another, and forms each complement's row as 1'm - d m.  At odd n the
antipodes share the median row and nothing pairs; at q >= 4 few
memberships pair.
"""

from __future__ import annotations

import itertools
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericalError, ParameterError
from .families import FamilyKind, SstDerivatives, fit_null, score_psi0, sst_derivatives
from .rng import check_counts, check_seed, child_rng, child_rngs
from .wast import TestOutcome

__all__ = ["ThetaGrid", "build_theta_grid", "sst_statistic", "sst_test", "sst_blocks"]

# Ridge repair for near-singular V(theta): add this multiple of trace/p.
RIDGE_SCALE = 1e-8

# Multiplier draws resampled together through one product of the indicator
# of the U distinct memberships with an n x p*DRAW_BLOCK matrix, into a
# U x p x DRAW_BLOCK result.
DRAW_BLOCK = 32

# Projections formed together (``_plane_blocks``): max(1, PLANE_BUDGET // n)
# planes per block, 512 KB of them, so a block stays in a core's L2 cache
# and no K x n array of projections is formed.  Part of the grid's
# definition, as BLAS rounds a product by its shape.
PLANE_BUDGET = 2 ** 16

# Indicator rows unpacked from bits together into each GEMM
# (``_unpack_rows``): UNPACK_BLOCK rows while they hold at most 1 MB of
# floats (n <= 1024), so that a block and the n x p*DRAW_BLOCK draw matrix
# share a core's 2 MB L2 cache, and twice as many at larger n, where neither
# fits and the smaller block was slower in a fresh process.  Not tied to the
# plane blocks, so a grid cut into other plane blocks meets the same
# products.
UNPACK_BLOCK = 128


def _unpack_rows(n: int) -> int:
    """Rows of an n-column indicator unpacked together into each GEMM."""
    return UNPACK_BLOCK if UNPACK_BLOCK * n <= 2 ** 17 else 2 * UNPACK_BLOCK


@dataclass(frozen=True)
class ThetaGrid:
    """K x q matrix of candidate planes; column 0 holds the intercepts."""

    thetas: np.ndarray

    def __len__(self) -> int:
        return self.thetas.shape[0]


def build_theta_grid(ds: Dataset, k_directions: int = 1000,
                     grid_per_direction: int = 1, seed: int = 0) -> ThetaGrid:
    """Random unit directions with percentile-calibrated intercepts.

    Each of ``k_directions`` directions for (theta_2..theta_q) is drawn
    standard normal and normalized.  The intercept theta_1 is minus an
    empirical quantile of the plane's row of projections (``_plane_blocks``),
    so the row at the quantile lies inside the plane; quantile levels are
    spread over [0.10, 0.90] (``grid_per_direction`` of them, the midpoint
    when one).
    """
    if ds.q < 2:
        raise ParameterError("theta grid requires q >= 2 grouping columns")
    check_counts(k_directions=k_directions, grid_per_direction=grid_per_direction)
    check_seed(seed)
    rng = child_rng(seed, 0)
    dirs = rng.standard_normal((k_directions, ds.q - 1))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    dirs /= norms
    if grid_per_direction == 1:
        levels = np.array([0.5])
    else:
        levels = np.linspace(0.10, 0.90, grid_per_direction)
    thetas = np.empty((k_directions * levels.size, ds.q))
    thetas[:, 1:] = np.repeat(dirs, levels.size, axis=0)
    for start, block, proj in _plane_blocks(ds.z_group, thetas):
        for j, level in enumerate(levels):
            first = (j - start) % levels.size  # the block's first plane at level j
            block[first::levels.size, 0] = -_row_quantile(proj[first::levels.size], level)
    return ThetaGrid(thetas=thetas)


def _plane_blocks(z: np.ndarray, thetas: np.ndarray):
    """The planes ``PLANE_BUDGET // n`` at a time (at least one) from plane
    0, the one place their projections are formed: yields (start, block,
    proj), ``block`` the view of thetas from row ``start`` and ``proj`` its
    projections z_tail,i' theta_tail,k.  A block's shape, and so the last
    bits of its products, depends on n.  Row i is inside plane k when its
    projection is >= -theta_1k, so z's first column must be all ones."""
    if not np.all(z[:, 0] == 1.0):
        raise ParameterError("change planes need an all-ones first grouping column")
    size = max(1, PLANE_BUDGET // z.shape[0])
    for start in range(0, len(thetas), size):
        block = thetas[start:start + size]
        yield start, block, block[:, 1:] @ z[:, 1:].T


def _row_quantile(rows: np.ndarray, level: float) -> np.ndarray:
    """``np.quantile(rows, level, axis=1)`` (linear method) bit for bit,
    partitioning ``rows`` in place at the one lower order statistic.

    The quantile sits at v = (n-1) level: a = the floor(v)-th order
    statistic, b = the next one, the least of the entries partitioned above
    a (0 < level < 1 and n >= 2 leave at least one), and t = v - floor(v).
    The interpolation is numpy's ``_lerp``: a + (b-a) t, or b - (b-a)(1-t)
    where t >= 0.5.
    """
    v = (rows.shape[1] - 1) * level
    kth = int(v)
    t = v - kth
    rows.partition(kth, axis=1)
    a, b = rows[:, kth], rows[:, kth + 1:].min(axis=1)
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _distinct_memberships(z: np.ndarray, thetas: np.ndarray):
    """The distinct plane memberships of the grid, packed to bits, and the
    plane -> row map.

    Each block of ``_plane_blocks`` is compared and packed to bits;
    ``np.unique`` over the packed rows gives the U x ceil(n/8) bytes of the
    distinct memberships and ``inverse``, plane k's row of them.
    """
    packed = np.empty((len(thetas), (z.shape[0] + 7) // 8), np.uint8)
    for start, block, proj in _plane_blocks(z, thetas):
        packed[start:start + len(block)] = np.packbits(proj >= -block[:, :1], axis=1)
        del proj  # so the next block is formed with no other one alive
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return packed[first], inverse


def _fold(packed: np.ndarray, n: int):
    """The distinct memberships whose complement is distinct too, one base
    per pair: (order, folded).

    ``packed`` holds the memberships as ``_distinct_memberships`` sorts
    them; each row is XORed with the packed all-ones row (pad bits 0, as
    ``np.packbits`` leaves them) and looked up among them.  ``order`` lists
    the ``folded`` bases, the unpaired memberships, then each base's
    complement in the bases' order.
    """
    void = np.dtype((np.void, packed.shape[1]))
    rows = packed.view(void).ravel()
    complements = (packed ^ np.packbits(np.ones(n, bool))).view(void).ravel()
    at = np.minimum(np.searchsorted(rows, complements), len(rows) - 1)
    partner = np.where(rows[at] == complements, at, -1)
    bases = np.flatnonzero(partner > np.arange(len(rows)))
    return np.concatenate([bases, np.flatnonzero(partner < 0), partner[bases]]), bases.size


def _indicator_product(packed: np.ndarray, m: np.ndarray, folded: int = 0) -> np.ndarray:
    """D m for the U x n 0/1 indicator D whose rows ``packed`` holds as
    bits, unpacking ``_unpack_rows(n)`` rows of D at a time.  The last
    ``folded`` rows of D are the complements 1 - d of its first ``folded``
    (``_fold``): their products are 1'm - d m, with no row unpacked."""
    own = len(packed) - folded
    size = _unpack_rows(m.shape[0])
    out = np.empty((len(packed), m.shape[1]))
    for start in range(0, own, size):
        rows = np.unpackbits(packed[start:min(start + size, own)], axis=1,
                             count=m.shape[0])
        np.matmul(rows.astype(float), m, out=out[start:start + len(rows)])
    if folded:
        np.subtract(m.sum(axis=0), out[:folded], out=out[own:])
    return out


def _check_grid(thetas: np.ndarray, q: int) -> None:
    """A grid must be a non-empty K x q array of finite numbers."""
    if thetas.ndim != 2 or thetas.shape[1] != q:
        raise ParameterError(f"theta grid must be K x {q}, got shape {thetas.shape}")
    if len(thetas) == 0:
        raise ParameterError("empty theta grid")
    if not np.isfinite(thetas).all():
        raise ParameterError("theta grid has non-finite entries")


def _cholesky(v: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of matrices: one batched call, and
    one matrix at a time only when that fails, with NaN where a matrix has
    no factor."""
    try:
        return np.linalg.cholesky(v)
    except np.linalg.LinAlgError:
        chol = np.full_like(v, np.nan)
        for k, v_k in enumerate(v):
            with suppress(np.linalg.LinAlgError):
                chol[k] = np.linalg.cholesky(v_k)
        return chol


def _grid_planes(ds: Dataset, psi0: np.ndarray, derivs: SstDerivatives,
                 thetas: np.ndarray):
    """Every plane's quantities at once, over its distinct memberships.

    A plane's quantities depend on it only through its membership, so they
    are formed once per distinct membership, in ``_fold``'s order.  With D
    the U x n indicator of those (one ``_indicator_product`` gives every D
    product, taking each folded row from its base's), the score sums
    are S = D psi0, K(theta) = D(g x h)/n and C = K J^-1; as d_i^2 = d_i,
    the covariance of the centered rows d_i psi0_i - C psi1_i is
    V = [D(psi0 x psi0) - B01 C' - C B01' + C (psi1'psi1) C']/n with
    B01 = D(psi0 x psi1).  ``_cholesky`` factors every V, then again with a
    ridge those that are rank-deficient; those with no factor either way
    are skipped: their L^-1 is 0, so their statistic and every resampled
    one is 0, below or at every kept membership's.

    Returns (stats, packed, folded, l_inv, c, counts) over the distinct
    memberships: the statistics n^-1 |L^-1 S|^2, the packed indicator rows
    and the number of them folded, L^-1 and C, and ``counts``, which holds
    grid_distinct (U), grid_folded and the grid planes skipped and
    ridge-repaired.
    """
    _check_grid(thetas, ds.q)
    n, p = psi0.shape
    psi1 = derivs.psi1
    r = psi1.shape[1]
    packed, inverse = _distinct_memberships(ds.z_group, thetas)
    order, folded = _fold(packed, n)
    planes = np.bincount(inverse)[order]  # grid planes per distinct membership
    if folded:
        packed = packed[order]

    def outer(a, b):
        return (a[:, :, None] * b[:, None, :]).reshape(n, -1)

    sums = _indicator_product(packed, np.hstack([
        psi0, outer(derivs.g, derivs.h), outer(psi0, psi0), outer(psi0, psi1)]), folded)
    score, k_sums, b00, b01 = np.split(sums, np.cumsum([p, p * r, p * p]), axis=1)
    c = (k_sums.reshape(-1, p, r) / n) @ derivs.j_inv
    cross = b01.reshape(-1, p, r) @ c.transpose(0, 2, 1)  # B01 C'
    v = (b00.reshape(-1, p, p) - cross - cross.transpose(0, 2, 1)
         + c @ (psi1.T @ psi1) @ c.transpose(0, 2, 1)) / n
    # A membership is rank-deficient when its plain Cholesky fails (its
    # factor is NaN) or its smallest pivot squared is below tol =
    # RIDGE_SCALE * trace(V)/p.  It is refactored with tol on the diagonal,
    # and skipped if that fails too.
    tol = RIDGE_SCALE * np.trace(v, axis1=1, axis2=2) / p
    chol = _cholesky(v)
    repair = ~(np.diagonal(chol, axis1=1, axis2=2).min(axis=1) ** 2 >= tol)
    chol[repair] = _cholesky(v[repair] + tol[repair, None, None] * np.eye(p))
    keep = ~np.isnan(chol[:, 0, 0])
    counts = {"grid_distinct": planes.size, "grid_folded": folded,
              "grid_skipped": int(planes[~keep].sum()),
              "grid_repaired": int(planes[keep & repair].sum())}
    if not keep.any():
        raise NumericalError("V(theta) singular beyond ridge repair at every plane")
    chol[~keep] = np.eye(p)
    l_inv = np.linalg.inv(chol)
    l_inv[~keep] = 0.0
    w = l_inv @ score[:, :, None]
    return np.einsum("kpj,kpj->k", w, w) / n, packed, folded, l_inv, c, counts


def sst_statistic(ds: Dataset, family: FamilyKind, fit, derivs: SstDerivatives,
                  grid: ThetaGrid) -> float:
    """Supremum of the squared score statistic over the grid."""
    psi0 = score_psi0(ds, family, fit)
    return float(_grid_planes(ds, psi0, derivs, grid.thetas)[0].max())


def _calibration(ds: Dataset, family: FamilyKind, k_directions: int,
                 grid_per_direction: int, n_resample: int, seed: int):
    """The checked inputs, grid and observed statistic of ``sst_test``:
    (statistic, diagnostics, suprema), with suprema a generator of the
    resampled suprema, one ``DRAW_BLOCK`` of draws at a time.  Draw j's
    multipliers come from the stream ``child_rng(seed, 1, j)``; the
    n_resample streams' states are derived once (``child_rngs``) and each
    block's generators built when it runs."""
    check_counts(n_resample=n_resample, k_directions=k_directions,
                 grid_per_direction=grid_per_direction)
    check_seed(seed)
    fit = fit_null(ds, family)
    if not fit.converged:
        raise NumericalError("null fit did not converge")
    derivs = sst_derivatives(ds, family, fit)
    grid = build_theta_grid(ds, k_directions, grid_per_direction, seed)
    psi0 = score_psi0(ds, family, fit)
    n, p = psi0.shape
    stats, packed, folded, l_inv, c, counts = _grid_planes(ds, psi0, derivs, grid.thetas)
    c_flat = c.reshape(-1, c.shape[2])

    def suprema():
        rngs = child_rngs(seed, 1, keys=range(n_resample))
        for start in range(0, n_resample, DRAW_BLOCK):
            stop = min(start + DRAW_BLOCK, n_resample)
            nu = np.stack([rng.standard_normal(n)
                           for rng in itertools.islice(rngs, stop - start)], axis=1)
            u = _indicator_product(packed,
                                   (psi0[:, :, None] * nu[:, None, :]).reshape(n, -1), folded)
            u -= (c_flat @ (derivs.psi1.T @ nu)).reshape(u.shape)
            s = l_inv @ u.reshape(-1, p, stop - start)
            yield np.einsum("kpj,kpj->kj", s, s).max(axis=0) / n

    diagnostics = {"grid_size": len(grid), **counts, "k_directions": k_directions,
                   "grid_per_direction": grid_per_direction}
    return stats.max(), diagnostics, suprema()


def sst_test(ds: Dataset, family: FamilyKind, k_directions: int = 1000,
             grid_per_direction: int = 1, n_resample: int = 1000,
             seed: int = 0) -> TestOutcome:
    """SST with perturbation-resampling calibration.

    The perturbed supremum reuses the observed quantities of each distinct
    membership (its packed indicator row, C = K J^-1 and the inverse
    Cholesky factor of V) for every multiplier draw nu: the whitened
    perturbed score is s = L^-1 [D(psi0 * nu) - C(psi1' nu)].  The p-value
    is the fraction of resampled suprema at or above the observed statistic.
    Draws are taken ``DRAW_BLOCK`` at a time, each block through one
    ``_indicator_product``.  ``diagnostics`` counts the distinct memberships
    (grid_distinct), those whose products are taken from their complement's
    (grid_folded) and the grid planes ridge-repaired and skipped, and gives
    the p-value's Monte-Carlo standard error sqrt(p(1-p)/B).
    """
    stat, diagnostics, suprema = _calibration(ds, family, k_directions, grid_per_direction,
                                              n_resample, seed)
    return TestOutcome.calibrated(
        stat, np.concatenate(list(suprema)), family=family.describe(), weight="none",
        seed=seed, method="sst", diagnostics=diagnostics)


def sst_blocks(ds: Dataset, family: FamilyKind, k_directions: int = 1000,
               grid_per_direction: int = 1, n_resample: int = 1000, seed: int = 0):
    """``sst_test``'s calibration one ``DRAW_BLOCK`` at a time, for a caller
    that may stop early.  Returns (statistic, blocks): the null fit, the grid
    and the statistic are formed by the call, and ``blocks`` lazily yields
    (the block's resampled suprema, draws the block ran), bit-identical to
    ``sst_test``'s."""
    stat, _, suprema = _calibration(ds, family, k_directions, grid_per_direction,
                                    n_resample, seed)
    return stat, ((boot, boot.size) for boot in suprema)
