"""Weighted-average score test: statistic assembly and bootstrap p-values.

The statistic is the pairwise U-statistic

    T_n = (n(n-1))^-1 sum_{i != j} omega_ij <psi0_i, psi0_j>

with omega the prior weights from :mod:`changeplane.weights`.  As psi0_i =
s_i d_i (``score_factor``), T_n sums omega_ij (d_i'd_j) s_i s_j: the one
kernel, ``_pair_sums``, scores any number of factor columns against omega's
upper tiles weighted by d_i'd_j (``_weighted_tiles``).  The tiles are
``weights.upper_tiles``': side ``_TILE`` off the diagonal and half that on
it, where each tile is evaluated whole and its lower half zeroed, so a pass
evaluates about n^2/2 + n _TILE/4 entries for the n(n-1)/2 pairs.  The
weights come as omega = shift + scale * tile (``weights._omega_source``):
the tiles carry
arcsin(rho) alone under Sheppard's form, and the kernel applies scale to
each column's tile sum and adds shift's part, the rank-one
shift (|sum_i s_i d_i|^2 - sum_i s_i^2 |d_i|^2) / (n(n-1)), in O(n p) per
column (``_constant_part``).  The p-value is calibrated by refitting the
null model on bootstrap responses in blocks of ``BOOT_BLOCKS``; d and omega
are fixed across replicates, so one pass over the weighted tiles scores
the observed factor, a chunk of its own, and every replicate's, and the
n x n omega is never stored.  ``wast_blocks`` gives the statistic, then the
replicates one refit block at a time from weighted tiles it keeps, for a
study that stops once its decision is fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .data import Dataset
from .errors import DataError, NumericalError, ParameterError
from .families import (DEFAULT_MAX_ITER, FamilyKind, bootstrap_sampler, fit_null,
                       refit_null, score_factor)
from .families import bootstrap_sample, score_psi0  # noqa: F401  -- traced by bench/worker.py
from .rng import check_counts, check_seed, child_rngs
from .weights import WeightSpec, _omega_source, standard_gaussian, upper_tiles
from .weights import weight_matrix  # noqa: F401  -- traced by bench/worker.py

__all__ = [
    "TestOutcome", "PlaneBlock", "wast_statistic", "wast_multi_statistic",
    "wast_test", "wast_blocks",
]

# Fraction of failed bootstrap refits beyond which the whole test errors out.
MAX_FAILED_FRACTION = 0.05

# Widths of the refit blocks, each refit by one refit_null call: 16, 16, 32,
# then 64 each.  A null study test mostly stops after an early block; later
# blocks are wide, as the lock-step refits batch better.
BOOT_BLOCKS = (16, 16, 32, 64)


@dataclass(frozen=True)
class TestOutcome:
    """Result of a calibrated test: statistic, replicates, and p-value."""

    statistic: float
    boot_stats: np.ndarray
    p_value: float
    family: str
    weight: str
    seed: int
    method: str = "wast"
    n_failed: int = 0
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_boot(self) -> int:  # B, the replicates the p-value is calibrated on
        return self.boot_stats.size

    @staticmethod
    def upper_tail(statistic, boot_stats) -> float:
        """The p-value: the fraction of the B replicates at or above the statistic."""
        return float(np.mean(boot_stats >= statistic))

    @classmethod
    def calibrated(cls, statistic, boot_stats, diagnostics, **fields) -> "TestOutcome":
        """Upper-tail calibration: p is ``upper_tail``'s,
        diagnostics["p_value_se"] = sqrt(p(1-p)/B)."""
        p = cls.upper_tail(statistic, boot_stats)
        se = float(np.sqrt(p * (1.0 - p) / boot_stats.size))
        return cls(float(statistic), boot_stats, p,
                   diagnostics={**diagnostics, "p_value_se": se}, **fields)


@dataclass(frozen=True)
class PlaneBlock:
    """One change plane of a multi-plane test: its X block, Z block, weight."""

    x: np.ndarray
    z: np.ndarray
    weight: WeightSpec = field(default_factory=standard_gaussian)


class _Kernel(NamedTuple):
    """omega = shift + scale * tile and the rows d: ``tiles`` yields the
    upper tiles weighted by d_i'd_j; ``_pair_sums`` applies scale and
    shift once per factor column."""

    shift: float
    scale: float
    d: np.ndarray
    tiles: Iterable


def _weighted_tiles(source, d: np.ndarray) -> _Kernel:
    """The kernel of a (shift, scale, tiles) source and the rows d: each
    tile (rows, cols, tile) of the upper triangle weighted by
    d[rows] d[cols]' and, on the diagonal, cut in place to its strict upper
    triangle, the tiles ``_pair_sums`` reads."""
    shift, scale, tiles = source

    def weighted():
        for rows, cols, tile in tiles:
            tile = tile * (d[rows] @ d[cols].T)
            if rows == cols:
                tile[np.tri(len(tile), dtype=bool)] = 0.0
            yield rows, cols, tile

    return _Kernel(shift, scale, d, weighted())


def _constant_part(kernel: _Kernel, s: np.ndarray) -> np.ndarray:
    """The part of each column's statistic that omega's constant shift
    carries, shift sum_{i != j} (d_i'd_j) s_ib s_jb / (n(n-1)), by the
    rank-one identity sum_{i != j} psi_i'psi_j = |sum_i psi_i|^2 -
    sum_i |psi_i|^2 with psi_i = s_ib d_i: O(n p) per column, 0 when
    shift is 0."""
    if not kernel.shift:
        return np.zeros(s.shape[1])
    n, d = s.shape[0], kernel.d
    sums = s.T @ d
    squares = (s * s).T @ np.einsum("ij,ij->i", d, d)
    return kernel.shift * (np.einsum("bk,bk->b", sums, sums) - squares) / (n * (n - 1))


def _pair_sums(kernel: _Kernel, chunks) -> list[np.ndarray]:
    """(n(n-1))^-1 sum_{i != j} omega_ij (d_i'd_j) s_ib s_jb for a symmetric
    omega, for each column b of each n x m factor matrix s in the list
    ``chunks``: scale times twice the sum over the ``_weighted_tiles``'
    pairs i < j, plus ``_constant_part``.  Each tile is multiplied by each
    chunk in one GEMM: a column's bits depend on its chunk, not on the
    other chunks passed."""
    n = chunks[0].shape[0]
    if n < 2:
        raise DataError("need at least 2 observations")
    totals = [np.zeros(s.shape[1]) for s in chunks]
    for rows, cols, tile in kernel.tiles:
        for total, s in zip(totals, chunks):
            total += np.einsum("ij,ij->j", s[rows], tile @ s[cols])
    return [total * (2.0 * kernel.scale / (n * (n - 1))) + _constant_part(kernel, s)
            for total, s in zip(totals, chunks)]


def wast_statistic(psi0: np.ndarray, omega: np.ndarray) -> float:
    """U-statistic (n(n-1))^-1 sum_{i!=j} omega_ij psi0_i' psi0_j: the
    kernel on the factor 1 with d = psi0.  Any n x n omega is accepted, its
    tiles symmetrized, which leaves the i != j sum as it is."""
    psi0 = np.asarray(psi0, float)
    if psi0.ndim == 1:
        psi0 = psi0[:, None]
    omega = np.asarray(omega, float)
    n = psi0.shape[0]
    if omega.shape != (n, n):
        raise ParameterError(f"omega shape {omega.shape} does not match n={n}")
    tiles = ((rows, cols, 0.5 * (omega[rows, cols] + omega[cols, rows].T))
             for rows, cols in upper_tiles(n))
    return float(_pair_sums(_weighted_tiles((0.0, 1.0, tiles), psi0), [np.ones((n, 1))])[0][0])


def wast_multi_statistic(psi0_scalar: np.ndarray,
                         planes: list[PlaneBlock]) -> float:
    """Multi-plane statistic with the combined weight
    omega~_ij = sum_t (X_t,i' X_t,j) * omega^(t)_ij on the scalar score s:
    the kernel summed over the planes, d = X_t, on the one factor s."""
    if not planes:
        raise ParameterError("need at least one plane")
    s = np.asarray(psi0_scalar, float).reshape(-1, 1)
    total = 0.0
    for block in planes:
        x = np.asarray(block.x, float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != s.shape[0] or np.shape(block.z)[0] != s.shape[0]:
            raise ParameterError("plane X or Z block row count mismatch")
        total += _pair_sums(_weighted_tiles(_omega_source(block.z, block.weight), x), [s])[0][0]
    return float(total)


def _null_model(ds: Dataset, family: FamilyKind, weight: WeightSpec | None, n_boot: int,
                seed: int):
    """The checked inputs and null fit: (weight, fit, s0, kernel), with s0
    the score factor at the fit and ``kernel`` the test's one source of
    omega's upper tiles weighted by the fit's rows d (``_weighted_tiles``),
    its prior checked against Z here: Z and d are fixed across replicates."""
    check_counts(n_boot=n_boot)
    check_seed(seed)
    if weight is None:
        weight = standard_gaussian()
    fit = fit_null(ds, family)
    if not fit.converged:
        raise NumericalError("null fit did not converge on the original data")
    source = _omega_source(ds, weight)
    s0, d = score_factor(ds, family, fit)
    return weight, fit, s0, _weighted_tiles(source, d)


def _refit_blocks(ds: Dataset, family: FamilyKind, fit, n_boot: int, seed: int):
    """The refit loop, the one place that cuts the replicates into blocks:
    ``BOOT_BLOCKS``, the last width repeated, the final block cut at n_boot.

    Each block's responses are drawn as one n x width matrix
    (``bootstrap_sampler``), column b from the stream ``child_rng(seed, b)``,
    and refit by one ``refit_null`` call.  The B streams' states are derived
    once (``child_rngs``), and a block's generators are built when it runs,
    so a caller that stops early builds no other.  Yields
    the n x m score factors of the block's converged refits, C-ordered and,
    when none failed, ``refit_null``'s array itself, and the
    block's iterations and counts of refits stopped unconverged at the cap,
    degenerate and failed.  Raises after the first block that takes the
    failed refits past ``MAX_FAILED_FRACTION`` of n_boot.
    """
    draw = bootstrap_sampler(ds, family, fit)
    rngs = child_rngs(seed, keys=range(n_boot))
    widths = itertools.chain(BOOT_BLOCKS, itertools.repeat(BOOT_BLOCKS[-1]))
    start, n_failed = 0, 0
    while start < n_boot:
        stop = min(start + next(widths), n_boot)
        y = draw(list(itertools.islice(rngs, stop - start)))
        s, converged, its, met = refit_null(ds, family, fit, y)
        failed = int(np.count_nonzero(~converged))
        n_failed += failed
        if n_failed > MAX_FAILED_FRACTION * n_boot:
            raise NumericalError(f"{n_failed}/{n_boot} bootstrap refits failed to converge")
        yield (s if not failed else np.compress(converged, s, axis=1), its,
               int(np.count_nonzero(~converged & (its >= DEFAULT_MAX_ITER))),
               int(np.count_nonzero(met)), failed)
        start = stop


def wast_test(ds: Dataset, family: FamilyKind,
              weight: WeightSpec | None = None, n_boot: int = 1000,
              seed: int = 0) -> TestOutcome:
    """Full WAST test with parametric / wild bootstrap calibration.

    The observed score factor, a one-column chunk, and those of the kept
    replicates, in the refit loop's ``BOOT_BLOCKS`` chunks (16, 16, 32, then
    64), are scored by one pass over the upper omega tiles, each weighted by
    d_i'd_j as it is evaluated: memory is O(_TILE^2 + n*B).
    Replicates whose refit fails to converge are excluded; once more than 5%
    of B have, the test raises.  ``diagnostics`` counts the refits' (min,
    median, max) iterations, those stopped unconverged at the iteration cap
    and the quantile refits that met a degenerate vertex, and gives the part
    of the statistic carried by omega's constant (``omega_constant``: 1/4's
    under Sheppard's form, 0.0 under any other prior).
    """
    weight, fit, s0, kernel = _null_model(ds, family, weight, n_boot, seed)
    chunks, iterations, at_cap, degenerate, n_failed = [s0[:, None]], [], 0, 0, 0
    for chunk, its, cap, met, failed in _refit_blocks(ds, family, fit, n_boot, seed):
        chunks.append(chunk)
        iterations.append(its)
        at_cap, degenerate, n_failed = at_cap + cap, degenerate + met, n_failed + failed
    statistic, *boot = _pair_sums(kernel, chunks)
    iterations = np.concatenate(iterations)
    return TestOutcome.calibrated(
        statistic[0], np.concatenate(boot), family=family.describe(),
        weight=weight.describe(), seed=seed, method="wast", n_failed=n_failed,
        diagnostics={"fit_iterations": fit.iterations,
                     "fit_gradient_norm": fit.gradient_norm,
                     "refit_iterations": (int(iterations.min()), float(np.median(iterations)),
                                          int(iterations.max())),
                     "refits_at_cap": at_cap,
                     "refits_degenerate": degenerate,
                     "omega_constant": float(_constant_part(kernel, chunks[0])[0])})


def wast_blocks(ds: Dataset, family: FamilyKind, weight: WeightSpec | None = None,
                n_boot: int = 1000, seed: int = 0):
    """``wast_test``'s calibration one ``BOOT_BLOCKS`` block at a time, for a
    caller that may stop early.  Returns (statistic, blocks): the null fit,
    omega's upper tiles, evaluated and weighted by d_i'd_j once and kept
    (about n^2/2 + n _TILE/4 floats), and the statistic are formed by the
    call, and ``blocks`` lazily yields (the block's kept replicate statistics, refits
    the block ran), each block scored by its own pass over the kept tiles.
    Every statistic is bit-identical to ``wast_test``'s, and the failed
    refits meet the same cap after each block.
    """
    weight, fit, s0, kernel = _null_model(ds, family, weight, n_boot, seed)
    kernel = kernel._replace(tiles=list(kernel.tiles))
    blocks = ((_pair_sums(kernel, [chunk])[0], its.size)
              for chunk, its, *_ in _refit_blocks(ds, family, fit, n_boot, seed))
    return _pair_sums(kernel, [s0[:, None]])[0][0], blocks
