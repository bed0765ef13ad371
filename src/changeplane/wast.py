"""Weighted-average score test: statistic assembly and bootstrap p-values.

The statistic is the pairwise U-statistic

    T_n = (n(n-1))^-1 sum_{i != j} omega_ij <psi0_i, psi0_j>

with omega the prior weights from :mod:`changeplane.weights`.  The p-value
is calibrated by refitting the null model on family-specific bootstrap
responses.  The grouping rows, hence omega, are the same for every
replicate, so one pass over the upper omega tiles scores the observed data
and every replicate together, and the n x n omega is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError, NumericalError, ParameterError
from .families import (DEFAULT_MAX_ITER, FamilyKind, bootstrap_sampler, fit_null,
                       refit_null, score_psi0, score_rows)
from .families import bootstrap_sample  # noqa: F401  -- traced by bench/worker.py
from .rng import child_rng
from .weights import WeightSpec, omega_tiles, standard_gaussian, upper_tiles
from .weights import weight_matrix  # noqa: F401  -- traced by bench/worker.py

__all__ = [
    "TestOutcome", "PlaneBlock", "wast_statistic", "wast_multi_statistic",
    "wast_test",
]

# Fraction of failed bootstrap refits beyond which the whole test errors out.
MAX_FAILED_FRACTION = 0.05

# Bootstrap responses refit together by one refit_null call.
BOOT_BLOCK = 64


@dataclass(frozen=True)
class TestOutcome:
    """Result of a calibrated test: statistic, replicates, and p-value."""

    statistic: float
    boot_stats: np.ndarray
    p_value: float
    n_boot: int
    family: str
    weight: str
    seed: int
    method: str = "wast"
    n_failed: int = 0
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def calibrated(cls, statistic, boot_stats, diagnostics, **fields) -> "TestOutcome":
        """Upper-tail calibration: p is the fraction of the B replicates at or
        above the statistic, diagnostics["p_value_se"] = sqrt(p(1-p)/B)."""
        p = float(np.mean(boot_stats >= statistic))
        se = float(np.sqrt(p * (1.0 - p) / boot_stats.size))
        return cls(float(statistic), boot_stats, p, boot_stats.size,
                   diagnostics={**diagnostics, "p_value_se": se}, **fields)


@dataclass(frozen=True)
class PlaneBlock:
    """One change plane of a multi-plane test: its X block, Z block, weight."""

    x: np.ndarray
    z: np.ndarray
    weight: WeightSpec = field(default_factory=standard_gaussian)


def _pair_sums(tiles, psi: np.ndarray, p: int) -> np.ndarray:
    """WAST statistics of m score matrices laid side by side in n x (m*p).

    ``tiles`` yields (rows, cols, omega[rows, cols]) over the upper triangle
    (``upper_tiles``).  A diagonal tile loses its diagonal and lower
    triangle, every tile adds psi[rows]' omega_tile psi[cols] per column,
    and the total is doubled: the i != j sum of a symmetric omega.
    """
    n = psi.shape[0]
    if n < 2:
        raise DataError("need at least 2 observations")
    total = np.zeros(psi.shape[1])
    for rows, cols, tile in tiles:
        if rows == cols:
            tile = np.triu(tile, 1)
        total += np.einsum("ij,ij->j", psi[rows], tile @ psi[cols])
    return total.reshape(-1, p).sum(axis=1) * (2.0 / (n * (n - 1)))


def wast_statistic(psi0: np.ndarray, omega: np.ndarray) -> float:
    """U-statistic (n(n-1))^-1 sum_{i!=j} omega_ij psi0_i' psi0_j.

    Any n x n omega is accepted: its tiles enter the tile kernel
    symmetrized, (omega_ij + omega_ji) / 2, which leaves the i != j sum as
    it is.
    """
    psi0 = np.asarray(psi0, float)
    if psi0.ndim == 1:
        psi0 = psi0[:, None]
    omega = np.asarray(omega, float)
    n = psi0.shape[0]
    if omega.shape != (n, n):
        raise ParameterError(f"omega shape {omega.shape} does not match n={n}")
    tiles = ((rows, cols, 0.5 * (omega[rows, cols] + omega[cols, rows].T))
             for rows, cols in upper_tiles(n))
    return float(_pair_sums(tiles, psi0, psi0.shape[1])[0])


def wast_multi_statistic(psi0_scalar: np.ndarray,
                         planes: list[PlaneBlock]) -> float:
    """Multi-plane statistic with the combined weight
    omega~_ij = sum_t (X_t,i' X_t,j) * omega^(t)_ij on the scalar score s.

    As omega~ is a sum over planes, so is the statistic: plane t adds the
    single-plane statistic of the score rows s_i X_t,i under its own omega.
    """
    if not planes:
        raise ParameterError("need at least one plane")
    psi = np.asarray(psi0_scalar, float).ravel()
    n = psi.shape[0]
    total = 0.0
    for block in planes:
        x = np.asarray(block.x, float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != n or np.shape(block.z)[0] != n:
            raise ParameterError("plane X or Z block row count mismatch")
        total += _pair_sums(omega_tiles(block.z, block.weight), psi[:, None] * x,
                            x.shape[1])[0]
    return float(total)


def wast_test(ds: Dataset, family: FamilyKind,
              weight: WeightSpec | None = None, n_boot: int = 1000,
              seed: int = 0) -> TestOutcome:
    """Full WAST test with parametric / wild bootstrap calibration.

    Each run of ``BOOT_BLOCK`` redrawn responses is drawn as one n x
    ``BOOT_BLOCK`` block from the fitted null model, formed once per test
    (``bootstrap_sampler``), and refit by one ``refit_null`` call.  The
    observed scores and those of every kept replicate go side by side into
    one n x ((1+B)*p) stack, and one pass over the upper omega tiles
    (``omega_tiles``) gives every statistic: memory is O(_TILE^2 + n*B*p)
    and no n x n array is formed.  Replicates
    whose refit fails to converge are excluded; if more than 5% are, the
    test raises.  ``diagnostics`` counts the refits' (min, median, max)
    iterations, those stopped unconverged at the iteration cap and the
    quantile refits that met a degenerate vertex.
    """
    if n_boot < 1:
        raise ParameterError("n_boot must be >= 1")
    if weight is None:
        weight = standard_gaussian()
    fit = fit_null(ds, family)
    if not fit.converged:
        raise NumericalError("null fit did not converge on the original data")
    tiles = omega_tiles(ds, weight)  # checks the prior now; Z is fixed across replicates
    psi0 = score_psi0(ds, family, fit)
    draw = bootstrap_sampler(ds, family, fit)

    n, p = psi0.shape
    stack = np.empty((n, (1 + n_boot) * p))
    stack[:, :p] = psi0
    width, iterations, at_cap, degenerate = p, np.empty(n_boot, int), 0, 0
    for start in range(0, n_boot, BOOT_BLOCK):
        y = draw([child_rng(seed, b) for b in range(start, min(start + BOOT_BLOCK, n_boot))])
        s, converged, its, met = refit_null(ds, family, fit, y)
        iterations[start:start + BOOT_BLOCK] = its
        at_cap += int(np.count_nonzero(~converged & (its >= DEFAULT_MAX_ITER)))
        degenerate += int(np.count_nonzero(met))
        kept = int(np.count_nonzero(converged)) * p
        score_rows(ds, family, fit, s[:, converged], out=stack[:, width:width + kept])
        width += kept
    n_failed = n_boot - (width // p - 1)
    if n_failed > MAX_FAILED_FRACTION * n_boot:
        raise NumericalError(f"{n_failed}/{n_boot} bootstrap refits failed to converge")
    stats = _pair_sums(tiles, stack[:, :width], p)
    return TestOutcome.calibrated(
        stats[0], stats[1:], family=family.describe(),
        weight=weight.describe(), seed=seed, method="wast", n_failed=n_failed,
        diagnostics={"fit_iterations": fit.iterations,
                     "fit_gradient_norm": fit.gradient_norm,
                     "refit_iterations": (int(iterations.min()), float(np.median(iterations)),
                                          int(iterations.max())),
                     "refits_at_cap": at_cap,
                     "refits_degenerate": degenerate})
