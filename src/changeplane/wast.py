"""Weighted-average score test: statistic assembly and bootstrap p-values.

The statistic is the pairwise U-statistic

    T_n = (n(n-1))^-1 sum_{i != j} omega_ij <psi0_i, psi0_j>

with omega the prior weight matrix from :mod:`changeplane.weights`.  The
p-value is calibrated by refitting the null model on family-specific
bootstrap responses and recomputing the statistic with the same weight
matrix (the covariates, hence omega, are unchanged across replicates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError, NumericalError, ParameterError
from .families import (DEFAULT_MAX_ITER, FamilyKind, bootstrap_sample, fit_null,
                       refit_null, score_psi0)
from .rng import child_rng
from .weights import WeightSpec, standard_gaussian, weight_matrix

__all__ = [
    "TestOutcome", "PlaneBlock", "wast_statistic", "wast_multi_statistic",
    "wast_test",
]

# Fraction of failed bootstrap refits beyond which the whole test errors out.
MAX_FAILED_FRACTION = 0.05

# Bootstrap replicates whose score matrices share one Omega GEMM: the block
# is n x (BOOT_BLOCK * p), small next to Omega itself.
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


def _wast_block(omega: np.ndarray, psi_block: np.ndarray, p: int) -> np.ndarray:
    """WAST statistics of m score matrices laid side by side in n x (m*p).

    One GEMM gives Omega Psi; removing the diagonal term omega_ii psi_i
    before the row-wise inner products leaves the i != j sum of each
    replicate.
    """
    n = psi_block.shape[0]
    if n < 2:
        raise DataError("need at least 2 observations")
    prod = omega @ psi_block
    prod -= np.diagonal(omega)[:, None] * psi_block
    per_column = np.einsum("ij,ij->j", psi_block, prod)
    return per_column.reshape(-1, p).sum(axis=1) / (n * (n - 1))


def wast_statistic(psi0: np.ndarray, omega: np.ndarray) -> float:
    """U-statistic (n(n-1))^-1 sum_{i!=j} omega_ij psi0_i' psi0_j."""
    psi0 = np.asarray(psi0, float)
    if psi0.ndim == 1:
        psi0 = psi0[:, None]
    omega = np.asarray(omega, float)
    if omega.shape != (psi0.shape[0], psi0.shape[0]):
        raise ParameterError(
            f"omega shape {omega.shape} does not match n={psi0.shape[0]}")
    return float(_wast_block(omega, psi0, psi0.shape[1])[0])


def wast_multi_statistic(psi0_scalar: np.ndarray,
                         planes: list[PlaneBlock]) -> float:
    """Multi-plane statistic with the summed per-plane pairwise kernel.

    The combined weight is
    omega~_ij = sum_t (X_t,i' X_t,j) * omega^(t)_ij, applied to the scalar
    score factor shared across planes.
    """
    if not planes:
        raise ParameterError("need at least one plane")
    psi = np.asarray(psi0_scalar, float).ravel()
    n = psi.shape[0]
    omega_tilde = np.zeros((n, n))
    for block in planes:
        x = np.asarray(block.x, float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != n:
            raise ParameterError("plane X block row count mismatch")
        omega_tilde += (x @ x.T) * weight_matrix(block.z, block.weight)
    return float(_wast_block(omega_tilde, psi[:, None], 1)[0])


def wast_test(ds: Dataset, family: FamilyKind,
              weight: WeightSpec | None = None, n_boot: int = 1000,
              seed: int = 0) -> TestOutcome:
    """Full WAST test with parametric / wild bootstrap calibration.

    Each run of ``BOOT_BLOCK`` redrawn responses is refit by one
    ``refit_null`` call and its kept replicates are scored through one Omega
    GEMM.  Replicates whose refit fails to converge are excluded; if more
    than 5% are, the test raises.  ``diagnostics`` counts the refits'
    (min, median, max) iterations and those stopped at the iteration cap.
    """
    if n_boot < 1:
        raise ParameterError("n_boot must be >= 1")
    if weight is None:
        weight = standard_gaussian()
    fit = fit_null(ds, family)
    if not fit.converged:
        raise NumericalError("null fit did not converge on the original data")
    omega = weight_matrix(ds, weight)  # Z is fixed across replicates
    psi0 = score_psi0(ds, family, fit)
    stat = wast_statistic(psi0, omega)

    p = psi0.shape[1]
    boot_stats, iterations = [], np.empty(n_boot, int)
    for start in range(0, n_boot, BOOT_BLOCK):
        y = np.column_stack([bootstrap_sample(ds, family, fit, child_rng(seed, b))
                             for b in range(start, min(start + BOOT_BLOCK, n_boot))])
        psi, converged, iterations[start:start + BOOT_BLOCK] = refit_null(ds, family, fit, y)
        boot_stats.extend(_wast_block(omega, psi[:, np.repeat(converged, p)], p))
    n_failed = n_boot - len(boot_stats)
    if n_failed > MAX_FAILED_FRACTION * n_boot:
        raise NumericalError(f"{n_failed}/{n_boot} bootstrap refits failed to converge")
    return TestOutcome.calibrated(
        stat, np.asarray(boot_stats), family=family.describe(),
        weight=weight.describe(), seed=seed, method="wast", n_failed=n_failed,
        diagnostics={"fit_iterations": fit.iterations,
                     "fit_gradient_norm": fit.gradient_norm,
                     "refit_iterations": (int(iterations.min()), float(np.median(iterations)),
                                          int(iterations.max())),
                     "refits_at_cap": int(np.count_nonzero(iterations >= DEFAULT_MAX_ITER))})
