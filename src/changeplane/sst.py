"""Supremum score test over a grid of candidate change planes.

For a fixed plane theta the squared score statistic is

    T~_n(theta) = n^-1 || Psi_n(alpha_hat, 0, theta) ||^2_{V(theta)^-1}

with V(theta) the empirical covariance of the nuisance-corrected score.  The
test statistic is the supremum over a random grid of unit directions with
percentile-calibrated intercepts, and the critical value comes from
perturbation resampling with standard-normal multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular

from .data import Dataset, validate
from .errors import NumericalError, ParameterError
from .families import FamilyKind, SstDerivatives, fit_null, score_psi0, sst_derivatives
from .rng import child_rng
from .wast import TestOutcome

__all__ = ["ThetaGrid", "build_theta_grid", "score_test_at", "sst_statistic",
           "sst_test"]

# Ridge repair for near-singular V(theta): add this multiple of trace/p.
RIDGE_SCALE = 1e-8

# Multiplier draws resampled together through one GEMM with the whitened
# stack; the (K*p) x DRAW_BLOCK product stays small next to the stack.
DRAW_BLOCK = 32


@dataclass(frozen=True)
class ThetaGrid:
    """K x q matrix of candidate planes plus the construction metadata."""

    thetas: np.ndarray
    seed: int
    percentile_lo: float = 0.10
    percentile_hi: float = 0.90

    def __len__(self) -> int:
        return self.thetas.shape[0]


def build_theta_grid(ds: Dataset, k_directions: int = 1000,
                     grid_per_direction: int = 1, seed: int = 0) -> ThetaGrid:
    """Random unit directions with percentile-calibrated intercepts.

    Each of ``k_directions`` directions for (theta_2..theta_q) is drawn
    standard normal and normalized.  The intercept theta_1 is minus an
    empirical quantile of the projected grouping scores; quantile levels are
    spread over [0.10, 0.90] (``grid_per_direction`` of them, the midpoint
    when one).
    """
    if ds.q < 2:
        raise ParameterError("theta grid requires q >= 2 grouping columns")
    if k_directions < 1 or grid_per_direction < 1:
        raise ParameterError("k_directions and grid_per_direction must be >= 1")
    rng = child_rng(seed, 0)
    dirs = rng.standard_normal((k_directions, ds.q - 1))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    dirs /= norms
    if grid_per_direction == 1:
        levels = np.array([0.5])
    else:
        levels = np.linspace(0.10, 0.90, grid_per_direction)
    z_tail = ds.z_group[:, 1:]
    # One matrix-vector product per direction, not one GEMM: a GEMM changes
    # the rounding of the projections, and at odd n a 1-ulp move of the
    # median intercept flips the median row's side of the plane.
    proj = np.empty((k_directions, ds.n))
    for k, d in enumerate(dirs):
        proj[k] = z_tail @ d
    thetas = np.empty((k_directions * levels.size, ds.q))
    thetas[:, 0] = -np.quantile(proj, levels, axis=1).T.ravel()
    thetas[:, 1:] = np.repeat(dirs, levels.size, axis=0)
    return ThetaGrid(thetas=thetas, seed=seed)


def _theta_quantities(ds: Dataset, psi0: np.ndarray, derivs: SstDerivatives,
                      theta: np.ndarray):
    """Per-theta score rows, covariance factor, and centered influence rows.

    Returns (psi_theta, chol_V, centered) with centered = psi_theta - corr,
    the rows both V(theta) and the perturbation draws are built from.  V may
    have been ridge-repaired; raises NumericalError if it stays singular.
    """
    theta = np.asarray(theta, float)
    n, p = psi0.shape
    ind = (ds.z_group @ theta >= 0).astype(float)
    psi_theta = psi0 * ind[:, None]
    corr = derivs.psi1 @ (derivs.k_of_theta(theta) @ derivs.j_inv).T  # n x p
    centered = psi_theta - corr
    v = centered.T @ centered / n
    try:
        chol = cholesky(v, lower=True)
    except LinAlgError:
        ridge = RIDGE_SCALE * np.trace(v) / p
        try:
            chol = cholesky(v + ridge * np.eye(p), lower=True)
        except LinAlgError as exc:
            raise NumericalError("V(theta) singular beyond ridge repair") from exc
    return psi_theta, chol, centered


def score_test_at(ds: Dataset, family: FamilyKind, fit, derivs: SstDerivatives,
                  theta) -> float:
    """Squared score statistic at a fixed plane theta (nonnegative)."""
    psi0 = score_psi0(ds, family, fit).psi0
    psi_theta, chol, _ = _theta_quantities(ds, psi0, derivs, np.asarray(theta, float))
    psi_sum = psi_theta.sum(axis=0)
    w = solve_triangular(chol, psi_sum, lower=True)
    return float(w @ w) / ds.n


def sst_statistic(ds: Dataset, family: FamilyKind, fit, derivs: SstDerivatives,
                  grid: ThetaGrid) -> float:
    """Supremum of the squared score statistic over the grid."""
    if len(grid) == 0:
        raise ParameterError("empty theta grid")
    psi0 = score_psi0(ds, family, fit).psi0
    best = None
    for theta in grid.thetas:
        try:
            psi_theta, chol, _ = _theta_quantities(ds, psi0, derivs, theta)
        except NumericalError:
            continue
        w = solve_triangular(chol, psi_theta.sum(axis=0), lower=True)
        val = float(w @ w) / ds.n
        best = val if best is None else max(best, val)
    if best is None:
        raise NumericalError("all grid points skipped (degenerate grid)")
    return best


def sst_test(ds: Dataset, family: FamilyKind, k_directions: int = 1000,
             grid_per_direction: int = 1, n_resample: int = 1000,
             seed: int = 0, tol: float = 1e-8, max_iter: int = 100,
             bandwidth: float | None = None) -> TestOutcome:
    """SST with perturbation-resampling calibration.

    The perturbed supremum reuses the observed per-theta quantities (score
    rows, correction, Cholesky of V) for every multiplier draw; the p-value
    is the fraction of resampled suprema at or above the observed statistic.
    Draws are taken ``DRAW_BLOCK`` at a time, each block through one GEMM
    with the whitened (K*p) x n stack.
    """
    if n_resample < 1:
        raise ParameterError("n_resample must be >= 1")
    validate(ds, family.name)
    fit = fit_null(ds, family, tol=tol, max_iter=max_iter)
    if not fit.converged:
        raise NumericalError("null fit did not converge")
    derivs = sst_derivatives(ds, family, fit, bandwidth=bandwidth)
    grid = build_theta_grid(ds, k_directions, grid_per_direction, seed)
    psi0 = score_psi0(ds, family, fit).psi0
    n, p = psi0.shape

    # Materialize per-theta caches once: whitened perturbation rows L^-1 U',
    # written into one C-contiguous stack so that flattening it is a view,
    # and the whitened observed score sums.
    m_stack = np.empty((len(grid), p, n))
    obs_vals = []
    for theta in grid.thetas:
        try:
            psi_theta, chol, centered = _theta_quantities(ds, psi0, derivs, theta)
        except NumericalError:
            continue
        w = solve_triangular(chol, psi_theta.sum(axis=0), lower=True)
        m_stack[len(obs_vals)] = solve_triangular(chol, centered.T, lower=True)
        obs_vals.append(float(w @ w) / n)
    k_eff = len(obs_vals)
    if k_eff == 0:
        raise NumericalError("all grid points skipped (degenerate grid)")
    stat = max(obs_vals)
    m_flat = m_stack[:k_eff].reshape(k_eff * p, n)

    boot = np.empty(n_resample)
    for start in range(0, n_resample, DRAW_BLOCK):
        stop = min(start + DRAW_BLOCK, n_resample)
        nu = np.stack([child_rng(seed, 1, j).standard_normal(n)
                       for j in range(start, stop)], axis=1)
        s = (m_flat @ nu).reshape(k_eff, p, stop - start)
        boot[start:stop] = np.einsum("kpj,kpj->kj", s, s).max(axis=0) / n
    # Upper-tail calibration, mirroring the WAST convention.
    p_value = float(np.mean(boot >= stat))
    return TestOutcome(
        statistic=float(stat), boot_stats=boot, p_value=p_value,
        n_boot=n_resample, family=family.describe(), weight="none",
        seed=seed, method="sst",
        diagnostics={"grid_size": len(grid), "grid_skipped": len(grid) - k_eff,
                     "k_directions": k_directions,
                     "grid_per_direction": grid_per_direction},
    )
