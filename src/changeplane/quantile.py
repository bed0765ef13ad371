"""Exact quantile-regression fits: the check-loss minimum of every column
of an n x B response, in lock step.

A fit is a simplex (Barrodale & Roberts 1973) over bases of r interpolated
rows, each certified optimal or not by the Koenker & Bassett (1978)
condition.  ``families`` imports this module when a quantile fit runs, so
the package's import does not compile it.
"""

from __future__ import annotations

import numpy as np

from .families import _EPS, _quantile_residual

# A Koenker-Bassett bound on xi_j may be missed by _CERT_ULPS ulps of
# sum_i |x_i'| |X_h^-1 e_j|, the rounding of the sum that forms it.
_CERT_ULPS = 64
# A candidate basis row is dependent on those kept when all but this share
# of its norm lies in their span.
_RANK_TOL = 1e-9
# Size of the perturbation of y, relative to max|y|, that takes a fit off a
# degenerate vertex.
_PERTURB = 2.0 ** -30


def _independent_rows(x: np.ndarray, order: np.ndarray) -> np.ndarray:
    """B x r row indices: for each column of the n x B row ``order``, the
    first r rows of the full-rank x, taken in that order, that are linearly
    independent.  Gram-Schmidt in lock step: a candidate is kept when its
    part orthogonal to the rows kept so far is not lost to rounding."""
    n, r = x.shape
    cols = np.arange(order.shape[1])
    rows = np.empty((cols.size, r), int)
    ortho = np.zeros((cols.size, r, r))  # orthonormal rows spanning those kept
    kept = np.zeros(cols.size, int)
    for pos in range(n):
        c = cols[kept < r]
        if not c.size:
            break
        cand = order[pos, c]
        v = x[cand]
        perp = v - np.einsum("mkr,mk->mr", ortho[c], np.einsum("mkr,mr->mk", ortho[c], v))
        norm = np.linalg.norm(perp, axis=1)
        ok = norm > _RANK_TOL * np.linalg.norm(v, axis=1)
        c, cand = c[ok], cand[ok]
        ortho[c, kept[c]] = perp[ok] / norm[ok, None]
        rows[c, kept[c]] = cand
        kept[c] += 1
    return rows


def _vertex(x, y, basis, cols):
    """X_h^-1 (m x r x r) at the m x r basis rows h of the columns ``cols``
    of y, and the n x m residuals (``_quantile_residual``) of the alpha that
    interpolates them, exactly 0 on the basis rows."""
    inv = np.linalg.inv(x[basis])
    alpha = (inv @ y[basis, cols[:, None]][:, :, None])[:, :, 0].T
    resid = _quantile_residual(y[:, cols], x, alpha)
    resid[basis.T, np.arange(cols.size)] = 0.0
    return inv, resid


def _kb_excess(x, resid, basis, inv, tau):
    """The Koenker-Bassett (1978) condition at a basis h: with psi_i =
    tau - 1(r_i < 0) on the nonbasic rows, xi' = sum_{i not in h} psi_i x_i'
    X_h^-1 must lie in [-tau, 1 - tau]^r.  Returns the m x r excess of xi
    over 1 - tau, of -tau over xi, and the rounding allowance of xi, so the
    condition holds where both excesses are within the allowance."""
    psi = np.where(resid < 0, tau - 1.0, tau)
    psi[basis.T, np.arange(basis.shape[0])] = 0.0
    xi = np.einsum("mkj,km->mj", inv, x.T @ psi)
    slack = _CERT_ULPS * _EPS * np.einsum("mkj,k->mj", np.abs(inv), np.abs(x).sum(axis=0))
    return xi - (1.0 - tau), -tau - xi, slack


def _pivot(x, resid, basis, inv, over, excess):
    """One simplex pivot per column, along the edge of the basis position j
    whose bound is most violated: delta = +-X_h^-1 e_j, the sign that lowers
    the check loss (+ where xi_j exceeds 1 - tau, ``over``).  The exact line
    search stops at the breakpoint t_i = r_i / x_i'delta where the slope,
    -excess_j at t = 0 and rising by |x_i'delta| at each breakpoint, turns
    non-negative: the weighted median of the breakpoints.  Only rows whose
    residual moves toward zero are crossed (t_i > 0): never a basis row, a
    row with x_i'delta = 0 or a zero residual, which ``fit_quantile`` keeps
    off the line search by perturbing y.  Returns j and the entering row,
    -1 where no breakpoint turns the slope."""
    m = np.arange(basis.shape[0])
    j = np.argmax(excess, axis=1)
    sign = np.where(over[m, j] == excess[m, j], 1.0, -1.0)
    d = x @ (sign[:, None] * inv[m, :, j]).T
    d[basis.T, m] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = resid / d
    t = np.where(t > 0, t, np.inf)
    order = np.argsort(t, axis=0)
    turn = np.cumsum(np.take_along_axis(np.abs(d), order, axis=0), axis=0) >= excess[m, j]
    k = np.argmax(turn, axis=0)
    enter = order[k, m]
    return j, np.where(turn[k, m] & np.isfinite(t[enter, m]), enter, -1)


def fit_quantile(y, x, tau, max_iter):
    """Exact check-loss fits of every column of y in lock step: simplex
    pivots (Barrodale & Roberts 1973) between bases of r interpolated rows,
    each certified or refuted by the Koenker & Bassett (1978) condition.

    A column starts from the r linearly independent rows with the smallest
    |least-squares residual| and pivots (``_pivot``) until its condition
    holds.  At a degenerate vertex, one with a nonbasic zero residual, the
    condition may fail for every choice of basis and the pivots may cycle:
    such a column carries on with y perturbed by ~1e-9 of max|y|, which
    takes it off every degenerate vertex, and is then certified on its own
    y, each zero row's subgradient being its sign under the perturbation.
    Returns alpha (r x B), interpolating the sorted basis rows of y, and per
    column certified, pivots and whether it met a degenerate vertex."""
    n, r = x.shape
    b = y.shape[1]
    target = y  # a perturbed copy once a column meets a degenerate vertex
    start = np.abs(y - x @ np.linalg.lstsq(x, y, rcond=None)[0])
    basis = _independent_rows(x, np.argsort(start, axis=0))
    pivots = np.zeros(b, int)
    certified, degenerate = np.zeros(b, bool), np.zeros(b, bool)
    live = np.arange(b)
    while live.size:
        h = basis[live]
        inv, resid = _vertex(x, target, h, live)
        fresh = (np.count_nonzero(resid == 0, axis=0) > r) & ~degenerate[live]
        if fresh.any():  # perturb, and look at the vertex again
            cols = live[fresh]
            if target is y:
                target = y.copy()
            scale = np.max(np.abs(y[:, cols]), axis=0)
            direction = np.random.default_rng(0x5EED).uniform(-1.0, 1.0, n)  # fixed, generic
            target[:, cols] += np.outer(direction, _PERTURB * np.where(scale > 0, scale, 1.0))
            degenerate[cols] = True
        over, under, slack = _kb_excess(x, resid, h, inv, tau)
        excess = np.maximum(over, under)
        done = ~fresh & np.all(excess <= slack, axis=1)
        certified[live[done]] = True
        step = np.flatnonzero(~fresh & ~done & (pivots[live] < max_iter))
        j, enter = _pivot(x, resid[:, step], h[step], inv[step], over[step], excess[step])
        moved = enter >= 0
        cols = live[step[moved]]
        basis[cols, j[moved]] = enter[moved]
        pivots[cols] += 1
        live = np.concatenate([live[fresh], cols])
    basis.sort(axis=1)
    cols = np.arange(b)
    alpha = np.linalg.solve(x[basis], y[basis, cols[:, None]][:, :, None])[:, :, 0].T
    recheck = np.flatnonzero(certified & degenerate)
    if recheck.size:
        h = basis[recheck]
        inv, perturbed = _vertex(x, target, h, recheck)
        own = _quantile_residual(y[:, recheck], x, alpha[:, recheck])
        over, under, slack = _kb_excess(x, np.where(own == 0, perturbed, own), h, inv, tau)
        certified[recheck] = np.all(np.maximum(over, under) <= slack, axis=1)
    return alpha, certified, pivots, degenerate
