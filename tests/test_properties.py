"""Properties every calibrated test keeps, checked on generated inputs:
identical inputs give byte-identical outcomes, the WAST statistic does not
depend on how the null model's design x_base is parametrized, and the exact
quantile fit is equivariant as the check-loss minimum is."""

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from changeplane import FamilyKind, sst_test, wast_statistic, wast_test, weight_matrix
from changeplane.families import DEFAULT_MAX_ITER, DEFAULT_TOL, _fit, fit_null, score_psi0
from changeplane.quantile import _kb_excess

from conftest import check_loss, random_dataset

SEEDS = st.integers(0, 2**31 - 1)


def assert_byte_identical(a, b):
    """Every field of two outcomes pickles to the same bytes: arrays by
    dtype, shape and contents, floats bit for bit, NaN included."""
    assert type(a) is type(b)
    for f in fields(a):
        assert pickle.dumps(getattr(a, f.name)) == pickle.dumps(getattr(b, f.name)), f.name


def probit_data(seed, n):
    return random_dataset(np.random.default_rng(seed), n=n, family="probit")


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, n=st.integers(40, 120), n_boot=st.integers(1, 40))
def test_wast_identical_inputs_identical_outcomes(seed, n, n_boot):
    family = FamilyKind("probit")
    runs = [wast_test(probit_data(seed, n), family, n_boot=n_boot, seed=seed)
            for _ in range(2)]
    assert_byte_identical(*runs)


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, n=st.integers(40, 120), k=st.integers(5, 60),
       n_resample=st.integers(1, 40))
def test_sst_identical_inputs_identical_outcomes(seed, n, k, n_resample):
    family = FamilyKind("probit")
    runs = [sst_test(probit_data(seed, n), family, k_directions=k,
                     n_resample=n_resample, seed=seed) for _ in range(2)]
    assert_byte_identical(*runs)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(40, 150), r=st.integers(2, 4),
       family=st.sampled_from(["probit", "binomial"]))
def test_wast_statistic_invariant_to_reparametrized_baseline(seed, n, r, family):
    # x_base -> x_base A spans the same columns, so the null fit and the
    # statistic are the same in exact arithmetic.  A = Q diag(d), Q
    # orthogonal and d in [0.5, 2], has condition number at most 4.
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=n, r=r, family=family)
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    moved = replace(ds, x_base=ds.x_base @ (q * rng.uniform(0.5, 2.0, r)))
    kind = FamilyKind(family)
    t0 = wast_test(ds, kind, n_boot=1, seed=seed).statistic
    t1 = wast_test(moved, kind, n_boot=1, seed=seed).statistic
    # Each fit stops once max|X's|/n <= DEFAULT_TOL, so the two fitted
    # linear predictors, hence the score rows, agree to O(DEFAULT_TOL) times
    # the conditioning of X'WX/n; the statistic moves by that much relative
    # to its absolute counterpart, the U-statistic of the row norms |psi_i|.
    psi = score_psi0(ds, kind, fit_null(ds, kind))
    scale = wast_statistic(np.linalg.norm(psi, axis=1), weight_matrix(ds.z_group))
    assert abs(t1 - t0) <= 100 * DEFAULT_TOL * scale


def quantile_fit(y, x, tau):
    alpha, converged, *_ = _fit(FamilyKind("quantile", tau=tau), y[:, None], x,
                                DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert converged[0]
    return alpha[:, 0]


def quantile_problem(seed, n, r):
    rng = np.random.default_rng(seed)
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, r - 1))])
    return rng, x @ rng.uniform(-1.0, 1.0, r) + rng.standard_t(3, n), x


def kb_excess(y, x, tau, alpha):
    """The Koenker-Bassett excess of alpha over its bounds and the rounding
    allowance (``quantile._kb_excess``), at the basis of the r rows alpha
    interpolates: those with the smallest |residual|."""
    resid = y - x @ alpha
    basis = np.sort(np.argsort(np.abs(resid))[:x.shape[1]])
    over, under, slack = _kb_excess(x, resid[:, None], basis[None],
                                    np.linalg.inv(x[basis])[None], tau)
    return np.maximum(over, under)[0], slack[0]


def assert_same_optimum(y, x, tau, got, want):
    """got, the fit of (y, tau), against want, the fit of another problem
    carried onto this one by a map that carries its optima onto this one's.
    Where the Koenker-Bassett condition holds strictly at got, the optimum
    is unique, and the two are equal to 1e-12 relative to the larger
    coefficient.  Where it holds only on a bound, the optima form an edge or
    a face (the median of two points is any point between them), and the
    two need only both be certified optimal, with equal check loss."""
    excess, slack = kb_excess(y, x, tau, got)
    if np.all(excess < -slack):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        return
    excess, slack = kb_excess(y, x, tau, want)
    assert np.all(excess <= slack)
    assert check_loss(y, x, got, tau) == pytest.approx(check_loss(y, x, want, tau),
                                                       rel=1e-12, abs=0)


QUANTILE_PROBLEMS = dict(seed=SEEDS, n=st.integers(2, 150), r=st.integers(1, 4),
                         tau=st.floats(0.05, 0.95))


@settings(max_examples=30, deadline=None)
@given(**QUANTILE_PROBLEMS)
@example(seed=175, n=2, r=1, tau=0.5)  # the median of two points: a segment of optima
def test_quantile_fit_shift_equivariant(seed, n, r, tau):
    # fit(y + X c) = fit(y) + c: the residuals, hence the optimal basis, are
    # those of y.
    rng, y, x = quantile_problem(seed, max(n, r + 1), r)
    c = rng.uniform(-3.0, 3.0, r)
    assert_same_optimum(y + x @ c, x, tau, quantile_fit(y + x @ c, x, tau),
                        quantile_fit(y, x, tau) + c)


@settings(max_examples=30, deadline=None)
@given(**QUANTILE_PROBLEMS, lam=st.floats(1e-3, 1e3))
@example(seed=902168985, n=2, r=1, tau=0.5, lam=152.50757010582856)  # a segment of optima
def test_quantile_fit_scale_equivariant(seed, n, r, tau, lam):
    _, y, x = quantile_problem(seed, max(n, r + 1), r)
    assert_same_optimum(lam * y, x, tau, quantile_fit(lam * y, x, tau),
                        lam * quantile_fit(y, x, tau))


@settings(max_examples=30, deadline=None)
@given(**QUANTILE_PROBLEMS)
@example(seed=175, n=2, r=1, tau=0.5)  # a segment of optima
def test_quantile_fit_reflection(seed, n, r, tau):
    # rho_{1-tau}(-u) = rho_tau(u): fit(-y, 1 - tau) = -fit(y, tau).
    _, y, x = quantile_problem(seed, max(n, r + 1), r)
    assert_same_optimum(-y, x, 1.0 - tau, quantile_fit(-y, x, 1.0 - tau),
                        -quantile_fit(y, x, tau))
