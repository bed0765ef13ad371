"""Properties every calibrated test keeps, checked on generated inputs:
identical inputs give byte-identical outcomes, and the WAST statistic does
not depend on how the null model's design x_base is parametrized."""

import pickle
from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from changeplane import FamilyKind, sst_test, wast_statistic, wast_test, weight_matrix
from changeplane.families import DEFAULT_TOL, fit_null, score_psi0

from conftest import random_dataset

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
