"""End-to-end pins: the outputs of ``wast_test`` and ``sst_test`` on fixed
data and seeds, so a change meant to leave every number in place is
checked to do so."""

from dataclasses import replace

import numpy as np
import pytest

from changeplane import (FamilyKind, beta_prior, gaussian, sst_test, univariate_gaussian,
                         wast_test)

from conftest import random_dataset

# (family, WAST statistic, p-value, n_failed, replicates, SST statistic,
# p-value, grid_distinct, grid_skipped) at n = 90, wast_test with B = 40 and
# sst_test with K = 40, B = 40.
PINNED = [
    ("gaussian", -0.006321518152272896, 0.275, 0, 40,
     4.810470752705427, 0.55, 33, 0),
    ("binomial", -0.0018686053776967198, 0.275, 0, 40,
     7.185934500241944, 0.1, 33, 0),
    ("poisson", -0.00899077488206162, 0.65, 0, 40,
     4.750733744280707, 0.475, 32, 0),
    ("probit", -0.00024281650246137055, 0.0, 0, 40,
     16.677281488057304, 0.0, 32, 0),
    ("quantile", -0.002009934336051078, 0.65, 0, 40,
     4.460681170975829, 0.425, 32, 0),
    ("semiparametric", 0.00047562946247371854, 0.325, 0, 40,
     6.182234994629842, 0.125, 34, 0),
]


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_pinned_wast_and_sst_outputs(index):
    # Statistics to 1e-12 relative, as BLAS thread counts move their last
    # bits; p-values, counts and replicates exactly.
    family, w_stat, w_p, n_failed, size, s_stat, s_p, distinct, skipped = PINNED[index]
    rng = np.random.default_rng([2026, index])
    if family == "semiparametric":
        ds = random_dataset(rng, n=90)
        ds = replace(ds, x_diff=(rng.random(90) < 0.5).astype(float)[:, None])
    else:
        ds = random_dataset(rng, n=90, family=family)
    fam = FamilyKind(family)
    w = wast_test(ds, fam, n_boot=40, seed=300 + index)
    assert w.statistic == pytest.approx(w_stat, rel=1e-12, abs=0)
    assert (w.p_value, w.n_failed, w.boot_stats.size) == (w_p, n_failed, size)
    s = sst_test(ds, fam, k_directions=40, n_resample=40, seed=300 + index)
    assert s.statistic == pytest.approx(s_stat, rel=1e-12, abs=0)
    assert s.p_value == s_p and s.boot_stats.size == 40
    assert (s.diagnostics["grid_distinct"], s.diagnostics["grid_skipped"]) == (distinct, skipped)


# (prior, z_group, family, WAST statistic, p-value, n_failed, replicates) at
# n = 90 and B = 40, for the priors other than the default: a general
# Gaussian with mu != 0 and Sigma != I on the three grouping columns, and the
# two scalar priors on one grouping column, uniform for the beta prior and
# standard normal for the univariate Gaussian.  omega carries no constant
# under these priors, so diagnostics["omega_constant"] is 0.0.
PINNED_PRIORS = [
    (gaussian([0.5, -0.3, 0.8], [[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.5]]),
     None, "binomial", -0.002318254438462328, 0.55, 0, 40),
    (beta_prior(2.0, 3.0), "uniform", "gaussian", -0.016540255982819135, 0.95, 0, 40),
    (univariate_gaussian(0.5, 2.0), "normal", "poisson", -0.006136652356336778, 0.8, 0, 40),
]


@pytest.mark.parametrize("index", range(len(PINNED_PRIORS)))
def test_pinned_wast_outputs_under_other_priors(index):
    weight, z_law, family, w_stat, w_p, n_failed, size = PINNED_PRIORS[index]
    rng = np.random.default_rng([2027, index])
    ds = random_dataset(rng, n=90, family=family)
    if z_law is not None:
        draw = rng.random if z_law == "uniform" else rng.standard_normal
        ds = replace(ds, z_group=draw((90, 1)))
    w = wast_test(ds, FamilyKind(family), weight=weight, n_boot=40, seed=400 + index)
    assert w.statistic == pytest.approx(w_stat, rel=1e-12, abs=0)
    assert (w.p_value, w.n_failed, w.boot_stats.size) == (w_p, n_failed, size)
    assert w.diagnostics["omega_constant"] == 0.0
