from dataclasses import replace

import numpy as np
import pytest

from changeplane import (FamilyKind, PlaneBlock, beta_prior, bootstrap_sample,
                         fit_null, score_psi0, standard_gaussian,
                         univariate_gaussian, wast_multi_statistic,
                         wast_statistic, wast_test, weight_matrix)
from changeplane import wast as wast_module
from changeplane.errors import DataError, ParameterError
from changeplane.rng import child_rng

from conftest import random_dataset


def double_loop_statistic(psi0, omega):
    """Literal two-index reference implementation."""
    psi0 = np.atleast_2d(np.asarray(psi0, float))
    if psi0.shape[0] == 1 and omega.shape[0] != 1:
        psi0 = psi0.T
    n = psi0.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += omega[i, j] * float(psi0[i] @ psi0[j])
    return total / (n * (n - 1))


def loop_boot_stats(ds, family, n_boot, seed, failed=()):
    """Per-replicate reference: one wast_statistic call per kept refit."""
    fit = fit_null(ds, family)
    omega = weight_matrix(ds)
    stats = []
    for b in range(n_boot):
        if b in failed:
            continue
        ds_b = bootstrap_sample(ds, family, fit, child_rng(seed, b))
        psi0 = score_psi0(ds_b, family, fit_null(ds_b, family)).psi0
        stats.append(wast_statistic(psi0, omega))
    return np.asarray(stats)


class TestWastStatistic:
    def test_two_points_by_hand(self):
        psi0 = np.array([[1.0], [2.0]])
        omega = np.array([[0.5, 0.3], [0.3, 0.5]])
        # (0.3*2 + 0.3*2) / 2 = 0.6
        assert wast_statistic(psi0, omega) == pytest.approx(0.6)

    def test_diagonal_ignored(self):
        psi0 = np.array([[1.0], [2.0]])
        base = np.array([[0.0, 0.3], [0.3, 0.0]])
        spiked = base + 100.0 * np.eye(2)
        assert wast_statistic(psi0, spiked) == pytest.approx(
            wast_statistic(psi0, base), rel=1e-12, abs=1e-12)

    def test_matches_double_loop(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            p = int(rng.integers(1, 4))
            psi0 = rng.standard_normal((n, p))
            omega = rng.random((n, n))
            omega = (omega + omega.T) / 2
            fast = wast_statistic(psi0, omega)
            slow = double_loop_statistic(psi0, omega)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ParameterError):
            wast_statistic(rng.standard_normal((4, 2)), np.eye(3))

    def test_single_observation(self):
        with pytest.raises(DataError):
            wast_statistic(np.array([[1.0]]), np.array([[0.5]]))

    def test_vector_scores_accepted_1d(self, rng):
        psi = rng.standard_normal(6)
        omega = np.full((6, 6), 0.25)
        assert wast_statistic(psi, omega) == pytest.approx(
            double_loop_statistic(psi[:, None], omega), rel=1e-12)


class TestMultiPlane:
    def test_single_plane_reduces_to_weighted_statistic(self, rng):
        n = 12
        psi = rng.standard_normal(n)
        x = rng.standard_normal((n, 2))
        z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
        block = PlaneBlock(x=x, z=z)
        got = wast_multi_statistic(psi, [block])
        omega = (x @ x.T) * weight_matrix(z, standard_gaussian())
        assert got == pytest.approx(
            double_loop_statistic(psi[:, None], omega), rel=1e-12)

    def test_two_planes_additive(self, rng):
        n = 10
        psi = rng.standard_normal(n)
        blocks = []
        for _ in range(2):
            x = rng.standard_normal((n, 1))
            z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
            blocks.append(PlaneBlock(x=x, z=z))
        got = wast_multi_statistic(psi, blocks)
        parts = sum(
            (b.x @ b.x.T) * weight_matrix(b.z, b.weight) for b in blocks)
        assert got == pytest.approx(
            double_loop_statistic(psi[:, None], parts), rel=1e-12)

    def test_mixed_weight_variants(self, rng):
        n = 8
        psi = rng.standard_normal(n)
        z1 = rng.random((n, 1))
        z2 = rng.standard_normal((n, 1))
        blocks = [PlaneBlock(x=np.ones((n, 1)), z=z1,
                             weight=beta_prior(2.0, 2.0)),
                  PlaneBlock(x=rng.standard_normal((n, 1)), z=z2,
                             weight=univariate_gaussian(0.0, 1.0))]
        val = wast_multi_statistic(psi, blocks)
        assert np.isfinite(val)

    def test_no_planes(self, rng):
        with pytest.raises(ParameterError):
            wast_multi_statistic(rng.standard_normal(5), [])

    def test_row_mismatch(self, rng):
        block = PlaneBlock(x=np.ones((4, 1)), z=np.ones((4, 2)))
        with pytest.raises(ParameterError):
            wast_multi_statistic(rng.standard_normal(5), [block])


class TestWastTest:
    def test_deterministic_given_seed(self, rng):
        ds = random_dataset(rng, n=60, family="gaussian")
        fam = FamilyKind("gaussian")
        r1 = wast_test(ds, fam, n_boot=50, seed=4)
        r2 = wast_test(ds, fam, n_boot=50, seed=4)
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value
        np.testing.assert_array_equal(r1.boot_stats, r2.boot_stats)

    def test_seed_changes_bootstrap(self, rng):
        ds = random_dataset(rng, n=60, family="gaussian")
        fam = FamilyKind("gaussian")
        r1 = wast_test(ds, fam, n_boot=50, seed=4)
        r2 = wast_test(ds, fam, n_boot=50, seed=5)
        assert r1.statistic == r2.statistic  # data unchanged
        assert not np.array_equal(r1.boot_stats, r2.boot_stats)

    def test_pvalue_counts_upper_tail(self, rng):
        ds = random_dataset(rng, n=50, family="binomial")
        out = wast_test(ds, FamilyKind("binomial"), n_boot=40, seed=1)
        expected = np.mean(out.boot_stats >= out.statistic)
        assert out.p_value == pytest.approx(expected)
        assert 0.0 <= out.p_value <= 1.0

    def test_outcome_metadata(self, rng):
        ds = random_dataset(rng, n=40, family="poisson")
        out = wast_test(ds, FamilyKind("poisson"), n_boot=10, seed=2)
        assert out.method == "wast"
        assert out.family == "poisson"
        assert out.weight == "std_gaussian"
        assert out.n_boot == out.boot_stats.size
        assert out.seed == 2

    def test_invalid_boot_count(self, rng):
        ds = random_dataset(rng, n=30)
        with pytest.raises(ParameterError):
            wast_test(ds, FamilyKind("gaussian"), n_boot=0)

    def test_small_pvalue_under_strong_alternative(self, rng):
        # Plant a large change-plane effect; the test should reject.
        n = 200
        ds = random_dataset(rng, n=n, family="gaussian")
        ind = (ds.z_group @ np.array([0.0, 1.0, 1.0]) >= 0).astype(float)
        shift = ds.x_diff @ np.array([2.0, 2.0]) * ind
        ds = ds.with_response(ds.y + shift)
        out = wast_test(ds, FamilyKind("gaussian"), n_boot=200, seed=7)
        assert out.p_value <= 0.01

    def test_quantile_family_end_to_end(self, rng):
        ds = random_dataset(rng, n=80, family="quantile")
        out = wast_test(ds, FamilyKind("quantile", tau=0.5), n_boot=30, seed=3)
        assert np.isfinite(out.statistic)
        assert out.n_failed == 0

    @pytest.mark.parametrize("n_boot, failed", [
        (1, ()),
        (wast_module.BOOT_BLOCK + 6, ()),
        (wast_module.BOOT_BLOCK + 6, (0, wast_module.BOOT_BLOCK - 1,
                                      wast_module.BOOT_BLOCK + 5)),
    ])
    def test_batched_bootstrap_matches_per_replicate_loop(
            self, rng, monkeypatch, n_boot, failed):
        ds = random_dataset(rng, n=60, family="binomial")
        fam = FamilyKind("binomial")
        ref = loop_boot_stats(ds, fam, n_boot, seed=11, failed=failed)
        calls = []

        def flaky_fit_null(ds_arg, family, **kwargs):
            fit = fit_null(ds_arg, family, **kwargs)
            replicate = len(calls) - 1  # call 0 fits the original data
            calls.append(replicate)
            return replace(fit, converged=False) if replicate in failed else fit

        monkeypatch.setattr(wast_module, "fit_null", flaky_fit_null)
        out = wast_test(ds, fam, n_boot=n_boot, seed=11)
        assert len(calls) == n_boot + 1
        assert out.n_failed == len(failed)
        assert out.n_boot == n_boot - len(failed) == ref.size
        np.testing.assert_allclose(out.boot_stats, ref, rtol=1e-10, atol=0)
        assert out.p_value == np.mean(ref >= out.statistic)

    def test_semiparametric_end_to_end(self, rng):
        n = 100
        ds = random_dataset(rng, n=n)
        a = (rng.random(n) < 0.5).astype(float)
        ds = type(ds)(y=ds.y, x_base=ds.x_base, x_diff=a[:, None],
                      z_group=ds.z_group)
        out = wast_test(ds, FamilyKind("semiparametric"), n_boot=30, seed=3)
        assert np.isfinite(out.statistic)
        assert 0.0 <= out.p_value <= 1.0
