import numpy as np
import pytest

from changeplane import (FamilyKind, ThetaGrid, build_theta_grid, fit_null,
                         score_psi0, score_test_at, sst_derivatives,
                         sst_statistic, sst_test)
from changeplane import sst as sst_module
from changeplane.errors import ParameterError
from changeplane.rng import child_rng

from conftest import random_dataset


def loop_theta_grid(ds, k_directions, grid_per_direction, seed):
    """Reference grid: one np.quantile call per (direction, level)."""
    dirs = child_rng(seed, 0).standard_normal((k_directions, ds.q - 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    levels = ([0.5] if grid_per_direction == 1
              else np.linspace(0.10, 0.90, grid_per_direction))
    z_tail = ds.z_group[:, 1:]
    return np.asarray([np.concatenate([[-float(np.quantile(z_tail @ d, lev))], d])
                       for d in dirs for lev in levels])


def loop_resampled(ds, family, thetas, n_resample, seed):
    """Reference draws: one matrix-vector product per multiplier draw.

    The whitened rows L^-1 (psi_theta - corr)' are rebuilt here from their
    definition; planes whose V(theta) has no Cholesky factor are left out.
    """
    fit = fit_null(ds, family)
    derivs = sst_derivatives(ds, family, fit)
    psi0 = score_psi0(ds, family, fit).psi0
    rows = []
    for theta in thetas:
        psi_t = psi0 * (ds.z_group @ theta >= 0)[:, None]
        centered = psi_t - derivs.psi1 @ (derivs.k_of_theta(theta) @ derivs.j_inv).T
        try:
            chol = np.linalg.cholesky(centered.T @ centered / ds.n)
        except np.linalg.LinAlgError:
            continue
        rows.append(np.linalg.solve(chol, centered.T))
    stack = np.stack(rows)
    boot = []
    for j in range(n_resample):
        s = stack @ child_rng(seed, 1, j).standard_normal(ds.n)
        boot.append(np.max(np.sum(s * s, axis=1)) / ds.n)
    return np.asarray(boot)


class TestThetaGrid:
    def test_directions_are_unit_norm(self, rng):
        ds = random_dataset(rng, n=50, q=4)
        grid = build_theta_grid(ds, k_directions=20, seed=3)
        tails = grid.thetas[:, 1:]
        np.testing.assert_allclose(np.linalg.norm(tails, axis=1), 1.0,
                                   atol=1e-12)

    def test_grid_size(self, rng):
        ds = random_dataset(rng, n=50, q=3)
        grid = build_theta_grid(ds, k_directions=7, grid_per_direction=5,
                                seed=1)
        assert len(grid) == 35

    def test_intercept_splits_sample(self, rng):
        # With the midpoint quantile level, each plane puts about half the
        # grouping rows on each side.
        ds = random_dataset(rng, n=101, q=3)
        grid = build_theta_grid(ds, k_directions=10, seed=2)
        for theta in grid.thetas:
            frac = np.mean(ds.z_group @ theta >= 0)
            assert 0.4 <= frac <= 0.6

    def test_deterministic(self, rng):
        ds = random_dataset(rng, n=30, q=3)
        g1 = build_theta_grid(ds, k_directions=9, seed=8)
        g2 = build_theta_grid(ds, k_directions=9, seed=8)
        np.testing.assert_array_equal(g1.thetas, g2.thetas)

    @pytest.mark.parametrize("n", [301, 1001])
    @pytest.mark.parametrize("per_direction", [1, 4])
    def test_matches_per_direction_quantile_loop(self, rng, n, per_direction):
        ds = random_dataset(rng, n=n, q=3)
        grid = build_theta_grid(ds, k_directions=200,
                                grid_per_direction=per_direction, seed=4)
        np.testing.assert_array_equal(
            grid.thetas, loop_theta_grid(ds, 200, per_direction, seed=4))

    def test_requires_two_grouping_columns(self, rng):
        ds = random_dataset(rng, n=30, q=3)
        one = type(ds)(y=ds.y, x_base=ds.x_base, x_diff=ds.x_diff,
                       z_group=ds.z_group[:, :1])
        with pytest.raises(ParameterError):
            build_theta_grid(one)

    def test_invalid_counts(self, rng):
        ds = random_dataset(rng, n=30, q=3)
        with pytest.raises(ParameterError):
            build_theta_grid(ds, k_directions=0)


class TestScoreTestAt:
    def test_nonnegative_and_finite(self, rng):
        ds = random_dataset(rng, n=80, family="binomial")
        fam = FamilyKind("binomial")
        fit = fit_null(ds, fam)
        derivs = sst_derivatives(ds, fam, fit)
        for theta in build_theta_grid(ds, k_directions=15, seed=0).thetas:
            val = score_test_at(ds, fam, fit, derivs, theta)
            assert np.isfinite(val) and val >= 0.0

    def test_quadratic_form_by_hand(self, rng):
        """score_test_at must equal n^-1 s' V^-1 s with s the summed
        half-space score and V the centered empirical covariance."""
        ds = random_dataset(rng, n=70, family="gaussian")
        fam = FamilyKind("gaussian")
        fit = fit_null(ds, fam)
        derivs = sst_derivatives(ds, fam, fit)
        theta = np.array([0.1, 0.8, -0.6])
        psi0 = score_psi0(ds, fam, fit).psi0
        ind = (ds.z_group @ theta >= 0).astype(float)
        psi_t = psi0 * ind[:, None]
        corr = derivs.psi1 @ (derivs.k_of_theta(theta) @ derivs.j_inv).T
        v = (psi_t - corr).T @ (psi_t - corr) / ds.n
        s = psi_t.sum(axis=0)
        expected = float(s @ np.linalg.solve(v, s)) / ds.n
        got = score_test_at(ds, fam, fit, derivs, theta)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_statistic_is_supremum(self, rng):
        ds = random_dataset(rng, n=60, family="gaussian")
        fam = FamilyKind("gaussian")
        fit = fit_null(ds, fam)
        derivs = sst_derivatives(ds, fam, fit)
        grid = build_theta_grid(ds, k_directions=12, seed=5)
        vals = [score_test_at(ds, fam, fit, derivs, t) for t in grid.thetas]
        assert sst_statistic(ds, fam, fit, derivs, grid) == pytest.approx(
            max(vals), rel=1e-12)


class TestSstTest:
    def test_deterministic_given_seed(self, rng):
        ds = random_dataset(rng, n=80, family="gaussian")
        fam = FamilyKind("gaussian")
        r1 = sst_test(ds, fam, k_directions=50, n_resample=40, seed=6)
        r2 = sst_test(ds, fam, k_directions=50, n_resample=40, seed=6)
        assert r1.statistic == r2.statistic
        np.testing.assert_array_equal(r1.boot_stats, r2.boot_stats)

    def test_pvalue_matches_replicates(self, rng):
        ds = random_dataset(rng, n=80, family="binomial")
        out = sst_test(ds, FamilyKind("binomial"), k_directions=50,
                       n_resample=60, seed=1)
        assert out.p_value == pytest.approx(
            np.mean(out.boot_stats >= out.statistic))
        assert out.method == "sst"
        assert out.diagnostics["grid_size"] == 50

    def test_rejects_strong_alternative(self, rng):
        n = 250
        ds = random_dataset(rng, n=n, family="gaussian")
        ind = (ds.z_group @ np.array([0.0, 1.0, 1.0]) >= 0).astype(float)
        ds = ds.with_response(ds.y + ds.x_diff @ np.array([2.0, 2.0]) * ind)
        out = sst_test(ds, FamilyKind("gaussian"), k_directions=200,
                       n_resample=200, seed=9)
        assert out.p_value <= 0.01

    def test_larger_grid_never_lowers_statistic(self, rng):
        # Grid directions for a given seed are a prefix of a longer grid's,
        # so the supremum is monotone in the direction count.
        ds = random_dataset(rng, n=60, family="gaussian")
        fam = FamilyKind("gaussian")
        small = sst_test(ds, fam, k_directions=20, n_resample=5, seed=3)
        large = sst_test(ds, fam, k_directions=80, n_resample=5, seed=3)
        assert large.statistic >= small.statistic - 1e-12

    @pytest.mark.parametrize("n_resample", [1, 33])
    def test_batched_draws_match_per_draw_loop(self, rng, n_resample):
        ds = random_dataset(rng, n=90, family="binomial")
        fam = FamilyKind("binomial")
        out = sst_test(ds, fam, k_directions=40, n_resample=n_resample, seed=5)
        thetas = build_theta_grid(ds, k_directions=40, seed=5).thetas
        np.testing.assert_allclose(
            out.boot_stats, loop_resampled(ds, fam, thetas, n_resample, 5),
            rtol=1e-12, atol=0)

    def test_irreparable_planes_are_skipped_and_counted(self, rng, monkeypatch):
        # A plane with every row on its negative side has psi_theta = 0 and
        # K(theta) = 0, so V(theta) = 0 and even the ridge cannot repair it.
        ds = random_dataset(rng, n=70, family="gaussian")
        fam = FamilyKind("gaussian")
        good = build_theta_grid(ds, k_directions=12, seed=2).thetas
        empty = np.array([-1e6, 1.0, 0.0])
        thetas = np.vstack([empty, good[:6], empty, good[6:], empty])
        monkeypatch.setattr(sst_module, "build_theta_grid",
                            lambda *args: ThetaGrid(thetas=thetas, seed=2))
        out = sst_test(ds, fam, k_directions=15, n_resample=33, seed=2)
        assert out.diagnostics["grid_size"] == 15
        assert out.diagnostics["grid_skipped"] == 3
        monkeypatch.setattr(sst_module, "build_theta_grid",
                            lambda *args: ThetaGrid(thetas=good, seed=2))
        kept = sst_test(ds, fam, k_directions=12, n_resample=33, seed=2)
        assert out.statistic == kept.statistic
        np.testing.assert_allclose(out.boot_stats, kept.boot_stats,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            out.boot_stats, loop_resampled(ds, fam, thetas, 33, 2),
            rtol=1e-12, atol=0)

    def test_invalid_resample_count(self, rng):
        ds = random_dataset(rng, n=30)
        with pytest.raises(ParameterError):
            sst_test(ds, FamilyKind("gaussian"), n_resample=0)

    def test_quantile_family_end_to_end(self, rng):
        ds = random_dataset(rng, n=100, family="quantile")
        out = sst_test(ds, FamilyKind("quantile", tau=0.5), k_directions=40,
                       n_resample=30, seed=2)
        assert np.isfinite(out.statistic) and 0.0 <= out.p_value <= 1.0

    def test_probit_family_end_to_end(self, rng):
        ds = random_dataset(rng, n=100, family="probit")
        out = sst_test(ds, FamilyKind("probit"), k_directions=40,
                       n_resample=30, seed=2)
        assert np.isfinite(out.statistic) and 0.0 <= out.p_value <= 1.0

    def test_singular_covariance_is_ridge_repaired(self, rng):
        # Duplicated x_diff columns make V(theta) exactly rank-deficient; the
        # statistic must still come back finite via the ridge fallback.
        ds = random_dataset(rng, n=60, family="gaussian")
        dup = type(ds)(y=ds.y, x_base=ds.x_base,
                       x_diff=np.hstack([ds.x_diff[:, :1], ds.x_diff[:, :1]]),
                       z_group=ds.z_group)
        fam = FamilyKind("gaussian")
        fit = fit_null(dup, fam)
        derivs = sst_derivatives(dup, fam, fit)
        grid = build_theta_grid(dup, k_directions=5, seed=0)
        val = sst_statistic(dup, fam, fit, derivs, grid)
        assert np.isfinite(val) and val >= 0.0
