import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from changeplane import (Dataset, FamilyKind, ThetaGrid, build_theta_grid, fit_null,
                         score_psi0, score_test_at, sst_derivatives,
                         sst_statistic, sst_test)
from changeplane import cli
from changeplane import sst as sst_module
from changeplane.errors import NumericalError, ParameterError
from changeplane.rng import child_rng

from conftest import random_dataset


def block_projections(z, thetas):
    """The K x n projections, stacked from the blocks of ``_plane_blocks``
    that the grid and the kernel read."""
    return np.vstack([proj for _, _, proj in sst_module._plane_blocks(z, thetas)])


def loop_theta_grid(ds, k_directions, grid_per_direction, seed):
    """Reference grid: one np.quantile call per (direction, level), each on
    its plane's row of the projections of its block of planes."""
    dirs = child_rng(seed, 0).standard_normal((k_directions, ds.q - 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    levels = ([0.5] if grid_per_direction == 1
              else np.linspace(0.10, 0.90, grid_per_direction))
    thetas = np.zeros((k_directions * len(levels), ds.q))
    thetas[:, 1:] = [d for d in dirs for _ in levels]
    proj = block_projections(ds.z_group, thetas)
    for k, lev in enumerate(list(levels) * k_directions):
        thetas[k, 0] = -float(np.quantile(proj[k], lev))
    return thetas


FAMILIES = ["gaussian", "binomial", "poisson", "probit", "quantile",
            "semiparametric"]


def family_dataset(rng, n, family):
    """random_dataset, with a binary treatment as x_diff for semiparametric."""
    if family != "semiparametric":
        return random_dataset(rng, n=n, family=family)
    ds = random_dataset(rng, n=n)
    a = (rng.random(n) < 0.5).astype(float)
    return type(ds)(y=ds.y, x_base=ds.x_base, x_diff=a[:, None],
                    z_group=ds.z_group)


def loop_resampled(ds, family, thetas, n_resample, seed):
    """Reference draws: one matrix-vector product per multiplier draw.

    The whitened rows L^-1 (psi_theta - corr)' are rebuilt here from their
    definition; planes whose V(theta) has no Cholesky factor are left out.
    The indicator rows come from the projections of each block of planes,
    as in the kernel: a one-plane product may round a row on the plane
    differently.
    """
    fit = fit_null(ds, family)
    derivs = sst_derivatives(ds, family, fit)
    psi0 = score_psi0(ds, family, fit)
    rows = []
    inside = block_projections(ds.z_group, thetas) >= -thetas[:, :1]
    for d in inside:
        k_theta = derivs.g[d].T @ derivs.h[d] / ds.n
        centered = psi0 * d[:, None] - derivs.psi1 @ (k_theta @ derivs.j_inv).T
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

    @pytest.mark.parametrize("n", [301, 1001, 300, 1000])
    @pytest.mark.parametrize("per_direction", [1, 4])
    def test_matches_per_direction_quantile_loop(self, rng, n, per_direction):
        ds = random_dataset(rng, n=n, q=3)
        grid = build_theta_grid(ds, k_directions=200,
                                grid_per_direction=per_direction, seed=4)
        np.testing.assert_array_equal(
            grid.thetas, loop_theta_grid(ds, 200, per_direction, seed=4))

    @pytest.mark.parametrize("per_direction", [1, 3, 4])
    def test_matches_per_direction_quantile_loop_across_plane_blocks(self, rng,
                                                                     per_direction):
        # K = 600 planes: nine full blocks of 65 and a partial one; at three
        # levels a block starts at a level other than the first.
        ds = random_dataset(rng, n=1001, q=4)
        k = 600 // per_direction
        grid = build_theta_grid(ds, k_directions=k, grid_per_direction=per_direction, seed=5)
        np.testing.assert_array_equal(
            grid.thetas, loop_theta_grid(ds, k, per_direction, seed=5))

    @pytest.mark.parametrize("n", [300, 301])
    def test_blocks_smaller_than_levels_match_quantile_loop(self, rng, monkeypatch, n):
        # Three planes per block at four levels: a block may hold no plane
        # of some level, and each level's first plane moves from block to
        # block.
        ds = random_dataset(rng, n=n, q=3)
        monkeypatch.setattr(sst_module, "PLANE_BUDGET", 3 * n)
        grid = build_theta_grid(ds, k_directions=20, grid_per_direction=4, seed=9)
        np.testing.assert_array_equal(grid.thetas, loop_theta_grid(ds, 20, 4, seed=9))

    @pytest.mark.parametrize("per_direction", [1, 4])
    def test_two_rows_match_np_quantile(self, per_direction):
        # n = 2: every level interpolates between the only two order statistics.
        ds = Dataset(y=np.array([0.3, -1.2]), x_base=np.ones((2, 1)),
                     x_diff=np.ones((2, 1)),
                     z_group=np.array([[1.0, 0.4, -1.0], [1.0, -2.0, 0.5]]))
        grid = build_theta_grid(ds, k_directions=50, grid_per_direction=per_direction,
                                seed=1)
        np.testing.assert_array_equal(
            grid.thetas, loop_theta_grid(ds, 50, per_direction, seed=1))

    @pytest.mark.parametrize("n", [301, 1001])
    def test_quantile_row_is_inside_its_plane(self, rng, n):
        # The kernel's indicator and the grid's intercepts come from the same
        # products, one per block of planes, so at odd n the median row is
        # always inside.
        # The kernel keeps one packed indicator row per distinct membership;
        # packed[inverse], unpacked, gives back each grid plane's row.
        ds = random_dataset(rng, n=n, q=3)

        def plane_rows(thetas):
            packed, inverse = sst_module._distinct_memberships(ds.z_group, thetas)
            return np.unpackbits(packed[inverse], axis=1, count=n)

        grid = build_theta_grid(ds, k_directions=300, seed=6)
        ind = plane_rows(grid.thetas)
        assert np.all(ind.sum(axis=1) == (n + 1) // 2)
        levels = np.linspace(0.10, 0.90, 4)
        grid = build_theta_grid(ds, k_directions=300, grid_per_direction=4, seed=6)
        ind = plane_rows(grid.thetas)
        proj = block_projections(ds.z_group, grid.thetas)
        # np.quantile interpolates between the order statistics at
        # floor and ceil of level * (n - 1); the upper one is inside.
        upper = np.ceil(np.tile(levels, 300) * (n - 1)).astype(int)
        rows = np.argsort(proj, axis=1)[np.arange(len(proj)), upper]
        assert np.all(ind[np.arange(len(ind)), rows] == 1)

    def test_requires_intercept_column(self, rng):
        ds = random_dataset(rng, n=30, q=3)
        shifted = type(ds)(y=ds.y, x_base=ds.x_base, x_diff=ds.x_diff,
                           z_group=ds.z_group + 0.5)
        with pytest.raises(ParameterError):
            build_theta_grid(shifted)

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
            # A fixed plane is a grid of one plane, through the same kernel.
            assert val == sst_statistic(ds, fam, fit, derivs, ThetaGrid(theta[None]))

    def test_quadratic_form_by_hand(self, rng):
        """score_test_at must equal n^-1 s' V^-1 s with s the summed
        half-space score and V the centered empirical covariance."""
        ds = random_dataset(rng, n=70, family="gaussian")
        fam = FamilyKind("gaussian")
        fit = fit_null(ds, fam)
        derivs = sst_derivatives(ds, fam, fit)
        theta = np.array([0.1, 0.8, -0.6])
        psi0 = score_psi0(ds, fam, fit)
        ind = ds.z_group @ theta >= 0
        psi_t = psi0 * ind[:, None]
        corr = derivs.psi1 @ (derivs.g[ind].T @ derivs.h[ind] / ds.n @ derivs.j_inv).T
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

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (1, 4), (1, 1, 3)])
    def test_grid_of_wrong_shape_raises(self, rng, shape):
        ds = random_dataset(rng, n=50, family="gaussian")
        fam = FamilyKind("gaussian")
        fit = fit_null(ds, fam)
        derivs = sst_derivatives(ds, fam, fit)
        thetas = np.resize([0.1, 0.8, -0.6, 0.2], shape)
        with pytest.raises(ParameterError, match="theta grid must be K x 3"):
            sst_statistic(ds, fam, fit, derivs, ThetaGrid(thetas))
        # score_test_at makes a one-row grid of its theta; thetas[0] is a
        # scalar, 2 or 4 long, or a 1 x 3 matrix.
        with pytest.raises(ParameterError, match="theta grid must be K x 3"):
            score_test_at(ds, fam, fit, derivs, thetas[0])

    @pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((1, 1), np.inf),
                                              ((2, 2), -np.inf)])
    def test_non_finite_grid_raises(self, rng, entry, value):
        # A NaN intercept used to be reported as V(theta) singular at every
        # plane, and an infinite direction entry gave a statistic.
        ds = random_dataset(rng, n=50, family="gaussian")
        fam = FamilyKind("gaussian")
        fit = fit_null(ds, fam)
        derivs = sst_derivatives(ds, fam, fit)
        thetas = build_theta_grid(ds, k_directions=3, seed=1).thetas
        thetas[entry] = value
        with pytest.raises(ParameterError, match="non-finite"):
            sst_statistic(ds, fam, fit, derivs, ThetaGrid(thetas))
        with pytest.raises(ParameterError, match="non-finite"):
            score_test_at(ds, fam, fit, derivs, thetas[entry[0]])


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
        ds = replace(ds, y=ds.y + ds.x_diff @ np.array([2.0, 2.0]) * ind)
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

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [90, 1001])
    @pytest.mark.parametrize("n_resample", [1, 33])
    def test_batched_draws_match_per_draw_loop(self, rng, family, n, n_resample):
        # At odd n the median intercept puts one row on each plane, so the
        # loop takes its indicator rows from the kernel's helper.
        ds = family_dataset(rng, n, family)
        fam = FamilyKind(family)
        out = sst_test(ds, fam, k_directions=40, n_resample=n_resample, seed=5)
        thetas = build_theta_grid(ds, k_directions=40, seed=5).thetas
        np.testing.assert_allclose(
            out.boot_stats, loop_resampled(ds, fam, thetas, n_resample, 5),
            rtol=1e-12, atol=0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n_resample", [1, 31, 32, 33, 100])
    def test_blocks_equal_the_full_test(self, rng, family, n_resample):
        # sst_blocks returns sst_test's statistic and yields its suprema, one draw block
        # at a time.
        ds = family_dataset(rng, 90, family)
        fam = FamilyKind(family)
        out = sst_test(ds, fam, k_directions=40, n_resample=n_resample, seed=8)
        statistic, blocks = sst_module.sst_blocks(ds, fam, k_directions=40,
                                                  n_resample=n_resample, seed=8)
        blocks = list(blocks)
        block = sst_module.DRAW_BLOCK
        assert [ran for _, ran in blocks] == [min(block, n_resample - b)
                                              for b in range(0, n_resample, block)]
        assert statistic == out.statistic
        np.testing.assert_array_equal(np.concatenate([boot for boot, _ in blocks]),
                                      out.boot_stats)

    def test_irreparable_planes_are_skipped_and_counted(self, rng, monkeypatch):
        # A plane with every row on its negative side has psi_theta = 0 and
        # K(theta) = 0, so V(theta) = 0 and even the ridge cannot repair it.
        ds = random_dataset(rng, n=70, family="gaussian")
        fam = FamilyKind("gaussian")
        good = build_theta_grid(ds, k_directions=12, seed=2).thetas
        empty = np.array([-1e6, 1.0, 0.0])
        thetas = np.vstack([empty, good[:6], empty, good[6:], empty])
        monkeypatch.setattr(sst_module, "build_theta_grid",
                            lambda *args: ThetaGrid(thetas=thetas))
        out = sst_test(ds, fam, k_directions=15, n_resample=33, seed=2)
        assert out.diagnostics["grid_size"] == 15
        assert out.diagnostics["grid_skipped"] == 3
        monkeypatch.setattr(sst_module, "build_theta_grid",
                            lambda *args: ThetaGrid(thetas=good))
        kept = sst_test(ds, fam, k_directions=12, n_resample=33, seed=2)
        assert out.statistic == kept.statistic
        np.testing.assert_allclose(out.boot_stats, kept.boot_stats,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            out.boot_stats, loop_resampled(ds, fam, thetas, 33, 2),
            rtol=1e-12, atol=0)

    def test_grid_stacked_twice_scores_each_membership_once(self, rng, monkeypatch):
        # A grid and the same grid twice have the same distinct memberships,
        # so every number is the same while the plane counts double.
        ds = random_dataset(rng, n=301, family="binomial")
        fam = FamilyKind("binomial")
        good = build_theta_grid(ds, k_directions=60, grid_per_direction=4, seed=4).thetas
        empty = np.array([-1e6, 1.0, 0.0])
        once = np.vstack([empty, good])
        outs = []
        for thetas in (once, np.vstack([once, once])):
            monkeypatch.setattr(sst_module, "build_theta_grid",
                                lambda *args, t=thetas: ThetaGrid(thetas=t))
            outs.append(sst_test(ds, fam, k_directions=60, grid_per_direction=4,
                                 n_resample=40, seed=4))
        single, double = outs
        assert double.statistic == single.statistic
        np.testing.assert_array_equal(double.boot_stats, single.boot_stats)
        assert double.p_value == single.p_value
        d1, d2 = single.diagnostics, double.diagnostics
        assert (d1["grid_size"], d2["grid_size"]) == (241, 482)
        assert d1["grid_skipped"] == 1 and d2["grid_skipped"] == 2
        assert d2["grid_repaired"] == 2 * d1["grid_repaired"]
        assert d2["grid_distinct"] == d1["grid_distinct"] <= 241

    @pytest.mark.parametrize("n, q, k, planes", [(300, 3, 40, 7), (301, 3, 40, 7),
                                                 (999, 5, 150, 256)],
                             ids=["300", "301", "999-q5"])
    def test_plane_blocks_cross_directions(self, rng, monkeypatch, n, q, k, planes):
        # Blocks of ``planes`` planes against the default budget's (218 planes
        # at n = 300, 65 at n = 999): blocks straddle directions and levels,
        # and do not divide K = 4k.  256-plane blocks are the ones used before
        # the budget counted projections; at q >= 4 they round some
        # intercepts differently.  The block size is part of the grid, so the
        # grid is rebuilt under it: its intercepts may move in their last
        # bits, its memberships and every number of the test may not.
        ds = random_dataset(rng, n=n, q=q, family="gaussian")
        fam = FamilyKind("gaussian")
        fit = fit_null(ds, fam)
        args = ds, score_psi0(ds, fam, fit), sst_derivatives(ds, fam, fit)

        def grid():
            return build_theta_grid(ds, k_directions=k, grid_per_direction=4, seed=7).thetas

        def run():
            return sst_test(ds, fam, k_directions=k, grid_per_direction=4, n_resample=40,
                            seed=7)

        thetas = grid()
        default = sst_module._grid_planes(*args, thetas)
        default_rows = sst_module._distinct_memberships(ds.z_group, thetas)
        default_test = run()
        monkeypatch.setattr(sst_module, "PLANE_BUDGET", planes * n)
        sizes = [len(block) for _, block, _ in sst_module._plane_blocks(ds.z_group, thetas)]
        assert len(sizes) > 1 and set(sizes[:-1]) == {planes}
        blocked_thetas = grid()
        np.testing.assert_array_equal(blocked_thetas, loop_theta_grid(ds, k, 4, seed=7))
        np.testing.assert_allclose(blocked_thetas, thetas, rtol=1e-13, atol=0)
        blocked = sst_module._grid_planes(*args, blocked_thetas)
        for a, b in zip(default[:5], blocked[:5]):
            np.testing.assert_array_equal(a, b)
        assert default[5] == blocked[5]
        for a, b in zip(default_rows,
                        sst_module._distinct_memberships(ds.z_group, blocked_thetas)):
            np.testing.assert_array_equal(a, b)
        out = run()
        assert out.statistic == default_test.statistic
        np.testing.assert_array_equal(out.boot_stats, default_test.boot_stats)
        assert out.p_value == default_test.p_value
        assert out.diagnostics == default_test.diagnostics

    def test_grid_projections_fit_the_plane_budget(self, rng):
        # n = 4000, K = 2000: 256-plane blocks held 8 MB of projections and
        # the grid with its memberships peaked at 16.5 MB.  A block of
        # PLANE_BUDGET projections is 512 KB; the K n/8 = 1 MB of packed rows
        # and np.unique's copies of them make up most of the rest.
        ds = random_dataset(rng, n=4000, q=3, family="gaussian")
        tracemalloc.start()
        try:
            grid = build_theta_grid(ds, k_directions=2000, seed=3)
            sst_module._distinct_memberships(ds.z_group, grid.thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_no_k_by_n_array(self, rng):
        # K = 3000 planes at n = 1000: a K x n float array alone would be
        # 24 MB, and at q = 4, where U is about K, so would a U x n float
        # indicator; at K = 20 000 it would be 150 MB.  The kernel holds the
        # packed U x n/8 bytes instead.
        n = 1000
        for q, directions, levels, bound in [(3, 3000, 1, 8e6), (4, 3000, 1, 8e6),
                                             (4, 5000, 4, 16e6)]:
            ds = random_dataset(rng, n=n, q=q, family="gaussian")
            tracemalloc.start()
            try:
                out = sst_test(ds, FamilyKind("gaussian"), k_directions=directions,
                               grid_per_direction=levels, n_resample=8, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (q, levels)
        assert out.diagnostics["grid_distinct"] > 0.9 * directions * levels

    @pytest.mark.parametrize("u", [255, 256, 300, 1163])
    @pytest.mark.parametrize("n", [301, 1000, 1004])
    def test_indicator_product_matches_float_gemm(self, u, n):
        # Unpacked UNPACK_BLOCK rows at a time, the product is the whole
        # float product bit for bit, tail blocks of 44 and 139 rows included.
        # This pins the BLAS's rounding by product shape at its thread count.
        rng = np.random.default_rng([u, n])
        packed = rng.integers(0, 256, (u, (n + 7) // 8), dtype=np.uint8)
        whole = np.unpackbits(packed, axis=1, count=n).astype(float)
        for width in (24, 96):
            m = rng.standard_normal((n, width))
            np.testing.assert_array_equal(sst_module._indicator_product(packed, m),
                                          whole @ m)

    @staticmethod
    def direct_product(packed, m, folded=0):
        """Every row of D m from its own row of D, as one float product."""
        return np.unpackbits(packed, axis=1, count=m.shape[0]).astype(float) @ m

    @staticmethod
    def unfolded_product(packed, m, folded=0):
        """``_indicator_product`` before the fold, UNPACK_BLOCK rows at a time."""
        assert folded == 0
        out = np.empty((len(packed), m.shape[1]))
        for start in range(0, len(packed), sst_module.UNPACK_BLOCK):
            rows = np.unpackbits(packed[start:start + sst_module.UNPACK_BLOCK], axis=1,
                                 count=m.shape[0])
            np.matmul(rows.astype(float), m, out=out[start:start + sst_module.UNPACK_BLOCK])
        return out

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "quantile"])
    @pytest.mark.parametrize("levels", [1, 4])
    def test_folded_products_match_direct_product(self, rng, monkeypatch, family, levels):
        # q = 3, even n: a median plane and its antipode have complementary
        # memberships, so most products come from 1'm - d m.
        ds = family_dataset(rng, 300, family)
        fam = FamilyKind(family)
        fit = fit_null(ds, fam)
        args = ds, score_psi0(ds, fam, fit), sst_derivatives(ds, fam, fit)
        thetas = build_theta_grid(ds, k_directions=800 // levels, grid_per_direction=levels,
                                  seed=3).thetas
        kwargs = dict(k_directions=800 // levels, grid_per_direction=levels,
                      n_resample=40, seed=3)
        got = sst_module._grid_planes(*args, thetas)
        out = sst_test(ds, fam, **kwargs)
        assert got[2] > 0.25 * got[5]["grid_distinct"]
        assert out.diagnostics["grid_folded"] == got[2]
        monkeypatch.setattr(sst_module, "_indicator_product", self.direct_product)
        direct = sst_module._grid_planes(*args, thetas)
        np.testing.assert_allclose(got[0], direct[0], rtol=1e-12, atol=0)
        assert got[5] == direct[5]
        plain = sst_test(ds, fam, **kwargs)
        np.testing.assert_allclose(out.statistic, plain.statistic, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.boot_stats, plain.boot_stats, rtol=1e-12, atol=0)
        assert out.diagnostics == plain.diagnostics

    def test_skipped_membership_folds_with_its_complement(self, rng, monkeypatch):
        # The empty plane (V = 0, skipped) and the full plane are complements:
        # the full plane's products come from the empty one's, which stays in
        # the products with L^-1 = 0.  A binary x_diff outside x_base's span
        # gives the full plane a V(theta) of full rank.
        ds = family_dataset(rng, 80, "semiparametric")
        fam = FamilyKind("semiparametric")
        good = build_theta_grid(ds, k_directions=30, seed=4).thetas
        thetas = np.vstack([[-1e6, 1.0, 0.0], good, [1e6, 1.0, 0.0]])
        monkeypatch.setattr(sst_module, "build_theta_grid",
                            lambda *args: ThetaGrid(thetas=thetas))
        out = sst_test(ds, fam, k_directions=32, n_resample=40, seed=4)
        assert out.diagnostics["grid_skipped"] == 1
        assert out.diagnostics["grid_folded"] >= 1
        np.testing.assert_allclose(out.boot_stats, loop_resampled(ds, fam, thetas, 40, 4),
                                   rtol=1e-12, atol=0)
        monkeypatch.setattr(sst_module, "_indicator_product", self.direct_product)
        plain = sst_test(ds, fam, k_directions=32, n_resample=40, seed=4)
        np.testing.assert_allclose(out.statistic, plain.statistic, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.boot_stats, plain.boot_stats, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, levels", [(300, 1), (301, 1), (300, 4), (120, 2)])
    def test_fold_pairs_each_base_with_its_complement(self, rng, n, levels):
        # The folded count is that of a set lookup: the distinct memberships
        # whose complement is distinct too, one per pair; each base's
        # complement sits ``folded`` rows from the end.
        ds = random_dataset(rng, n=n, q=3)
        thetas = build_theta_grid(ds, k_directions=600 // levels, grid_per_direction=levels,
                                  seed=2).thetas
        packed, _ = sst_module._distinct_memberships(ds.z_group, thetas)
        rows = np.unpackbits(packed, axis=1, count=n)
        members = {row.tobytes() for row in rows}
        paired = sum((1 - row).tobytes() in members for row in rows)
        order, folded = sst_module._fold(packed, n)
        assert paired == 2 * folded
        np.testing.assert_array_equal(np.sort(order), np.arange(len(packed)))
        ordered = rows[order]
        np.testing.assert_array_equal(ordered[:folded], 1 - ordered[len(order) - folded:])
        assert (folded > 0) == (n % 2 == 0)

    @pytest.mark.parametrize("n, q", [(301, 3), (1001, 3), (300, 7)])
    def test_grids_with_no_complements_fold_nothing(self, monkeypatch, n, q):
        # At odd n the antipodes of a median plane share its median row, and
        # at q = 7 hardly a membership repeats: nothing folds, and every
        # number is that of the products formed before the fold.
        ds = random_dataset(np.random.default_rng([n, q]), n=n, q=q, family="binomial")
        fam = FamilyKind("binomial")
        fit = fit_null(ds, fam)
        args = ds, score_psi0(ds, fam, fit), sst_derivatives(ds, fam, fit)
        thetas = build_theta_grid(ds, k_directions=400, seed=6).thetas
        order, folded = sst_module._fold(
            sst_module._distinct_memberships(ds.z_group, thetas)[0], n)
        assert folded == 0
        np.testing.assert_array_equal(order, np.arange(len(order)))
        kept = sst_module._grid_planes(*args, thetas)
        out = sst_test(ds, fam, k_directions=400, n_resample=40, seed=6)
        assert out.diagnostics["grid_folded"] == 0
        monkeypatch.setattr(sst_module, "_indicator_product", self.unfolded_product)
        before = sst_module._grid_planes(*args, thetas)
        for a, b in zip(kept[:5], before[:5]):
            np.testing.assert_array_equal(a, b)
        plain = sst_test(ds, fam, k_directions=400, n_resample=40, seed=6)
        assert out.statistic == plain.statistic
        np.testing.assert_array_equal(out.boot_stats, plain.boot_stats)

    def test_every_plane_irreparable_raises(self, rng, monkeypatch, tmp_path, capsys):
        # Empty planes have V(theta) = 0, beyond ridge repair; with no plane
        # left the test raises, and the CLI exits with the numeric code.
        ds = random_dataset(rng, n=70, family="gaussian")
        empty = np.array([[-1e6, 1.0, 0.0], [-1e6, 0.6, 0.8], [-1e6, 1.0, 0.0]])
        monkeypatch.setattr(sst_module, "build_theta_grid",
                            lambda *args: ThetaGrid(thetas=empty))
        with pytest.raises(NumericalError, match="every plane"):
            sst_test(ds, FamilyKind("gaussian"), k_directions=3, n_resample=10, seed=1)
        path = tmp_path / "data.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y,x1,z1,z2\n")
            for i in range(ds.n):
                fh.write(f"{ds.y[i]:.17g},{ds.x_base[i, 1]:.17g},"
                         f"{ds.z_group[i, 1]:.17g},{ds.z_group[i, 2]:.17g}\n")
        code = cli.main(["test", str(path), "--method", "sst", "--family", "gaussian",
                         "--response", "y", "--baseline", "x1", "--diff", "x1",
                         "--grouping", "z1,z2", "--boot", "10", "--grid-k", "3",
                         "--seed", "1"])
        assert code == cli.NUMERIC_EXIT == 3
        assert "beyond ridge repair" in capsys.readouterr().err

    # (family, levels, statistic, sum, min and max of boot_stats, p-value,
    # grid_skipped, grid_repaired) of sst_test at n = 121, K = 300 planes,
    # B = 70, as computed before the kernel scored distinct memberships;
    # quantile's as computed with its null fit HiGHS's optimum, snapped to
    # its basis rows.
    PINNED = [
        ("gaussian", 1, 7.532014447076746, 331.87966211529397,
         0.998455228927223, 10.395745516550141, 0.05714285714285714, 0, 0),
        ("binomial", 1, 7.650507449396758, 380.7791986121823,
         1.2605919481628454, 17.254910991127925, 0.15714285714285714, 0, 0),
        ("poisson", 1, 3.82929798817644, 349.9388364993119,
         1.7106870096491487, 14.583761453997788, 0.5142857142857142, 0, 0),
        ("probit", 1, 4.224775600580555, 404.85231268211936,
         1.340427363278141, 15.163986103214514, 0.7142857142857143, 0, 0),
        ("quantile", 1, 10.389695553918804, 406.74490864687886,
         1.6977008694158706, 14.351298533052299, 0.07142857142857142, 0, 0),
        ("semiparametric", 1, 3.097861540121342, 258.1240940117771,
         0.5897757782913864, 10.727219938372869, 0.4857142857142857, 0, 0),
        ("gaussian", 4, 7.988140301416599, 502.14394723191367,
         3.209264188174813, 12.325918817950784, 0.3142857142857143, 0, 0),
        ("binomial", 4, 9.788945813138058, 582.459903626512,
         3.8415192645116356, 15.320091660235967, 0.2714285714285714, 0, 0),
        ("poisson", 4, 5.476563177532954, 545.1464483762292,
         3.195447926016565, 16.826324160652383, 0.7857142857142857, 0, 0),
        ("probit", 4, 6.745408652873418, 543.9574323430865,
         2.4755074375581563, 16.11483896187481, 0.5285714285714286, 0, 0),
        ("quantile", 4, 9.677221865360298, 569.9831651610335,
         3.52269453964269, 16.81409626511646, 0.24285714285714285, 0, 0),
        ("semiparametric", 4, 4.8319271368259935, 363.3712050899538,
         1.1117578460175555, 12.560332493695517, 0.45714285714285713, 0, 0),
    ]

    @pytest.mark.parametrize("index", range(len(PINNED)))
    def test_fixed_seed_regression_pins(self, index):
        family, levels, statistic, total, low, high, p_value, skipped, repaired = \
            self.PINNED[index]
        k = FAMILIES.index(family)
        ds = family_dataset(np.random.default_rng([2025, k]), 121, family)
        out = sst_test(ds, FamilyKind(family), k_directions=300 // levels,
                       grid_per_direction=levels, n_resample=70, seed=200 + k)
        b = out.boot_stats
        np.testing.assert_allclose([out.statistic, b.sum(), b.min(), b.max()],
                                   [statistic, total, low, high], rtol=1e-12, atol=0)
        assert out.p_value == p_value
        assert out.diagnostics["grid_size"] == 300
        assert out.diagnostics["grid_skipped"] == skipped
        assert out.diagnostics["grid_repaired"] == repaired

    def test_observed_fit_not_converged_raises(self, rng, monkeypatch):
        ds = random_dataset(rng, n=60, family="binomial")
        monkeypatch.setattr(sst_module, "fit_null",
                            lambda *args: replace(fit_null(*args), converged=False))
        with pytest.raises(NumericalError, match="null fit did not converge"):
            sst_test(ds, FamilyKind("binomial"), k_directions=10, n_resample=10, seed=1)

    def test_empty_grid(self, rng):
        ds = random_dataset(rng, n=30)
        fam = FamilyKind("gaussian")
        fit = fit_null(ds, fam)
        with pytest.raises(ParameterError, match="empty theta grid"):
            sst_statistic(ds, fam, fit, sst_derivatives(ds, fam, fit),
                          ThetaGrid(np.empty((0, ds.q))))

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
        out = sst_test(dup, fam, k_directions=5, n_resample=10, seed=0)
        assert out.statistic == val
        assert out.diagnostics["grid_skipped"] == 0
        # Every plane is rank-deficient, so every plane is repaired, not only
        # those whose plain Cholesky happens to fail on a rounding-sized pivot.
        assert out.diagnostics["grid_repaired"] == 5
        clean = sst_test(ds, fam, k_directions=5, n_resample=10, seed=0)
        assert clean.diagnostics["grid_repaired"] == 0

    @pytest.mark.parametrize("family", ["gaussian", "quantile"])
    def test_all_ones_diff_columns_repair_every_plane(self, rng, family):
        # x_diff = [1, 1] makes every V(theta) singular: each of the K = 50
        # planes is counted as ridge-repaired, none skipped.
        ds = random_dataset(rng, n=80, family=family)
        ones = replace(ds, x_diff=np.ones((80, 2)))
        out = sst_test(ones, FamilyKind(family), k_directions=50, n_resample=10, seed=3)
        assert out.diagnostics["grid_size"] == 50
        assert out.diagnostics["grid_repaired"] == 50
        assert out.diagnostics["grid_skipped"] == 0
        assert np.isfinite(out.statistic)

    def test_pvalue_standard_error(self, rng):
        ds = random_dataset(rng, n=80, family="gaussian")
        out = sst_test(ds, FamilyKind("gaussian"), k_directions=30,
                       n_resample=45, seed=3)
        p = out.p_value
        assert 0.0 < p < 1.0
        assert out.diagnostics["p_value_se"] == np.sqrt(p * (1.0 - p) / 45)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(FAMILIES),
       st.integers(15, 60).map(lambda m: 2 * m))
def test_statistic_invariant_to_row_permutation(seed, family, n):
    # At even n no row lies on a median plane, so permuting the rows leaves
    # every indicator, hence the statistic, unchanged up to rounding.  The
    # replicates are not invariant: the multipliers are tied to row indices.
    rng = np.random.default_rng(seed)
    ds = family_dataset(rng, n, family)
    perm = rng.permutation(n)
    shuffled = type(ds)(y=ds.y[perm], x_base=ds.x_base[perm],
                        x_diff=ds.x_diff[perm], z_group=ds.z_group[perm])
    fam = FamilyKind(family)
    grid = build_theta_grid(ds, k_directions=25, seed=seed)

    def statistic(data):
        fit = fit_null(data, fam)
        return sst_statistic(data, fam, fit, sst_derivatives(data, fam, fit), grid)

    assert statistic(shuffled) == pytest.approx(statistic(ds), rel=1e-10)
    out = sst_test(ds, fam, k_directions=25, n_resample=5, seed=seed)
    assert out.statistic == statistic(ds)
