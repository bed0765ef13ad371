from dataclasses import replace

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from changeplane import (Dataset, FamilyKind, PlaneBlock, beta_prior, bootstrap_sample,
                         fit_null, gaussian, score_psi0, standard_gaussian,
                         univariate_gaussian, wast_multi_statistic,
                         wast_statistic, wast_test, weight_matrix)
from changeplane.wast import wast_blocks
from changeplane import cli
from changeplane import families as families_module
from changeplane import wast as wast_module
from changeplane import weights as weights_module
from changeplane.families import (DEFAULT_MAX_ITER, DEFAULT_TOL, _fit, bootstrap_sampler,
                                  refit_null, score_factor)
from changeplane.sim import Scenario, generate
from changeplane.errors import DataError, NumericalError, ParameterError
from changeplane.rng import child_rng

from conftest import check_loss, highs_check_loss, random_dataset, refit_block_widths


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
    """Per-replicate reference: one Dataset, fit_null and wast_statistic per
    replicate.  Returns the statistics of the kept replicates, those not in
    ``failed`` whose refit converged, and the iterations of every refit."""
    fit = fit_null(ds, family)
    omega = weight_matrix(ds)
    stats, iterations = [], []
    for b in range(n_boot):
        ds_b = replace(ds, y=bootstrap_sample(ds, family, fit, child_rng(seed, b)))
        fit_b = fit_null(ds_b, family)
        iterations.append(fit_b.iterations)
        if b not in failed and fit_b.converged:
            stats.append(wast_statistic(score_psi0(ds_b, family, fit_b), omega))
    return np.asarray(stats), np.asarray(iterations)


def flaky_refits(monkeypatch, failed):
    """Make the bootstrap replicates numbered in ``failed`` report a refit
    that did not converge; returns the list of refit block widths."""
    widths = []

    def refit(ds, family, fit, y):
        psi, converged, iterations, degenerate = refit_null(ds, family, fit, y)
        first = sum(widths)
        widths.append(y.shape[1])
        hit = [b - first for b in failed if first <= b < first + y.shape[1]]
        converged = converged.copy()
        converged[hit] = False
        return psi, converged, iterations, degenerate

    monkeypatch.setattr(wast_module, "refit_null", refit)
    return widths


def semiparametric_dataset(rng, n):
    ds = random_dataset(rng, n=n)
    return replace(ds, x_diff=(rng.random(n) < 0.5).astype(float)[:, None])


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
        parts = sum(
            (b.x @ b.x.T) * weight_matrix(b.z, b.weight) for b in blocks)
        assert val == pytest.approx(
            double_loop_statistic(psi[:, None], parts), rel=1e-12)

    def test_no_planes(self, rng):
        with pytest.raises(ParameterError):
            wast_multi_statistic(rng.standard_normal(5), [])

    def test_row_mismatch(self, rng):
        for x_rows, z_rows in ((4, 4), (4, 5), (5, 4)):
            block = PlaneBlock(x=np.ones((x_rows, 1)), z=np.ones((z_rows, 2)))
            with pytest.raises(ParameterError, match="row count mismatch"):
                wast_multi_statistic(rng.standard_normal(5), [block])

    def test_vector_plane_x_is_one_column(self, rng):
        n = 9
        psi, x = rng.standard_normal(n), rng.standard_normal(n)
        z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
        assert wast_multi_statistic(psi, [PlaneBlock(x=x, z=z)]) == wast_multi_statistic(
            psi, [PlaneBlock(x=x[:, None], z=z)])


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
        assert type(out.n_failed) is int  # the CLI and the benchmark write it as JSON

    def test_invalid_boot_count(self, rng):
        ds = random_dataset(rng, n=30)
        with pytest.raises(ParameterError):
            wast_test(ds, FamilyKind("gaussian"), n_boot=0)

    def test_observed_fit_not_converged_raises(self, rng, monkeypatch, tmp_path, capsys):
        # The observed null fit is reported as not converged; the test
        # raises, and the CLI exits with the numeric code.
        ds = random_dataset(rng, n=60, family="binomial")
        monkeypatch.setattr(wast_module, "fit_null",
                            lambda *args: replace(fit_null(*args), converged=False))
        with pytest.raises(NumericalError, match="null fit did not converge"):
            wast_test(ds, FamilyKind("binomial"), n_boot=10, seed=1)
        path = tmp_path / "data.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y,x1,z1,z2\n")
            for i in range(ds.n):
                fh.write(f"{ds.y[i]:.17g},{ds.x_base[i, 1]:.17g},"
                         f"{ds.z_group[i, 1]:.17g},{ds.z_group[i, 2]:.17g}\n")
        code = cli.main(["test", str(path), "--family", "binomial", "--response", "y",
                         "--baseline", "x1", "--diff", "x1", "--grouping", "z1,z2",
                         "--boot", "10", "--seed", "1"])
        assert code == cli.NUMERIC_EXIT == 3
        assert "null fit did not converge" in capsys.readouterr().err

    def test_too_many_failed_refits_raise(self, rng, monkeypatch):
        # Up to 5 % of the B refits may fail: 2 of 40 are skipped, 3 of 40 raise.
        ds = random_dataset(rng, n=60, family="binomial")
        fam = FamilyKind("binomial")
        flaky_refits(monkeypatch, failed=(3, 17))
        assert wast_test(ds, fam, n_boot=40, seed=2).n_failed == 2
        flaky_refits(monkeypatch, failed=(3, 17, 39))
        with pytest.raises(NumericalError, match="3/40 bootstrap refits failed"):
            wast_test(ds, fam, n_boot=40, seed=2)

    def test_small_pvalue_under_strong_alternative(self, rng):
        # Plant a large change-plane effect; the test should reject.
        n = 200
        ds = random_dataset(rng, n=n, family="gaussian")
        ind = (ds.z_group @ np.array([0.0, 1.0, 1.0]) >= 0).astype(float)
        shift = ds.x_diff @ np.array([2.0, 2.0]) * ind
        ds = replace(ds, y=ds.y + shift)
        out = wast_test(ds, FamilyKind("gaussian"), n_boot=200, seed=7)
        assert out.p_value <= 0.01

    def test_quantile_family_end_to_end(self, rng):
        ds = random_dataset(rng, n=80, family="quantile")
        out = wast_test(ds, FamilyKind("quantile", tau=0.5), n_boot=30, seed=3)
        assert np.isfinite(out.statistic)
        assert out.n_failed == 0

    # B = 70 is four refit blocks, 16 + 16 + 32 + 6; the failed replicates
    # open the first block, close the second and fall in the last.
    @pytest.mark.parametrize("n_boot, failed", [(1, ()), (70, ()), (70, (0, 31, 69))])
    def test_batched_bootstrap_matches_per_replicate_loop(
            self, rng, monkeypatch, n_boot, failed):
        ds = random_dataset(rng, n=60, family="binomial")
        fam = FamilyKind("binomial")
        ref, _ = loop_boot_stats(ds, fam, n_boot, seed=11, failed=failed)
        widths = flaky_refits(monkeypatch, failed)
        out = wast_test(ds, fam, n_boot=n_boot, seed=11)
        assert widths == refit_block_widths(n_boot)
        assert out.n_failed == len(failed)
        assert out.n_boot == n_boot - len(failed) == ref.size
        np.testing.assert_allclose(out.boot_stats, ref, rtol=1e-10, atol=0)
        assert out.p_value == np.mean(ref >= out.statistic)

    def test_pvalue_standard_error_over_kept_replicates(self, rng, monkeypatch):
        ds = random_dataset(rng, n=60, family="binomial")
        fam = FamilyKind("binomial")
        flaky_refits(monkeypatch, failed=(0, 1))
        out = wast_test(ds, fam, n_boot=50, seed=4)
        assert out.n_failed == 2 and out.n_boot == 48
        p = out.p_value
        assert 0.0 < p < 1.0
        assert out.diagnostics["p_value_se"] == np.sqrt(p * (1.0 - p) / 48)

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "poisson", "probit",
                                        "quantile", "semiparametric"])
    def test_every_family_matches_per_replicate_loop(self, rng, family):
        """B = 70 spans two refit blocks; the refit diagnostics count the
        iterations of a per-replicate fit_null loop."""
        if family == "semiparametric":
            ds = semiparametric_dataset(rng, 80)
        else:
            ds = random_dataset(rng, n=80, family=family)
        fam = FamilyKind(family)
        ref, iterations = loop_boot_stats(ds, fam, 70, seed=5)
        out = wast_test(ds, fam, n_boot=70, seed=5)
        assert out.n_failed == 70 - ref.size and out.n_boot == ref.size
        np.testing.assert_allclose(out.boot_stats, ref, rtol=1e-10, atol=0)
        assert out.p_value == np.mean(ref >= out.statistic)
        assert out.diagnostics["refit_iterations"] == (
            iterations.min(), np.median(iterations), iterations.max())
        assert out.diagnostics["refits_at_cap"] == np.sum(iterations >= 100)

    def test_one_fit_per_block_and_one_validation_per_test(self, rng, monkeypatch):
        """Refits validate nothing and never refit the semiparametric
        propensity: one lock-step fit (one rank check) per block of responses."""
        ds = semiparametric_dataset(rng, 80)
        fits, validations = [], []
        fit_once, validate_once = families_module._fit, families_module.validate

        def counted_fit(family, y, *args):
            fits.append((family.name, y.shape[1]))
            return fit_once(family, y, *args)

        monkeypatch.setattr(families_module, "_fit", counted_fit)
        monkeypatch.setattr(families_module, "validate",
                            lambda *args: validations.append(args) or validate_once(*args))
        wast_test(ds, FamilyKind("semiparametric"), n_boot=70, seed=1)
        assert fits == [("binomial", 1), ("gaussian", 1), ("gaussian", 16), ("gaussian", 16),
                        ("gaussian", 32), ("gaussian", 6)]
        assert len(validations) == 1

    # (family, statistic, sum, min and max of boot_stats, p-value, n_boot) of
    # wast_test at n = 120, B = 70, as computed before the arcsin omega map,
    # the reused score factor and the block bootstrap draws; quantile's as
    # computed with every fit HiGHS's optimum, snapped to its basis rows.
    PINNED = [
        ("gaussian", -0.005322047178223465, -0.4068396522321704,
         -0.010737989043521802, -0.0017048457514705407, 0.35714285714285715, 70),
        ("binomial", -0.0006041202568500345, -0.10138139906545812,
         -0.001991864387494674, -0.00036994728508255373, 0.04285714285714286, 70),
        ("poisson", -0.004365556447428518, -0.30255827264475893,
         -0.007649491962040331, -0.001610894497511904, 0.5142857142857142, 70),
        ("probit", -0.002536606513721681, -0.24001203230502693,
         -0.004918075607082743, -0.0015861575419650554, 0.07142857142857142, 70),
        ("quantile", -0.0015230191826570577, -0.10020508132872645,
         -0.0019029834022102103, -0.00018380443663006018, 0.5571428571428572, 70),
        ("semiparametric", -0.0007824205178947468, -0.0024009414942480177,
         -0.0011843523449454967, 0.0032925498516954434, 0.9571428571428572, 70),
    ]

    @pytest.mark.parametrize("index", range(len(PINNED)))
    def test_fixed_seed_regression_pins(self, index):
        family, statistic, total, low, high, p_value, n_boot = self.PINNED[index]
        rng = np.random.default_rng([2024, index])
        if family == "semiparametric":
            ds = semiparametric_dataset(rng, 120)
        else:
            ds = random_dataset(rng, n=120, family=family)
        out = wast_test(ds, FamilyKind(family), n_boot=70, seed=100 + index)
        assert out.n_boot == n_boot and out.n_failed == 0
        b = out.boot_stats
        np.testing.assert_allclose([out.statistic, b.sum(), b.min(), b.max()],
                                   [statistic, total, low, high], rtol=1e-10, atol=0)
        assert out.p_value == p_value

    def test_quantile_refits_are_exact(self, rng):
        # Every refit is certified optimal, far below the pivot cap, and its
        # check loss is HiGHS's.
        ds = random_dataset(rng, n=300, family="quantile")
        fam = FamilyKind("quantile")
        out = wast_test(ds, fam, n_boot=64, seed=2)
        low, median, high = out.diagnostics["refit_iterations"]
        assert out.n_failed == 0 and out.diagnostics["refits_at_cap"] == 0
        assert out.diagnostics["refits_degenerate"] == 0
        assert low <= median <= high < 20
        y = bootstrap_sampler(ds, fam, fit_null(ds, fam))([child_rng(2, b) for b in range(64)])
        alpha, converged, iterations, *_ = _fit(fam, y, ds.x_base, DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert converged.all() and iterations.max() == high
        for b in range(64):
            assert check_loss(y[:, b], ds.x_base, alpha[:, b], 0.5) == pytest.approx(
                highs_check_loss(y[:, b], ds.x_base, 0.5), rel=1e-12)

    def test_refits_at_the_pivot_cap_are_counted_and_dropped(self, rng, monkeypatch):
        # With the cap at one pivot, a refit that needs more stops
        # uncertified: it counts as at the cap and as failed.
        ds = random_dataset(rng, n=300, family="quantile")
        fam = FamilyKind("quantile")
        fit = fit_null(ds, fam)
        y = bootstrap_sampler(ds, fam, fit)([child_rng(6, b) for b in range(64)])
        _, converged, iterations, *_ = _fit(fam, y, ds.x_base, DEFAULT_TOL, 1)
        assert 0 < np.count_nonzero(~converged) < 64
        for module in (families_module, wast_module):
            monkeypatch.setattr(module, "DEFAULT_MAX_ITER", 1)
        monkeypatch.setattr(wast_module, "MAX_FAILED_FRACTION", 1.0)
        out = wast_test(ds, fam, n_boot=64, seed=6)
        assert out.n_failed == np.count_nonzero(~converged)
        assert out.diagnostics["refits_at_cap"] == out.n_failed

    def test_refits_converged_at_the_cap_are_not_counted_at_it(self, monkeypatch):
        # With the cap at 4 Newton evaluations, all 64 refits run 4 of them,
        # but 50 converge at the 4th: only the 14 that do not are at the cap.
        ds = random_dataset(np.random.default_rng(3), n=61, family="binomial")
        fam = FamilyKind("binomial")
        y = bootstrap_sampler(ds, fam, fit_null(ds, fam))([child_rng(3, b) for b in range(64)])
        _, converged, iterations, *_ = _fit(fam, y, ds.x_base, DEFAULT_TOL, 4)
        assert np.count_nonzero(iterations >= 4) == 64 and np.count_nonzero(~converged) == 14
        for module in (families_module, wast_module):
            monkeypatch.setattr(module, "DEFAULT_MAX_ITER", 4)
        monkeypatch.setattr(wast_module, "MAX_FAILED_FRACTION", 1.0)
        out = wast_test(ds, fam, n_boot=64, seed=3)
        assert out.diagnostics["refit_iterations"] == (4, 4.0, 4)
        assert out.diagnostics["refits_at_cap"] == out.n_failed == 14

    def test_poisson_overflow_raises_and_exits_numeric(self, tmp_path, capsys):
        # y ~ Poisson(exp(6 + 3x)): Newton from alpha = 0 overflows exp, the
        # fit's score goes non-finite and it stops there unconverged, well
        # before the iteration cap, warning nothing; the CLI exits 3 with
        # its one error line.
        rng = np.random.default_rng(0)
        x, z = rng.standard_normal(200), rng.standard_normal((200, 2))
        y = rng.poisson(np.exp(6.0 + 3.0 * x)).astype(float)
        ones = np.ones((200, 1))
        ds = Dataset(y=y, x_base=np.column_stack([ones, x]), x_diff=np.column_stack([ones, x]),
                     z_group=np.column_stack([ones, z]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_null(ds, FamilyKind("poisson"))
            assert not fit.converged and fit.iterations < DEFAULT_MAX_ITER
            with pytest.raises(NumericalError, match="null fit did not converge"):
                wast_test(ds, FamilyKind("poisson"), n_boot=10, seed=1)
            path = tmp_path / "counts.csv"
            np.savetxt(path, np.column_stack([y, x, z]), delimiter=",", header="y,x1,z1,z2",
                       comments="")
            code = cli.main(["test", str(path), "--family", "poisson", "--response", "y",
                             "--baseline", "x1", "--diff", "x1", "--grouping", "z1,z2",
                             "--boot", "10", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == cli.NUMERIC_EXIT == 3
        assert out == ""
        assert err.splitlines() == [
            "numerical failure: null fit did not converge on the original data"]

    def test_semiparametric_end_to_end(self, rng):
        ds = semiparametric_dataset(rng, 100)
        out = wast_test(ds, FamilyKind("semiparametric"), n_boot=30, seed=3)
        assert np.isfinite(out.statistic)
        assert 0.0 <= out.p_value <= 1.0


class TestBlocks:
    """``wast_blocks`` is ``wast_test``'s calibration one refit block at a
    time, each block scored by its own tile pass, with the same bits."""

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "poisson", "probit",
                                        "quantile", "semiparametric"])
    @pytest.mark.parametrize("n", [90, 2 * weights_module._TILE + 8])
    @pytest.mark.parametrize("n_boot", [1, 63, 64, 65, 200])
    def test_blocks_equal_the_full_test(self, family, n, n_boot):
        rng = np.random.default_rng([31, n, n_boot])
        if family == "semiparametric":
            ds = semiparametric_dataset(rng, n)
        else:
            ds = random_dataset(rng, n=n, family=family)
        fam = FamilyKind(family)
        out = wast_test(ds, fam, n_boot=n_boot, seed=n_boot)
        statistic, blocks = wast_blocks(ds, fam, n_boot=n_boot, seed=n_boot)
        blocks = list(blocks)
        assert [ran for _, ran in blocks] == refit_block_widths(n_boot)
        assert statistic == out.statistic
        np.testing.assert_array_equal(np.concatenate([boot for boot, _ in blocks]),
                                      out.boot_stats)

    def test_failed_refits_checked_after_each_block(self, rng, monkeypatch):
        # Every refit of the third block fails: 32 of B = 200 is over the cap.
        ds = random_dataset(rng, n=60, family="binomial")
        fam = FamilyKind("binomial")
        widths = flaky_refits(monkeypatch, failed=range(32, 64))
        with pytest.raises(NumericalError, match="32/200 bootstrap refits failed"):
            wast_test(ds, fam, n_boot=200, seed=3)
        assert widths == [16, 16, 32]
        widths = flaky_refits(monkeypatch, failed=range(32, 64))
        _, blocks = wast_blocks(ds, fam, n_boot=200, seed=3)
        assert [ran for _, ran in (next(blocks), next(blocks))] == [16, 16]
        with pytest.raises(NumericalError, match="32/200 bootstrap refits failed"):
            next(blocks)
        assert widths == [16, 16, 32]


def family_dataset(rng, n, family):
    if family == "semiparametric":
        return semiparametric_dataset(rng, n)
    return random_dataset(rng, n=n, family=family)


class TestObservedStatistic:
    """T_n is a function of the data alone: the observed factor is scored
    as its own one-column chunk, whatever the replicates."""

    FAMILIES = ["gaussian", "binomial", "poisson", "probit", "quantile", "semiparametric"]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [90, 301, 700])
    def test_same_bits_for_every_n_boot(self, family, n):
        ds = family_dataset(np.random.default_rng([41, n]), n, family)
        fam = FamilyKind(family)
        stats = {wast_test(ds, fam, n_boot=n_boot, seed=n_boot).statistic
                 for n_boot in (1, 2, 3, 16, 40)}
        assert len(stats) == 1

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [90, 301, 700])
    def test_equals_the_one_plane_multi_statistic(self, family, n):
        # Both sum the same one-column factor over the same weighted tiles.
        ds = family_dataset(np.random.default_rng([43, n]), n, family)
        fam = FamilyKind(family)
        s0, d = score_factor(ds, fam, fit_null(ds, fam))
        assert (wast_test(ds, fam, n_boot=40, seed=2).statistic
                == wast_multi_statistic(s0, [PlaneBlock(d, ds.z_group)]))

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_tied_grouping_rows_match_extended_precision(self, family):
        """On grouping rows with many ties the statistic matches a long
        double reference, omega = 1/2 - angle/(2 pi) with the angle between
        unit rows u, v taken as 2 atan2(|u - v|, |u + v|), exact on equal rows."""
        n = 300
        rng = np.random.default_rng([3, n])
        ds = random_dataset(rng, n=n, family=family)
        ds = replace(ds, z_group=np.column_stack([np.ones(n),
                                                  np.round(rng.standard_normal(n), 1)]))
        fam = FamilyKind(family)
        s, d = score_factor(ds, fam, fit_null(ds, fam))
        z = ds.z_group.astype(np.longdouble)
        u = z / np.sqrt((z * z).sum(axis=1))[:, None]
        half_angle = np.arctan2(np.sqrt(((u[:, None] - u[None]) ** 2).sum(axis=2)),
                                np.sqrt(((u[:, None] + u[None]) ** 2).sum(axis=2)))
        psi = s.astype(np.longdouble)[:, None] * d.astype(np.longdouble)
        pairs = (0.5 - half_angle / np.longdouble(np.pi)) * (psi @ psi.T)
        np.fill_diagonal(pairs, 0.0)
        want = pairs.sum() / (n * (n - 1))
        got = wast_test(ds, fam, n_boot=1).statistic
        assert abs(got - want) <= 1e-12 * abs(want)


class TestOmegaConstant:
    """``diagnostics["omega_constant"]`` is the part of T_n that omega's
    constant carries: 1/4 sum_{i != j} psi_i'psi_j / (n(n-1)) under
    Sheppard's form, 0.0 under every other prior."""

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "semiparametric"])
    @pytest.mark.parametrize("n", [8, 40])
    def test_is_a_quarter_of_the_unweighted_pair_sum(self, family, n):
        ds = family_dataset(np.random.default_rng([47, n]), n, family)
        fam = FamilyKind(family)
        psi = score_psi0(ds, fam, fit_null(ds, fam))
        terms = [psi[i] @ psi[j] for i in range(n) for j in range(n) if i != j]
        want = 0.25 * math.fsum(terms) / (n * (n - 1))
        # Relative to the magnitudes on both sides of the rank-one identity
        # sum_{i != j} psi_i'psi_j = |sum_i psi_i|^2 - sum_i |psi_i|^2.
        scale = 0.25 * (sum(map(abs, terms)) + np.sum(psi * psi)) / (n * (n - 1))
        out = wast_test(ds, fam, n_boot=3, seed=1)
        assert abs(out.diagnostics["omega_constant"] - want) <= 1e-12 * scale

    def test_no_constant_under_other_priors(self, rng):
        ds = random_dataset(rng, n=60)
        fam = FamilyKind("gaussian")
        out = wast_test(ds, fam, gaussian([0.0, 0.5, -0.75], np.eye(3)), n_boot=3, seed=1)
        assert out.diagnostics["omega_constant"] == 0.0
        ds = replace(ds, z_group=rng.random((60, 1)))
        for spec in (beta_prior(2.0, 2.0), univariate_gaussian(0.5, 0.2)):
            assert wast_test(ds, fam, spec, n_boot=3, seed=1).diagnostics["omega_constant"] == 0.0

    def test_carries_most_of_the_statistic_at_large_q(self):
        # At q = 500 the cosines are O(q^-1/2), so omega is nearly 1/4, and
        # the null's scores sum to ~0: the constant's part is -1/4 sum |psi_i|^2
        # / (n(n-1)), most of T_n.
        fam = FamilyKind("gaussian")
        ds = generate(Scenario(family=fam, dims=(2, 2, 500), n=300, seed=21))
        out = wast_test(ds, fam, n_boot=1, seed=21)
        assert out.diagnostics["omega_constant"] / out.statistic > 0.9


def imhof_upper_tail(lam: np.ndarray, x: float) -> float:
    """P(sum_k lam_k chi2_1 >= x) by Imhof's (1961) integral
    1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du, with
    theta(u) = sum_k arctan(lam_k u)/2 - x u/2 and
    log rho(u) = sum_k log1p(lam_k^2 u^2)/4, on lam and x scaled by max|lam|."""
    from scipy.integrate import quad
    scale = np.abs(lam).max()
    lam, x = lam / scale, x / scale

    def integrand(u):
        theta = 0.5 * np.arctan(lam * u).sum() - 0.5 * x * u
        return np.sin(theta) * np.exp(-0.25 * np.log1p((lam * u) ** 2).sum()) / u

    return 0.5 + quad(integrand, 0.0, np.inf, limit=200)[0] / np.pi


class TestCalibrationOracle:
    """The gaussian and semiparametric refits are least squares, so a
    replicate's factor is s* = M C eps, with M = I - X(X'X)^-1 X' on x_base,
    eps standard normal and C = sigma_hat I (gaussian, the MLE scale of
    ``bootstrap_sampler``) or diag(y - gamma_hat) (semiparametric, whose
    propensity is not refit).  With A_ij = omega_ij d_i'd_j off the diagonal
    and 0 on it, n(n-1) T* = eps'Q eps, Q = C M A M C, and the B -> inf
    p-value is P(sum_k lam_k chi2_1 >= n(n-1) T) over the eigenvalues of Q.
    ``wast_test``'s p-value must lie within four Monte-Carlo standard
    errors of it, plus one lattice step."""

    @pytest.mark.parametrize("family", ["gaussian", "semiparametric"])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(4))
    def test_p_value_matches_the_exact_law(self, family, kappa, seed):
        n, n_boot = 150, 2000
        fam = FamilyKind(family)
        ds = generate(Scenario(family=fam, dims=(2, 2, 3), n=n, kappa=kappa, seed=seed))
        s, d = score_factor(ds, fam, fit_null(ds, fam))
        a = weight_matrix(ds) * (d @ d.T)
        np.fill_diagonal(a, 0.0)
        q_basis = np.linalg.qr(ds.x_base)[0]
        m = np.eye(n) - q_basis @ q_basis.T
        c = np.full(n, np.sqrt(np.mean(s ** 2))) if family == "gaussian" else s
        lam = np.linalg.eigvalsh(c[:, None] * (m @ a @ m) * c[None, :])
        out = wast_test(ds, fam, n_boot=n_boot, seed=seed)
        x = n * (n - 1) * out.statistic
        assert x == pytest.approx(s @ a @ s, rel=1e-12, abs=0)
        p_inf = imhof_upper_tail(lam, x)
        assert out.n_boot == n_boot
        assert (abs(out.p_value - p_inf)
                <= 4 * np.sqrt(p_inf * (1 - p_inf) / n_boot) + 1 / n_boot)


TILE = weights_module._TILE


class TestTileKernel:
    """One pass over the upper omega tiles scores the observed data and every
    replicate; the tile side changes only the rounding."""

    @pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
    def test_tile_sides_agree(self, rng, monkeypatch, n):
        ds = random_dataset(rng, n=n, family="binomial")
        fam = FamilyKind("binomial")
        # Side-1 tiles of the Owen's T prior take ~20 s at n = 513: mu != 0
        # runs at sides 7 and n only.
        for spec, sides in ((standard_gaussian(), (1, 7, n)),
                            (gaussian([0.0, 0.5, -0.75], np.eye(3)), (7, n))):
            ref = wast_test(ds, fam, spec, n_boot=5, seed=2)
            for side in sides:
                monkeypatch.setattr(weights_module, "_TILE", side)
                out = wast_test(ds, fam, spec, n_boot=5, seed=2)
                assert out.statistic == pytest.approx(ref.statistic, rel=1e-12, abs=0)
                np.testing.assert_allclose(out.boot_stats, ref.boot_stats, rtol=1e-12, atol=0)
                assert out.p_value == ref.p_value
            monkeypatch.undo()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_kernel_matches_double_loop(self, rng, monkeypatch, p):
        """Column b of the kernel, over chunks of 1 and 3 columns, is the
        literal sum_{i != j} omega_ij (d_i'd_j) s_ib s_jb / (n(n-1)) with
        omega = shift + scale * t over tiles t, the shift carried by the
        rank-one term, here at a tile side of 5, so n <= 12 spans diagonal
        and off-diagonal tiles.  The tolerance is relative to the sum of the
        terms' magnitudes."""
        monkeypatch.setattr(weights_module, "_TILE", 5)
        for (shift, scale), n in itertools.product(
                [(0.0, 1.0), weights_module._SHEPPARD, (-0.6, 2.5)], range(2, 13)):
            d, s = rng.standard_normal((n, p)), rng.standard_normal((n, 4))
            t = rng.random((n, n))
            t = (t + t.T) / 2
            omega = shift + scale * t
            tiles = ((rows, cols, t[rows, cols]) for rows, cols in weights_module.upper_tiles(n))
            got = np.concatenate(wast_module._pair_sums(
                wast_module._weighted_tiles((shift, scale, tiles), d), [s[:, :1], s[:, 1:]]))
            for b in range(4):
                terms = [omega[i, j] * (d[i] @ d[j]) * s[i, b] * s[j, b]
                         for i in range(n) for j in range(n) if i != j]
                want, scale = sum(terms), sum(map(abs, terms))
                assert abs(got[b] - want / (n * (n - 1))) <= 1e-12 * scale / (n * (n - 1))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 60), side=st.integers(1, 64))
    def test_row_permutation_leaves_statistic(self, seed, n, side):
        """T is a sum over unordered pairs: the order of the rows, hence which
        tile a pair falls in, moves it by rounding only.  The tolerance is
        relative to the sum of |omega_ij psi_i' psi_j|, as T itself may cancel
        to near 0."""
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=n, p=1, r=1)
        perm = rng.permutation(ds.n)
        shuffled = Dataset(ds.y[perm], ds.x_base[perm], ds.x_diff[perm], ds.z_group[perm])
        fam = FamilyKind("gaussian")
        psi = score_psi0(ds, fam, fit_null(ds, fam))
        scale = wast_statistic(np.abs(psi), weight_matrix(ds)) + 1e-300
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights_module, "_TILE", side)
            a = wast_test(ds, fam, n_boot=1, seed=0).statistic
            b = wast_test(shuffled, fam, n_boot=1, seed=0).statistic
        assert abs(a - b) <= 1e-12 * scale

    def test_each_upper_tile_evaluated_once_per_test(self, rng, monkeypatch):
        """omega and d are fixed across replicates: ``wast_test`` and a
        ``wast_blocks`` run to the end, here over six refit blocks, each
        evaluate every upper tile once and weight it by d_i'd_j once."""
        n = 600
        ds = random_dataset(rng, n=n)
        fam = FamilyKind("gaussian")
        evaluated, weighted = [], []
        omega_source, weighted_tiles = wast_module._omega_source, wast_module._weighted_tiles

        def counted(tiles, seen):
            for rows, cols, tile in tiles:
                seen.append((rows.start, cols.start))
                yield rows, cols, tile

        def counted_source(*args):
            shift, scale, tiles = omega_source(*args)
            return shift, scale, counted(tiles, evaluated)

        def counted_kernel(*args):
            kernel = weighted_tiles(*args)
            return kernel._replace(tiles=counted(kernel.tiles, weighted))

        monkeypatch.setattr(wast_module, "_omega_source", counted_source)
        monkeypatch.setattr(wast_module, "_weighted_tiles", counted_kernel)
        upper = [(rows.start, cols.start) for rows, cols in weights_module.upper_tiles(n)]
        assert len(upper) == 6
        wast_test(ds, fam, n_boot=200, seed=4)
        assert evaluated == weighted == upper
        evaluated.clear()
        weighted.clear()
        assert len(list(wast_blocks(ds, fam, n_boot=200, seed=4)[1])) == len(
            refit_block_widths(200))
        assert evaluated == weighted == upper

    def test_no_n_by_n_array(self, rng):
        n = 3000
        ds = random_dataset(rng, n=n, family="binomial")
        tracemalloc.start()
        try:
            wast_test(ds, FamilyKind("binomial"), n_boot=20, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 8 * n * n

    def test_two_observations(self):
        ds = Dataset(y=np.array([0.3, -1.2]), x_base=np.ones((2, 1)),
                     x_diff=np.ones((2, 1)), z_group=np.array([[1.0, 0.4], [1.0, -2.0]]))
        fam = FamilyKind("gaussian")
        out = wast_test(ds, fam, n_boot=3, seed=1)
        psi = score_psi0(ds, fam, fit_null(ds, fam))
        assert out.statistic == pytest.approx(
            double_loop_statistic(psi, weight_matrix(ds)), rel=1e-12)
        assert out.n_boot == 3 and np.all(np.isfinite(out.boot_stats))

    def test_fewer_than_two_observations(self):
        # wast_test's input is rejected when built; wast_statistic's own
        # check is test_single_observation.
        with pytest.raises(DataError):
            Dataset(y=np.array([0.3]), x_base=np.ones((1, 1)), x_diff=np.ones((1, 1)),
                    z_group=np.array([[1.0, 0.4]]))
