import concurrent.futures
import io
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from changeplane import (FamilyKind, PowerTable, Scenario, generate,
                         run_power, run_size, sst_test, validate, wast_test)
from changeplane import sim as sim_module
from changeplane import wast as wast_module
from changeplane.cli import USAGE_EXIT, main
from changeplane.errors import NumericalError, ParameterError
from changeplane.rng import child_rng

from conftest import refit_block_widths


def glm_scenario(**kw):
    base = dict(family=FamilyKind("binomial"), dims=(2, 2, 3), n=120, seed=42)
    base.update(kw)
    return Scenario(**base)


class TestScenario:
    def test_validates_dims(self):
        with pytest.raises(ParameterError):
            glm_scenario(dims=(0, 1, 2))

    @pytest.mark.parametrize("family", ["binomial", "quantile", "probit", "semiparametric"])
    def test_one_grouping_column_rejected(self, family):
        # Every design needs a grouping variable besides the intercept.
        with pytest.raises(ParameterError, match="q >= 2"):
            glm_scenario(family=FamilyKind(family), dims=(2, 2, 1))

    @pytest.mark.parametrize("n", [1, 0, -5, 40.5, True, "40"])
    def test_validates_n(self, n):
        # A float n used to be built and fail only in generate, with a TypeError.
        message = f"n must be an integer >= 2, got {n!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            glm_scenario(n=n)

    @pytest.mark.parametrize("dims, message", [
        ((2.0, 1, 3), "r must be an integer >= 1, got 2.0"),
        ((2, 1.5, 3), "p must be an integer >= 1, got 1.5"),
        ((2, 1, 3.0), "q must be an integer >= 1, got 3.0"),
        ((2, True, 3), "p must be an integer >= 1, got True"),
        ((0, 1, 3), "r must be an integer >= 1, got 0"),
        # Checked before unpacking, which raised ValueError or TypeError.
        ((2, 2), "dims must be three counts (r, p, q), got (2, 2)"),
        ((2, 2, 3, 4), "dims must be three counts (r, p, q), got (2, 2, 3, 4)"),
        (3, "dims must be three counts (r, p, q), got 3"),
        ("2,2,3", "dims must be three counts (r, p, q), got '2,2,3'")])
    def test_dims_are_counts(self, dims, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            glm_scenario(dims=dims)

    def test_numpy_integer_sizes_accepted(self):
        sc = glm_scenario(n=np.int64(40), dims=tuple(np.int64(d) for d in (2, 2, 3)))
        got, want = generate(sc), generate(glm_scenario(n=40))
        for name in ("y", "x_base", "x_diff", "z_group"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_validates_rho(self):
        with pytest.raises(ParameterError):
            glm_scenario(rho=1.0)

    def test_validates_split(self):
        with pytest.raises(ParameterError):
            glm_scenario(split_quantile=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("theta_rule", "spiral", "unknown theta rule"),
        ("error_law", "laplace", "unknown error law"),
        *(("kappa", kappa, "kappa must be finite")
          for kappa in (float("nan"), float("inf"), -float("inf"))),
        *(("z_law", law, "z law must be") for law in (
            "normal:abc", "normal:0", "normal:-1", "normal:nan", "normal:inf", "normal:",
            "normal", "cauchy", "t3:2"))])
    def test_laws_checked_when_built(self, field, value, message):
        with pytest.raises(ParameterError, match=message):
            glm_scenario(**{field: value})

    @pytest.mark.parametrize("z_law", ["std_normal", "t3", "normal:2", "normal:1e-3"])
    def test_known_z_laws_accepted(self, z_law):
        assert generate(glm_scenario(z_law=z_law, n=30)).n == 30


class TestGenerate:
    def test_shapes(self):
        ds = generate(glm_scenario(dims=(3, 2, 4), n=90))
        assert (ds.n, ds.r, ds.p, ds.q) == (90, 3, 2, 4)
        validate(ds, "binomial")

    def test_deterministic_given_seed(self):
        sc = glm_scenario()
        d1, d2 = generate(sc), generate(sc)
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(d1.z_group, d2.z_group)

    def test_binary_covariates_glm(self):
        ds = generate(glm_scenario(dims=(4, 3, 3), n=200, rho=0.3))
        assert set(np.unique(ds.x_base[:, 1:])) <= {0.0, 1.0}
        np.testing.assert_array_equal(ds.x_diff, ds.x_base[:, :3])

    def test_binomial_null_case_rate(self):
        # The intercept is solved so the null event rate is one third.
        ds = generate(glm_scenario(dims=(2, 2, 3), n=20000, kappa=0.0,
                                   seed=11))
        assert np.mean(ds.y) == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_split_fraction(self):
        # split_quantile = 0.65 puts ~35% of rows in the subgroup.
        from changeplane.sim import _split_indicator
        rng = child_rng(3, 0, 0)
        z_tail = rng.standard_normal((1000, 4))
        ind = _split_indicator(z_tail, np.array([1.0, 0.5, -0.5, 1.0]), 0.65)
        assert np.mean(ind) == pytest.approx(0.35, abs=0.01)

    def test_equicorrelated_latents(self):
        ds = generate(glm_scenario(family=FamilyKind("gaussian"),
                                   dims=(6, 2, 3), n=30000, rho=0.5, seed=9))
        b = ds.x_base[:, 1:]
        c = np.corrcoef(b.T)
        off = c[~np.eye(5, dtype=bool)]
        # dichotomized equicorrelated normals: corr = 2/pi * arcsin(rho)
        expected = 2.0 / np.pi * np.arcsin(0.5)
        assert np.allclose(off, expected, atol=0.03)

    def test_quantile_design(self):
        sc = Scenario(family=FamilyKind("quantile", tau=0.5), dims=(2, 1, 3),
                      n=5000, seed=5, error_law="t3")
        ds = generate(sc)
        assert ds.p == 1
        assert np.std(ds.x_diff) == pytest.approx(2.0 ** 0.25, abs=0.05)

    def test_probit_design(self):
        sc = Scenario(family=FamilyKind("probit"), dims=(2, 1, 3), n=400,
                      seed=6)
        ds = generate(sc)
        validate(ds, "probit")
        assert set(np.unique(ds.x_base[:, 1])) <= {0.0, 1.0}

    def test_semiparametric_design(self):
        sc = Scenario(family=FamilyKind("semiparametric"), dims=(3, 1, 3),
                      n=3000, kappa=0.0, seed=7)
        ds = generate(sc)
        validate(ds, "semiparametric")
        assert np.mean(ds.x_diff[:, 0]) == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("kw", [
        {"family": FamilyKind("poisson")},
        {"family": FamilyKind("poisson"), "theta_rule": "uniform", "kappa": 0.5},
        {"family": FamilyKind("quantile"), "dims": (2, 1, 3), "theta_rule": "uniform",
         "error_law": "cauchy"},
        {"family": FamilyKind("semiparametric"), "dims": (3, 1, 4), "theta_rule": "uniform",
         "error_law": "cauchy", "kappa": 1.0}])
    def test_remaining_designs_finite_and_deterministic(self, kw):
        sc = glm_scenario(n=300, **kw)
        ds = generate(sc)
        validate(ds, sc.family.name)  # poisson: y are nonnegative integers
        for attr in ("y", "x_base", "x_diff", "z_group"):
            assert np.all(np.isfinite(getattr(ds, attr)))
            np.testing.assert_array_equal(getattr(ds, attr), getattr(generate(sc), attr))
        assert not np.array_equal(ds.y, generate(replace(sc, seed=sc.seed + 1)).y)

    def test_unknown_theta_rule(self):
        with pytest.raises(ParameterError):
            generate(glm_scenario(theta_rule="spiral"))


class TestPowerTable:
    def test_csv_format(self):
        table = PowerTable()
        table.add(0.0, 100, "wast", 0.05, 200)
        table.add(0.5, 100, "sst", 0.4, 200)
        buf = io.StringIO()
        table.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "kappa,n,method,rate,reps,stderr"
        assert lines[1].startswith("0,100,wast,0.05,200,")
        assert len(lines) == 3

    def test_stderr_binomial_formula(self):
        table = PowerTable()
        table.add(0.0, 50, "wast", 0.2, 100)
        assert table.rows[0]["stderr"] == pytest.approx(
            np.sqrt(0.2 * 0.8 / 100))


class TestRunners:
    def test_run_size_deterministic(self):
        sc = glm_scenario(n=80, seed=21)
        r1 = run_size(sc, reps=5, n_boot=20)
        r2 = run_size(sc, reps=5, n_boot=20)
        assert r1 == r2
        assert 0.0 <= r1["rate"] <= 1.0

    def test_run_size_thread_invariant(self):
        sc = glm_scenario(n=80, seed=22)
        r1 = run_size(sc, reps=4, n_boot=20, threads=1)
        r2 = run_size(sc, reps=4, n_boot=20, threads=2)
        assert r1 == r2

    def test_power_monotone_and_high_at_strong_signal(self):
        sc = glm_scenario(family=FamilyKind("gaussian"), n=200, seed=23)
        table = run_power(sc, kappa_grid=[0.0, 2.0], reps=25, n_boot=60)
        rates = {row["kappa"]: row["rate"] for row in table.rows}
        assert rates[2.0] >= rates[0.0]
        assert rates[2.0] >= 0.9

    def test_run_power_multiple_methods(self):
        sc = glm_scenario(n=80, seed=24)
        table = run_power(sc, kappa_grid=[0.0], reps=3, n_boot=15,
                          methods=("wast", "sst"),
                          k_directions=30)
        methods = sorted(row["method"] for row in table.rows)
        assert methods == ["sst", "wast"]

    def test_empty_kappa_grid(self):
        with pytest.raises(ParameterError):
            run_power(glm_scenario(), kappa_grid=[])

    def test_bad_reps(self):
        with pytest.raises(ParameterError):
            run_size(glm_scenario(), reps=0)

    @pytest.mark.parametrize("level", [2.0, 1.0, 0.0, -1.0, float("nan")])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(ParameterError, match="level"):
            run_size(glm_scenario(), reps=2, n_boot=10, level=level)


def counting(monkeypatch, *names):
    """Replace each named ``sim`` function by a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(sim_module, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(sim_module, name, counted)
    return calls


class TestStudyLoop:
    SST = {"k_directions": 30}

    def test_each_dataset_generated_once_for_all_methods(self, monkeypatch):
        calls = counting(monkeypatch, "generate", "wast_blocks", "sst_blocks")
        run_power(glm_scenario(n=60, seed=25), [0.0, 0.5, 1.0], reps=3, n_boot=10,
                  methods=("wast", "sst"), **self.SST)
        assert calls == {"generate": 9, "wast_blocks": 9, "sst_blocks": 9}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_equal_single_method_size_studies(self, threads):
        sc = glm_scenario(n=60, seed=26)
        table = run_power(sc, [0.0, 1.5], reps=4, n_boot=12, level=0.3,
                          methods=("sst", "wast"), threads=threads, **self.SST)
        cells = [(kappa, method) for kappa in (0.0, 1.5) for method in ("sst", "wast")]
        assert [(row["kappa"], row["method"]) for row in table.rows] == cells
        for row, (kappa, method) in zip(table.rows, cells):
            alone = run_size(replace(sc, kappa=kappa), reps=4, n_boot=12, level=0.3,
                             method=method, threads=1, **self.SST)
            assert alone == {**row, "level": 0.3}
        assert len({row["rate"] for row in table.rows}) > 1  # the rates tell cells apart

    def test_curtailed_decisions_equal_the_full_tests(self):
        """Each study test stops once its decision is fixed, and decides as
        p < level from the full test would; it runs whole blocks (refits of
        16, 16, 32, then 64 for WAST, 32 draws for SST) up to n_boot."""
        sc = glm_scenario(family=FamilyKind("gaussian"), n=60, seed=28)
        n_boot, runs = 70, {"wast": {16, 32, 64, 70}, "sst": {32, 64, 70}}
        tests = {"wast": partial(sim_module.wast_blocks, n_boot=n_boot),
                 "sst": partial(sim_module.sst_blocks, n_resample=n_boot, **self.SST)}
        stopped = set()
        for kappa in (0.0, 1.0):
            for rep in range(6):
                ds = generate(replace(sc, kappa=kappa), child_rng(sc.seed, 0, rep))
                seed = sim_module._test_seed(sc, rep)
                full = {"wast": wast_test(ds, sc.family, n_boot=n_boot, seed=seed),
                        "sst": sst_test(ds, sc.family, n_resample=n_boot, seed=seed,
                                        **self.SST)}
                for level in (0.01, 0.05, 0.5):
                    job = (replace(sc, kappa=kappa), rep, tuple(tests.values()), n_boot, level)
                    for method, (reject, ran) in zip(tests, sim_module._study_job(job)):
                        assert reject == (full[method].p_value < level)
                        assert ran in runs[method]
                        stopped.add((method, reject, ran < n_boot))
        # Each method both stops early without rejecting and runs to the end to reject.
        assert {(m, False, True) for m in tests} | {(m, True, False) for m in tests} <= stopped

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("level", [0.01, 0.05, 0.5])
    def test_curtailed_rates_equal_the_full_tests(self, threads, level):
        sc = glm_scenario(family=FamilyKind("gaussian"), n=60, seed=28)
        table = run_power(sc, [0.0, 1.0], reps=6, n_boot=70, level=level,
                          methods=("wast", "sst"), threads=threads, **self.SST)
        for row in table.rows:
            pvals = []
            for rep in range(6):
                ds = generate(replace(sc, kappa=row["kappa"]), child_rng(sc.seed, 0, rep))
                seed = sim_module._test_seed(sc, rep)
                test = (partial(wast_test, n_boot=70) if row["method"] == "wast"
                        else partial(sst_test, n_resample=70, **self.SST))
                pvals.append(test(ds, sc.family, seed=seed).p_value)
            assert row["rate"] == np.mean(np.array(pvals) < level)
            assert row["replicates_run"] <= 6 * 70
        assert any(row["replicates_run"] < 6 * 70 for row in table.rows)

    def test_refits_are_the_replicates_run(self, monkeypatch):
        """A study test's cost follows the replicates it runs: the widths it
        passes to refit_null are a prefix of the block schedule and sum, over
        a cell's tests, to the row's replicates_run.  A null test that stops
        after its first block refits 16 responses; a rejection refits all."""
        refit, blocks, tests = wast_module.refit_null, sim_module.wast_blocks, []

        def counted_refit(ds, family, fit, y):
            tests[-1].append(y.shape[1])
            return refit(ds, family, fit, y)

        def recorded_test(*args, **kwargs):
            tests.append([])
            return blocks(*args, **kwargs)

        monkeypatch.setattr(wast_module, "refit_null", counted_refit)
        monkeypatch.setattr(sim_module, "wast_blocks", recorded_test)
        table = run_power(glm_scenario(n=60, seed=29), [0.0, 1.5], reps=4, n_boot=200)
        schedule = refit_block_widths(200)
        assert len(tests) == 8 and all(widths == schedule[:len(widths)] for widths in tests)
        for row, cell in zip(table.rows, (tests[:4], tests[4:])):
            assert sum(map(sum, cell)) == row["replicates_run"]
        assert tests[0] == [16] and table.rows[0]["rate"] == 0.0
        assert tests[4:] == [schedule] * 4 and table.rows[1]["rate"] == 1.0

    def test_failure_cap_applies_to_the_replicates_run(self, monkeypatch):
        """Every refit of a test's third block fails, 32 of B = 200: the full
        test raises at that block, as does a study whose test reaches it, but
        one whose test stops after its first block, of 16 refits, completes."""
        refit = wast_module.refit_null
        blocks = []

        def third_block_fails(ds, family, fit, y):
            s, converged, iterations, degenerate = refit(ds, family, fit, y)
            blocks.append(y.shape[1])
            return s, converged & (len(blocks) != 3), iterations, degenerate

        monkeypatch.setattr(wast_module, "refit_null", third_block_fails)
        sc = glm_scenario(n=60, seed=29)
        ds = generate(sc, child_rng(sc.seed, 0, 0))
        with pytest.raises(NumericalError, match="32/200 bootstrap refits failed"):
            wast_test(ds, sc.family, n_boot=200, seed=sim_module._test_seed(sc, 0))
        assert blocks == [16, 16, 32]
        blocks.clear()
        row = run_size(sc, reps=1, n_boot=200)
        assert (row["rate"], row["replicates_run"], blocks) == (0.0, 16, [16])
        blocks.clear()
        with pytest.raises(NumericalError, match="32/200 bootstrap refits failed"):
            run_size(sc, reps=1, n_boot=200, level=0.9)
        assert blocks == [16, 16, 32]

    @pytest.mark.parametrize("methods", [("wast", "foo"), ("foo", "wast"), (),
                                         ("wast", "wast"), ("sst", "wast", "sst")])
    def test_bad_methods_raise_before_any_replicate(self, monkeypatch, methods):
        calls = counting(monkeypatch, "generate", "wast_blocks", "sst_blocks")
        with pytest.raises(ParameterError, match="methods must be distinct"):
            run_power(glm_scenario(), [0.0, 1.0], reps=2, n_boot=10, methods=methods)
        assert calls == {"generate": 0, "wast_blocks": 0, "sst_blocks": 0}

    @pytest.mark.parametrize("methods, kwargs, message", [
        (("wast",), {"n_boot": 0}, "n_boot must be an integer >= 1, got 0"),
        (("wast",), {"kappa_grid": [0.0, float("nan")]}, "kappa must be finite"),
        (("sst",), {"k_directions": 0}, "k_directions must be an integer >= 1, got 0"),
        (("wast", "sst"), {"grid_per_direction": 0},
         "grid_per_direction must be an integer >= 1, got 0"),
        (("wast",), {"reps": 2.5}, "reps must be an integer >= 1, got 2.5"),
        (("sst",), {"k_directions": True}, "k_directions must be an integer >= 1, got True"),
        (("wast",), {"threads": 0}, "threads must be an integer >= 1, got 0"),
        (("wast", "sst"), {"threads": -2}, "threads must be an integer >= 1, got -2")])
    def test_bad_study_inputs_raise_before_any_replicate(self, monkeypatch, methods, kwargs,
                                                         message):
        calls = counting(monkeypatch, "generate", "wast_blocks", "sst_blocks")
        args = {"kappa_grid": [0.0, 1.0], "reps": 2, "n_boot": 10, **kwargs}
        with pytest.raises(ParameterError, match=message):
            run_power(glm_scenario(), methods=methods, **args)
        assert calls == {"generate": 0, "wast_blocks": 0, "sst_blocks": 0}

    @pytest.mark.parametrize("threads", [3, 64])
    def test_no_more_workers_than_jobs(self, monkeypatch, threads):
        """A process pool forks all its workers at its first job, so a study
        of two jobs asks for two; the fake runs them in this process."""
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        sc = glm_scenario(n=40, seed=27)
        table = run_power(sc, [0.0, 1.0], reps=1, n_boot=5, threads=threads)
        assert pools == [2]
        assert table.rows == run_power(sc, [0.0, 1.0], reps=1, n_boot=5).rows
        assert pools == [2]  # the serial study builds no pool
        run_power(sc, [0.0], reps=1, n_boot=5, threads=threads)
        assert pools == [2]  # nor does a study of one job

    def test_grid_options_are_sst_only(self):
        # Without sst the grid options are unused: they pass, whatever their values.
        table = run_power(glm_scenario(n=40, seed=27), [0.0], reps=1, n_boot=5,
                          k_directions=0, grid_per_direction=2)
        assert [row["method"] for row in table.rows] == ["wast"]

    def test_bad_method_in_size_study(self):
        with pytest.raises(ParameterError, match="methods must be distinct"):
            run_size(glm_scenario(), reps=2, n_boot=10, method="foo")

    @pytest.mark.parametrize("command, flag, names", [
        ("simulate", "--theta-rule", sim_module.THETA_RULES),
        ("power", "--error-law", sim_module.ERROR_LAWS),
        ("test", "--method", sim_module.METHODS)])
    def test_cli_choices_are_the_sim_names(self, tmp_path, capsys, monkeypatch, command,
                                            flag, names):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"{flag} {{{','.join(names)}}}" in capsys.readouterr().out
        # An unknown name is a usage error before any replicate.
        calls = counting(monkeypatch, "generate", "wast_blocks", "sst_blocks")
        args = {"simulate": ["--seed", "3"], "power": ["--seed", "3", "--kappa-grid", "0,1"],
                "test": [str(tmp_path / "data.csv"), "--response", "y", "--diff", "x"]}
        with pytest.raises(SystemExit) as stop:
            main([command, "--family", "binomial", *args[command], flag, "foo"])
        assert stop.value.code == USAGE_EXIT
        assert "invalid choice: 'foo'" in capsys.readouterr().err
        assert calls == {"generate": 0, "wast_blocks": 0, "sst_blocks": 0}

    @pytest.mark.parametrize("command", ["simulate", "power"])
    @pytest.mark.parametrize("flags", [["--methods", "wast,foo"], ["--methods", ""],
                                       ["--methods", "wast,wast"], ["--z-law", "normal:abc"],
                                       ["--z-law", "normal:0"], ["--z-law", "cauchy"],
                                       ["--n", "0"], ["--boot", "0"], ["--kappa", "nan"],
                                       ["--methods", "sst", "--grid-k", "0"],
                                       ["--methods", "wast,sst", "--grid-per-direction", "0"],
                                       ["--dims", "2,2,1"], ["--threads", "0"]])
    def test_cli_usage_exit_and_no_csv(self, tmp_path, capsys, monkeypatch, command, flags):
        calls = counting(monkeypatch, "generate", "wast_blocks", "sst_blocks")
        out_csv = tmp_path / "out.csv"
        extra = ["--kappa-grid", "0,1"] if command == "power" else []
        code = main([command, "--family", "binomial", "--n", "60", "--reps", "2",
                     "--boot", "10", "--seed", "3", *extra, *flags,
                     "--output", str(out_csv)])
        out, err = capsys.readouterr()
        assert code == USAGE_EXIT and err.splitlines()[-1].startswith("error: ")
        assert "rate=" not in out and not out_csv.exists()
        assert calls == {"generate": 0, "wast_blocks": 0, "sst_blocks": 0}
