import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import changeplane
from changeplane import FamilyKind, PowerTable, Scenario, generate
from changeplane.cli import NUMERIC_EXIT, USAGE_EXIT, main


@pytest.fixture
def glm_csv(tmp_path):
    """CSV drawn from the binomial benchmark design, raw columns only."""
    sc = Scenario(family=FamilyKind("binomial"), dims=(2, 2, 3), n=150,
                  kappa=0.0, seed=17)
    ds = generate(sc)
    path = tmp_path / "data.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,x1,z1,z2\n")
        for i in range(ds.n):
            fh.write(f"{ds.y[i]:.17g},{ds.x_base[i, 1]:.17g},"
                     f"{ds.z_group[i, 1]:.17g},{ds.z_group[i, 2]:.17g}\n")
    return path


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTestCommand:
    def test_wast_happy_path(self, glm_csv, capsys, tmp_path):
        out_csv = tmp_path / "result.csv"
        code, out, _ = run_cli(
            ["test", str(glm_csv), "--family", "binomial",
             "--response", "y", "--baseline", "x1", "--diff", "x1",
             "--grouping", "z1,z2", "--boot", "50", "--seed", "9",
             "--output", str(out_csv)], capsys)
        assert code == 0
        assert "# seed=9" in out
        assert "statistic=" in out and "p_value=" in out
        assert ("decision=reject" in out) or ("decision=fail-to-reject" in out)
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("method,family,n,")
        assert lines[1].startswith("wast,binomial,150,50,")

    def test_sst_happy_path(self, glm_csv, capsys):
        code, out, _ = run_cli(
            ["test", str(glm_csv), "--method", "sst", "--family", "binomial",
             "--response", "y", "--baseline", "x1", "--diff", "x1",
             "--grouping", "z1,z2", "--boot", "40", "--grid-k", "50",
             "--seed", "3"], capsys)
        assert code == 0
        assert "method=sst" in out
        fields = dict(f.split("=") for f in out.splitlines()[1].split()[1:])
        assert fields["grid_k"] == "50" and fields["skipped"] == "0"
        assert 1 <= int(fields["distinct"]) <= 50
        assert list(fields)[-3:] == ["grid_k", "skipped", "distinct"]

    def test_deterministic_output(self, glm_csv, capsys):
        argv = ["test", str(glm_csv), "--family", "binomial",
                "--response", "y", "--baseline", "x1", "--diff", "x1",
                "--grouping", "z1,z2", "--boot", "30", "--seed", "4"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_missing_column_usage_exit(self, glm_csv, capsys):
        code, _, err = run_cli(
            ["test", str(glm_csv), "--family", "binomial",
             "--response", "y", "--baseline", "nope", "--diff", "x1",
             "--grouping", "z1", "--seed", "1"], capsys)
        assert code == USAGE_EXIT
        assert "nope" in err

    def test_invalid_response_values(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x,z\n0,1,0.3\n2,0,0.1\n1,1,-0.2\n")
        code, _, err = run_cli(
            ["test", str(path), "--family", "binomial", "--response", "y",
             "--baseline", "x", "--diff", "x", "--grouping", "z",
             "--seed", "1"], capsys)
        assert code == USAGE_EXIT

    def test_duplicate_header_usage_exit(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        rows = "\n".join(f"{i % 2},{i * 0.1},{-i * 0.2},{(i * 7) % 5}" for i in range(30))
        path.write_text("y,x,x,z\n" + rows + "\n")
        code, _, err = run_cli(
            ["test", str(path), "--family", "binomial", "--response", "y",
             "--baseline", "x", "--diff", "x", "--grouping", "z", "--seed", "1"], capsys)
        assert code == USAGE_EXIT
        assert "column 'x' appears more than once" in err

    @pytest.mark.parametrize("role, columns", [("diff", "x1,x1"), ("grouping", "z1,z1"),
                                               ("baseline", "x1,x1")])
    def test_column_repeated_in_one_role_usage_exit(self, glm_csv, capsys, role, columns):
        # A repeated name is a usage error, not a singular design for SST to
        # ridge-repair or for the null fit to refuse.
        flags = {"baseline": "x1", "diff": "x1", "grouping": "z1,z2", role: columns}
        code, _, err = run_cli(
            ["test", str(glm_csv), "--method", "sst", "--family", "binomial",
             "--response", "y", "--baseline", flags["baseline"], "--diff", flags["diff"],
             "--grouping", flags["grouping"], "--boot", "10", "--grid-k", "10",
             "--seed", "1"], capsys)
        assert code == USAGE_EXIT
        assert f"column '{columns[:2]}' listed twice in {role}" in err

    def test_singular_design_numeric_exit(self, tmp_path, capsys):
        path = tmp_path / "sing.csv"
        rows = "\n".join(f"{i * 0.5},1,2,{i * 0.1}" for i in range(20))
        path.write_text("y,x1,x2,z\n" + rows + "\n")
        # x2 = 2 * x1 = constant -> collinear with the injected intercept
        code, _, err = run_cli(
            ["test", str(path), "--family", "gaussian", "--response", "y",
             "--baseline", "x1,x2", "--diff", "x1", "--grouping", "z",
             "--seed", "1"], capsys)
        assert code == NUMERIC_EXIT

    def test_gaussian_weight_is_exact_standard_prior(self, glm_csv, capsys):
        argv = ["test", str(glm_csv), "--family", "binomial", "--response", "y",
                "--baseline", "x1", "--diff", "x1", "--grouping", "z1,z2",
                "--boot", "30", "--seed", "4"]
        outs = []
        for weight in ("std_gaussian", "gaussian"):
            code, out, _ = run_cli(argv + ["--weight", weight], capsys)
            assert code == 0
            outs.append([line for line in out.splitlines()
                         if line.startswith(("statistic=", "p_value="))])
        assert len(outs[0]) == 2 and outs[0] == outs[1]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--weight", "gaussian", "--mc-draws", "100"])
        assert exc.value.code == USAGE_EXIT

    @staticmethod
    def scalar_grouping_argv(tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "scalar.csv"
        with open(path, "w") as fh:
            fh.write("y,x,z\n")
            for _ in range(60):
                fh.write(f"{rng.standard_normal():.17g},"
                         f"{rng.standard_normal():.17g},"
                         f"{rng.random():.17g}\n")
        return ["test", str(path), "--family", "gaussian", "--response", "y",
                "--baseline", "x", "--diff", "x", "--grouping", "z",
                "--no-intercept-grouping", "--boot", "30", "--seed", "5"]

    def test_beta_weight_with_scalar_grouping(self, tmp_path, capsys):
        code, out, _ = run_cli(
            self.scalar_grouping_argv(tmp_path)
            + ["--weight", "beta", "--beta-lambda1", "2", "--beta-lambda2", "2"],
            capsys)
        assert code == 0
        assert "p_value=" in out

    @pytest.mark.parametrize("flags", [
        ["--weight", "beta", "--beta-lambda1", "nan"],
        ["--weight", "beta", "--beta-lambda2", "inf"],
        ["--weight", "uni_gaussian", "--weight-mu", "nan"],
        ["--weight", "uni_gaussian", "--weight-sigma2", "inf"],
    ])
    def test_non_finite_prior_parameter_usage_exit(self, tmp_path, capsys, flags):
        code, out, err = run_cli(self.scalar_grouping_argv(tmp_path) + flags, capsys)
        assert code == USAGE_EXIT
        assert "finite" in err and "p_value=" not in out

    @pytest.mark.parametrize("level", ["1.5", "nan", "-1", "0", "1"])
    def test_level_outside_unit_interval_usage_exit(self, glm_csv, capsys, level):
        code, out, err = run_cli(
            ["test", str(glm_csv), "--family", "binomial", "--response", "y",
             "--baseline", "x1", "--diff", "x1", "--grouping", "z1,z2", "--boot", "20",
             "--level", level], capsys)
        assert code == USAGE_EXIT
        assert "level must lie in (0, 1)" in err and "decision=" not in out

    def test_simulate_level_outside_unit_interval_usage_exit(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--family", "binomial", "--n", "60", "--reps", "2",
             "--boot", "10", "--seed", "8", "--level", "2"], capsys)
        assert code == USAGE_EXIT and "level must lie in (0, 1)" in err


class TestSimulateCommand:
    def test_simulate_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "size.csv"
        code, out, err = run_cli(
            ["simulate", "--family", "binomial", "--dims", "2,2,3",
             "--n", "60", "--reps", "3", "--boot", "10", "--seed", "8",
             "--output", str(out_csv)], capsys)
        assert code == 0
        assert "running size study" in err  # progress goes to stderr
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "kappa,n,method,rate,reps,stderr"
        assert len(lines) == 2
        # The file is PowerTable.write_csv of the printed row; the rate is a
        # count over reps, recovered exactly from its printed digits.
        row = dict(f.split("=") for f in out.splitlines()[-1].split())
        reps = int(row["reps"])
        table = PowerTable()
        table.add(float(row["kappa"]), int(row["n"]), row["method"],
                  round(float(row["rate"]) * reps) / reps, reps)
        buf = io.StringIO()
        table.write_csv(buf)
        assert out_csv.read_bytes() == buf.getvalue().encode()

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("n = 50\nreps = 2\nboot = 10\n# comment\nkappa = 0.0\n")
        out_csv = tmp_path / "size.csv"
        code, out, _ = run_cli(
            ["simulate", "--family", "gaussian", "--seed", "2",
             "--config", str(cfg), "--reps", "3",
             "--output", str(out_csv)], capsys)
        assert code == 0
        row = out_csv.read_text().strip().splitlines()[1].split(",")
        assert row[1] == "50"   # n from config
        assert row[4] == "3"    # reps overridden by the flag

    def test_threads_do_not_change_numbers(self, tmp_path, capsys):
        outs = []
        for threads, name in ((1, "a.csv"), (2, "b.csv")):
            out_csv = tmp_path / name
            code, *_ = run_cli(
                ["simulate", "--family", "gaussian", "--dims", "2,2,3",
                 "--n", "60", "--reps", "4", "--boot", "10", "--seed", "6",
                 "--threads", str(threads), "--output", str(out_csv)], capsys)
            assert code == 0
            outs.append(out_csv.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("line, message", [("n = abc", "invalid int value"),
                                               ("rpes = 3", "unrecognized arguments"),
                                               ("reps 3", "expected key=value")])
    def test_bad_config_entry_usage_exit(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(line + "\n")
        try:  # argparse exits on a bad flag; main returns for an unreadable file
            code = main(["simulate", "--family", "gaussian", "--seed", "1",
                         "--config", str(cfg), "--output", str(tmp_path / "size.csv")])
        except SystemExit as exc:
            code = exc.code
        assert code == USAGE_EXIT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "power"])
    @pytest.mark.parametrize("dims", ["2,2", "2,2,3,4", "2,x,3"])
    def test_malformed_dims_usage_exit(self, tmp_path, capsys, command, dims):
        extra = ["--kappa-grid", "0"] if command == "power" else []
        code, out, err = run_cli(
            [command, "--family", "gaussian", "--seed", "1", "--dims", dims, *extra,
             "--output", str(tmp_path / "out.csv")], capsys)
        assert code == USAGE_EXIT
        assert "--dims must be three comma-separated integers" in err
        assert out == "" and not (tmp_path / "out.csv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--family", "gaussian", "--seed", "1",
             "--config", str(tmp_path / "absent.cfg")], capsys)
        assert code == USAGE_EXIT


class TestPowerCommand:
    def test_power_table(self, tmp_path, capsys):
        out_csv = tmp_path / "power.csv"
        code, out, _ = run_cli(
            ["power", "--family", "gaussian", "--dims", "2,2,3", "--n", "80",
             "--reps", "3", "--boot", "10", "--kappa-grid", "0,1",
             "--methods", "wast,sst", "--grid-k", "30", "--seed", "12",
             "--output", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "kappa,n,method,rate,reps,stderr"
        assert len(lines) == 5  # 2 kappas x 2 methods
        assert "# seed=12" in out

    @pytest.mark.parametrize("grid", ["0,abc", "0,,x"])
    def test_malformed_kappa_grid_usage_exit(self, tmp_path, capsys, grid):
        code, out, err = run_cli(
            ["power", "--family", "gaussian", "--seed", "1", "--kappa-grid", grid,
             "--output", str(tmp_path / "power.csv")], capsys)
        assert code == USAGE_EXIT
        assert "--kappa-grid must be a comma list of numbers" in err
        assert out == "" and not (tmp_path / "power.csv").exists()


def run_python(code: str) -> list[str]:
    """stdout lines of ``python -c code`` in a fresh interpreter that imports
    this source tree; it must exit 0."""
    src = str(Path(changeplane.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


SCIPY_LOADED = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


class TestStartup:
    """The import and a default ``changeplane test`` run on numpy and the
    standard library alone; scipy is imported only by the priors and the
    simulation design that need it."""

    @pytest.fixture
    def probit_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        x1, d1, z1, z2 = rng.standard_normal((4, 120))
        y = (rng.standard_normal(120) <= 0.3 + 0.5 * x1).astype(float)
        path = tmp_path / "probit.csv"
        np.savetxt(path, np.column_stack([y, x1, d1, z1, z2]), delimiter=",",
                   header="y,x1,d1,z1,z2", comments="")
        return path

    def test_import_loads_no_scipy_and_no_process_pool(self):
        # numpy.random is loaded by the import, so no test pays for it later;
        # the quantile simplex is compiled only when a quantile fit runs.
        out = run_python("import sys, changeplane, changeplane.cli\n"
                         f"print({SCIPY_LOADED}, "
                         "'concurrent.futures.process' in sys.modules, "
                         "'numpy.random' in sys.modules, "
                         "'changeplane.quantile' in sys.modules)")
        assert out == ["[] False True False"]

    @pytest.mark.parametrize("weight", [[], ["--weight", "gaussian"]])
    def test_probit_test_command_loads_no_scipy(self, probit_csv, weight):
        argv = ["test", str(probit_csv), "--family", "probit", "--response", "y",
                "--baseline", "x1", "--diff", "d1", "--grouping", "z1,z2",
                "--boot", "30", "--seed", "3", *weight]
        out = run_python("import sys\nfrom changeplane.cli import main\n"
                         f"code = main({argv!r})\nprint(code, {SCIPY_LOADED})")
        assert out[-1] == "0 []"
        assert any(line.startswith("p_value=") for line in out)

    def test_quantile_test_command_loads_no_scipy(self, tmp_path):
        # The exact quantile fits run on numpy alone on continuous data.
        rng = np.random.default_rng(5)
        x1, d1, z1, z2 = rng.standard_normal((4, 150))
        y = 0.5 + x1 + rng.standard_t(3, 150)
        path = tmp_path / "quantile.csv"
        np.savetxt(path, np.column_stack([y, x1, d1, z1, z2]), delimiter=",",
                   header="y,x1,d1,z1,z2", comments="")
        argv = ["test", str(path), "--family", "quantile", "--response", "y",
                "--baseline", "x1", "--diff", "d1", "--grouping", "z1,z2",
                "--boot", "100", "--seed", "3"]
        out = run_python("import sys\nfrom changeplane.cli import main\n"
                         f"code = main({argv!r})\nprint(code, {SCIPY_LOADED})")
        assert out[-1] == "0 []"
        assert any(line.startswith("p_value=") for line in out)

    def test_beta_prior_imports_scipy_special_when_it_runs(self, probit_csv):
        argv = ["test", str(probit_csv), "--family", "probit", "--response", "y",
                "--baseline", "x1", "--diff", "d1", "--grouping", "z1",
                "--no-intercept-grouping", "--weight", "beta", "--boot", "30",
                "--seed", "3"]
        out = run_python("import sys\nfrom changeplane.cli import main\n"
                         "print('scipy.special' in sys.modules)\n"
                         f"code = main({argv!r})\n"
                         "print(code, 'scipy.special' in sys.modules)")
        assert out[0] == "False" and out[-1] == "0 True"
        assert any(line.startswith("p_value=") for line in out)


class TestFileErrors:
    """A file the CLI cannot read or write is a usage error: exit 2 with the
    path named, not a traceback."""

    TEST_ARGS = ["--family", "binomial", "--response", "y", "--baseline", "x1",
                 "--diff", "x1", "--grouping", "z1,z2", "--boot", "10", "--seed", "1"]

    def test_missing_data_file_usage_exit(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        code, out, err = run_cli(["test", str(path), *self.TEST_ARGS], capsys)
        assert code == USAGE_EXIT and out == ""
        assert f"{path}: cannot read" in err

    def test_non_utf8_data_file_usage_exit(self, glm_csv, capsys):
        glm_csv.write_bytes(glm_csv.read_bytes().replace(b"x1", b"x\xe91", 1))
        code, out, err = run_cli(["test", str(glm_csv), *self.TEST_ARGS], capsys)
        assert code == USAGE_EXIT and out == ""
        assert f"{glm_csv}: not UTF-8 text" in err

    @pytest.mark.parametrize("command", ["test", "simulate", "power"])
    def test_unwritable_output_usage_exit(self, glm_csv, tmp_path, capsys, command):
        output = tmp_path / "absent" / "out.csv"
        argv = {"test": ["test", str(glm_csv), *self.TEST_ARGS],
                "simulate": ["simulate", "--family", "gaussian", "--n", "40",
                             "--reps", "1", "--boot", "5", "--seed", "1"],
                "power": ["power", "--family", "gaussian", "--n", "40", "--reps", "1",
                          "--boot", "5", "--kappa-grid", "0", "--seed", "1"]}[command]
        code, _, err = run_cli([*argv, "--output", str(output)], capsys)
        assert code == USAGE_EXIT
        assert f"cannot write {output}" in err
