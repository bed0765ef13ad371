"""One benchmark worker: a fresh process that imports the package, runs a
contiguous block of one workload's operations, then checks every output.

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N \
        --ops FIRST,COUNT --trace 0|1

It prints one JSON object on stdout.  ``bench/run.py`` starts the workers,
one at a time, with BLAS limited to one thread.  Every operation makes fresh
inputs from (workload, seed, operation index); only the call into the
program is timed.  The host's speed kernel (``bench/host.py``) is timed
right before and after every operation, and operation times are reported
both as measured and normalized by it; ``bench/run.py`` normalizes the
import time by the run's median kernel time.  Checks run after
all operations, and after peak RSS is read, so neither their time nor their
memory is counted.
"""

import time

_T0 = time.perf_counter()
import changeplane  # noqa: E402  -- set-up time is the cost of these imports
import changeplane.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
import weakref  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from changeplane import (Dataset, FamilyKind, Scenario, build_theta_grid,  # noqa: E402
                         fit_null, generate, run_size, sst_derivatives,
                         sst_statistic, sst_test, wast_test)
from changeplane import cli, sim, sst, wast  # noqa: E402

import host  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

host.kernel()  # warm-up: first-touch page faults, numpy dispatch caches

OUT = Path(__file__).resolve().parent / "out"


def op_rng(workload, seed, op):
    return np.random.default_rng([sum(map(ord, workload)), seed, op])


def test_seed(rng):
    return int(rng.integers(2**31))


def span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def call_wast(tracer, ds, family, n_boot, seed):
    """``wast_test`` in a span that records its failed refits."""
    with span(tracer, "wast.wast_test") as rec:
        out = wast_test(ds, family, n_boot=n_boot, seed=seed)
    if tracer:
        rec.attrs["n_failed"] = out.n_failed
    return out


def seconds_of(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def standard_normal_columns(rng, n, k):
    return np.column_stack([np.ones(n), rng.standard_normal((n, k))])


# ---------------------------------------------------------------------------
# wast_binomial_n2000: logistic null model, standard-Gaussian prior
# ---------------------------------------------------------------------------

class WastBinomial:
    n, n_boot, short_boot = 2000, 100, 20
    family = FamilyKind("binomial")

    def make(self, seed, op):
        rng = op_rng("wast_binomial_n2000", seed, op)
        n = self.n
        b = (rng.random((n, 2)) < 0.5).astype(float)
        x_base = np.column_stack([np.ones(n), b[:, 0]])
        x_diff = np.column_stack([np.ones(n), b[:, 1]])
        z = standard_normal_columns(rng, n, 2)
        prob = 1.0 / (1.0 + np.exp(0.5 - np.log(1.4) * b[:, 0]))
        y = (rng.random(n) < prob).astype(float)
        return {"ds": Dataset(y, x_base, x_diff, z), "seed": test_seed(rng)}

    def run(self, inp, tracer):
        return call_wast(tracer, inp["ds"], self.family, self.n_boot, inp["seed"])

    def result(self, out):
        return {"pvalues": 1, "statistic": out.statistic, "p_value": out.p_value}

    def extra(self, inp, out, tracer, seconds):
        short = seconds_of(call_wast, tracer, inp["ds"], self.family, self.short_boot,
                           inp["seed"])
        return {"wast.replicate_ms": (seconds - short) / (self.n_boot - self.short_boot) * 1e3}

    def check(self, inp, out):
        ds = inp["ds"]
        alpha = reference.logistic_mle(ds.y, ds.x_base)
        psi = (ds.y - 1.0 / (1.0 + np.exp(-(ds.x_base @ alpha))))[:, None] * ds.x_diff
        t, scale = reference.wast_statistic(psi, reference.omega_orthant(ds.z_group))
        return wast_outcome_problems(out, t, 1e-6 * scale, self.n_boot)


def wast_outcome_problems(out, t, tol, n_boot):
    problems = []
    if not abs(out.statistic - t) <= tol:
        problems.append(f"statistic {out.statistic!r} vs reference {t!r} (tolerance {tol:.3g})")
    kept = out.boot_stats.size
    if kept + out.n_failed != n_boot or out.n_boot != kept:
        problems.append(f"kept {kept} + failed {out.n_failed} != B={n_boot}")
    if not np.all(np.isfinite(out.boot_stats)):
        problems.append("non-finite bootstrap statistic")
    if not reference.on_lattice(out.p_value, kept):
        problems.append(f"p-value {out.p_value!r} off the 1/{kept} lattice")
    return problems


# ---------------------------------------------------------------------------
# sst_gaussian_n1000_k5000: Gaussian linear model, 5000-plane grid
# ---------------------------------------------------------------------------

class SstGaussian:
    n, k, n_resample, short_resample = 1000, 5000, 200, 20
    family = FamilyKind("gaussian")

    def make(self, seed, op):
        rng = op_rng("sst_gaussian_n1000_k5000", seed, op)
        n = self.n
        x_base = standard_normal_columns(rng, n, 1)
        x_diff = standard_normal_columns(rng, n, 2)
        z = standard_normal_columns(rng, n, 2)
        y = 0.5 + x_base[:, 1] + rng.standard_normal(n)
        return {"ds": Dataset(y, x_base, x_diff, z), "seed": test_seed(rng)}

    def call(self, tracer, inp, n_resample):
        with span(tracer, "sst.sst_test") as rec:
            out = sst_test(inp["ds"], self.family, k_directions=self.k,
                           n_resample=n_resample, seed=inp["seed"])
        if tracer:
            rec.attrs["grid_skipped"] = out.diagnostics["grid_skipped"]
        return out

    def run(self, inp, tracer):
        return self.call(tracer, inp, self.n_resample)

    def result(self, out):
        return {"pvalues": 1, "statistic": out.statistic, "p_value": out.p_value}

    def extra(self, inp, out, tracer, seconds):
        short = seconds_of(self.call, tracer, inp, self.short_resample)
        ds = inp["ds"]
        fit = fit_null(ds, self.family)
        derivs = sst_derivatives(ds, self.family, fit)
        grid = build_theta_grid(ds, self.k, 1, inp["seed"])
        with tracer.span("sst.sst_statistic"):
            sst_statistic(ds, self.family, fit, derivs, grid)
        return {"sst.resample_ms":
                (seconds - short) / (self.n_resample - self.short_resample) * 1e3}

    def check(self, inp, out):
        ds = inp["ds"]
        thetas = build_theta_grid(ds, self.k, 1, inp["seed"]).thetas
        sup = float(np.max(reference.sst_gaussian_statistics(
            ds.y, ds.x_base, ds.x_diff, ds.z_group, thetas)))
        problems = []
        if not abs(out.statistic - sup) <= 1e-10 * sup:
            problems.append(f"statistic {out.statistic!r} vs reference {sup!r}")
        if out.diagnostics["grid_skipped"] != 0:
            problems.append(f"{out.diagnostics['grid_skipped']} planes skipped")
        if out.boot_stats.size != self.n_resample or not np.all(out.boot_stats >= 0.0):
            problems.append("resampled statistics missing or negative")
        if not reference.on_lattice(out.p_value, self.n_resample):
            problems.append(f"p-value {out.p_value!r} off the 1/{self.n_resample} lattice")
        return problems


# ---------------------------------------------------------------------------
# size_quantile_n300: Monte-Carlo size study of WAST for median regression
# ---------------------------------------------------------------------------

class SizeQuantile:
    n, reps, n_boot, short_boot = 300, 1, 200, 40
    family = FamilyKind("quantile", tau=0.5)

    def make(self, seed, op):
        rng = op_rng("size_quantile_n300", seed, op)
        sc = Scenario(family=self.family, dims=(2, 1, 3), n=self.n, kappa=0.0,
                      seed=test_seed(rng))
        return {"scenario": sc, "rng": rng}

    def run(self, inp, tracer):
        with span(tracer, "sim.run_size"):
            return run_size(inp["scenario"], reps=self.reps, n_boot=self.n_boot,
                            method="wast", threads=1)

    def result(self, out):
        return {"pvalues": self.reps, "rejections": round(out["rate"] * self.reps),
                "statistic": out["rate"], "p_value": None}

    def extra(self, inp, out, tracer, seconds):
        ds = generate(inp["scenario"], inp["rng"])
        seed = test_seed(inp["rng"])
        full, short = (seconds_of(call_wast, tracer, ds, self.family, b, seed)
                       for b in (self.n_boot, self.short_boot))
        return {"wast.replicate_ms": (full - short) / (self.n_boot - self.short_boot) * 1e3}

    def check(self, inp, out):
        problems = []
        rejected = out["rate"] * self.reps
        if not (0.0 <= out["rate"] <= 1.0 and abs(rejected - round(rejected)) <= 1e-9):
            problems.append(f"rate {out['rate']!r} is not a count over {self.reps} reps")
        rng = np.random.default_rng(inp["scenario"].seed)
        for _ in range(self.reps):
            ds = generate(inp["scenario"], rng)
            fit = fit_null(ds, self.family)
            got = reference.check_loss(ds.y, ds.x_base, fit.alpha_hat, self.family.tau)
            best = reference.quantile_lp_loss(ds.y, ds.x_base, self.family.tau)
            if not got - best <= 1e-4 * best:
                problems.append(f"fit_null check loss {got!r} vs exact {best!r}")
        return problems


# ---------------------------------------------------------------------------
# cli_probit_gaussprior_n200: `changeplane test` with the Monte-Carlo prior
# ---------------------------------------------------------------------------

class CliProbit:
    n, n_boot, level = 200, 200, 0.05
    columns = ("y", "x1", "d1", "d2", "z1", "z2")

    def make(self, seed, op):
        rng = op_rng("cli_probit_gaussprior_n200", seed, op)
        n = self.n
        x1 = rng.standard_normal(n)
        d = rng.standard_normal((n, 2))
        z = rng.standard_normal((n, 2))
        y = (rng.standard_normal(n) <= 0.3 + 0.5 * x1).astype(float)
        table = np.column_stack([y, x1, d, z])
        OUT.mkdir(exist_ok=True)
        path = OUT / f"cli-seed{seed}-op{op}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in table:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return {"path": path, "table": table, "seed": test_seed(rng)}

    def run(self, inp, tracer):
        argv = ["test", str(inp["path"]), "--family", "probit", "--weight", "gaussian",
                "--boot", str(self.n_boot), "--response", "y", "--baseline", "x1",
                "--diff", "d1,d2", "--grouping", "z1,z2", "--seed", str(inp["seed"])]
        buf = io.StringIO()
        with span(tracer, "cli.main"), contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return {"code": code, "stdout": buf.getvalue()}

    @staticmethod
    def printed(out):
        """The key=value fields of the report, and its decision line."""
        lines = out["stdout"].splitlines()
        fields = dict(line.split("=", 1) for line in lines
                      if "=" in line and " " not in line and not line.startswith("#"))
        decision = next((line for line in lines if line.startswith("decision=")), "")
        return (float(fields.get("statistic", "nan")), float(fields.get("p_value", "nan")),
                decision)

    def result(self, out):
        statistic, p, _ = self.printed(out)
        return {"pvalues": 1, "statistic": statistic, "p_value": p}

    def extra(self, inp, out, tracer, seconds):
        return {}

    def check(self, inp, out):
        inp["path"].unlink()
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        problems = []
        statistic, p, decision = self.printed(out)
        if not reference.on_lattice(p, self.n_boot):
            problems.append(f"p-value {p!r} off the 1/{self.n_boot} lattice")
        want = "reject" if p < self.level else "fail-to-reject"
        if not decision.startswith(f"decision={want} "):
            problems.append(f"{decision!r} does not match p={p!r}")
        table = inp["table"]
        y, x1, d, z = table[:, 0], table[:, 1], table[:, 2:4], table[:, 4:6]
        x_base = np.column_stack([np.ones(self.n), x1])
        alpha = reference.probit_mle(y, x_base)
        psi = reference.probit_factor(y, x_base @ alpha)[:, None] * d
        z_group = np.column_stack([np.ones(self.n), z])
        t, _ = reference.wast_statistic(psi, reference.omega_orthant(z_group))
        # A bound that holds for any draws, then the much tighter Monte-Carlo
        # error of T: 8 standard deviations, estimated independently.
        bound = reference.GAUSS_MC_OMEGA_BOUND * reference.offdiag_mean(np.abs(psi @ psi.T))
        mc_gap = 8.0 * reference.gauss_mc_stat_sd(psi, z_group)
        for gap in (bound, mc_gap):
            if not abs(statistic - t) <= gap:
                problems.append(f"statistic {statistic!r} vs exact-prior {t!r} "
                                f"(allowed gap {gap:.3g})")
        return problems


WORKLOADS = {
    "wast_binomial_n2000": WastBinomial(),
    "sst_gaussian_n1000_k5000": SstGaussian(),
    "size_quantile_n300": SizeQuantile(),
    "cli_probit_gaussprior_n200": CliProbit(),
}


# ---------------------------------------------------------------------------
# tracing: spans around the program's public functions, per-layer samples
# ---------------------------------------------------------------------------

def install_spans(tracer):
    """Wrap the functions the entry points call, in the namespaces they call from."""
    boot = weakref.WeakValueDictionary()

    def remember(rec, args, kwargs, ds):
        boot[id(ds)] = ds

    def fit_name(args):
        return "families.refit" if boot.get(id(args[0])) is args[0] else "families.fit_null"

    def fit_counts(rec, args, kwargs, fit):
        rec.attrs["iterations"] = fit.iterations
        rec.attrs["at_cap"] = int(fit.iterations >= kwargs.get("max_iter", 100))

    def failures(rec, args, kwargs, out):
        rec.attrs["n_failed"] = out.n_failed

    tracer.patch(wast, "fit_null", fit_name, fit_counts)
    tracer.patch(sst, "fit_null", "families.fit_null")
    tracer.patch(wast, "bootstrap_sample", "families.bootstrap_sample", remember)
    for module in (wast, sst):
        tracer.patch(module, "score_psi0", "families.score_psi0")
    tracer.patch(sst, "sst_derivatives", "families.sst_derivatives")
    tracer.patch(wast, "weight_matrix", "weights.weight_matrix")
    tracer.patch(wast, "wast_statistic", "wast.wast_statistic")
    tracer.patch(sst, "build_theta_grid", "sst.build_theta_grid")
    tracer.patch(sim, "generate", "sim.generate")
    for module in (sim, cli):
        tracer.patch(module, "wast_test", "wast.wast_test", failures)
    tracer.patch(cli, "load_csv", "data.load_csv")


def layer_samples(tracer, extras):
    """Per-layer samples; bench/run.py aggregates them across workers."""
    t = tracer
    out = {
        "data.load_csv_ms": t.durations_ms("data.load_csv"),
        "weights.omega_ms": t.durations_ms("weights.weight_matrix"),
        "families.fit_null_ms": t.durations_ms("families.fit_null"),
        "families.refit_ms": t.durations_ms("families.refit"),
        "families.refit_iters": t.attrs("families.refit", "iterations"),
        "families.refits": [1] * len(t.durations_ms("families.refit")),
        "families.refits_at_cap": t.attrs("families.refit", "at_cap"),
        "families.bootstrap_sample_ms": t.durations_ms("families.bootstrap_sample"),
        "families.score_ms": t.durations_ms("families.score_psi0"),
        "families.sst_derivatives_ms": t.durations_ms("families.sst_derivatives"),
        "wast.statistic_ms": t.durations_ms("wast.wast_statistic"),
        "wast.failed_refits": t.attrs("wast.wast_test", "n_failed"),
        "wast.test_self_ms": t.self_ms("wast.wast_test"),
        "sst.grid_ms": t.durations_ms("sst.build_theta_grid"),
        "sst.statistic_ms": t.durations_ms("sst.sst_statistic"),
        "sst.grid_skipped": t.attrs("sst.sst_test", "grid_skipped"),
        "sst.test_self_ms": t.self_ms("sst.sst_test"),
        "sim.generate_ms": t.durations_ms("sim.generate"),
        "sim.run_size_self_ms": t.self_ms("sim.run_size"),
        "cli.main_self_ms": t.self_ms("cli.main"),
        "wast.replicate_ms": [],
        "sst.resample_ms": [],
    }
    for ex in extras:
        for key, val in ex.items():
            out[key].append(val)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", required=True, help="FIRST,COUNT operation indices")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    first, count = (int(v) for v in args.ops.split(","))
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        install_spans(tracer)

    records, done, extras = [], [], []
    for op in range(first, first + count):
        rec = {"op": op}
        records.append(rec)
        try:
            inp = wl.make(args.seed, op)
            if tracer:
                tracer.op = op
            before = host.kernel_seconds()
            t0 = time.perf_counter()
            out = wl.run(inp, tracer)
            rec["wall_s"] = time.perf_counter() - t0
            rec["kernel_s"] = (before + host.kernel_seconds()) / 2
            rec["time_s"] = rec["wall_s"] * host.REF_S / rec["kernel_s"]
            rec.update(wl.result(out))
            if tracer:
                extras.append(wl.extra(inp, out, tracer, rec["wall_s"]))
            done.append((rec, inp, out))
        except Exception:  # an operation that raises counts as failed
            rec["error"] = traceback.format_exc(limit=3)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()

    for rec, inp, out in done:
        try:
            problems = wl.check(inp, out)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            rec["error"] = "; ".join(problems)

    report = {"setup_s": SETUP_S, "peak_rss_mb": peak_rss_mb, "ops": records}
    if tracer:
        report["layers"] = layer_samples(tracer, extras)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}-op{first}.json")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
