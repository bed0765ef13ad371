"""Benchmark command: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workers (``bench/worker.py``) are
started one at a time, each a fresh interpreter with ``PYTHONPATH=src`` and
BLAS at one thread, and each runs a fixed block of operations; new workers
are started until ``--seconds`` have passed (at least ``MIN_WORKERS``).
Spreading a run over several processes matters on a shared host: medians
of repeats within one process agree, medians of different processes do not.
Times are normalized by the host's speed kernel timed around each operation
(``bench/host.py``): each operation's time by the kernel time around it,
the import time ``setup_s`` by the run's median kernel time.  The wall
times are printed and traced too.

Every operation's output is checked against an independent computation (see
``bench/reference.py``).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from host import REF_S

ROOT = Path(__file__).resolve().parent.parent

# Operations per worker: enough that a worker's own start-up is a small part
# of its run, few enough that a run spans several workers.
OPS_PER_WORKER = {
    "wast_binomial_n2000": 2,
    "sst_gaussian_n1000_k5000": 1,
    "size_quantile_n300": 8,
    "cli_probit_gaussprior_n200": 1,
}
MIN_WORKERS = 3
RUN_LIMIT_S = 165.0   # workers still running after this are killed

# size_quantile_n300: the pooled rejection count must lie in the central
# 1 - 2e-6 range of Binomial(replicates, LEVEL).
LEVEL = 0.05
WINDOW_TAIL = 1e-6

# name -> (unit, how samples from all workers are combined)
PER_LAYER = {
    "data.load_csv_ms": ("ms", "median"),
    "weights.omega_ms": ("ms", "median"),
    "families.fit_null_ms": ("ms", "median"),
    "families.refit_ms": ("ms", "median"),
    "families.refit_iters": ("count", "mean"),
    "families.refits": ("count", "sum"),
    "families.refits_at_cap": ("count", "sum"),
    "families.bootstrap_sample_ms": ("ms", "median"),
    "families.score_ms": ("ms", "median"),
    "families.sst_derivatives_ms": ("ms", "median"),
    "wast.statistic_ms": ("ms", "median"),
    "wast.replicate_ms": ("ms", "median"),
    "wast.failed_refits": ("count", "sum"),
    "wast.test_self_ms": ("ms", "median"),
    "sst.grid_ms": ("ms", "median"),
    "sst.statistic_ms": ("ms", "median"),
    "sst.resample_ms": ("ms", "median"),
    "sst.grid_skipped": ("count", "sum"),
    "sst.test_self_ms": ("ms", "median"),
    "sim.generate_ms": ("ms", "median"),
    "sim.run_size_self_ms": ("ms", "median"),
    "cli.main_self_ms": ("ms", "median"),
    "host.kernel_ms": ("ms", "median"),
    "host.wall_test_s": ("s", "median"),
}
COMBINE = {"median": statistics.median, "mean": statistics.fmean, "sum": sum}


def binomial_window(n, prob, tail):
    """Smallest lo and largest hi with P(X < lo) <= tail and P(X > hi) <= tail."""
    pmf = [math.comb(n, k) * prob**k * (1.0 - prob) ** (n - k) for k in range(n + 1)]
    lo, acc = 0, pmf[0]
    while acc <= tail:
        lo += 1
        acc += pmf[lo]
    hi, acc = n, pmf[n]
    while acc <= tail:
        hi -= 1
        acc += pmf[hi]
    return lo, hi


def run_worker(args, first, count, env, timeout):
    """One worker's report, or a report that fails all its operations."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--ops", f"{first},{count}", "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        why = f"worker exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        why = f"worker killed after {timeout:.0f} s"
    return {"ops": [{"op": op, "error": why} for op in range(first, first + count)]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS_PER_WORKER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "changeplane" / "__init__.py").is_file():
        print(f"error: no changeplane sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    per_worker = OPS_PER_WORKER[args.workload]
    start = time.perf_counter()
    reports = []
    while len(reports) < MIN_WORKERS or time.perf_counter() - start < args.seconds:
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        if left <= 0:
            break
        reports.append(run_worker(args, len(reports) * per_worker, per_worker, env, left))

    ops = [op for rep in reports for op in rep["ops"]]
    good = [op for op in ops if "error" not in op]
    for op in ops:
        shown = (f"FAILED {op['error'].strip().splitlines()[-1]}" if "error" in op else
                 f"time_s={op['time_s']:.4f} wall_s={op['wall_s']:.4f} "
                 f"kernel_ms={op['kernel_s'] * 1e3:.2f} statistic={op['statistic']!r} "
                 f"p_value={op['p_value']!r}")
        print(f"op {op['op']}: {shown}")
    if not good:
        print("error: every operation failed", file=sys.stderr)
        return 1

    correct = True
    if args.workload == "size_quantile_n300":
        reps = sum(op["pvalues"] for op in good)
        rejected = sum(op["rejections"] for op in good)
        lo, hi = binomial_window(reps, LEVEL, WINDOW_TAIL)
        correct = lo <= rejected <= hi
        print(f"rejections {rejected}/{reps}, window [{lo}, {hi}] at level {LEVEL}")

    workers = [rep for rep in reports if "setup_s" in rep]
    wall_test_s = [op["wall_s"] / op["pvalues"] for op in good]
    wall_setup_s = statistics.median(rep["setup_s"] for rep in workers)
    kernel_s = statistics.median(op["kernel_s"] for op in good)
    print(f"wall test_s median {statistics.median(wall_test_s):.4f} s, wall setup_s median "
          f"{wall_setup_s:.4f} s; kernel median {kernel_s * 1e3:.2f} ms", file=sys.stderr)
    if args.trace:
        samples = {name: [] for name in PER_LAYER}
        for rep in workers:
            for name, vals in rep["layers"].items():
                samples[name].extend(vals)
        samples["host.kernel_ms"] = [op["kernel_s"] * 1e3 for op in good]
        samples["host.wall_test_s"] = wall_test_s
        metrics = {name: {"value": COMBINE[how](samples[name]) if samples[name] else 0,
                          "unit": unit}
                   for name, (unit, how) in PER_LAYER.items()}
        traced = statistics.median(op["time_s"] / op["pvalues"] for op in good)
        print(f"traced test_s median {traced:.4f} s over {len(good)} operations",
              file=sys.stderr)
    else:
        metrics = {
            "test_s": statistics.median(op["time_s"] / op["pvalues"] for op in good),
            "pvalues_per_s": sum(op["pvalues"] for op in good)
            / sum(op["time_s"] for op in good),
            "setup_s": wall_setup_s * REF_S / kernel_s,
            "peak_rss_mb": max(rep["peak_rss_mb"] for rep in workers),
        }
        units = {"test_s": "s", "pvalues_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": val, "unit": units[name]} for name, val in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(ops) - len(good), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
