"""The benchmark's traced run works end to end on the program as it stands.

``bench/worker.py`` wraps named functions of ``wast``, ``sst``, ``sim`` and
``cli`` for every workload; if a refactor unbinds one of them, every traced
operation fails.  This runs the CLI workload, the shortest; the SST
workload, whose check compares the statistic with the benchmark's own GEMM
reference at 1e-10; the WAST workload, whose check compares omega, built
over many row tiles at n = 2000, with the benchmark's own orthant reference;
and the quantile size study, whose check compares the lock-step quantile
fit's check loss with the benchmark's exact LP; once each, traced.  The
quantile size study also runs untraced, the way its end-to-end metrics are
measured.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_and_check(workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0


@pytest.mark.parametrize("workload", ["cli_probit_gaussprior_n200",
                                      "sst_gaussian_n1000_k5000",
                                      "wast_binomial_n2000",
                                      "size_quantile_n300"])
def test_traced_workload_runs_and_checks_out(workload):
    run_and_check(workload, trace=1)


def test_untraced_size_study_runs_and_checks_out():
    run_and_check("size_quantile_n300", trace=0)
