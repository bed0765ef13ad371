import importlib
import pkgutil

import pytest

import changeplane

MODULES = ["changeplane"] + [f"changeplane.{m.name}"
                             for m in pkgutil.iter_modules(changeplane.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    # A deleted function must not linger in an __all__ list.
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mod, name)] == []


# The names bench/worker.py imports from the package, patches in
# install_spans or calls.  A missing one fails the benchmark only inside its
# worker process (tests/test_bench_smoke.py, ~24 s); here it fails at once,
# by name.  ROADMAP item 2's in-package stage timer retires the patching,
# and with it this table.
BENCH_NAMES = [
    *(("changeplane", name) for name in (
        "Dataset", "FamilyKind", "Scenario", "build_theta_grid", "fit_null", "generate",
        "run_size", "sst_derivatives", "sst_statistic", "sst_test", "wast_test")),
    *(("changeplane.wast", name) for name in (
        "fit_null", "bootstrap_sample", "score_psi0", "weight_matrix", "wast_statistic")),
    *(("changeplane.sst", name) for name in (
        "fit_null", "score_psi0", "sst_derivatives", "build_theta_grid")),
    ("changeplane.sim", "generate"), ("changeplane.sim", "wast_test"),
    ("changeplane.cli", "wast_test"), ("changeplane.cli", "load_csv"),
    ("changeplane.cli", "main"),
]


def test_benchmark_names_stay_bound():
    missing = [f"{module}.{name}" for module, name in BENCH_NAMES
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
