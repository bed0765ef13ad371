"""Subgroup / change-plane hypothesis tests for regression models.

Public surface: dataset construction and CSV ingestion, pairwise prior
weights, per-family null fits and scores, the weighted-average score test
(WAST) with bootstrap calibration, the supremum score test (SST) with
perturbation resampling, and Monte-Carlo size/power drivers.
"""

from .data import ColumnSpec, Dataset, load_csv, save_csv
from .families import (FamilyKind, NullFit, SstDerivatives, bootstrap_sample,
                       fit_null, score_psi0, sst_derivatives, validate)
from .sim import PowerTable, Scenario, generate, run_power, run_size
from .sst import ThetaGrid, build_theta_grid, sst_statistic, sst_test
from .wast import PlaneBlock, TestOutcome, wast_multi_statistic, wast_statistic, wast_test
from .weights import (WeightSpec, beta_prior, gaussian, standard_gaussian,
                      univariate_gaussian, weight_matrix)

__version__ = "0.1.0"

__all__ = [
    "ColumnSpec", "Dataset", "load_csv", "save_csv", "validate",
    "FamilyKind", "NullFit", "SstDerivatives",
    "bootstrap_sample", "fit_null", "score_psi0", "sst_derivatives",
    "PowerTable", "Scenario", "generate", "run_power", "run_size",
    "ThetaGrid", "build_theta_grid", "sst_statistic", "sst_test",
    "PlaneBlock", "TestOutcome", "wast_multi_statistic", "wast_statistic", "wast_test",
    "WeightSpec", "beta_prior", "gaussian", "standard_gaussian",
    "univariate_gaussian", "weight_matrix",
]
