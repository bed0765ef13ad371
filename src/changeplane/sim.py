"""Simulation scenarios and Monte-Carlo size/power drivers.

Scenario recipes follow the published benchmark designs: GLMs draw latent
equicorrelated Gaussians dichotomized into binary covariates with the change
plane calibrated to a 35/65 population split; quantile/probit/semiparametric
designs use their respective covariate laws.  Replicates derive independent
RNG streams from (scenario seed, replicate index), so tables regenerate
bit-identically on any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .data import Dataset
from .errors import ParameterError
from .families import FamilyKind, _logistic
from .rng import check_counts, check_seed, child_rng, child_seed_sequence
from .sst import sst_blocks
from .wast import TestOutcome, wast_blocks
from .wast import wast_test  # noqa: F401  -- traced by bench/worker.py

__all__ = ["Scenario", "PowerTable", "THETA_RULES", "ERROR_LAWS", "METHODS", "check_level",
           "generate", "run_size", "run_power"]

_LOG14 = math.log(1.4)

# The theta rules' tails (theta_2..theta_q) and the error laws' draws, by
# name: the one place each name is spelled.  Each makes at most one generator call.
_THETA_TAILS = {
    "equispaced": lambda rng, q: np.linspace(-1.0, 1.0, q - 1) if q > 2 else np.array([1.0]),
    "one_two": lambda rng, q: np.append(1.0, np.full(q - 2, 2.0)),
    "uniform": lambda rng, q: rng.uniform(-1.0, 1.0, q - 1),
}
_ERROR_DRAWS = {
    "std_normal": lambda rng, size: rng.standard_normal(size),
    "t3": lambda rng, size: rng.standard_t(3, size),
    "cauchy": lambda rng, size: rng.standard_cauchy(size),
}
THETA_RULES, ERROR_LAWS = tuple(_THETA_TAILS), tuple(_ERROR_DRAWS)
METHODS = ("wast", "sst")  # of run_power


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one simulation design."""

    family: FamilyKind
    dims: tuple[int, int, int]  # (r, p, q)
    n: int
    rho: float = 0.0
    kappa: float = 0.0
    theta_rule: str = "equispaced"  # of THETA_RULES
    split_quantile: float = 0.65
    z_law: str = "std_normal"       # or "t3" / "normal:<sd>"
    error_law: str = "std_normal"   # of ERROR_LAWS: quantile/semiparametric noise
    seed: int = 0

    def __post_init__(self):
        try:
            r, p, q = self.dims
        except (TypeError, ValueError):
            raise ParameterError(
                f"dims must be three counts (r, p, q), got {self.dims!r}") from None
        check_counts(r=r, p=p, q=q)
        if q < 2:  # every design groups on the intercept and at least one variable
            raise ParameterError(f"dims need q >= 2 grouping columns, got q = {q}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):  # a bool is < 2
            raise ParameterError(f"n must be an integer >= 2, got {self.n!r}")
        if not math.isfinite(self.kappa):
            raise ParameterError(f"kappa must be finite, got {self.kappa}")
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError("rho must lie in [0, 1)")
        if not 0.0 < self.split_quantile < 1.0:
            raise ParameterError("split_quantile must lie in (0, 1)")
        if self.theta_rule not in THETA_RULES:
            raise ParameterError(f"unknown theta rule {self.theta_rule!r}")
        if self.error_law not in ERROR_LAWS:
            raise ParameterError(f"unknown error law {self.error_law!r}")
        head, _, sd = self.z_law.partition(":")
        try:
            ok = (self.z_law in ("std_normal", "t3")
                  or head == "normal" and 0.0 < float(sd) < math.inf)
        except ValueError:
            ok = False
        if not ok:
            raise ParameterError(f"z law must be std_normal, t3 or normal:<sd> with a finite "
                                 f"sd > 0, got {self.z_law!r}")
        check_seed(self.seed)


@dataclass
class PowerTable:
    """Rows of (kappa, n, method, rate, reps, stderr, replicates_run).
    replicates_run, left out of the CSV, counts the bootstrap refits or
    resamples a study's tests of the cell ran before their decisions were
    fixed; None in a row not added by a study."""

    rows: list[dict] = field(default_factory=list)

    def add(self, kappa: float, n: int, method: str, rate: float, reps: int,
            replicates_run: int | None = None):
        stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / reps)
        self.rows.append({"kappa": kappa, "n": n, "method": method,
                          "rate": rate, "reps": reps, "stderr": stderr,
                          "replicates_run": replicates_run})

    def write_csv(self, fh) -> None:
        fh.write("kappa,n,method,rate,reps,stderr\n")
        for row in self.rows:
            fh.write(f"{row['kappa']:.12g},{row['n']},{row['method']},"
                     f"{row['rate']:.12g},{row['reps']},{row['stderr']:.12g}\n")


def _z_tail_draw(law: str, n: int, dim: int, rng) -> np.ndarray:
    head, _, sd = law.partition(":")
    if head == "normal":
        return float(sd) * rng.standard_normal((n, dim))
    return _ERROR_DRAWS[law](rng, (n, dim))  # std_normal or t3


def _split_indicator(z_tail: np.ndarray, theta_tail: np.ndarray,
                     split_quantile: float) -> np.ndarray:
    """Change-plane indicator with the intercept set to minus the empirical
    split quantile of the projected grouping score."""
    proj = z_tail @ theta_tail
    theta1 = -float(np.quantile(proj, split_quantile))
    return (theta1 + proj >= 0).astype(float)


def _binomial_intercept(shift: np.ndarray, target: float = 1.0 / 3.0) -> float:
    """Solve mean(logistic(a1 + shift)) = target for the binomial baseline."""
    # Imported here: only this design needs a root finder, and importing
    # scipy costs more than importing the rest of the package.
    from scipy.optimize import brentq
    return brentq(lambda a1: float(np.mean(_logistic(a1 + shift))) - target, -30.0, 30.0)


def _generate_glm(sc: Scenario, rng) -> Dataset:
    r, p, q = sc.dims
    n = sc.n
    m = max(r, p)
    latent_dim = (m - 1) + (q - 1)
    cov = np.full((latent_dim, latent_dim), sc.rho)
    np.fill_diagonal(cov, 1.0)
    lat = rng.standard_normal((n, latent_dim)) @ np.linalg.cholesky(cov).T
    v = lat[:, : m - 1]
    if sc.z_law == "std_normal":
        z_tail = lat[:, m - 1:]
    else:
        z_tail = _z_tail_draw(sc.z_law, n, q - 1, rng)

    binary = (v > 0).astype(float)
    x_base = np.hstack([np.ones((n, 1)), binary[:, : r - 1]])
    x_diff = np.hstack([np.ones((n, 1)), binary[:, : p - 1]])
    z_group = np.hstack([np.ones((n, 1)), z_tail])

    alpha = np.full(r, _LOG14)
    shift = x_base[:, 1:] @ alpha[1:]
    if sc.family.name == "binomial":
        alpha[0] = _binomial_intercept(shift)
    else:
        alpha[0] = 0.5

    theta_tail = _THETA_TAILS[sc.theta_rule](rng, q)
    ind = _split_indicator(z_tail, theta_tail, sc.split_quantile)
    mu = x_base @ alpha + sc.kappa * (x_diff.sum(axis=1)) * ind

    if sc.family.name == "gaussian":
        y = mu + rng.standard_normal(n)
    elif sc.family.name == "binomial":
        y = (rng.random(n) < _logistic(mu)).astype(float)
    else:
        y = rng.poisson(np.exp(np.clip(mu, None, 30.0))).astype(float)
    return Dataset(y=y, x_base=x_base, x_diff=x_diff, z_group=z_group)


def _generate_quantile_like(sc: Scenario, rng) -> Dataset:
    """Shared covariate recipe of the quantile and probit benchmark designs."""
    _, p, q = sc.dims
    n = sc.n
    x_diff = 2.0 ** 0.25 * rng.standard_normal((n, p))  # variance sqrt(2)
    z_tail = _z_tail_draw(sc.z_law, n, q - 1, rng)
    z_group = np.hstack([np.ones((n, 1)), z_tail])
    theta_tail = _THETA_TAILS["one_two" if sc.theta_rule == "equispaced"
                              else sc.theta_rule](rng, q)
    ind = _split_indicator(z_tail, theta_tail, sc.split_quantile)
    effect = sc.kappa * x_diff.sum(axis=1) * ind
    if sc.family.name == "probit":
        xt = (rng.random(n) < 0.5).astype(float)
        x_base = np.hstack([np.ones((n, 1)), xt[:, None]])
        eta = 0.5 + xt + effect
        y = (rng.standard_normal(n) <= eta).astype(float)
    else:
        xt = rng.standard_normal(n)
        x_base = np.hstack([np.ones((n, 1)), xt[:, None]])
        y = 0.5 + xt + effect + _ERROR_DRAWS[sc.error_law](rng, n)
    return Dataset(y=y, x_base=x_base, x_diff=x_diff, z_group=z_group)


def _generate_semiparametric(sc: Scenario, rng) -> Dataset:
    _, _, q = sc.dims
    n = sc.n
    v1 = (rng.random(n) < 0.5).astype(float)
    v2 = rng.uniform(-1.0, 1.0, n)
    x_base = np.column_stack([np.ones(n), v1, v2])
    extra = rng.uniform(-1.0, 1.0, (n, max(q - 3, 0)))
    z_group = np.hstack([x_base, extra])[:, :q]
    a = (rng.random(n) < 0.5).astype(float)  # propensity P1: pi = 0.5
    gamma = 1.0 + 0.5 * v1 + v2 ** 2         # baseline B1 (misspecified linear fit)
    theta_tail = _THETA_TAILS["one_two" if sc.theta_rule == "equispaced"
                              else sc.theta_rule](rng, q)
    ind = _split_indicator(z_group[:, 1:], theta_tail, sc.split_quantile)
    y = gamma + sc.kappa * a * ind + _ERROR_DRAWS[sc.error_law](rng, n)
    return Dataset(y=y, x_base=x_base, x_diff=a[:, None], z_group=z_group)


def generate(sc: Scenario, rng=None) -> Dataset:
    """Draw one dataset from the scenario recipe."""
    if rng is None:
        rng = child_rng(sc.seed, 0, 0)
    rng = np.random.default_rng(rng)
    name = sc.family.name
    if name in ("gaussian", "binomial", "poisson"):
        return _generate_glm(sc, rng)
    if name in ("quantile", "probit"):
        return _generate_quantile_like(sc, rng)
    return _generate_semiparametric(sc, rng)


def check_level(level) -> None:
    """The rule for a test level: a number in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {level}")


def _test_seed(sc: Scenario, rep: int) -> int:
    return int(child_seed_sequence(sc.seed, 1, rep).generate_state(1)[0])


def _decide(statistic, blocks, n_boot: int, level: float) -> tuple[bool, int]:
    """Whether a test of ``statistic`` rejects at ``level``, and the replicates it ran.

    ``blocks`` yields (block of replicate statistics, replicates run).  Once
    count/n_boot >= level, with count the replicates so far at
    or above the statistic, the test cannot reject: its p-value is
    count'/kept with count' >= count and kept <= n_boot, and correctly
    rounded division is monotone.  So it stops there; a test that runs to
    the end decides by its p-value, ``TestOutcome.upper_tail``.
    """
    count, kept, ran = 0, [], 0
    for boot, width in blocks:
        ran += width
        count += int(np.count_nonzero(boot >= statistic))
        if count / n_boot >= level:
            return False, ran
        kept.append(boot)
    return TestOutcome.upper_tail(statistic, np.concatenate(kept)) < level, ran


def _study_job(job) -> list[tuple[bool, int]]:
    """One (kappa, replicate) job: its dataset, generated once, and the
    decision and replicates run of every bound test on it under the
    replicate's test seed."""
    sc, rep, tests, n_boot, level = job
    ds = generate(sc, child_rng(sc.seed, 0, rep))
    seed = _test_seed(sc, rep)
    return [_decide(*test(ds, sc.family, seed=seed), n_boot, level) for test in tests]


def run_size(sc: Scenario, reps: int = 300, n_boot: int = 200,
             level: float = 0.05, method: str = "wast", threads: int = 1,
             k_directions: int = 1000, grid_per_direction: int = 1) -> dict:
    """Empirical rejection rate at the scenario's own kappa: a one-cell power study."""
    row = run_power(sc, [sc.kappa], reps, n_boot, level, (method,), threads,
                    k_directions, grid_per_direction).rows[0]
    return {**row, "level": level}


def run_power(sc: Scenario, kappa_grid, reps: int = 300, n_boot: int = 200,
              level: float = 0.05, methods=("wast",), threads: int = 1,
              k_directions: int = 1000, grid_per_direction: int = 1) -> PowerTable:
    """One rejection-rate row per (kappa, method), kappa-major.

    The study is one ordered list of (kappa, replicate) jobs.  Each job
    generates its dataset once and tests it with every method, so the
    methods share their datasets.  Every input is checked before the first
    replicate runs; ``k_directions`` and ``grid_per_direction``, the grid
    options of ``sst_test``, are read and checked only when ``sst`` is
    among the methods.  A test stops once its decision at ``level`` is
    fixed (``_decide``), so the rates are those of the full tests.
    """
    kappa_grid = [float(kappa) for kappa in kappa_grid]
    if not kappa_grid:
        raise ParameterError("kappa grid must be nonempty")
    check_counts(reps=reps, n_boot=n_boot, threads=threads)
    check_level(level)
    # Bound per call, not at import, so a replaced module attribute is the test that runs.
    bound = dict(zip(METHODS, (partial(wast_blocks, n_boot=n_boot),
                               partial(sst_blocks, n_resample=n_boot, k_directions=k_directions,
                                       grid_per_direction=grid_per_direction))))
    methods = tuple(methods)
    if not methods or len(set(methods)) < len(methods) or not set(methods) <= set(METHODS):
        raise ParameterError(f"methods must be distinct names among {' and '.join(METHODS)}, "
                             f"got {methods}")
    if "sst" in methods:
        check_counts(k_directions=k_directions, grid_per_direction=grid_per_direction)
    tests = tuple(bound[method] for method in methods)
    jobs = [(replace(sc, kappa=kappa), rep, tests, n_boot, level)
            for kappa in kappa_grid for rep in range(reps)]
    # A pool forks all its workers at the first submission: no more than there are jobs.
    workers = min(threads, len(jobs))
    if workers == 1:
        results = [_study_job(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map keeps submission order: the table is the same on any worker count.
            results = list(pool.map(_study_job, jobs, chunksize=1))
    results = np.array(results).reshape(len(kappa_grid), reps, len(methods), 2)
    rates = (results[..., 0] == 1).mean(axis=1)
    ran = results[..., 1].sum(axis=1)
    table = PowerTable()
    for kappa, cell_rates, cell_ran in zip(kappa_grid, rates, ran):
        for method, rate, replicates_run in zip(methods, cell_rates, cell_ran):
            table.add(kappa, sc.n, method, float(rate), reps, int(replicates_run))
    return table
