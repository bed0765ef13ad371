"""Tests of the benchmark's reference computations against brute-force loops,
and of the tracer's self times.

    python3 -m pytest -q bench
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import multivariate_normal, norm

import reference
from run import binomial_window
from spans import Tracer


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_omega_orthant_is_bivariate_normal_orthant_probability(rng):
    z = np.column_stack([np.ones(5), rng.standard_normal((5, 2))])
    omega = reference.omega_orthant(z)
    for i, j in itertools.product(range(5), repeat=2):
        if i == j:
            continue
        rho = z[i] @ z[j] / np.linalg.norm(z[i]) / np.linalg.norm(z[j])
        exact = multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]]).cdf([0.0, 0.0])
        assert omega[i, j] == pytest.approx(exact, abs=1e-6)


def test_wast_statistic_matches_double_loop(rng):
    n = 9
    psi = rng.standard_normal((n, 2))
    omega = rng.random((n, n))
    omega = omega + omega.T
    total = scale = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                term = omega[i, j] * (psi[i] @ psi[j])
                total += term
                scale += abs(term)
    t, s = reference.wast_statistic(psi, omega)
    assert t == pytest.approx(total / (n * (n - 1)), rel=1e-12)
    assert s == pytest.approx(scale / (n * (n - 1)), rel=1e-12)


def test_sst_statistics_match_per_plane_loop(rng):
    n = 40
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    xd = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y = x @ [0.5, 1.0] + rng.standard_normal(n)
    thetas = np.column_stack([rng.uniform(-0.5, 0.5, 6), rng.standard_normal((6, 2))])
    got = reference.sst_gaussian_statistics(y, x, xd, z, thetas)

    alpha = np.linalg.lstsq(x, y, rcond=None)[0]
    e = y - x @ alpha
    j = -sum(np.outer(x[i], x[i]) for i in range(n)) / n
    for k, theta in enumerate(thetas):
        d = [float(z[i] @ theta >= 0) for i in range(n)]
        kk = -sum(d[i] * np.outer(xd[i], x[i]) for i in range(n)) / n
        c = kk @ np.linalg.inv(j)
        u = [d[i] * e[i] * xd[i] - c @ (e[i] * x[i]) for i in range(n)]
        v = sum(np.outer(ui, ui) for ui in u) / n
        s = sum(d[i] * e[i] * xd[i] for i in range(n))
        assert got[k] == pytest.approx(s @ np.linalg.solve(v, s) / n, rel=1e-9)


def test_mles_maximize_the_likelihood(rng):
    n = 80
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = (rng.random(n) < 0.4 + 0.2 * (x[:, 1] > 0)).astype(float)

    def logistic_nll(b):
        eta = x @ b
        return np.sum(np.logaddexp(0.0, eta) - y * eta)

    def probit_nll(b):
        eta = x @ b
        return -np.sum(y * norm.logcdf(eta) + (1.0 - y) * norm.logcdf(-eta))

    for mle, nll in ((reference.logistic_mle, logistic_nll),
                     (reference.probit_mle, probit_nll)):
        best = minimize(nll, np.zeros(2), method="Nelder-Mead",
                        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000}).x
        assert mle(y, x) == pytest.approx(best, abs=1e-5)


def test_quantile_lp_matches_enumeration_of_interpolating_lines(rng):
    # A check-loss minimizer with r = 2 passes through two observations.
    n, tau = 12, 0.3
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = x @ [0.2, 0.7] + rng.standard_normal(n)
    best = min(reference.check_loss(y, x, np.linalg.solve(x[[i, j]], y[[i, j]]), tau)
               for i in range(n) for j in range(i + 1, n))
    assert reference.quantile_lp_loss(y, x, tau) == pytest.approx(best, rel=1e-9)


def test_lattice_and_binomial_window():
    assert reference.on_lattice(0.035, 200) and reference.on_lattice(1.0, 200)
    assert not reference.on_lattice(0.0351, 200) and not reference.on_lattice(-0.005, 200)
    lo, hi = binomial_window(24, 0.05, 1e-6)
    pmf = [math.comb(24, k) * 0.05**k * 0.95 ** (24 - k) for k in range(25)]
    assert sum(pmf[:lo]) <= 1e-6 < sum(pmf[:lo + 1])
    assert sum(pmf[hi + 1:]) <= 1e-6 < sum(pmf[hi:])


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        for _ in range(2):
            with tracer.span("inner"):
                sum(range(10_000))
    outer = tracer.spans[0]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.self_ms("outer")[0] == pytest.approx(
        outer.seconds * 1e3 - sum(tracer.durations_ms("inner")), abs=1e-9)
