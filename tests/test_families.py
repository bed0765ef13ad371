import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from changeplane import (FamilyKind, NullFit, bootstrap_sample, fit_null, score_psi0,
                         sst_derivatives)
from changeplane import families as families_module
from changeplane.errors import ParameterError, SingularDesignError
from changeplane.families import (_ZERO_ULPS, DEFAULT_MAX_ITER, DEFAULT_TOL, _factor, _fit,
                                  _mills_pair, _newton, _solve_spd, bootstrap_sampler,
                                  refit_null, score_factor)
from changeplane.rng import child_rng

from conftest import check_loss, highs_check_loss, random_dataset


def test_family_kind_validates():
    with pytest.raises(ParameterError):
        FamilyKind("weibull")
    with pytest.raises(ParameterError):
        FamilyKind("quantile", tau=1.0)
    assert FamilyKind("quantile", tau=0.25).describe() == "quantile(tau=0.25)"


class TestMillsPair:
    """lambda(eta) = phi(eta)/Phi(eta) and lambda(-eta), as ``_mills_pair``
    returns them, against oracles computed apart from it."""

    eps = np.finfo(float).eps

    def test_matches_log_difference_within_both_roundings(self):
        eta = np.linspace(-37.0, 37.0, 20001)
        lam_p, lam_m = _mills_pair(eta)
        log_pdf, log_cdf = norm.logpdf(eta), norm.logcdf(eta)
        ref = np.exp(log_pdf - log_cdf)
        # The pair's own error, (4 + eta^2/2) eps, is set by the rounding of
        # exp(-eta^2/2); the reference exponentiates a difference of two logs
        # and adds their rounding, (|log phi| + |log Phi|) eps.
        bound = (4.0 + eta**2 / 2.0 + np.abs(log_pdf) + np.abs(log_cdf)) * self.eps
        assert np.all(np.abs(lam_p / ref - 1.0) <= bound)
        np.testing.assert_array_equal(lam_m, _mills_pair(-eta)[0])

    def test_left_tail_against_continued_fraction(self):
        # Laplace: Phi(-x)/phi(x) = 1/(x + 1/(x + 2/(x + 3/(x + ...)))), so
        # lambda(-x) is that denominator; at x >= 37 thirty terms converge.
        x = np.geomspace(37.0, 1e8, 400)
        cf = x.copy()
        for k in range(30, 0, -1):
            cf = x + k / cf
        lam, lam_other = _mills_pair(-x)
        np.testing.assert_allclose(lam, cf, rtol=4 * self.eps, atol=0)
        assert np.all((lam_other >= 0) & (lam_other <= norm.pdf(x) * (1 + 4 * self.eps)))

    @pytest.mark.parametrize("eta, expected", [
        # mpmath at 50 digits; the log-difference form was off by 1.0e-11,
        # 6.1e-9 and 1.0e-4 relative at these points.
        (-1e3, 1000.000999998), (-1e4, 10000.000099999997), (-1e6, 1000000.000001)])
    def test_left_tail_pins(self, eta, expected):
        assert _mills_pair(np.array([eta]))[0][0] == pytest.approx(expected, rel=2 * self.eps)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        eta = np.concatenate([np.linspace(-4.0, 4.0, 801), np.linspace(-37.0, 37.0, 297)])
        with mp.workdps(40):
            ref = np.array([float(mp.npdf(v) / mp.ncdf(v)) for v in eta])
        err = np.abs(_mills_pair(eta)[0] / ref - 1.0)
        assert np.all(err <= (4.0 + eta**2 / 2.0) * self.eps)
        assert np.max(err[np.abs(eta) <= 4.0]) <= 4 * self.eps

    def test_limits_and_shape(self):
        lam_p, lam_m = _mills_pair(np.array([[0.0, np.inf], [-np.inf, np.nan]]))
        assert lam_p.shape == (2, 2)
        np.testing.assert_array_equal(lam_p, [[2 / np.sqrt(2 * np.pi), 0.0], [np.inf, np.nan]])
        np.testing.assert_array_equal(lam_m, [[2 / np.sqrt(2 * np.pi), np.inf], [0.0, np.nan]])


class TestFitNull:
    def test_gaussian_matches_lstsq(self, rng):
        ds = random_dataset(rng, family="gaussian")
        fit = fit_null(ds, FamilyKind("gaussian"))
        expected, *_ = np.linalg.lstsq(ds.x_base, ds.y, rcond=None)
        np.testing.assert_allclose(fit.alpha_hat, expected, atol=1e-10)
        assert fit.converged

    @pytest.mark.parametrize("family", ["binomial", "poisson", "probit"])
    def test_score_equation_solved(self, rng, family):
        ds = random_dataset(rng, n=200, family=family)
        fit = fit_null(ds, FamilyKind(family))
        assert fit.converged
        assert fit.gradient_norm <= 1e-8

    @pytest.mark.parametrize("family", ["binomial", "poisson", "probit"])
    def test_iteration_cap_returns_unconverged_fit(self, rng, family):
        ds = random_dataset(rng, n=200, family=family)
        fit = fit_null(ds, FamilyKind(family), max_iter=1)
        assert not fit.converged and fit.iterations == 1
        assert np.any(fit.alpha_hat != 0)  # one step taken from alpha = 0
        eta = ds.x_base @ fit.alpha_hat
        if family == "binomial":
            s = ds.y - expit(eta)
        elif family == "poisson":
            s = ds.y - np.exp(eta)
        else:
            s = ds.y * norm.pdf(eta) / norm.cdf(eta) - (1 - ds.y) * norm.pdf(eta) / norm.sf(eta)
        grad = np.max(np.abs(ds.x_base.T @ s)) / ds.n
        assert fit.gradient_norm == pytest.approx(grad, rel=1e-12)

    def test_binomial_intercept_only(self):
        y = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        ds = random_dataset(np.random.default_rng(0), n=8, family="binomial")
        ds = replace(ds, y=y)
        one_col = type(ds)(y=y, x_base=np.ones((8, 1)), x_diff=np.ones((8, 1)),
                           z_group=ds.z_group)
        fit = fit_null(one_col, FamilyKind("binomial"))
        # mean 5/8 -> logit(5/8)
        assert expit(fit.alpha_hat[0]) == pytest.approx(5.0 / 8.0, abs=1e-8)

    def test_quantile_subgradient_box(self, rng):
        ds = random_dataset(rng, n=150, family="quantile")
        for tau in (0.25, 0.5, 0.75):
            fit = fit_null(ds, FamilyKind("quantile", tau=tau))
            assert fit.converged
            resid = ds.y - ds.x_base @ fit.alpha_hat
            sub = ds.x_base.T @ (np.where(resid <= 0, 1.0, 0.0) - tau)
            assert np.max(np.abs(sub)) <= ds.r * np.max(np.abs(ds.x_base))

    def test_median_intercept_only(self):
        y = np.array([3.0, 1.0, 2.0, 10.0, 4.0])
        ds = random_dataset(np.random.default_rng(1), n=5)
        one_col = type(ds)(y=y, x_base=np.ones((5, 1)), x_diff=np.ones((5, 1)),
                           z_group=ds.z_group)
        fit = fit_null(one_col, FamilyKind("quantile", tau=0.5))
        assert fit.alpha_hat[0] == 3.0

    def test_semiparametric_concatenation(self, rng):
        ds = random_dataset(rng, n=120)
        a = (rng.random(120) < 0.5).astype(float)
        ds = type(ds)(y=ds.y, x_base=ds.x_base, x_diff=a[:, None],
                      z_group=ds.z_group)
        fit = fit_null(ds, FamilyKind("semiparametric"))
        assert fit.alpha_hat.shape == (ds.q + ds.r,)
        base, *_ = np.linalg.lstsq(ds.x_base, ds.y, rcond=None)
        np.testing.assert_allclose(fit.alpha_hat[ds.q:], base, atol=1e-10)

    def test_rank_deficient_design(self, rng):
        ds = random_dataset(rng, n=30)
        x = ds.x_base.copy()
        x[:, 2] = 2.0 * x[:, 1]
        bad = type(ds)(y=ds.y, x_base=x, x_diff=ds.x_diff, z_group=ds.z_group)
        with pytest.raises(SingularDesignError):
            fit_null(bad, FamilyKind("gaussian"))

    def test_rank_deficient_grouping_is_named(self, rng):
        ds = random_dataset(rng, n=60)
        a = (rng.random(60) < 0.5).astype(float)
        z = np.column_stack([ds.z_group, ds.z_group[:, 1]])  # duplicated column
        bad = type(ds)(y=ds.y, x_base=ds.x_base, x_diff=a[:, None], z_group=z)
        with pytest.raises(SingularDesignError, match="grouping design"):
            fit_null(bad, FamilyKind("semiparametric"))


class TestLockStepFit:
    """``_fit`` on a 64-column response block against one column at a time."""

    @pytest.mark.parametrize("n", [61, 300, 1001])
    @pytest.mark.parametrize("family", ["gaussian", "binomial", "poisson",
                                        "probit", "quantile"])
    def test_block_matches_one_column_at_a_time(self, rng, family, n):
        ds = random_dataset(rng, n=n, family=family)
        fam = FamilyKind(family)
        fit = fit_null(ds, fam)
        y = np.column_stack([bootstrap_sample(ds, fam, fit, child_rng(7, b))
                             for b in range(64)])
        x = ds.x_base
        alpha, converged, iterations, gnorm, *_ = _fit(fam, y, x, DEFAULT_TOL,
                                                       DEFAULT_MAX_ITER)
        ones = [_fit(fam, y[:, [b]], x, DEFAULT_TOL, DEFAULT_MAX_ITER)
                for b in range(64)]
        np.testing.assert_array_equal(iterations, [one[2][0] for one in ones])
        np.testing.assert_array_equal(converged, [one[1][0] for one in ones])
        for b, (alpha_b, *_) in enumerate(ones):
            if iterations[b] < DEFAULT_MAX_ITER:
                scale = np.max(np.abs(alpha_b))
                np.testing.assert_allclose(alpha[:, b], alpha_b[:, 0], rtol=0,
                                           atol=1e-12 * scale)

    @pytest.mark.parametrize("family", ["binomial", "poisson", "probit"])
    def test_reused_factor_is_the_factor_at_alpha(self, rng, monkeypatch, family):
        """The Newton loop hands back the score factor of a column's last
        evaluation, and evaluates a column stopped at the cap once more,
        since it stepped after that evaluation.  Either way the scores of
        refit_null's factor and _fit's gradient norm are those of _factor
        evaluated afresh at the returned alpha, over the block by one GEMM
        as the loop forms eta.  At n = 61 and 4 iterations the block holds both
        converged and capped columns."""
        ds = random_dataset(rng, n=61, family=family)
        fam = FamilyKind(family)
        fit = fit_null(ds, fam)
        y = np.column_stack([bootstrap_sample(ds, fam, fit, child_rng(3, b))
                             for b in range(64)])
        x, max_iter = ds.x_base, 4
        alpha, converged, iterations, gnorm, s, _ = _fit(fam, y, x, DEFAULT_TOL, max_iter)
        assert 0 < np.count_nonzero(~converged) < 64
        np.testing.assert_array_equal(iterations[~converged], max_iter)
        fresh = _factor(fam, y, x, alpha)[0]
        for b in range(64):
            np.testing.assert_array_equal(s[:, b], fresh[:, b])
            assert gnorm[b] == np.max(np.abs(x.T @ fresh[:, b])) / ds.n
        monkeypatch.setattr(families_module, "DEFAULT_MAX_ITER", max_iter)
        s, refit_converged, *_ = refit_null(ds, fam, fit, y)
        np.testing.assert_array_equal(refit_converged, converged)
        np.testing.assert_array_equal(s, fresh)
        np.testing.assert_array_equal(score_factor(ds, fam, fit)[1], ds.x_diff)


    def test_zero_weights_are_singular(self):
        """Newton weights that are all 0 give a zero information matrix."""
        x = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(SingularDesignError, match="singular information matrix"):
            _solve_spd(row_products(x), np.zeros((4, 3)), np.ones((2, 3)))

    def test_row_product_grams_are_the_weighted_grams(self, rng):
        """``_solve_spd`` forms every column's Gram from the n x r^2 row
        products; its solutions solve x' W_b x a_b = b_b with a residual
        within 1e-13 of |x' W_b x| |a_b|, so the Grams are x' W_b x to that."""
        n, r, m = 500, 4, 37
        x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, r - 1))])
        w, b = rng.uniform(0.01, 1.0, (n, m)), rng.standard_normal((r, m))
        a = _solve_spd(row_products(x), w, b)
        for col in range(m):
            gram = x.T @ (x * w[:, [col]])
            resid = np.max(np.abs(gram @ a[:, col] - b[:, col]))
            assert resid <= 1e-13 * np.max(np.abs(gram)) * np.max(np.abs(a[:, col]))

    @pytest.mark.parametrize("family, bound", [("binomial", 6), ("poisson", 6),
                                               ("probit", 10)])
    def test_newton_peak_memory(self, family, bound):
        """A lock-step refit of 64 columns at n = 2000, r = 3 holds at most
        ``bound`` n x 64 float arrays at once: no n x r x B weighted stack
        and no per-iteration copy of the live responses."""
        n, m = 2000, 64
        ds = random_dataset(np.random.default_rng(7), n=n, family=family)
        fam = FamilyKind(family)
        y = bootstrap_sampler(ds, fam, fit_null(ds, fam))([child_rng(11, b) for b in range(m)])
        tracemalloc.start()
        try:
            _, iterations, *_ = _newton(fam, y, ds.x_base, DEFAULT_TOL, DEFAULT_MAX_ITER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iterations.max() < DEFAULT_MAX_ITER
        assert peak <= bound * 8 * n * m


def row_products(x):
    """The n x r^2 products x_ia x_ic, written out apart from ``_newton``."""
    return np.einsum("ia,ic->iac", x, x).reshape(len(x), -1)


def quantile_design(rng, n, r, kind, cols):
    """x = [1, normals] (a binary second column for "binary"), and ``cols``
    responses y with t3 noise ("rounded": to integers, so tied)."""
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, r - 1))])
    if kind.startswith("binary") and r > 1:
        x[:, 1] = rng.random(n) < 0.5
    y = x @ rng.uniform(-1.0, 1.0, (r, 1)) + rng.standard_t(3, (n, cols))
    return (np.round(y) if kind.endswith("rounded") else y), x


class TestExactQuantileFit:
    """The lock-step simplex against scipy's HiGHS on hard inputs: every
    column certified is optimal, its check loss HiGHS's to 1e-12 relative."""

    def assert_optimal(self, y, x, tau):
        alpha, converged, iterations, _, _, degenerate = _fit(
            FamilyKind("quantile", tau=tau), y, x, DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert converged.all() and np.all(iterations < DEFAULT_MAX_ITER)
        for b in range(y.shape[1]):
            best = highs_check_loss(y[:, b], x, tau)
            assert check_loss(y[:, b], x, alpha[:, b], tau) == pytest.approx(
                best, rel=1e-12, abs=1e-300)
        return alpha, degenerate

    # 4 kinds x 3 levels x 4 ranks x 12 columns = 576 columns.
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("kind", ["continuous", "rounded", "binary", "binary_rounded"])
    def test_no_false_certificate(self, kind, tau, r):
        rng = np.random.default_rng([r, int(tau * 10), len(kind)])
        y, x = quantile_design(rng, 60, r, kind, 12)
        _, degenerate = self.assert_optimal(y, x, tau)
        if not kind.endswith("rounded"):
            assert not degenerate.any()

    @pytest.mark.parametrize("n", [2, 4, 10, 50])
    def test_intercept_only_median_at_even_n(self, rng, n):
        # Every point between the two middle order statistics is a minimiser;
        # the fit is one of the two, and its loss is the minimum.
        x = np.ones((n, 1))
        for y in (rng.standard_normal((n, 8)), np.round(2.0 * rng.standard_normal((n, 8)))):
            alpha, _ = self.assert_optimal(y, x, 0.5)
            middle = np.sort(y, axis=0)[n // 2 - 1: n // 2 + 1]
            assert np.all((alpha == middle[0]) | (alpha == middle[1]))

    def test_tied_intercept_only_meets_degenerate_vertices(self, rng):
        y = np.round(rng.standard_normal((40, 16)))
        _, degenerate = self.assert_optimal(y, np.ones((40, 1)), 0.3)
        assert degenerate.any()

    @pytest.mark.parametrize("tau", [0.1, 0.9])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_one_row_more_than_coefficients(self, rng, r, tau):
        y, x = quantile_design(rng, r + 1, r, "continuous", 16)
        self.assert_optimal(y, x, tau)

    def test_column_at_the_pivot_cap_is_not_converged(self, rng):
        y, x = quantile_design(rng, 200, 3, "continuous", 64)
        fam = FamilyKind("quantile", tau=0.1)
        _, converged, iterations, *_ = _fit(fam, y, x, DEFAULT_TOL, 1)
        needed = _fit(fam, y, x, DEFAULT_TOL, DEFAULT_MAX_ITER)[2]
        assert np.any(~converged)
        np.testing.assert_array_equal(converged, needed <= 1)
        np.testing.assert_array_equal(iterations, np.minimum(needed, 1))


class TestScorePsi0:
    def test_glm_residual_form(self, rng):
        ds = random_dataset(rng, family="binomial")
        fam = FamilyKind("binomial")
        fit = fit_null(ds, fam)
        psi0 = score_psi0(ds, fam, fit)
        mu = expit(ds.x_base @ fit.alpha_hat)
        np.testing.assert_allclose(psi0, (ds.y - mu)[:, None] * ds.x_diff)

    def test_gaussian_score_sums_to_zero_on_shared_columns(self, rng):
        # x_diff columns are a subset of x_base, so the summed score vanishes
        # at the least-squares fit.
        ds = random_dataset(rng, family="gaussian")
        fam = FamilyKind("gaussian")
        psi0 = score_psi0(ds, fam, fit_null(ds, fam))
        np.testing.assert_allclose(psi0.sum(axis=0), 0.0, atol=1e-9)

    def test_probit_score_is_loglik_gradient(self, rng):
        ds = random_dataset(rng, n=120, family="probit")
        fam = FamilyKind("probit")
        fit = fit_null(ds, fam)
        psi0 = score_psi0(ds, fam, fit)

        def loglik(alpha):
            eta = ds.x_base @ alpha
            return float(np.sum(ds.y * norm.logcdf(eta)
                                + (1 - ds.y) * norm.logcdf(-eta)))

        h = 1e-6
        for k in range(ds.p):
            # x_diff column k equals x_base column k in the fixture
            e = np.zeros(ds.r)
            e[k] = h
            fd = (loglik(fit.alpha_hat + e) - loglik(fit.alpha_hat - e)) / (2 * h)
            assert psi0[:, k].sum() == pytest.approx(fd, abs=1e-4)

    def test_quantile_sign_form(self, rng):
        ds = random_dataset(rng, n=60, family="quantile")
        fam = FamilyKind("quantile", tau=0.3)
        fit = fit_null(ds, fam)
        psi0 = score_psi0(ds, fam, fit)
        resid = ds.y - ds.x_base @ fit.alpha_hat
        s = np.where(resid <= 0, 1.0, 0.0) - 0.3
        np.testing.assert_allclose(psi0, s[:, None] * ds.x_diff)

    def test_semiparametric_scalar_column(self, rng):
        ds = random_dataset(rng, n=80)
        a = (rng.random(80) < 0.5).astype(float)
        ds = type(ds)(y=ds.y, x_base=ds.x_base, x_diff=a[:, None],
                      z_group=ds.z_group)
        fam = FamilyKind("semiparametric")
        psi0 = score_psi0(ds, fam, fit_null(ds, fam))
        assert psi0.shape == (80, 1)

    def test_semiparametric_factor_and_row(self, rng):
        # s is the baseline residual Y - gamma_hat, d the propensity
        # residual A - pi_hat(Z), and psi0 their product.
        ds = random_dataset(rng, n=80)
        ds = replace(ds, x_diff=(rng.random(80) < 0.5).astype(float)[:, None])
        fam = FamilyKind("semiparametric")
        fit = fit_null(ds, fam)
        s, d = score_factor(ds, fam, fit)
        np.testing.assert_allclose(s, ds.y - ds.x_base @ fit.alpha_hat[ds.q:], rtol=1e-12)
        np.testing.assert_allclose(d[:, 0], ds.x_diff[:, 0] - expit(ds.z_group @ fit.alpha_hat[:ds.q]),
                                   rtol=1e-12)
        np.testing.assert_array_equal(score_psi0(ds, fam, fit), s[:, None] * d)


class TestSstDerivatives:
    @pytest.mark.parametrize("family", ["gaussian", "binomial", "poisson",
                                        "probit"])
    def test_k_matches_finite_difference(self, rng, family):
        """K(theta) must equal the numerical d/d alpha of the mean
        half-space score at the fitted nuisance value."""
        ds = random_dataset(rng, n=150, family=family)
        fam = FamilyKind(family)
        fit = fit_null(ds, fam)
        derivs = sst_derivatives(ds, fam, fit)
        theta = np.array([0.2, 1.0, -0.5])
        ind = ds.z_group @ theta >= 0
        k = derivs.g[ind].T @ derivs.h[ind] / ds.n
        h = 1e-5
        for j in range(ds.r):
            e = np.zeros(ds.r)
            e[j] = h
            hi = score_psi0(ds, fam, _with_alpha(fit, fit.alpha_hat + e))
            lo = score_psi0(ds, fam, _with_alpha(fit, fit.alpha_hat - e))
            fd = ((hi - lo) * ind[:, None]).sum(axis=0) / (2 * h * ds.n)
            np.testing.assert_allclose(k[:, j], fd, rtol=1e-3, atol=1e-6)

    def test_j_inverse_gaussian(self, rng):
        ds = random_dataset(rng, n=100, family="gaussian")
        fam = FamilyKind("gaussian")
        derivs = sst_derivatives(ds, fam, fit_null(ds, fam))
        expected = np.linalg.inv(-(ds.x_base.T @ ds.x_base) / ds.n)
        np.testing.assert_allclose(derivs.j_inv, expected, atol=1e-10)

    def test_quantile_density_at_zero(self):
        # Residuals exactly standard normal: density at zero ~ 0.3989.
        rng = np.random.default_rng(77)
        n = 4000
        x = np.ones((n, 1))
        y = rng.standard_normal(n)
        from changeplane import Dataset
        ds = Dataset(y=y, x_base=x, x_diff=x, z_group=np.hstack(
            [x, rng.standard_normal((n, 1))]))
        fam = FamilyKind("quantile", tau=0.5)
        fit = fit_null(ds, fam)
        derivs = sst_derivatives(ds, fam, fit)
        ind = ds.z_group @ np.array([1.0, 0.0]) >= 0
        f0 = -(derivs.g[ind].T @ derivs.h[ind] / ds.n)[0, 0] * ds.n / np.sum(ind)
        assert f0 == pytest.approx(norm.pdf(0.0), abs=0.03)


    def test_singular_j_raises(self, rng):
        """At eta = -1000 every logistic weight mu (1 - mu) is 0, and so is J."""
        ds = random_dataset(rng, n=50, r=2, family="binomial")
        fit = NullFit(np.array([-1000.0, 0.0]), True, 1, 0.0)
        with pytest.raises(SingularDesignError, match="singular J matrix"):
            sst_derivatives(ds, FamilyKind("binomial"), fit)


def _with_alpha(fit, alpha):
    from changeplane import NullFit
    return NullFit(alpha_hat=np.asarray(alpha, float), converged=fit.converged,
                   iterations=fit.iterations, gradient_norm=fit.gradient_norm)


def per_replicate_draw(ds, family, fit, rng):
    """One redrawn response, written out per replicate: the reference for
    the block draws."""
    eta = ds.x_base @ fit.alpha_hat[-ds.r:]
    name, tau = family.name, family.tau
    if name == "gaussian":
        return eta + rng.standard_normal(ds.n) * np.sqrt(np.mean((ds.y - eta) ** 2))
    if name == "binomial":
        return (rng.random(ds.n) < expit(eta)).astype(float)
    if name == "poisson":
        return rng.poisson(np.exp(eta)).astype(float)
    if name == "probit":
        return (rng.standard_normal(ds.n) <= eta).astype(float)
    if name == "quantile":
        # a residual at rounding level, as at an exact fit's basis rows, has
        # no spread
        spread = np.abs(ds.y - eta)
        scale = np.abs(ds.y) + np.abs(ds.x_base) @ np.abs(fit.alpha_hat)
        spread[spread <= _ZERO_ULPS * np.finfo(float).eps * scale] = 0.0
        nu = np.where(rng.random(ds.n) < 1.0 - tau, 2.0 * (1.0 - tau), -2.0 * tau)
        return eta + nu * spread
    return eta + rng.standard_normal(ds.n) * (ds.y - eta)


class TestBootstrapSample:
    @pytest.mark.parametrize("family", ["gaussian", "binomial", "poisson",
                                        "probit", "quantile", "semiparametric"])
    def test_block_draws_equal_per_replicate_draws(self, rng, family):
        """B = 70 is two blocks, 64 + 6, from one sampler: column b is
        drawn from child_rng(seed, b) alone, bit for bit as one
        bootstrap_sample call and as the per-replicate scheme."""
        if family == "semiparametric":
            ds = random_dataset(rng, n=90)
            ds = replace(ds, x_diff=(rng.random(90) < 0.5).astype(float)[:, None])
        else:
            ds = random_dataset(rng, n=90, family=family)
        fam = FamilyKind(family, tau=0.3)
        fit = fit_null(ds, fam)
        draw = bootstrap_sampler(ds, fam, fit)
        for start, stop in ((0, 64), (64, 70)):
            block = draw([child_rng(8, b) for b in range(start, stop)])
            assert block.shape == (ds.n, stop - start)
            for j, b in enumerate(range(start, stop)):
                one = bootstrap_sample(ds, fam, fit, child_rng(8, b))
                np.testing.assert_array_equal(block[:, j], one)
                np.testing.assert_array_equal(
                    one, per_replicate_draw(ds, fam, fit, child_rng(8, b)))

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "poisson",
                                        "probit", "quantile"])
    def test_covariates_fixed_response_redrawn(self, rng, family):
        ds = random_dataset(rng, n=60, family=family)
        fam = FamilyKind(family, tau=0.5)
        fit = fit_null(ds, fam)
        before = [ds.x_base.copy(), ds.x_diff.copy(), ds.z_group.copy()]
        y_b = bootstrap_sample(ds, fam, fit, np.random.default_rng(3))
        for block, kept in zip((ds.x_base, ds.x_diff, ds.z_group), before):
            np.testing.assert_array_equal(block, kept)
        assert y_b.shape == ds.y.shape and np.all(np.isfinite(y_b))
        assert not np.array_equal(y_b, ds.y)

    def test_deterministic_given_rng_seed(self, rng):
        ds = random_dataset(rng, n=40, family="binomial")
        fam = FamilyKind("binomial")
        fit = fit_null(ds, fam)
        y1 = bootstrap_sample(ds, fam, fit, 11)
        y2 = bootstrap_sample(ds, fam, fit, 11)
        np.testing.assert_array_equal(y1, y2)

    def test_binomial_draws_binary(self, rng):
        ds = random_dataset(rng, n=50, family="binomial")
        fam = FamilyKind("binomial")
        y_b = bootstrap_sample(ds, fam, fit_null(ds, fam), np.random.default_rng(5))
        assert set(np.unique(y_b)) <= {0.0, 1.0}

    def test_quantile_two_point_multipliers(self, rng):
        ds = random_dataset(rng, n=500, family="quantile")
        fam = FamilyKind("quantile", tau=0.3)
        fit = fit_null(ds, fam)
        y_b = bootstrap_sample(ds, fam, fit, np.random.default_rng(9))
        eta = ds.x_base @ fit.alpha_hat
        spread = np.abs(ds.y - eta)
        # The exact fit interpolates r rows: zero spread, redrawn at eta.
        basis = np.argsort(spread)[:ds.r]
        assert np.all(spread[basis] <= 1e-14 * np.max(np.abs(ds.y)))
        np.testing.assert_array_equal(y_b[basis], eta[basis])
        rest = np.setdiff1d(np.arange(ds.n), basis)
        nu = (y_b[rest] - eta[rest]) / spread[rest]
        assert np.all((np.abs(nu - 1.4) < 1e-6) | (np.abs(nu + 0.6) < 1e-6))

    def test_gaussian_dispersion_is_mle(self, rng):
        ds = random_dataset(rng, n=5000, family="gaussian")
        fam = FamilyKind("gaussian")
        fit = fit_null(ds, fam)
        eta = ds.x_base @ fit.alpha_hat
        sigma2 = np.mean((ds.y - eta) ** 2)
        y_b = bootstrap_sample(ds, fam, fit, np.random.default_rng(2))
        boot_var = np.var(y_b - eta)
        assert boot_var == pytest.approx(sigma2, rel=0.1)
