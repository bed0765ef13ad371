import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, ndtr
from scipy.stats import multivariate_normal, norm

from changeplane import (Dataset, WeightSpec, beta_prior, gaussian, standard_gaussian,
                         univariate_gaussian, weight_matrix)
from changeplane import weights as weights_module
from changeplane.errors import DegenerateVectorError, ParameterError

from conftest import omega_gaussian_mc, varrho

SIGMA = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, -0.3], [0.1, -0.3, 1.5]])
MU = np.array([0.0, 0.5, -0.75])
# Specs whose omega comes from the Gaussian kernel, with mu = 0 and mu != 0.
GAUSSIAN_SPECS = [standard_gaussian(), gaussian(np.zeros(3), SIGMA), gaussian(MU, SIGMA)]


def closed_form(rho):
    """The mu = 0 map ``_arcsin_map`` on cosines clipped to [-1, 1], as the
    Gaussian kernel clips and maps a tile's Gram."""
    return weights_module._arcsin_map(np.clip(np.array(rho, float, ndmin=1), -1.0, 1.0))


class TestVarrho:
    def test_orthogonal(self):
        assert varrho([1, 0], [0, 1], np.eye(2)) == pytest.approx(0.0)

    def test_identical(self):
        assert varrho([1, 2], [1, 2], np.eye(2)) == pytest.approx(1.0)

    def test_opposed_components(self):
        assert varrho([1, 1], [1, -1], np.eye(2)) == pytest.approx(0.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateVectorError):
            varrho([0, 0], [1, 0], np.eye(2))

    def test_nontrivial_sigma(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        z_i, z_j = np.array([1.0, 3.0]), np.array([-2.0, 1.0])
        num = z_i @ sigma @ z_j
        den = np.sqrt((z_i @ sigma @ z_i) * (z_j @ sigma @ z_j))
        assert varrho(z_i, z_j, sigma) == pytest.approx(num / den)


class TestClosedForm:
    def test_zero(self):
        assert closed_form(0.0) == pytest.approx(0.25)

    def test_plus_one(self):
        assert closed_form(1.0) == pytest.approx(0.5)

    def test_minus_one(self):
        assert closed_form(-1.0) == pytest.approx(0.0)

    def test_half(self):
        # 0.25 + arcsin(0.5)/(2 pi) = 0.25 + (pi/6)/(2 pi) = 1/3
        assert closed_form(0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_dense_grid_against_arctan_form(self):
        # The arcsin form against the arctan form it replaced,
        # 1/4 + arctan(rho / sqrt(1 - rho^2)) / (2 pi), wherever that form
        # was evaluated rather than snapped to its limits (1 - rho^2 > 1e-12).
        # Near +-1 the arctan form carries the rounding of 1 - rho^2, which
        # moves it by up to eps / (4 pi sqrt(1 - rho^2)).
        uniform = np.linspace(-1.0, 1.0, 200_001)
        rho = np.concatenate([uniform, 1.0 - np.geomspace(1e-16, 1e-3, 2001),
                              -1.0 + np.geomspace(1e-16, 1e-3, 2001)])
        rho.sort()
        got = closed_form(rho)
        one_minus = 1.0 - rho * rho
        inner = one_minus > 1e-12
        old = 0.25 + np.arctan(rho[inner] / np.sqrt(one_minus[inner])) / (2.0 * np.pi)
        gap = np.abs(got[inner] - old)
        assert np.all(gap <= 1e-15 + np.finfo(float).eps
                      / (4.0 * np.pi * np.sqrt(one_minus[inner])))
        on_uniform = np.isin(rho[inner], uniform)
        assert np.max(gap[on_uniform]) <= 1e-15
        assert np.all(np.diff(got) >= 0.0)
        assert closed_form([-1.0, 0.0, 1.0]).tolist() == [0.0, 0.25, 0.5]
        # Cosines a rounding outside [-1, 1] are clipped to the limits.
        edges = closed_form([-1.0 - 1e-15, -np.nextafter(1.0, 2.0),
                             np.nextafter(1.0, 2.0), 1.0 + 1e-15])
        assert edges.tolist() == [0.0, 0.0, 0.5, 0.5]

    def test_near_endpoint_continuity(self):
        assert closed_form(1.0 - 1e-14) == pytest.approx(0.5, abs=1e-6)

    @given(st.floats(-1.0, 1.0))
    def test_range_and_monotone(self, rho):
        v = closed_form(rho)
        assert 0.0 <= v <= 0.5
        assert closed_form(min(rho + 0.01, 1.0)) >= v - 1e-12


class TestGaussianMC:
    def test_matches_closed_form_at_rho_zero(self):
        rng = np.random.default_rng(7)
        v = omega_gaussian_mc([1, 0], [0, 1], np.zeros(2), np.eye(2),
                              n_draws=10**6, rng=rng)
        assert v == pytest.approx(0.25, abs=3 * 5e-4)

    def test_identical_rows(self):
        rng = np.random.default_rng(8)
        v = omega_gaussian_mc([1, 2], [1, 2], np.zeros(2), np.eye(2),
                              n_draws=10**6, rng=rng)
        assert v == pytest.approx(0.5, abs=2e-3)

    def test_single_draw_deterministic(self):
        a = omega_gaussian_mc([1, 0.3], [0.2, 1], np.zeros(2), np.eye(2),
                              n_draws=1, rng=42)
        b = omega_gaussian_mc([1, 0.3], [0.2, 1], np.zeros(2), np.eye(2),
                              n_draws=1, rng=42)
        assert a == b

    def test_antipodal_rows_take_the_step(self):
        """z_j = -z_i: rho = -1, the conditional CDF is a step and the two
        half-spaces meet only at 0, so omega is the kernel's at -1."""
        v = omega_gaussian_mc([1, 0], [-1, 0], np.zeros(2), np.eye(2), n_draws=1000, rng=9)
        assert v == weight_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))[0, 1] == 0.0

    def test_invalid_draws(self):
        with pytest.raises(ParameterError):
            omega_gaussian_mc([1, 0], [0, 1], np.zeros(2), np.eye(2), n_draws=0)


def pair_omega(z_i, z_j, spec):
    """omega of one pair of scalar grouping values: the off-diagonal entry of
    ``weight_matrix`` on the two-row Z."""
    return weight_matrix(np.array([[z_i], [z_j]], float), spec)[0, 1]


class TestScalarPriors:
    def test_beta_uniform(self):
        assert pair_omega(0.5, 0.9, beta_prior(1.0, 1.0)) == pytest.approx(0.5)

    def test_beta_upper_support(self):
        assert pair_omega(1.0, 2.0, beta_prior(3.0, 0.5)) == 1.0
        assert pair_omega(-0.5, 0.4, beta_prior(3.0, 0.5)) == 0.0

    def test_beta_22(self):
        # Beta(2,2) CDF is 3x^2 - 2x^3; at 0.3: 0.27 - 0.054 = 0.216
        assert pair_omega(0.3, 0.8, beta_prior(2.0, 2.0)) == pytest.approx(0.216, abs=1e-12)

    def test_beta_bad_params(self):
        with pytest.raises(ParameterError):
            beta_prior(-1.0, 2.0)

    def test_uni_gaussian_at_mean(self):
        assert pair_omega(0.7, 2.0, univariate_gaussian(0.7, 1.5)) == pytest.approx(0.5)

    def test_uni_gaussian_far_right(self):
        assert pair_omega(100.0, 200.0, univariate_gaussian(0.0, 1.0)) == pytest.approx(1.0)

    def test_uni_gaussian_one_sd(self):
        assert pair_omega(1.0, 5.0, univariate_gaussian(0.0, 1.0)) == pytest.approx(
            0.8413447460685429, abs=1e-12)

    def test_uni_gaussian_bad_variance(self):
        with pytest.raises(ParameterError):
            univariate_gaussian(0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda v: beta_prior(v, 1.0),
        lambda v: beta_prior(1.0, v),
        lambda v: univariate_gaussian(v, 1.0),
        lambda v: univariate_gaussian(0.0, v),
        lambda v: pair_omega(0.3, 0.8, WeightSpec("beta", (v, 1.0))),
        lambda v: pair_omega(0.3, 0.8, WeightSpec("beta", (1.0, v))),
        lambda v: pair_omega(0.3, 0.8, WeightSpec("uni_gaussian", (v, 1.0))),
        lambda v: pair_omega(0.3, 0.8, WeightSpec("uni_gaussian", (0.0, v))),
    ], ids=["lambda1", "lambda2", "scalar_mu", "sigma2", "omega_beta_lambda1",
            "omega_beta_lambda2", "omega_uni_mu", "omega_uni_sigma2"])
    def test_non_finite_parameters_rejected(self, make, bad):
        with pytest.raises(ParameterError):
            make(bad)


class TestWeightMatrix:
    def test_orthogonal_pair(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = weight_matrix(z, standard_gaussian())
        assert w[0, 1] == pytest.approx(0.25)

    def test_identical_rows(self):
        z = np.tile([1.0, 2.0], (3, 1))
        w = weight_matrix(z, standard_gaussian())
        off = w[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.5)

    @pytest.mark.parametrize("spec", GAUSSIAN_SPECS[:2])
    def test_tied_rows_are_exactly_one_half(self, spec):
        """At mu = 0 a Gram of two equal unit rows is 1 - O(eps), which
        arcsin would turn into an error of O(sqrt(eps)); every tied pair,
        -0.0 and 0.0 alike, must come out exactly 1/2, in both triangles."""
        rng = np.random.default_rng(3)
        n = 2 * weights_module._TILE + 30
        z = np.column_stack([np.ones(n), np.round(rng.standard_normal((n, 2)), 1)])
        z[0, 1:], z[1, 1:] = 0.0, -0.0
        w = weight_matrix(z, spec)
        tied = (z[:, None, :] == z[None, :, :]).all(axis=2)
        assert np.count_nonzero(np.triu(tied, 1)) > 100
        assert tied[0, 1] and np.signbit(z[1, 1])
        np.testing.assert_array_equal(w[tied], 0.5)

    def test_mc_matches_closed_form(self):
        # mu != 0: the exact omega against the Monte-Carlo oracle, 1e6 draws.
        rng = np.random.default_rng(5)
        z = np.hstack([np.ones((10, 1)), rng.standard_normal((10, 2))])
        w = weight_matrix(z, gaussian(MU, SIGMA))
        draws = rng.standard_normal(10**6)
        for i in range(10):
            for j in range(i + 1, 10):
                mc = omega_gaussian_mc(z[i], z[j], MU, SIGMA, draws=draws)
                assert w[i, j] == pytest.approx(mc, abs=5e-3)

    def test_standard_gaussian_is_closed_form_of_cosines(self, rng, monkeypatch):
        # Rows 3 and 4 are parallel and opposed to row 1: the rho = +-1 limits.
        # 7-row tiles leave a short last tile at n = 31.
        monkeypatch.setattr(weights_module, "_TILE", 7)
        z = np.hstack([np.ones((31, 1)), rng.standard_normal((31, 2))])
        z[3], z[4] = 2.5 * z[1], -z[1]
        for spec, sigma in ((standard_gaussian(), np.eye(3)),
                            (gaussian(np.zeros(3), np.eye(3)), np.eye(3)),
                            (gaussian(np.zeros(3), SIGMA), SIGMA)):
            w = z @ np.linalg.cholesky(sigma)
            unit = w / np.sqrt(np.einsum("ij,ij->i", w, w))[:, None]
            want = np.empty((31, 31))
            for rows, cols in weights_module.upper_tiles(31):
                # The tile's cosines, the Gram of the unit rows, formed as
                # the kernel forms them.
                want[rows, cols] = closed_form(unit[rows] @ unit[cols].T)
                want[cols, rows] = want[rows, cols].T
            got = weight_matrix(z, spec)
            np.testing.assert_array_equal(got, want)
            # A cosine an ulp inside +-1 moves arcsin by ~1.5e-8.
            assert abs(got[1, 3] - 0.5) <= 1e-8 and abs(got[1, 4]) <= 1e-8

    @pytest.mark.parametrize("spec", GAUSSIAN_SPECS)
    def test_gaussian_priors_keep_their_formula_bits(self, rng, monkeypatch, spec):
        """``weight_matrix`` gives, bit for bit, omega as written out per
        tile: at mu = 0 arcsin of the clipped cosines, times 1/(2 pi), then
        plus 1/4, in place, with tied rows' cosines set to 1; Owen's T form
        at mu != 0.  (The scalar priors' bits are
        ``test_scalar_prior_is_cdf_at_pairwise_min``'s.)  7-row tiles leave
        a short last tile at n = 31."""
        monkeypatch.setattr(weights_module, "_TILE", 7)
        n = 31
        z = np.hstack([np.ones((n, 1)), np.round(rng.standard_normal((n, 2)), 1)])
        z[3], z[9] = z[1], 2.0 * z[1]
        w = z @ np.linalg.cholesky(SIGMA if spec.variant == "gaussian" else np.eye(3))
        norms = np.sqrt(np.einsum("ij,ij->i", w, w))
        unit = w / norms[:, None]
        a = (z @ spec.params[0]) / norms if spec.variant == "gaussian" else np.zeros(n)
        want = np.empty((n, n))
        for rows, cols in weights_module.upper_tiles(n):
            tile = np.clip(unit[rows] @ unit[cols].T, -1.0, 1.0)
            if np.any(a):
                tile = weights_module._orthant(
                    *np.broadcast_arrays(a[rows, None], a[None, cols]), tile)
            else:
                tile[(z[rows, None] == z[None, cols]).all(axis=2)] = 1.0
                np.arcsin(tile, out=tile)
                tile *= 1.0 / (2.0 * np.pi)
                tile += 0.25
            want[rows, cols] = tile
            want[cols, rows] = tile.T
        np.testing.assert_array_equal(weight_matrix(z, spec), want)

    def test_nonzero_mean_is_bivariate_normal_cdf(self, rng):
        # Rows 0 and 1 have Z'mu = 0 (a_k = 0); row 2 is parallel and row 3
        # opposed to row 4 (rho = +-1).
        z = np.hstack([np.ones((12, 1)), rng.standard_normal((12, 2))])
        z[0], z[1] = [1.0, 0.0, 0.0], [-2.0, 1.5, 1.0]
        z[2], z[3] = 3.0 * z[4], -0.5 * z[4]
        w = weight_matrix(z, gaussian(MU, SIGMA))
        a = (z @ MU) / np.sqrt(np.einsum("ij,jk,ik->i", z, SIGMA, z))
        assert a[0] == 0.0 and a[1] == 0.0
        assert not np.any(np.isnan(w))
        for i in range(12):
            for j in range(i + 1, 12):
                rho = varrho(z[i], z[j], SIGMA)
                if abs(rho) > 1.0 - 1e-9:
                    # P(X <= h, X <= k), or P(-k <= X <= h) when rho = -1.
                    want = (norm.cdf(min(a[i], a[j])) if rho > 0
                            else max(0.0, norm.cdf(a[i]) - norm.cdf(-a[j])))
                else:
                    want = multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]]).cdf(
                        [a[i], a[j]])
                assert abs(w[i, j] - want) <= 1e-12, (i, j, rho)

    def test_row_blocks_match_one_block(self, rng, monkeypatch):
        # omega is built a tile at a time, each tile over its own Gram; 7-row
        # tiles leave a short last tile at n = 50, and 50 rows is the whole
        # matrix in one tile.  Each tile side gives an exactly symmetric
        # omega; a tile's GEMM rounds with its shape, so across sides omega
        # agrees to rounding.
        z = np.hstack([np.ones((50, 1)), rng.standard_normal((50, 2))])
        z[0], z[2] = [-2.0, 1.5, 1.0], 3.0 * z[4]
        for spec in GAUSSIAN_SPECS:
            default = weight_matrix(z, spec)
            for side in (1, 7, 50):
                monkeypatch.setattr(weights_module, "_TILE", side)
                w = weight_matrix(z, spec)
                np.testing.assert_array_equal(w, w.T)
                np.testing.assert_allclose(w, default, rtol=0, atol=1e-14)
            monkeypatch.undo()

    @pytest.mark.parametrize("spec", GAUSSIAN_SPECS)
    def test_peak_memory_is_one_n_by_n_array(self, rng, spec):
        # The Gram turns into omega in place: past that one n x n array only
        # the per-tile temporaries are allocated.
        n = 1500
        z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
        tracemalloc.start()
        try:
            weight_matrix(z, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * 8 * n * n

    def test_symmetry_exact(self, rng):
        # A GEMM-formed Gram z Sigma z' is off symmetric by an ulp at (500, 5)
        # and (300, 4) with Sigma = I, and at n = 20 with Sigma != I.
        for n, q in ((20, 3), (500, 5), (300, 4)):
            z = np.hstack([np.ones((n, 1)), rng.standard_normal((n, q - 1))])
            a = rng.standard_normal((q, q))
            sigma = a @ a.T + np.eye(q)
            for spec in (standard_gaussian(), gaussian(np.zeros(q), sigma),
                         gaussian(np.full(q, 0.3), sigma)):
                w = weight_matrix(z, spec)
                np.testing.assert_array_equal(w, w.T)

    def test_scale_invariance(self, rng):
        z = np.hstack([np.ones((15, 1)), rng.standard_normal((15, 2))])
        scales = rng.uniform(0.5, 5.0, 15)
        for spec in GAUSSIAN_SPECS:
            w1 = weight_matrix(z, spec)
            w2 = weight_matrix(z * scales[:, None], spec)
            np.testing.assert_allclose(w1, w2, atol=1e-12)

    @pytest.mark.parametrize("spec", GAUSSIAN_SPECS)
    def test_zero_norm_row_is_degenerate(self, rng, spec):
        z = np.hstack([np.ones((6, 1)), rng.standard_normal((6, 2))])
        z[2] = 0.0
        with pytest.raises(DegenerateVectorError):
            weight_matrix(z, spec)

    @pytest.mark.parametrize("mu, sigma", [
        (np.zeros(2), [[1.0, 5.0], [0.2, 1.0]]),        # not symmetric
        (np.zeros(2), [[1.0, np.nan], [np.nan, 1.0]]),  # NaN in sigma
        (np.zeros(2), [[np.inf, 0.0], [0.0, 1.0]]),     # infinite sigma
        ([0.0, np.nan], np.eye(2)),                     # NaN in mu
        (np.zeros(3), np.eye(2)),                       # shapes disagree
        (np.zeros(2), [[1.0, 2.0], [2.0, 1.0]]),        # not positive definite
    ])
    def test_gaussian_rejects_invalid_prior(self, mu, sigma):
        with pytest.raises(ParameterError):
            gaussian(mu, sigma)
        with pytest.raises(ParameterError):
            WeightSpec("gaussian", (mu, sigma))

    def test_unknown_variant(self):
        with pytest.raises(ParameterError, match="unknown weight variant"):
            WeightSpec("laplace")

    @pytest.mark.parametrize("variant, params", [
        ("beta", ()), ("std_gaussian", (0.0,)), ("gaussian", (np.zeros(2),)),
        ("uni_gaussian", (0.0, 1.0, 2.0))])
    def test_params_of_wrong_length_rejected(self, variant, params):
        # No variant fills in a missing parameter: WeightSpec("beta") is not Beta(1, 1).
        with pytest.raises(ParameterError, match=f"{variant} prior takes params"):
            WeightSpec(variant, params)

    def test_mu_length_must_match_grouping(self, rng):
        z = np.hstack([np.ones((5, 1)), rng.standard_normal((5, 2))])
        with pytest.raises(ParameterError, match="q=3"):
            weight_matrix(z, gaussian(np.zeros(2), np.eye(2)))

    @pytest.mark.parametrize("spec, text", [
        (standard_gaussian(), "std_gaussian"),
        (gaussian([0.0, 1.0], np.eye(2)), "gaussian([0.0, 1.0],[[1.0, 0.0], [0.0, 1.0]])"),
        (beta_prior(2.0, 3.0), "beta(2.0,3.0)"),
        (univariate_gaussian(0.5, 2.0), "uni_gaussian(0.5,2.0)")])
    def test_describe(self, spec, text):
        assert spec.describe() == text

    @pytest.mark.parametrize("make, args, other", [
        (standard_gaussian, (), None),
        (gaussian, ([0, 1], np.eye(2)), ([0.0, 1.5], np.eye(2))),
        (gaussian, ([0, 1], np.eye(2)), ([0.0, 1.0], [[2.0, 0.0], [0.0, 1.0]])),
        (gaussian, ([0], np.eye(1)), ([0.0, 0.0], np.eye(2))),
        (beta_prior, (2, 3), (3.0, 2.0)),
        (univariate_gaussian, (0.5, 2), (0.5, 1.0))])
    def test_specs_are_values(self, make, args, other):
        """Two specs of the same variant and params compare equal and hash
        alike, whatever form the numbers came in; any other spec compares
        unequal.  Neither comparison nor hash raises, so a spec can key a
        dict."""
        a, b = make(*args), make(*(np.asarray(v, float).tolist() for v in args))
        assert a == b and not a != b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != a.variant
        if other is not None:
            c = make(*other)
            assert a != c and not a == c
            assert len({a, b, c}) == 2
        # The same numbers under another variant are another prior.
        assert beta_prior(1.0, 1.0) != univariate_gaussian(1.0, 1.0)

    def test_range_standard_gaussian(self, rng):
        z = np.hstack([np.ones((25, 1)), rng.standard_normal((25, 3))])
        w = weight_matrix(z, standard_gaussian())
        assert np.all(w >= 0.0) and np.all(w <= 0.5)

    def test_scalar_prior_requires_q1(self, rng):
        z = rng.standard_normal((5, 2))
        with pytest.raises(ParameterError):
            weight_matrix(z, beta_prior(2.0, 2.0))

    def test_univariate_matrix(self):
        z = np.array([[0.0], [1.0], [-1.0]])
        w = weight_matrix(z, univariate_gaussian(0.0, 1.0))
        assert w[0, 1] == pytest.approx(0.5)          # min(0,1)=0 -> Phi(0)
        assert w[1, 2] == pytest.approx(0.15865525393145707)  # Phi(-1)

    @pytest.mark.parametrize("spec", [beta_prior(0.5, 0.7), beta_prior(2.0, 3.0),
                                      univariate_gaussian(0.3, 2.0)])
    def test_scalar_prior_is_cdf_at_pairwise_min(self, rng, spec):
        # Ties, values at and beyond the beta support, and random values.
        z = np.concatenate([[0.4, 0.4, 0.0, -0.3, 1.0, 1.7, 0.4],
                            rng.uniform(-0.5, 1.5, 200)])
        m = np.minimum.outer(z, z)
        if spec.variant == "beta":
            want = np.clip(betainc(*spec.params, np.clip(m, 0.0, 1.0)),
                           0.0, 1.0)
        else:
            mu, sigma2 = spec.params
            want = ndtr((m - mu) / np.sqrt(sigma2))
        np.testing.assert_array_equal(weight_matrix(z[:, None], spec), want)

    def test_dataset_argument(self, rng):
        ds = Dataset(y=np.arange(4.0), x_base=np.ones((4, 1)),
                     x_diff=np.ones((4, 1)),
                     z_group=np.hstack([np.ones((4, 1)),
                                        rng.standard_normal((4, 1))]))
        w = weight_matrix(ds)
        assert w.shape == (4, 4)


@pytest.mark.parametrize("side", [1, 2, 5, 7, 256])
def test_upper_tiles_cover_the_upper_triangle_once(monkeypatch, side):
    """Every pair i <= j lies in exactly one tile, no tile starts below the
    diagonal, and each diagonal tile has side at most h = max(1, side // 2),
    so whole diagonal tiles evaluate at most n h / 2 entries below it."""
    monkeypatch.setattr(weights_module, "_TILE", side)
    h = max(1, side // 2)
    for n in [*range(1, 3 * side + 3), 2000]:
        r0, r1, c0, c1 = np.array([(rows.start, rows.stop, cols.start, cols.stop)
                                   for rows, cols in weights_module.upper_tiles(n)]).T
        assert np.all(r0 <= c0)
        diagonal = (r0 == c0) & (r1 == c1)
        assert np.all(r1[diagonal] - r0[diagonal] <= h)
        # Each tile's count, added at its corners and summed along both axes.
        count = np.zeros((n + 1, n + 1), int)
        for rows, cols, sign in ((r0, c0, 1), (r0, c1, -1), (r1, c0, -1), (r1, c1, 1)):
            np.add.at(count, (rows, cols), sign)
        np.cumsum(count, axis=0, out=count)
        np.cumsum(count, axis=1, out=count)
        np.testing.assert_array_equal(count[:n, :n][~np.tri(n, k=-1, dtype=bool)], 1)
        assert np.sum((r1 - r0) * (c1 - c0)) <= n * (n + 1) / 2 + n * h / 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_closed_form_is_orthant_probability(seed):
    # For random pairs, the kernel's omega depends only on the cosine; check
    # the trigonometric identity P = 1/4 + arcsin(rho)/(2 pi).
    rng = np.random.default_rng(seed)
    z_i, z_j = rng.standard_normal(3), rng.standard_normal(3)
    rho = varrho(z_i, z_j, np.eye(3))
    assert weight_matrix(np.stack([z_i, z_j]))[0, 1] == pytest.approx(
        0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-12)
