import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from changeplane import (Dataset, beta_prior, gaussian, omega_beta,
                         omega_closed_form, omega_gaussian_mc,
                         omega_univariate_gaussian, standard_gaussian,
                         univariate_gaussian, varrho, weight_matrix)
from changeplane.errors import DegenerateVectorError, ParameterError


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
        assert omega_closed_form(0.0) == pytest.approx(0.25)

    def test_plus_one(self):
        assert omega_closed_form(1.0) == pytest.approx(0.5)

    def test_minus_one(self):
        assert omega_closed_form(-1.0) == pytest.approx(0.0)

    def test_half(self):
        # 0.25 + arctan(0.5/sqrt(0.75))/(2 pi) = 0.25 + (pi/6)/(2 pi) = 1/3
        assert omega_closed_form(0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_near_endpoint_continuity(self):
        assert omega_closed_form(1.0 - 1e-14) == pytest.approx(0.5, abs=1e-6)

    @given(st.floats(-1.0, 1.0))
    def test_range_and_monotone(self, rho):
        v = omega_closed_form(rho)
        assert 0.0 <= v <= 0.5
        assert omega_closed_form(min(rho + 0.01, 1.0)) >= v - 1e-12


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

    def test_invalid_draws(self):
        with pytest.raises(ParameterError):
            omega_gaussian_mc([1, 0], [0, 1], np.zeros(2), np.eye(2), n_draws=0)


class TestScalarPriors:
    def test_beta_uniform(self):
        assert omega_beta(0.5, 0.9, 1.0, 1.0) == pytest.approx(0.5)

    def test_beta_upper_support(self):
        assert omega_beta(1.0, 2.0, 3.0, 0.5) == pytest.approx(1.0)

    def test_beta_22(self):
        # Beta(2,2) CDF is 3x^2 - 2x^3; at 0.3: 0.27 - 0.054 = 0.216
        assert omega_beta(0.3, 0.8, 2.0, 2.0) == pytest.approx(0.216, abs=1e-12)

    def test_beta_bad_params(self):
        with pytest.raises(ParameterError):
            omega_beta(0.3, 0.8, -1.0, 2.0)

    def test_uni_gaussian_at_mean(self):
        assert omega_univariate_gaussian(0.7, 2.0, 0.7, 1.5) == pytest.approx(0.5)

    def test_uni_gaussian_far_right(self):
        assert omega_univariate_gaussian(100.0, 200.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_uni_gaussian_one_sd(self):
        assert omega_univariate_gaussian(1.0, 5.0, 0.0, 1.0) == pytest.approx(
            0.8413447460685429, abs=1e-12)

    def test_uni_gaussian_bad_variance(self):
        with pytest.raises(ParameterError):
            omega_univariate_gaussian(0.0, 1.0, 0.0, 0.0)


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

    def test_mc_matches_closed_form(self):
        rng = np.random.default_rng(5)
        z = np.hstack([np.ones((50, 1)), rng.standard_normal((50, 2))])
        w_cf = weight_matrix(z, standard_gaussian())
        w_mc = weight_matrix(z, gaussian(np.zeros(3), np.eye(3),
                                         mc_draws=10**5, seed=3))
        assert np.max(np.abs(w_cf - w_mc)) < 0.01

    def test_standard_gaussian_is_closed_form_of_cosines(self, rng):
        # Rows 3 and 4 are parallel and opposed to row 1: the rho = +-1 limits.
        z = np.hstack([np.ones((31, 1)), rng.standard_normal((31, 2))])
        z[3], z[4] = 2.5 * z[1], -z[1]
        gram = z @ np.eye(3) @ z.T  # the Sigma-weighted Gram with Sigma = I
        norms = np.sqrt(np.diag(gram))
        rho = np.clip(gram / np.outer(norms, norms), -1.0, 1.0)
        np.testing.assert_array_equal(weight_matrix(z, standard_gaussian()),
                                      omega_closed_form(rho))

    def test_symmetry_exact(self, rng):
        z = np.hstack([np.ones((20, 1)), rng.standard_normal((20, 2))])
        for spec in (standard_gaussian(),
                     gaussian(np.zeros(3), np.eye(3), mc_draws=500, seed=1)):
            w = weight_matrix(z, spec)
            np.testing.assert_array_equal(w, w.T)

    def test_scale_invariance(self, rng):
        z = np.hstack([np.ones((15, 1)), rng.standard_normal((15, 2))])
        scales = rng.uniform(0.5, 5.0, 15)
        w1 = weight_matrix(z, standard_gaussian())
        w2 = weight_matrix(z * scales[:, None], standard_gaussian())
        np.testing.assert_allclose(w1, w2, atol=1e-12)

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

    def test_dataset_argument(self, rng):
        ds = Dataset(y=np.arange(4.0), x_base=np.ones((4, 1)),
                     x_diff=np.ones((4, 1)),
                     z_group=np.hstack([np.ones((4, 1)),
                                        rng.standard_normal((4, 1))]))
        w = weight_matrix(ds)
        assert w.shape == (4, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_closed_form_is_orthant_probability(seed):
    # For random pairs, the closed form depends only on the cosine; check
    # the trigonometric identity P = 1/4 + arcsin(rho)/(2 pi).
    rng = np.random.default_rng(seed)
    z_i, z_j = rng.standard_normal(3), rng.standard_normal(3)
    rho = varrho(z_i, z_j, np.eye(3))
    assert omega_closed_form(rho) == pytest.approx(
        0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-12)
