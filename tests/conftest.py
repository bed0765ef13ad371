import numpy as np
import pytest
from scipy.optimize import linprog

from changeplane import Dataset
from changeplane.errors import DegenerateVectorError
from changeplane.rng import check_counts
from changeplane.weights import _ENDPOINT_EPS


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_dataset(rng, n=40, r=3, p=2, q=3, family="gaussian"):
    """Small random dataset with intercepts and X columns inside x_base."""
    x_base = np.hstack([np.ones((n, 1)), rng.standard_normal((n, r - 1))])
    x_diff = x_base[:, :p].copy()
    z_group = np.hstack([np.ones((n, 1)), rng.standard_normal((n, q - 1))])
    eta = x_base @ rng.uniform(-0.5, 0.5, r)
    if family == "gaussian":
        y = eta + rng.standard_normal(n)
    elif family == "binomial":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    elif family == "probit":
        y = (rng.standard_normal(n) <= eta).astype(float)
    elif family == "poisson":
        y = rng.poisson(np.exp(np.clip(eta, None, 5.0))).astype(float)
    elif family == "quantile":
        y = eta + rng.standard_normal(n)
    else:
        raise ValueError(family)
    return Dataset(y=y, x_base=x_base, x_diff=x_diff, z_group=z_group)


def highs_check_loss(y, x, tau):
    """Minimum check loss by scipy's HiGHS: min tau 1'u+ + (1-tau) 1'u-
    subject to x a + u+ - u- = y."""
    n, r = x.shape
    eye = np.eye(n)
    res = linprog(np.concatenate([np.zeros(r), np.full(n, tau), np.full(n, 1.0 - tau)]),
                  A_eq=np.hstack([x, eye, -eye]), b_eq=y,
                  bounds=[(None, None)] * r + [(0.0, None)] * (2 * n), method="highs")
    assert res.status == 0, res.message
    return res.fun


# Pairwise oracles of the omega kernel: the Sigma-cosine of one pair and a
# Monte-Carlo omega under N(mu, sigma), which check ``weight_matrix`` from
# outside its closed forms.

def varrho(z_i, z_j, sigma) -> float:
    """Sigma-weighted cosine between two grouping rows, clamped to [-1, 1]."""
    z_i = np.asarray(z_i, float)
    z_j = np.asarray(z_j, float)
    sigma = np.asarray(sigma, float)
    si = z_i @ sigma @ z_i
    sj = z_j @ sigma @ z_j
    if si <= 0 or sj <= 0:
        raise DegenerateVectorError("grouping row has zero Sigma-norm")
    rho = (z_i @ sigma @ z_j) / np.sqrt(si * sj)
    return float(np.clip(rho, -1.0, 1.0))



def omega_gaussian_mc(z_i, z_j, mu, sigma, n_draws: int | None = None,
                      rng=None, draws: np.ndarray | None = None) -> float:
    """Monte-Carlo omega_ij for a general Gaussian prior N(mu, sigma).

    Averages Phi((a_i - rho z) / sqrt(1 - rho^2)) over standard-normal draws z
    restricted to z <= a_j, where a_k = Z_k' mu / ||Z_k||_Sigma.  A shared
    ``draws`` array may be passed to reuse one stream across pairs.
    """
    mu = np.asarray(mu, float)
    sigma = np.asarray(sigma, float)
    z_i = np.asarray(z_i, float)
    z_j = np.asarray(z_j, float)
    if draws is None:
        check_counts(n_draws=n_draws)
        rng = np.random.default_rng(rng)
        draws = rng.standard_normal(n_draws)
    from scipy.special import ndtr
    rho = varrho(z_i, z_j, sigma)
    a_i = (z_i @ mu) / np.sqrt(z_i @ sigma @ z_i)
    a_j = (z_j @ mu) / np.sqrt(z_j @ sigma @ z_j)
    inside = draws <= a_j
    one_minus = 1.0 - rho * rho
    if one_minus <= _ENDPOINT_EPS:
        # Degenerate correlation: the conditional CDF is a step function.
        if rho > 0:
            vals = (draws <= a_i).astype(float)
        else:
            vals = (-draws <= a_i).astype(float)
    else:
        vals = ndtr((a_i - rho * draws) / np.sqrt(one_minus))
    return float(np.mean(vals * inside))




def check_loss(y, x, alpha, tau):
    u = y - x @ alpha
    return float(np.sum(u * (tau - (u < 0.0))))


def refit_block_widths(n_boot):
    """The widths of a WAST test's refit blocks, written out: 16, 16, 32,
    then 64 each, the last cut at n_boot."""
    widths, schedule = [], iter([16, 16, 32])
    while (done := sum(widths)) < n_boot:
        widths.append(min(next(schedule, 64), n_boot - done))
    return widths
