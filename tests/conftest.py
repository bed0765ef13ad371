import numpy as np
import pytest
from scipy.optimize import linprog

from changeplane import Dataset


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
