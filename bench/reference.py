"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the model definitions with numpy and scipy
only; nothing is imported from ``changeplane``.  Where the program has one
formula, this module uses another that is equal in exact arithmetic: the
arcsine form of the orthant probability instead of the arctangent form, the
trace identity instead of a masked Gram sum, a batched quadratic expansion of
V(theta) instead of per-plane score rows, and an exact linear program for the
check loss instead of the smoothed majorize-minimize fit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import log_ndtr, ndtr

# Bound on max_ij |omega_MC - omega| for the Monte-Carlo general-Gaussian
# prior with 10 000 shared draws.  Each omega_ij is a mean of 10 000 values in
# [0, 1], so Hoeffding gives P(|error| > 0.03) <= 2 exp(-2 * 1e4 * 0.03^2)
# = 3e-8 per correlation; the error is a smooth function of the single
# correlation rho, so a net over rho keeps the bound for all pairs at once.
# Measured maxima are near 0.005.
GAUSS_MC_OMEGA_BOUND = 0.03


def newton(score_and_info, beta, max_iter=100):
    """Newton iterations until the step stops changing the iterate."""
    for _ in range(max_iter):
        score, info = score_and_info(beta)
        step = np.linalg.solve(info, score)
        beta = beta + step
        if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(beta))):
            return beta
    raise ArithmeticError("reference Newton iterations did not converge")


def logistic_mle(y, x):
    """Maximum-likelihood logistic regression coefficients."""
    def score_and_info(beta):
        mu = 1.0 / (1.0 + np.exp(-(x @ beta)))
        return x.T @ (y - mu), (x * (mu * (1.0 - mu))[:, None]).T @ x
    return newton(score_and_info, np.zeros(x.shape[1]))


def mills(eta):
    """phi(eta) / Phi(eta) on the log scale."""
    return np.exp(-0.5 * eta * eta - 0.5 * math.log(2.0 * math.pi) - log_ndtr(eta))


def probit_factor(y, eta):
    """Per-row derivative of the probit log-likelihood with respect to eta."""
    return y * mills(eta) - (1.0 - y) * mills(-eta)


def probit_mle(y, x):
    """Maximum-likelihood probit coefficients, Newton on the observed information."""
    def score_and_info(beta):
        eta = x @ beta
        lp, lm = mills(eta), mills(-eta)
        curv = y * lp * (eta + lp) + (1.0 - y) * lm * (lm - eta)
        return x.T @ probit_factor(y, eta), (x * curv[:, None]).T @ x
    return newton(score_and_info, np.zeros(x.shape[1]))


def omega_orthant(z):
    """Standard-Gaussian prior weights 1/4 + arcsin(rho_ij) / (2 pi)."""
    unit = z / np.linalg.norm(z, axis=1, keepdims=True)
    rho = np.clip(unit @ unit.T, -1.0, 1.0)
    return 0.25 + np.arcsin(rho) / (2.0 * np.pi)


def gauss_mc_stat_sd(psi, z, draws=600, n_mc=10_000, seed=0):
    """Standard deviation of T when omega comes from n_mc shared prior draws.

    With mu = 0 and Sigma = I the Monte-Carlo weight averages
    h(rho; v) = 1(v <= 0) Phi(-rho v / sqrt(1 - rho^2)) over draws v ~ N(0, 1),
    so T itself is the mean over draws of X(v), the U-statistic with weights
    h(rho_ij; v), and its error has standard deviation sd(X) / sqrt(n_mc).
    sd(X) is estimated here from ``draws`` draws of this module's own.
    """
    unit = z / np.linalg.norm(z, axis=1, keepdims=True)
    rho = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(rho, 0.0)                 # the diagonal is not used
    slope = rho / np.sqrt(np.maximum(1.0 - rho * rho, 1e-300))
    g = psi @ psi.T
    v = np.random.default_rng(seed).standard_normal(draws)
    x = [offdiag_mean(ndtr(-slope * vk) * g) if vk <= 0.0 else 0.0 for vk in v]
    return float(np.std(x, ddof=1)) / math.sqrt(n_mc)


def offdiag_mean(a):
    """Mean of the off-diagonal entries of a square matrix."""
    n = a.shape[0]
    return (a.sum() - np.trace(a)) / (n * (n - 1))


def wast_statistic(psi, omega):
    """T = (n(n-1))^-1 sum_{i!=j} omega_ij <psi_i, psi_j> by the trace identity.

    Returns T and the mean absolute summand |omega_ij <psi_i, psi_j>|, the
    scale against which agreement is judged.
    """
    n = psi.shape[0]
    full = np.sum(psi * (omega @ psi))
    diag = np.sum(np.diag(omega) * np.sum(psi * psi, axis=1))
    return (float((full - diag) / (n * (n - 1))),
            float(offdiag_mean(np.abs(omega * (psi @ psi.T)))))


def sst_gaussian_statistics(y, x, x_diff, z, thetas):
    """Studentized score statistics of the Gaussian model at every plane.

    For plane k with indicator d_i = 1(z_i' theta_k >= 0), the corrected
    score row is u_i = d_i psi0_i - C_k psi1_i with C_k = K_k J^-1,
    K_k = -n^-1 sum_i d_i x_diff_i x_i' and J = -n^-1 X'X.  Because d_i^2 = d_i,
    V_k = n^-1 sum_i u_i u_i' expands into sums over the indicator that one
    matrix product gives for all planes at once.
    """
    n, r = x.shape
    p = x_diff.shape[1]
    k = thetas.shape[0]
    alpha = np.linalg.solve(x.T @ x, x.T @ y)
    resid = y - x @ alpha
    psi0 = resid[:, None] * x_diff
    psi1 = resid[:, None] * x
    j_inv = np.linalg.inv(-(x.T @ x) / n)
    ind = (z @ thetas.T >= 0.0).astype(float)            # n x K

    def by_plane(a, b):                                  # sum_i d_ik a_i b_i'
        outer = (a[:, :, None] * b[:, None, :]).reshape(n, -1)
        return (ind.T @ outer).reshape(k, a.shape[1], b.shape[1])

    s = ind.T @ psi0                                     # K x p
    c = (-by_plane(x_diff, x) / n) @ j_inv               # K x p x r
    b01 = by_plane(psi0, psi1)
    ct = c.transpose(0, 2, 1)
    v = (by_plane(psi0, psi0) - b01 @ ct - c @ b01.transpose(0, 2, 1)
         + c @ (psi1.T @ psi1) @ ct) / n
    return np.einsum("kp,kp->k", s, np.linalg.solve(v, s[:, :, None])[:, :, 0]) / n


def check_loss(y, x, alpha, tau):
    """sum_i rho_tau(y_i - x_i' alpha) with rho_tau(u) = u (tau - 1(u < 0))."""
    u = y - x @ alpha
    return float(np.sum(u * (tau - (u < 0.0))))


def quantile_lp_loss(y, x, tau):
    """Exact minimum check loss: min tau 1'u+ + (1-tau) 1'u-, X a + u+ - u- = y."""
    n, r = x.shape
    eye = np.eye(n)
    res = linprog(np.concatenate([np.zeros(r), np.full(n, tau), np.full(n, 1.0 - tau)]),
                  A_eq=np.hstack([x, eye, -eye]), b_eq=y,
                  bounds=[(None, None)] * r + [(0.0, None)] * (2 * n), method="highs")
    if res.status != 0:
        raise ArithmeticError(f"linprog failed: {res.message}")
    return float(res.fun)


def on_lattice(p, b):
    """True when p lies in [0, 1] on the lattice {0, 1/b, ..., 1}."""
    return 0.0 <= p <= 1.0 and abs(p * b - round(p * b)) <= 1e-9 * b
