"""The measurement-space BSBL E-step against the dense information form.

The solvers iterate in measurement space: one ``m x m`` Cholesky per EM
iteration (see :mod:`repro.recovery.bsbl`).  This suite keeps the
textbook coefficient-space loop — form ``M = Γ^{-1} + G``, solve it
against ``[b | G]``, take the evidence from ``slogdet`` — as a short
reference and pins the reformulation to it: posterior means to 1e-8,
equal iteration counts and evidence histories to 1e-9 relative, for
plain and de-quantizing BSBL with the intra-block correlation learned
and fixed.  It also pins the regime the dense form handled worst:
blocks whose scale collapses to the floor.
"""

import warnings

import numpy as np
import pytest

from repro.recovery.bsbl import (
    BsblSettings,
    ar1_estimate,
    bo_gamma_factor,
    initial_gamma,
    solve_bsbl,
    solve_bsbl_dequant,
)
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import bernoulli_matrix
from repro.wavelets.operators import WaveletBasis

N = 64
_BASIS = WaveletBasis(N, "db4")
NOISE = 0.02
BOX = 0.5


def _dense_em(G, b_vec, y_quad, logdet_r, settings, alpha0=None):
    """Coefficient-space BSBL-BO: ``(mu, iterations, history)``."""
    n = G.shape[0]
    blen = settings.block_len
    g = n // blen
    idx = np.arange(g)
    gdiag = G.reshape(g, blen, g, blen)[idx, :, idx, :]
    gamma = initial_gamma(
        np, None if alpha0 is None else alpha0[:, None], 1, g, blen
    )[0]
    r, mu, history = 0.0, np.zeros(n), []
    lags = np.abs(np.arange(blen)[:, None] - np.arange(blen)[None, :])
    for it in range(1, settings.max_iter + 1):
        bmat = r**lags
        m_mat = G.copy()
        m_mat.reshape(g, blen, g, blen)[idx, :, idx, :] += (
            np.linalg.inv(bmat)[None] / gamma[:, None, None]
        )
        sol = np.linalg.solve(m_mat, np.column_stack([b_vec, G]))
        mu_new, w_mat = sol[:, 0], sol[:, 1:]
        logdet_gamma = blen * np.sum(np.log(gamma)) + g * np.linalg.slogdet(bmat)[1]
        history.append(
            logdet_r + logdet_gamma + np.linalg.slogdet(m_mat)[1]
            + y_quad - b_vec @ mu_new
        )
        qb = (b_vec - G @ mu_new).reshape(g, blen)
        num = np.einsum("gb,bc,gc->g", qb, bmat, qb)
        gw = np.einsum(
            "ibn,nie->ibe", G.reshape(g, blen, n), w_mat.reshape(n, g, blen)
        )
        den = np.einsum("bc,gcb->g", bmat, gdiag - gw)
        gamma_prev = gamma
        gamma = np.maximum(
            gamma * bo_gamma_factor(np, num, den), settings.gamma_floor
        )
        change = np.linalg.norm(mu_new - mu)
        mu = mu_new
        if change <= settings.tol * max(np.linalg.norm(mu), 1e-12):
            return mu, it, history
        if settings.learn_correlation:
            r = ar1_estimate(
                np, mu.reshape(1, g, blen), gamma_prev[None], settings.corr_limit
            )[0]
    return mu, settings.max_iter, history


def _instance(seed, m):
    rng = np.random.default_rng(seed)
    phi = bernoulli_matrix(m, N, seed=seed)
    problem = CsProblem(phi, _BASIS)
    alpha = np.zeros(N)
    alpha[rng.choice(N, 6, replace=False)] = rng.standard_normal(6) * 2.0
    x = _BASIS.synthesize(alpha)
    y = phi @ x + NOISE * rng.standard_normal(m)
    x_mid = (np.floor(x / BOX) + 0.5) * BOX
    return problem, y, x_mid


def _reference(problem, y, x_mid, settings):
    """The dense loop on the information pair of plain or dequant BSBL."""
    noise_var = NOISE**2
    G = problem.gram() / noise_var
    b_vec = problem.adjoint(y) / noise_var
    y_quad = float(y @ y) / noise_var
    logdet_r = problem.m * np.log(noise_var)
    if x_mid is not None:
        quant_var = BOX**2 / 12.0
        G = G + np.eye(N) / quant_var
        b_vec = b_vec + problem.basis.analyze(x_mid) / quant_var
        y_quad += float(x_mid @ x_mid) / quant_var
        logdet_r += N * np.log(quant_var)
    return _dense_em(G, b_vec, y_quad, logdet_r, settings)


@pytest.mark.parametrize("learn", (True, False), ids=("learned-B", "fixed-B"))
@pytest.mark.parametrize("method", ("bsbl", "bsbl-dequant"))
@pytest.mark.parametrize("seed,m", ((3, 32), (11, 16), (29, 40)))
def test_measurement_form_matches_dense_reference(seed, m, method, learn):
    problem, y, x_mid = _instance(seed, m)
    settings = BsblSettings(
        block_len=8, max_iter=200, tol=1e-6, learn_correlation=learn
    )
    if method == "bsbl":
        x_mid = None
        result = solve_bsbl(
            problem.phi, _BASIS, y, NOISE**2, settings=settings,
            problem=problem,
        )
    else:
        result = solve_bsbl_dequant(
            problem.phi, _BASIS, y, NOISE**2, x_mid, BOX**2 / 12.0,
            settings=settings, problem=problem,
        )
    mu, iterations, history = _reference(problem, y, x_mid, settings)

    assert result.iterations == iterations
    assert np.max(np.abs(result.alpha - mu)) <= 1e-8
    got = np.asarray(result.info["objective_history"])
    want = np.asarray(history)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


@pytest.mark.parametrize("case", ("zero-blocks", "zero-y"))
def test_floored_blocks_stay_finite_without_warnings(case):
    """Blocks with no energy drive their scale to ``gamma_floor``; the
    BO denominator must stay finite and positive there (no cancellation,
    no division warnings) and the fit must stay inside the noise ball."""
    m = 32
    rng = np.random.default_rng(5)
    phi = bernoulli_matrix(m, N, seed=5)
    problem = CsProblem(phi, _BASIS)
    alpha = np.zeros(N)
    if case == "zero-blocks":
        # Energy in two of the eight blocks only; the rest are exactly 0.
        alpha[8:16] = rng.standard_normal(8) * 2.0
        alpha[40:48] = rng.standard_normal(8) * 2.0
        y = phi @ _BASIS.synthesize(alpha) + NOISE * rng.standard_normal(m)
    else:
        y = np.zeros(m)
    settings = BsblSettings(block_len=8, max_iter=200, tol=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_bsbl(
            problem.phi, _BASIS, y, NOISE**2, settings=settings,
            problem=problem,
        )
    assert np.all(np.isfinite(result.alpha))
    assert np.all(np.isfinite(result.info["objective_history"]))
    assert result.residual_norm <= 3.0 * NOISE * np.sqrt(m)
    if case == "zero-blocks":
        # The floor regime is really reached: empty blocks are pruned to
        # ~gamma_floor-sized coefficients while the live blocks survive.
        block_peak = np.max(np.abs(result.alpha.reshape(8, 8)), axis=1)
        assert np.count_nonzero(block_peak < 1e-8) >= 2
        assert np.all(block_peak[[1, 5]] > 0.1)
