"""Block-sparse Bayesian learning (BSBL-BO) with Bayesian de-quantization.

The paper's Eq. 1 treats the coarsely quantized measurements as exact and
the low-res parallel path as a hard per-sample box.  The Bayesian family
implemented here instead models both channels statistically, following
Zhang & Rao's BSBL-BO (bound-optimization) algorithm:

.. math::

    y = A \\alpha + v, \\quad v \\sim N(0, \\lambda I), \\qquad
    \\alpha \\sim N(0, \\Gamma), \\quad
    \\Gamma = \\mathrm{blockdiag}(\\gamma_1 B, \\ldots, \\gamma_g B)

with ``A = Φ Ψ``, a fixed partition of the ``n`` wavelet coefficients
into ``g = n / block_len`` equal blocks, one nonnegative scale
``gamma_g`` per block and a shared intra-block correlation matrix ``B``
(AR(1) Toeplitz, optionally re-estimated each EM iteration).  The
posterior mean is the estimate; block scales are learned by the BO
fixed-point rule, which provably never increases the negative log
evidence for a fixed ``B`` (the property suite pins this).

**Measurement-space form.**  The posterior is ``N(mu, Σ)`` with

.. math::

    \\Sigma^{-1} = M = \\Gamma^{-1} + G, \\qquad M \\mu = b, \\qquad
    G = A^T A / \\lambda + \\rho I, \\quad b = A^T y / \\lambda + \\rho c

where ``rho = 0`` for plain BSBL and ``rho c`` is the de-quantization
channel (below).  With ``m < n`` measurements the EM never forms the
``n x n`` ``M``; it iterates in measurement space.  One
``block_len``-square ``eigh`` per iteration gives
``B = U diag(e) U^T``, so the block-diagonal ``D = Γ^{-1} + rho I``
inverts blockwise as ``U diag(d_i) U^T`` with
``d = gamma e / (1 + rho gamma e)``.  Rotating ``A``'s column blocks,
``Ã = A (I_g ⊗ U)``, turns the Woodbury identity for
``M = D + A^T A / lambda`` into one ``m x m`` Cholesky factor
``S = lambda I + Ã diag(d) Ã^T = L L^T``, and with ``Z = L^{-1} Ã``:

* ``mu = D^{-1} (rho c + A^T S^{-1} r)`` with the residual
  ``r = y - A D^{-1} rho c`` — no ``b - (...)`` cancellation;
* ``log|M| = -sum log d + log|S| - m log lambda``, from ``diag L``, so
  the evidence history costs nothing extra;
* the BO numerator's ``q = b - G mu`` is ``Γ^{-1} mu``, and the
  denominator ``tr(B H_ii)`` with ``H = Γ^{-1} - Γ^{-1} Σ Γ^{-1}`` is,
  in ``U`` coordinates, ``sum_j e_j (rho + |z_j|^2 / s_j) / s_j`` with
  ``s_j = 1 + rho gamma e_j`` — every term nonnegative, where the
  textbook ``block_len / gamma - tr(Σ_ii B^{-1}) / gamma^2`` cancels
  catastrophically once ``gamma`` sits at its floor.

Per iteration that is ``O(m^2 n)`` (the Gram of ``Ã diag(sqrt d)`` and
the triangular solve for ``Z``) plus an ``O(m^3 / 3)`` Cholesky, against
``O(n^3)`` for a coefficient-space solve.  :func:`measurement_estep` is
the one E-step kernel: the scalar loop here and the batched engine in
:mod:`repro.recovery.batched` both call it.

**Bayesian de-quantization.**  The hybrid path's low-res samples pin each
signal value to a cell of acquisition codes.  Instead of Eq. 1's hard
box, :func:`solve_bsbl_dequant` treats the cell midpoint as a noisy
observation of the signal with the cell's own quantization-noise
variance ``sigma_q^2`` (see :func:`lowres_cell_stats`).  Because Ψ is
orthonormal this is the ``rho = 1 / sigma_q^2``, ``c = Ψ^T x_mid``
channel above — the *same* EM iteration, so both modes share one kernel.

The measurement noise is the CS quantizer's own error,
``\\lambda = step^2 / 12`` (see :func:`measurement_noise_var` and the
receiver's ``sigma()`` rationale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.backend import HOST
from repro.devtools.contracts import check_finite, check_shape
from repro.perf import lease_workspace
from repro.recovery.problem import CsProblem
from repro.recovery.result import RecoveryResult
from repro.wavelets.operators import SynthesisBasis

__all__ = [
    "BsblSettings",
    "measurement_noise_var",
    "lowres_cell_stats",
    "solve_bsbl",
    "solve_bsbl_dequant",
]

#: Positivity floor used wherever a ratio could divide by ~0.
_TINY = 1e-30


@dataclass(frozen=True)
class BsblSettings:
    """Knobs for the BSBL-BO expectation-maximization loop.

    Hashable (all-scalar, frozen) so it can ride inside
    :class:`repro.recovery.opcache.RecoveryEngineSettings` and hence
    :class:`repro.core.config.FrontEndConfig`.

    Attributes
    ----------
    block_len:
        Coefficients per block; must divide the window length.  The
        paper-scale windows (512/256/128) all work with the default 16,
        which matches the db4 subband granularity well.
    max_iter:
        EM iteration cap.
    tol:
        Relative posterior-mean change below which the loop stops.
    learn_correlation:
        Re-estimate the shared intra-block AR(1) correlation ``r`` from
        the posterior mean each iteration.  Off: ``B = I`` stays fixed,
        which is the setting under which the BO update is provably
        monotone (the property suite runs with it off for that reason).
    corr_limit:
        Clip for the learned ``|r|`` (keeps ``B`` well conditioned).
    gamma_floor:
        Lower clamp for block scales; blocks at the floor are effectively
        pruned without changing the iteration shape (batched and scalar
        paths stay aligned column-for-column).
    noise_scale:
        Multiplier on the quantization-noise standard deviation used to
        build ``lambda`` — the Bayesian analogue of ``sigma_safety``.
    """

    block_len: int = 16
    max_iter: int = 120
    tol: float = 1e-4
    learn_correlation: bool = True
    corr_limit: float = 0.95
    gamma_floor: float = 1e-12
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.block_len < 1:
            raise ValueError("block_len must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0.0 <= self.corr_limit < 1.0:
            raise ValueError("corr_limit must be in [0, 1)")
        if self.gamma_floor <= 0:
            raise ValueError("gamma_floor must be positive")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive")

    def blocks_for(self, n: int) -> int:
        """Number of blocks for an ``n``-coefficient window (validating)."""
        if n % self.block_len:
            raise ValueError(
                f"block_len {self.block_len} does not divide window length {n}"
            )
        return n // self.block_len


def measurement_noise_var(step: float, noise_scale: float = 1.0) -> float:
    """Per-measurement quantization-noise variance ``(scale * step)^2 / 12``.

    The CS quantizer's error is uniform in ``±step/2``; this is the same
    noise model behind the convex path's fidelity radius ``sigma()``,
    expressed as a variance for the Gaussian likelihood.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    return (noise_scale * step) ** 2 / 12.0


def lowres_cell_stats(
    lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Midpoints and variance of the low-res cells ``[lower, upper]``.

    ``lower``/``upper`` are the Eq.-1 box bounds on the acquisition-code
    grid (each cell spans ``d = upper - lower + 1`` integer codes).  The
    underlying code is discrete-uniform over the cell, so the observation
    is the midpoint with variance ``(d^2 - 1) / 12`` — floored at
    ``1/12`` (one acquisition LSB) because even an exact low-res sample
    was itself integerized from the analog signal.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape:
        raise ValueError("lower/upper must share a shape")
    width = upper - lower + 1.0
    if np.any(width < 1.0):
        raise ValueError("cells must span at least one code")
    mid = 0.5 * (lower + upper)
    var = float(np.mean((width * width - 1.0) / 12.0))
    return mid, max(var, 1.0 / 12.0)


def ar1_eigh(xp: Any, r: Any, block_len: int) -> Tuple[Any, Any]:
    """Eigen-decomposition ``B = U diag(e) U^T`` of the AR(1) Toeplitz ``B``.

    ``r`` is a stack of correlations, shape ``(k,)``; returns
    ``(e, U)`` with shapes ``(k, b)`` and ``(k, b, b)`` for
    ``B[i, j] = r^|i-j|``.  ``|r| <= corr_limit < 1`` keeps every
    eigenvalue positive.  Parameterized on the array namespace ``xp`` so
    the backend-seam batched engine shares the arithmetic.
    """
    r = xp.asarray(r)
    idx = xp.arange(int(block_len))
    powers = xp.abs(idx[:, None] - idx[None, :])
    return xp.linalg.eigh(r[:, None, None] ** powers[None, :, :])


def bo_gamma_factor(xp: Any, num: Any, den: Any) -> Any:
    """The BO multiplicative update ``sqrt(num / den)``, guarded.

    ``num = q^T B q >= 0`` and ``den = tr(B H) > 0`` in exact arithmetic;
    the guards only protect against floating-point collapse of a dead
    block, and are shared verbatim by the scalar and batched loops so the
    two stay aligned elementwise.
    """
    safe_den = xp.maximum(den, _TINY)
    return xp.sqrt(xp.maximum(num, 0.0) / safe_den)


def ar1_estimate(xp: Any, mub: Any, gamma: Any, corr_limit: float) -> Any:
    """Per-window AR(1) correlation from posterior-mean blocks.

    ``mub`` has shape ``(k, g, b)`` and ``gamma`` ``(k, g)``; returns the
    clipped lag-1 correlation per window, shape ``(k,)`` — Zhang & Rao's
    practical ``B`` re-estimation from the scale-whitened empirical block
    covariance, reduced to its Toeplitz (lag-averaged) form.
    """
    inv_gamma = 1.0 / xp.maximum(gamma, _TINY)
    diag = xp.einsum("kgb,kgb,kg->k", mub, mub, inv_gamma)
    off = xp.einsum("kgb,kgb,kg->k", mub[:, :, :-1], mub[:, :, 1:], inv_gamma)
    b = mub.shape[2]
    diag_mean = diag / b
    off_mean = off / max(b - 1, 1)
    raw = xp.where(diag_mean > _TINY, off_mean / xp.maximum(diag_mean, _TINY), 0.0)
    raw = xp.where(xp.isfinite(raw), raw, 0.0)
    return xp.clip(raw, -corr_limit, corr_limit)


def initial_gamma(xp: Any, alpha0: Any, k: int, g: int, block_len: int) -> Any:
    """Block scales seeding the EM: flat 1.0 cold, energy-based warm.

    ``alpha0`` is ``None`` (cold start) or an ``(n, k)`` coefficient
    stack; warm scales are the per-block mean square plus a small offset
    so a zero warm-start block can still wake up.
    """
    if alpha0 is None:
        return xp.ones((k, g))
    blocks = xp.transpose(alpha0).reshape(k, g, block_len)
    return xp.mean(blocks * blocks, axis=2) + 1e-2


def measurement_estep(
    backend: Any,
    ws: Any,
    a: Any,
    y: Any,
    rc: Any,
    noise_var: float,
    rho: float,
    gamma: Any,
    evals: Any,
    evecs: Any,
) -> Tuple[Any, Any, Any, Any]:
    """One measurement-space E-step over a stack of ``k`` windows.

    ``a`` is the ``(m, n)`` operator, ``y`` the ``(k, m)`` measurements,
    ``rc`` the ``(k, n)`` de-quantization term ``rho c`` (``None`` when
    ``rho = 0``), ``gamma`` the ``(k, g)`` block scales and
    ``(evals, evecs)`` each window's :func:`ar1_eigh` of ``B``.  Returns
    ``(mu, num, den, logdet_s)``: the ``(k, n)`` posterior means, the
    ``(k, g)`` BO numerators ``q^T B q`` and denominators ``tr(B H_ii)``,
    and ``log|S|`` per window (see the module docstring for the
    algebra).  The three ``O(k m n)``/``O(k m^2)`` temporaries come from
    the workspace ``ws`` and are fully overwritten; ``backend`` supplies
    the namespace and the dense-algebra shims (``gemm``,
    ``gram_cholesky``, ``solve_lower``) that run on one BLAS.
    """
    xp = backend.xp
    k, g = gamma.shape
    m, n = a.shape
    blen = n // g
    dtype = a.dtype
    ge = gamma[:, :, None] * evals[:, None, :]
    shrink = 1.0 + rho * ge
    d = (ge / shrink).reshape(k, n)

    # Ã = A (I_g ⊗ U): every column block of A rotated into B's eigenbasis.
    a_rot = ws.buf("a_rot", (k, m, n), dtype)
    a_blocks = a.reshape(m * g, blen)
    for j in range(k):
        backend.gemm(a_blocks, evecs[j], out=a_rot[j].reshape(m * g, blen))
    scaled = ws.buf("a_scaled", (k, m, n), dtype)
    xp.multiply(a_rot, xp.sqrt(d)[:, None, :], out=scaled)
    chol = backend.gram_cholesky(
        scaled, noise_var, out=ws.buf("chol", (k, m, m), dtype)
    )
    diag = xp.arange(m)
    logdet_s = 2.0 * xp.sum(xp.log(chol[:, diag, diag]), axis=1)

    resid = y
    if rc is not None:
        rc_rot = backend.matmul(rc.reshape(k, g, blen), evecs).reshape(k, n)
        resid = y - backend.matmul(a_rot, (d * rc_rot)[:, :, None])[:, :, 0]
    u = backend.solve_lower(chol, resid[:, :, None])
    z = backend.solve_lower(chol, a_rot, out=a_rot)
    w = backend.matmul(xp.swapaxes(u, 1, 2), z)[:, 0, :]
    if rc is not None:
        w = w + rc_rot
    mu = backend.matmul(
        (d * w).reshape(k, g, blen), xp.swapaxes(evecs, 1, 2)
    ).reshape(k, n)

    q_rot = w.reshape(k, g, blen) / shrink
    colsq = xp.sum(xp.multiply(z, z, out=scaled), axis=1).reshape(k, g, blen)
    e = evals[:, None, :]
    num = xp.sum(e * q_rot * q_rot, axis=2)
    den = xp.sum(e * (rho + colsq / shrink) / shrink, axis=2)
    return mu, num, den, logdet_s


def _em_measurement_form(
    problem: CsProblem,
    y: np.ndarray,
    noise_var: float,
    settings: BsblSettings,
    alpha0: Optional[np.ndarray],
    x_mid: Optional[np.ndarray] = None,
    quant_var: Optional[float] = None,
) -> Tuple[np.ndarray, int, bool, list]:
    """The scalar BSBL-BO loop; ``x_mid``/``quant_var`` add de-quantization.

    Returns ``(mu, iterations, converged, objective_history)`` where the
    history holds the negative log evidence
    ``log|C| + y^T C^{-1} y`` *before* each gamma update —
    non-increasing for fixed ``B`` (``learn_correlation=False``).  This
    is the differential oracle for the batched engine: the batched loop
    in :mod:`repro.recovery.batched` repeats this arithmetic
    column-for-column (minus the evidence bookkeeping).
    """
    n = problem.n
    blen = settings.block_len
    g = settings.blocks_for(n)
    b_vec = problem.adjoint(y) / noise_var
    y_quad = float(y @ y) / noise_var
    rho, rc, logdet_q = 0.0, None, 0.0
    if x_mid is not None:
        rho = 1.0 / quant_var
        rc = problem.basis.analyze(x_mid) / quant_var
        b_vec = b_vec + rc
        y_quad += float(x_mid @ x_mid) / quant_var
        logdet_q = n * float(np.log(quant_var))
    gamma = initial_gamma(
        np, None if alpha0 is None else alpha0[:, None], 1, g, blen
    )
    r = 0.0
    mu = np.zeros(n)
    history: list = []
    iterations = 0
    converged = False

    with lease_workspace(None, f"bsbl:{n}:b{blen}") as ws:
        for it in range(1, settings.max_iter + 1):
            iterations = it
            evals, evecs = ar1_eigh(np, np.array([r]), blen)
            mu_new, num, den, logdet_s = measurement_estep(
                HOST, ws, problem.a, y[None, :],
                None if rc is None else rc[None, :],
                noise_var, rho, gamma, evals, evecs,
            )
            mu_new = mu_new[0]
            # log|C| = log|R| + log|Γ| + log|M|, which the Woodbury
            # determinant lemma collapses to the terms below.
            logdet_c = (
                logdet_q
                + float(np.sum(np.log1p(rho * gamma[0][:, None] * evals[0])))
                + float(logdet_s[0])
            )
            history.append(logdet_c + y_quad - float(b_vec @ mu_new))

            gamma_prev = gamma
            gamma = np.maximum(
                gamma * bo_gamma_factor(np, num, den), settings.gamma_floor
            )

            change = float(np.linalg.norm(mu_new - mu))
            scale = max(float(np.linalg.norm(mu_new)), 1e-12)
            mu = mu_new
            if change <= settings.tol * scale:
                converged = True
                break

            if settings.learn_correlation and blen > 1:
                r = float(
                    ar1_estimate(
                        np, mu.reshape(1, g, blen), gamma_prev,
                        settings.corr_limit,
                    )[0]
                )

    return mu, iterations, converged, history


def _finish(
    problem: CsProblem,
    y: np.ndarray,
    mu: np.ndarray,
    iterations: int,
    converged: bool,
    history: list,
    solver: str,
    settings: BsblSettings,
    extra: dict,
) -> RecoveryResult:
    info = {
        "block_len": float(settings.block_len),
        "em_objective": float(history[-1]),
        "objective_history": tuple(history),
    }
    info.update(extra)
    return RecoveryResult(
        alpha=mu,
        x=problem.basis.synthesize(mu),
        iterations=iterations,
        converged=converged,
        residual_norm=float(np.linalg.norm(problem.forward(mu) - y)),
        objective=float(np.sum(np.abs(mu))),
        solver=solver,
        info=info,
    )


def _check_inputs(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    problem: Optional[CsProblem],
    alpha0: Optional[np.ndarray],
) -> Tuple[CsProblem, np.ndarray, Optional[np.ndarray]]:
    if problem is None:
        problem = CsProblem(phi, basis)
    y = check_finite(np.asarray(y, dtype=float), name="y")
    y = check_shape(y, (problem.m,), name="y")
    if alpha0 is not None:
        alpha0 = check_shape(
            np.asarray(alpha0, dtype=float), (problem.n,), name="alpha0"
        )
    return problem, y, alpha0


def solve_bsbl(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    noise_var: float,
    *,
    settings: Optional[BsblSettings] = None,
    problem: Optional[CsProblem] = None,
    alpha0: Optional[np.ndarray] = None,
) -> RecoveryResult:
    """BSBL-BO posterior-mean recovery from CS measurements alone.

    Parameters
    ----------
    noise_var:
        Measurement-noise variance ``lambda`` (use
        :func:`measurement_noise_var` for the quantization-derived value).
    alpha0:
        Optional warm start; seeds the block scales (the posterior mean
        itself is recomputed from scratch each E-step).
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    settings = settings or BsblSettings()
    problem, y, alpha0 = _check_inputs(phi, basis, y, problem, alpha0)
    mu, iterations, converged, history = _em_measurement_form(
        problem, y, noise_var, settings, alpha0
    )
    return _finish(
        problem,
        y,
        mu,
        iterations,
        converged,
        history,
        "bsbl-bo",
        settings,
        {"noise_var": float(noise_var)},
    )


def solve_bsbl_dequant(
    phi: np.ndarray,
    basis: SynthesisBasis,
    y: np.ndarray,
    noise_var: float,
    x_mid: np.ndarray,
    quant_var: float,
    *,
    settings: Optional[BsblSettings] = None,
    problem: Optional[CsProblem] = None,
    alpha0: Optional[np.ndarray] = None,
) -> RecoveryResult:
    """BSBL with the low-res path as Gaussian pseudo-observations.

    ``x_mid`` holds the per-sample cell midpoints, shape ``(n,)`` in the
    same centered units as the solver domain, and ``quant_var`` the
    shared cell variance — both from :func:`lowres_cell_stats`.  Because Ψ is orthonormal the extra
    channel contributes ``I / quant_var`` to ``G`` and
    ``Ψ^T x_mid / quant_var`` to ``b``; everything else is the plain
    BSBL iteration, so the de-quantizer inherits its convergence and
    batching behavior unchanged.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    if quant_var <= 0:
        raise ValueError("quant_var must be positive")
    settings = settings or BsblSettings()
    problem, y, alpha0 = _check_inputs(phi, basis, y, problem, alpha0)
    x_mid = check_finite(np.asarray(x_mid, dtype=float), name="x_mid")
    x_mid = check_shape(x_mid, (problem.n,), name="x_mid")
    mu, iterations, converged, history = _em_measurement_form(
        problem, y, noise_var, settings, alpha0, x_mid, quant_var
    )
    return _finish(
        problem,
        y,
        mu,
        iterations,
        converged,
        history,
        "bsbl-bo-dequant",
        settings,
        {"noise_var": float(noise_var), "quant_var": float(quant_var)},
    )
