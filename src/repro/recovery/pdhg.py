"""Chambolle-Pock primal-dual hybrid gradient (PDHG) engine.

Solves problems of the form::

    min_alpha  g(alpha) + sum_i f_i(K_i alpha)

with ``g`` prox-friendly (here: the L1 norm) and each ``f_i`` the indicator
of a simple convex set (here: an L2 ball in measurement space and/or a box
in signal space).  This is exactly the structure of the paper's Eq. 1 —
the SDPT3 conic solve is replaced by this first-order method, which finds
the same optimum of the same convex problem (DESIGN.md §2).

The iteration (Chambolle & Pock 2011, with over-relaxation ``theta = 1``)::

    u_i <- prox_{sigma f_i*}(u_i + sigma K_i alpha_bar)     (dual ascent)
    alpha+ <- prox_{tau g}(alpha - tau sum_i K_i^T u_i)     (primal descent)
    alpha_bar <- 2 alpha+ - alpha

where ``prox_{sigma f*}`` is evaluated through Moreau's identity from the
*projection* implementing ``prox_f``.  Step sizes satisfy
``tau * sigma * L^2 <= 1`` with ``L^2 = sum_i ||K_i||^2``.

Two entry points share that iteration.  :func:`solve_l1_constrained` is
the generic engine over :class:`ConstraintBlock` closures (reweighted
and structured recovery use it, and the tests use it as the reference).
:func:`solve_eq1` is the same iteration fused for the paper's one
problem shape — an L2 ball on ``A alpha`` plus an optional box on
``Ψ alpha`` — with the inputs validated once, preallocated buffers,
in-place ufuncs and Ψ in the basis's fastest matvec form
(:attr:`~repro.wavelets.operators.SynthesisBasis.operators`).  It runs
the generic engine's operations in the generic engine's order, so with
no box its iterates are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.profiler import profiled
from repro.recovery.problem import CsProblem
from repro.recovery.prox import soft_threshold
from repro.recovery.result import RecoveryResult

__all__ = ["ConstraintBlock", "PdhgSettings", "solve_eq1", "solve_l1_constrained"]

Vector = np.ndarray


@dataclass(frozen=True)
class ConstraintBlock:
    """One ``f_i(K_i alpha)`` term: a linear map plus a set projection.

    Attributes
    ----------
    forward:
        ``alpha -> K_i alpha``.
    adjoint:
        ``z -> K_i^T z``.
    project:
        Euclidean projection onto the constraint set (the prox of the
        indicator ``f_i``).
    opnorm_sq:
        An upper bound on ``||K_i||^2`` (used for step sizing).
    violation:
        Distance-style feasibility measure ``z -> dist(z, set)`` used by
        the stopping rule; returns 0 when feasible.
    out_dim:
        Dimension of the block's range.
    """

    forward: Callable[[Vector], Vector]
    adjoint: Callable[[Vector], Vector]
    project: Callable[[Vector], Vector]
    opnorm_sq: float
    violation: Callable[[Vector], float]
    out_dim: int


@dataclass(frozen=True)
class PdhgSettings:
    """Iteration controls for :func:`solve_l1_constrained`.

    ``tol`` bounds both the relative primal change and the scaled
    constraint violation at the accepted solution; ``check_every`` sets how
    often the (slightly costly) convergence test runs.
    """

    max_iter: int = 4000
    tol: float = 1e-4
    check_every: int = 25
    step_ratio: float = 1.0  # tau/sigma balance; 1.0 is the symmetric choice

    def __post_init__(self) -> None:
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.check_every <= 0:
            raise ValueError("check_every must be positive")
        if self.step_ratio <= 0:
            raise ValueError("step_ratio must be positive")


def solve_l1_constrained(
    n: int,
    blocks: Sequence[ConstraintBlock],
    *,
    settings: PdhgSettings = PdhgSettings(),
    synthesize: Optional[Callable[[Vector], Vector]] = None,
    alpha0: Optional[Vector] = None,
    weights: Optional[Vector] = None,
    solver_name: str = "pdhg",
) -> RecoveryResult:
    """Minimize ``||alpha||_1`` subject to the blocks' set constraints.

    Parameters
    ----------
    n:
        Dimension of ``alpha``.
    blocks:
        The constraint terms (at least one).
    settings:
        Iteration controls.
    synthesize:
        Optional coefficient-to-signal map for the returned ``x``
        (defaults to identity).
    alpha0:
        Warm start (defaults to zero).
    weights:
        Optional non-negative per-coefficient weights: the objective
        becomes ``sum_i weights_i |alpha_i|`` (used by reweighted-L1
        recovery).  ``None`` means unit weights.
    solver_name:
        Label recorded in the result.

    Returns
    -------
    RecoveryResult
        ``residual_norm`` reports the first block's violation (by
        convention the measurement-fidelity block goes first).
    """
    if not blocks:
        raise ValueError("need at least one constraint block")
    if n <= 0:
        raise ValueError("n must be positive")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"weights must be a vector of length {n}")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")

    lip_sq = float(sum(b.opnorm_sq for b in blocks))
    if lip_sq <= 0:
        raise ValueError("operator norms must be positive")
    # tau * sigma * L^2 = 1 with tau/sigma = step_ratio.
    sigma = 1.0 / np.sqrt(lip_sq * settings.step_ratio)
    tau = settings.step_ratio * sigma

    alpha = np.zeros(n) if alpha0 is None else np.asarray(alpha0, dtype=float).copy()
    alpha_bar = alpha.copy()
    duals: List[Vector] = [np.zeros(b.out_dim) for b in blocks]

    converged = False
    iterations = 0
    # Scale for the relative-violation test: typical magnitude of the data.
    for iterations in range(1, settings.max_iter + 1):
        # Dual step with Moreau: prox_{sigma f*}(v) = v - sigma prox_{f/sigma}(v/sigma)
        # and for an indicator prox_{f/sigma} is the projection.
        for i, blk in enumerate(blocks):
            v = duals[i] + sigma * blk.forward(alpha_bar)
            duals[i] = v - sigma * blk.project(v / sigma)

        grad = np.zeros(n)
        for i, blk in enumerate(blocks):
            grad += blk.adjoint(duals[i])
        step_in = alpha - tau * grad
        if weights is None:
            alpha_new = soft_threshold(step_in, tau)
        else:
            # Weighted L1: per-coefficient thresholds tau * w_i.
            alpha_new = np.sign(step_in) * np.maximum(
                np.abs(step_in) - tau * weights, 0.0
            )
        alpha_bar = 2.0 * alpha_new - alpha
        change = float(np.linalg.norm(alpha_new - alpha))
        alpha = alpha_new

        if iterations % settings.check_every == 0:
            scale = max(float(np.linalg.norm(alpha)), 1.0)
            feasible = all(
                blk.violation(blk.forward(alpha)) <= settings.tol * max(scale, 1.0)
                for blk in blocks
            )
            if feasible and change <= settings.tol * scale:
                converged = True
                break

    x = synthesize(alpha) if synthesize is not None else alpha.copy()
    first_violation = blocks[0].violation(blocks[0].forward(alpha))
    info = {
        "tau": float(tau),
        "sigma": float(sigma),
        "lipschitz_sq": lip_sq,
    }
    for i, blk in enumerate(blocks):
        info[f"violation_{i}"] = float(blk.violation(blk.forward(alpha)))
    if weights is None:
        objective = float(np.sum(np.abs(alpha)))
    else:
        objective = float(np.sum(weights * np.abs(alpha)))
    return RecoveryResult(
        alpha=alpha,
        x=x,
        iterations=iterations,
        converged=converged,
        residual_norm=float(first_violation),
        objective=objective,
        solver=solver_name,
        info=info,
    )


@profiled("recovery.pdhg")
def solve_eq1(
    problem: CsProblem,
    y: Vector,
    radius: float,
    bounds: Optional[Tuple[Vector, Vector]] = None,
    *,
    settings: PdhgSettings = PdhgSettings(),
    alpha0: Optional[Vector] = None,
    solver_name: str = "pdhg",
) -> RecoveryResult:
    """Minimize ``||alpha||_1`` s.t. ``||A alpha - y|| <= radius`` (and
    ``lower <= Ψ alpha <= upper`` when ``bounds`` is given).

    The paper's Eq. 1 with ``bounds``, normal-CS BPDN without.  Same
    iteration, stopping rule and diagnostics as :func:`solve_l1_constrained`
    over ``ball_block`` (+ ``box_block``), in the same operation order.

    Parameters
    ----------
    problem:
        The composed operator ``A = Φ Ψ`` and its basis.
    y:
        Measurements, shape ``(m,)``.
    radius:
        Fidelity radius (``>= 0``).
    bounds:
        Optional ``(lower, upper)`` signal bounds, each of shape ``(n,)``.
    settings:
        Iteration controls.
    alpha0:
        Warm start of shape ``(n,)``.  Defaults to ``Ψᵀ`` of the box
        midpoint with ``bounds`` and to zero without.
    solver_name:
        Label recorded in the result.

    Returns
    -------
    RecoveryResult
        ``x = Ψ alpha``, ``residual_norm = ||A alpha - y||``, and
        ``info`` with ``tau``, ``sigma``, ``lipschitz_sq``,
        ``violation_0`` (ball) and, with ``bounds``, ``violation_1`` (box).
    """
    n, m = problem.n, problem.m
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"expected {m} measurements")
    if radius < 0:
        raise ValueError("sigma cannot be negative")
    box = bounds is not None
    if box:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError(f"bounds must be vectors of length {n}")
        if np.any(lo > hi):
            raise ValueError("empty box: a lower bound exceeds its upper bound")
    psi, psi_t = problem.basis.operators
    a = problem.a
    a_t = a.T

    if alpha0 is None:
        alpha = psi_t @ ((lo + hi) / 2.0) if box else np.zeros(n)
    else:
        alpha = np.array(alpha0, dtype=float)
        if alpha.shape != (n,):
            raise ValueError(f"alpha0 must be a vector of length {n}")

    lip_sq = problem.opnorm_sq() + (1.0 if box else 0.0)  # ||Ψ||^2 = 1
    sigma = 1.0 / np.sqrt(lip_sq * settings.step_ratio)
    tau = settings.step_ratio * sigma
    tol = settings.tol
    check_every = settings.check_every

    alpha_bar = alpha.copy()
    alpha_new = np.empty(n)
    grad = np.empty(n)
    step = np.empty(n)
    tmp = np.empty(n)
    u_ball = np.zeros(m)
    v_ball = np.empty(m)
    p_ball = np.empty(m)
    d_ball = np.empty(m)
    if box:
        u_box = np.zeros(n)
        v_box = np.empty(n)
        p_box = np.empty(n)

    def residual(alpha: Vector) -> float:
        np.matmul(a, alpha, out=d_ball)
        np.subtract(d_ball, y, out=d_ball)
        return math.sqrt(d_ball.dot(d_ball))

    def box_violation(alpha: Vector) -> float:
        z = psi @ alpha
        np.clip(z, lo, hi, out=tmp)
        np.subtract(z, tmp, out=tmp)
        return math.sqrt(tmp.dot(tmp))

    # Every ufunc below evaluates the generic engine's expression with the
    # same operands and rounding (``v / sigma``, not ``v * (1 / sigma)``):
    # normal-CS bit-identity with solve_l1_constrained depends on it.
    converged = False
    iterations = 0
    for iterations in range(1, settings.max_iter + 1):
        # Dual steps, Moreau: u <- v - sigma P(v / sigma), v = u + sigma K alpha_bar.
        np.matmul(a, alpha_bar, out=p_ball)
        np.multiply(sigma, p_ball, out=p_ball)
        np.add(u_ball, p_ball, out=v_ball)
        np.divide(v_ball, sigma, out=p_ball)
        np.subtract(p_ball, y, out=d_ball)
        dist = math.sqrt(d_ball.dot(d_ball))
        if not (dist <= radius or dist == 0.0):
            np.multiply(d_ball, radius / dist, out=d_ball)
            np.add(y, d_ball, out=p_ball)
        np.multiply(sigma, p_ball, out=p_ball)
        np.subtract(v_ball, p_ball, out=u_ball)
        if box:
            z = psi @ alpha_bar
            np.multiply(sigma, z, out=z)
            np.add(u_box, z, out=v_box)
            np.divide(v_box, sigma, out=p_box)
            np.clip(p_box, lo, hi, out=p_box)
            np.multiply(sigma, p_box, out=p_box)
            np.subtract(v_box, p_box, out=u_box)

        # Primal step: soft-threshold alpha - tau * sum_i K_i^T u_i.
        np.matmul(a_t, u_ball, out=grad)
        if box:
            grad += psi_t @ u_box
        np.multiply(tau, grad, out=grad)
        np.subtract(alpha, grad, out=step)
        np.abs(step, out=tmp)
        np.subtract(tmp, tau, out=tmp)
        np.maximum(tmp, 0.0, out=tmp)
        np.sign(step, out=alpha_new)
        np.multiply(alpha_new, tmp, out=alpha_new)

        # Over-relaxation.
        np.multiply(2.0, alpha_new, out=alpha_bar)
        np.subtract(alpha_bar, alpha, out=alpha_bar)
        np.subtract(alpha_new, alpha, out=tmp)
        change = math.sqrt(tmp.dot(tmp))
        alpha, alpha_new = alpha_new, alpha

        if iterations % check_every == 0:
            scale = max(math.sqrt(alpha.dot(alpha)), 1.0)
            limit = tol * scale
            feasible = max(0.0, residual(alpha) - radius) <= limit and (
                not box or box_violation(alpha) <= limit
            )
            if feasible and change <= limit:
                converged = True
                break

    residual_norm = residual(alpha)
    info = {
        "tau": float(tau),
        "sigma": float(sigma),
        "lipschitz_sq": lip_sq,
        "violation_0": max(0.0, residual_norm - radius),
    }
    if box:
        info["violation_1"] = box_violation(alpha)
    return RecoveryResult(
        alpha=alpha,
        x=psi @ alpha,
        iterations=iterations,
        converged=converged,
        residual_norm=residual_norm,
        objective=float(np.sum(np.abs(alpha))),
        solver=solver_name,
        info=info,
    )
