"""Differential verification of the float32 fast path (hypothesis).

The backend seam's contract (``docs/backends.md``) has two halves:

* the **exact** path (NumPy/float64) is bit-identical to running with no
  ``settings`` at all — asserted as equality here, not a tolerance;
* a **fast** path (float32) may deviate, but only within bounds set by
  single-precision GEMM rounding: measurement codes move by at most one
  quantizer cell (and only when a value sits near a cell edge — the
  boundary guard recomputes those rows in float64), and batched solver
  reconstructions stay within a small PRD of their float64 twins.

Marked ``property`` so `make test-fast` can skip them locally; CI always
runs them (the backend smoke job runs them explicitly).
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.backend import BackendSettings
from repro.core.encode_batch import measure_window_stack
from repro.recovery.batched import solve_batch, stack_measurements
from repro.recovery.fista import lambda_max
from repro.recovery.problem import CsProblem
from repro.sensing.matrices import bernoulli_matrix
from repro.sensing.quantizers import measurement_quantizer
from repro.wavelets.operators import WaveletBasis

pytestmark = pytest.mark.property

N = 64
_BASIS = WaveletBasis(N, "db4")
FAST32 = BackendSettings(precision="float32")

#: PRD bound (percent) on float32 batched solves vs their float64 twins.
#: Measured deviations sit near 5e-3 (FISTA — deferred active-set
#: compaction keeps frozen columns in the GEMM until a threshold, so the
#: float32 run's freeze schedule can drift a few iterations from the
#: float64 twin's) and 1e-3 (ADMM, whose float32 Cholesky solve
#: accumulates more); the bounds leave about two orders of magnitude of
#: margin without ever excusing a genuinely broken path.
PRD_BOUND_PERCENT = {"fista": 0.5, "admm": 0.5}


def _instance(seed: int, m: int, k: int):
    rng = np.random.default_rng(seed)
    phi = bernoulli_matrix(m, N, seed=seed)
    problem = CsProblem(phi, _BASIS)
    alpha = np.zeros(N)
    alpha[rng.choice(N, k, replace=False)] = rng.standard_normal(k) * 2.0
    x = _BASIS.synthesize(alpha)
    ys = [
        phi @ x + 0.01 * rng.standard_normal(m),
        phi @ (0.5 * x) + 0.01 * rng.standard_normal(m),
    ]
    return problem, ys


def _prd(ref: np.ndarray, test: np.ndarray) -> float:
    scale = float(np.linalg.norm(ref))
    if scale == 0.0:
        return 0.0
    return 100.0 * float(np.linalg.norm(test - ref)) / scale


class TestBatchedSolvers:
    @hyp_settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        m=st.integers(min_value=24, max_value=48),
        solver=st.sampled_from(["fista", "admm"]),
    )
    def test_float32_within_prd_bound_of_exact(self, seed, m, solver):
        problem, ys = _instance(seed, m, k=6)
        sigma = 0.05 * float(np.linalg.norm(ys[0]))
        lam = 0.1 * lambda_max(problem, ys[0])
        kwargs = dict(
            method=solver, sigma=sigma, lam=lam, max_iter=200, tol=1e-6
        )
        exact = solve_batch(problem, ys, **kwargs)
        fast = solve_batch(problem, ys, settings=FAST32, **kwargs)
        for e, f in zip(exact, fast):
            assert f.alpha.dtype == np.float64  # host-float64 at the boundary
            assert _prd(e.x, f.x) <= PRD_BOUND_PERCENT[solver]
            assert f.info["backend"] == "numpy/float32"

    @hyp_settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        solver=st.sampled_from(["fista", "admm"]),
    )
    def test_explicit_exact_settings_bit_identical(self, seed, solver):
        """``settings=BackendSettings()`` IS the default path — equality,
        not closeness."""
        problem, ys = _instance(seed, m=32, k=6)
        sigma = 0.05 * float(np.linalg.norm(ys[0]))
        lam = 0.1 * lambda_max(problem, ys[0])
        kwargs = dict(
            method=solver, sigma=sigma, lam=lam, max_iter=120, tol=1e-6
        )
        default = solve_batch(problem, ys, **kwargs)
        explicit = solve_batch(
            problem, ys, settings=BackendSettings(), **kwargs
        )
        for d, e in zip(default, explicit):
            assert np.array_equal(d.alpha, e.alpha)
            assert d.iterations == e.iterations
            assert d.converged == e.converged

    def test_stack_measurements_fast_dtype(self):
        problem, ys = _instance(0, m=32, k=6)
        exact = stack_measurements(problem, ys)
        fast = stack_measurements(problem, ys, settings=FAST32)
        assert exact.dtype == np.float64
        assert fast.dtype == np.float32
        assert np.allclose(exact, fast, rtol=1e-5, atol=1e-4)


class TestMeasureWindowStack:
    @hyp_settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        w=st.integers(min_value=2, max_value=8),
    )
    def test_float32_codes_within_one_cell(self, seed, w):
        """Float32 GEMM rounding can move a code by at most one quantizer
        cell, and only for values the float64 guard would have sat near a
        cell edge for; everything else must match exactly."""
        rng = np.random.default_rng(seed)
        m, n = 24, 128
        phi = bernoulli_matrix(m, n, seed=seed)
        center = 1024.0
        quantizer = measurement_quantizer(phi, center, 12)
        centered = rng.integers(0, 2048, size=(w, n)).astype(float) - center
        exact = measure_window_stack(phi, quantizer, centered)
        fast = measure_window_stack(
            phi, quantizer, centered, settings=FAST32
        )
        assert exact.shape == fast.shape == (w, m)
        delta = np.abs(fast.astype(np.int64) - exact.astype(np.int64))
        assert int(delta.max(initial=0)) <= 1

    def test_exact_settings_bit_identical(self):
        rng = np.random.default_rng(3)
        phi = bernoulli_matrix(24, 128, seed=3)
        quantizer = measurement_quantizer(phi, 1024.0, 12)
        centered = rng.integers(0, 2048, size=(4, 128)).astype(float) - 1024.0
        assert np.array_equal(
            measure_window_stack(phi, quantizer, centered),
            measure_window_stack(
                phi, quantizer, centered, settings=BackendSettings()
            ),
        )
