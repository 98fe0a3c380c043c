"""The NumPy/SciPy backend — the one array seam of the batched engines.

``xp`` here is literally the ``numpy`` module and the shims delegate to
SciPy, so an engine running at float64 executes the *same functions in
the same order* as the pre-seam code: the exact path is bit-identical
by construction, not by tolerance.  The float32 fast path runs the same
calls in single precision and is measured against the exact one (the
differential suites in ``tests/backend``).

The class bundles ``xp`` with the operations plain NumPy does not
offer in the form the engines need: Cholesky factor/solve in SciPy's
``(c, lower)`` form, the ``out=``-capable hot-loop operations, the
in-place dense-algebra trio of the BSBL E-step (``gemm``,
``gram_cholesky``, ``solve_lower``), the first-order IIR recurrence
behind the ECG exponential integrator.
``to_numpy`` marks the boundary where results leave the engines for
the scalar world (``RecoveryResult``, quantizers, metrics).

This module is the designated home of the repo's direct ``numpy``/
``scipy`` imports for the seam-covered engines — reprolint's RL105
keeps it that way (seam modules may import :mod:`repro.backend`, never
the array libraries themselves).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

import numpy as np
from scipy import linalg as sla
from scipy import signal as sps

from repro.backend.settings import PRECISIONS, BackendSettings

__all__ = ["NumpyBackend", "HOST", "ResolvedBackend", "resolve"]


def _c_target(out: Any, shape: Any, dtype: Any) -> np.ndarray:
    """``out``, or a fresh array, as the destination of an in-place shim.

    The SciPy shims reach each matrix of a stack through a reshaped view
    and let BLAS/LAPACK write into it, so the destination must be
    C-contiguous and already of the computing dtype.
    """
    if out is None:
        return np.empty(shape, dtype=dtype)
    if not out.flags.c_contiguous or out.dtype != dtype:
        raise ValueError(f"out must be C-contiguous {np.dtype(dtype)}")
    return out


class NumpyBackend:
    """``numpy`` + ``scipy`` behind the engines' array seam."""

    #: The array namespace: the ``numpy`` module itself.
    xp = np

    def dtype(self, precision: str) -> Any:
        """The dtype for a precision name (the dtype policy).

        ``"float64"`` is the exact default; ``"float32"`` the fast path.
        """
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        return getattr(np, precision)

    def asarray(self, values: Any, dtype: Any = None) -> np.ndarray:
        """``values`` as a host array, same shape as the input."""
        return np.asarray(values, dtype=dtype)

    def to_numpy(self, arr: Any) -> np.ndarray:
        """``arr`` as a host ndarray, same shape as the input (no copy)."""
        return np.asarray(arr)

    def cho_factor(self, a: Any) -> Any:
        """Cholesky factorization in SciPy's ``(c, lower)`` convention."""
        return sla.cho_factor(a)

    def cho_solve(
        self, factor: Any, b: Any, overwrite_b: bool = False
    ) -> np.ndarray:
        """Solution of the factored system, same shape as ``b``.

        ``overwrite_b`` is forwarded to SciPy; it only avoids a copy for
        F-contiguous right-hand sides (C-contiguous stacks are copied to
        Fortran order by LAPACK regardless), and the solution values are
        identical either way.
        """
        return sla.cho_solve(factor, b, overwrite_b=overwrite_b)

    # -- out=-capable hot-loop operations ------------------------------------
    # The engines route per-iteration temporaries into workspace buffers
    # through these.  With ``out=None`` each is exactly the expression it
    # replaces, so the fresh-allocation baseline shares the code path.

    def matmul(self, a: Any, b: Any, out: Any = None) -> np.ndarray:
        """``a @ b`` (``np.matmul`` shape rules), optionally into ``out``.

        The ``out=`` form uses the same GEMM accumulation order as the
        operator form — results are bit-identical, only the destination
        allocation differs.
        """
        if out is None:
            return np.matmul(a, b)
        return np.matmul(a, b, out=out)

    def soft_threshold(self, v: Any, threshold: Any, out: Any = None) -> np.ndarray:
        """``sign(v) * max(|v| - threshold, 0)``, same shape as ``v``.

        The shrinkage operator of FISTA/ADMM.  The ``out=`` form fuses
        the pipeline into ``out`` (one sign temporary remains) and is
        bit-identical to the expression form, signed zeros included.
        """
        if out is None:
            return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)
        sgn = np.sign(v)
        np.abs(v, out=out)
        out -= threshold
        np.maximum(out, 0.0, out=out)
        out *= sgn
        return out

    # The dense-algebra trio below runs on SciPy's BLAS/LAPACK (the
    # triangular solve and in-place factorizations NumPy lacks).  NumPy's
    # wheel bundles a separate OpenBLAS, and alternating calls between the
    # two builds makes their thread pools contend: with default threads
    # on a 2-core host a BSBL EM iteration took 12 ms with its rotation
    # GEMM on ``np.matmul`` against 2.6 ms with all three shims here.

    def gemm(self, a: Any, b: Any, out: Any = None) -> np.ndarray:
        """``a @ b`` via SciPy's ``gemm``, shape ``(a.shape[0], b.shape[1])``.

        A C-ordered matrix is the Fortran-ordered transpose BLAS sees, so
        ``gemm`` computes ``(a b)^T = b^T a^T`` straight into ``out``.
        """
        dtype = np.result_type(a, b)
        a = np.ascontiguousarray(a, dtype=dtype)
        b = np.ascontiguousarray(b, dtype=dtype)
        out = _c_target(out, (a.shape[0], b.shape[1]), dtype)
        gemm = sla.get_blas_funcs("gemm", (a,))
        gemm(1.0, b.T, a.T, c=out.T, overwrite_c=1)
        return out

    def gram_cholesky(self, x: Any, shift: float, out: Any = None) -> np.ndarray:
        """Lower factor of ``x x^T + shift I``, shape ``(..., m, m)``, in place.

        Per matrix of the stack, ``syrk`` writes the Gram matrix into the
        Fortran-ordered transpose of the C-ordered output and ``potrf``
        factors it there, so ``L`` lands in the C view without a copy.  A
        non-positive-definite result raises ``LinAlgError`` as
        ``np.linalg.cholesky`` does.
        """
        x = np.ascontiguousarray(x)
        m, n = x.shape[-2:]
        out = _c_target(out, x.shape[:-1] + (m,), x.dtype)
        syrk = sla.get_blas_funcs("syrk", (x,))
        potrf = sla.get_lapack_funcs("potrf", (x,))
        diag = np.arange(m)
        for xmat, lmat in zip(x.reshape(-1, m, n), out.reshape(-1, m, m)):
            syrk(1.0, xmat.T, c=lmat.T, trans=1, lower=0, overwrite_c=1)
            lmat[diag, diag] += shift
            _, info = potrf(lmat.T, lower=0, overwrite_a=1, clean=1)
            if info != 0:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
        return out

    def solve_lower(self, l: Any, b: Any, out: Any = None) -> np.ndarray:
        """``L^{-1} B``, same shape as ``b``, substituted in place.

        A C-ordered ``(m, p)`` right-hand side is the Fortran-ordered
        ``B^T``, so one right-sided ``trsm`` per matrix (``X L^T = B^T``)
        overwrites it with ``(L^{-1} B)^T`` — no layout copies on
        either operand.  ``out`` may be ``b`` itself.
        """
        b = np.asarray(b)
        out = _c_target(out, b.shape, b.dtype)
        if out is not b:
            out[...] = b
        # trsm only substitutes in place when both operands share a dtype.
        l = np.ascontiguousarray(l, dtype=out.dtype)
        m, p = out.shape[-2:]
        trsm = sla.get_blas_funcs("trsm", (l,))
        for lmat, rhs in zip(l.reshape(-1, m, m), out.reshape(-1, m, p)):
            trsm(1.0, lmat.T, rhs.T, side=1, lower=0, overwrite_b=1)
        return out

    def first_order_iir(self, gain: float, decay: float, u: Any) -> np.ndarray:
        """Filtered signal, same shape as the drive ``u``."""
        u = np.asarray(u)
        # Coefficient dtype follows the drive signal so a float32 fast
        # path stays float32 end to end (lfilter upcasts through
        # result_type(b, a, x) otherwise).
        b = np.asarray([gain], dtype=u.dtype)
        a = np.asarray([1.0, -decay], dtype=u.dtype)
        return sps.lfilter(b, a, u)


#: The process-wide backend instance every seam module computes on.
HOST = NumpyBackend()


class ResolvedBackend(NamedTuple):
    """Everything an engine needs from one settings resolution."""

    backend: NumpyBackend
    xp: Any
    dtype: Any
    settings: BackendSettings


def resolve(settings: Optional[BackendSettings] = None) -> ResolvedBackend:
    """Resolve settings (``None`` = exact default) to the engine bundle.

    Returns the ``(backend, xp, dtype, settings)`` tuple the engines
    destructure at their entry points.
    """
    if settings is None:
        settings = BackendSettings()
    return ResolvedBackend(HOST, np, HOST.dtype(settings.precision), settings)
