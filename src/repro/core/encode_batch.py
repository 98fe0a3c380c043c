"""Transmit-side batch engine: settings + the batched CS measurement kernel.

PR 4 batched the *receiver* (GEMM solvers + operator cache); this module
is the transmit-side counterpart.  A record's windows are stacked into a
``(windows, n)`` matrix so the CS measurement is one GEMM
(``X @ Φᵀ``), the measurement ADC is one vectorized pass, and the low-res
channel requantizes/differences/Huffman-codes the whole stack at once
(see :mod:`repro.coding.vectorized`).

Exactness contract (``docs/encoding.md``): the batch path is
**bit-identical** to the scalar per-window path.  Elementwise stages
(quantization, requantization, differencing, table lookup) are trivially
identical, but a GEMM does not accumulate in the same order as a
per-window GEMV, so measurement values can differ by a few ULPs — enough
to flip a quantizer cell only when a value sits essentially on a cell
boundary.  :func:`measure_window_stack` therefore detects rows whose
scaled measurements fall within ``boundary_guard`` of a quantizer cell
edge (guard ≫ the ~1e-12 GEMM/GEMV deviation, ≪ any honest cell
clearance) and recomputes exactly those rows with the scalar GEMV before
quantizing, making the batched codes deterministically equal to the
scalar ones.

**Backend seam:** the GEMM consumes :mod:`repro.backend` instead of
numpy directly.  On the float32 fast path only the bulk GEMM runs in
single precision; the quantizer
scaling and the boundary-guard detection *always* run in float64 on the
host, and every near-edge row is recomputed with the exact float64
GEMV.  So a fast-path code can differ from the exact path only where
GEMM precision honestly moves a measurement across a quantizer cell —
never from guard logic running at reduced precision — and the encode
bench reports exactly how often that happens (byte-identity fraction
and max code delta per cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.backend import BackendSettings, HOST, ndarray, resolve
from repro.perf import lease_workspace, profiled
from repro.sensing.quantizers import UniformQuantizer

__backend_seam__ = True

__all__ = ["EncodeEngineSettings", "measure_window_stack"]


@dataclass(frozen=True)
class EncodeEngineSettings:
    """Node-side engine controls carried on ``FrontEndConfig.encode``.

    Purely a transmit-efficiency knob — with the exactness contract above
    it never changes what the node transmits, so it is safe to vary per
    deployment (mirror of ``FrontEndConfig.recovery`` on the receiver).

    Attributes
    ----------
    batched:
        Process whole window stacks through the batch engine (default).
        ``False`` forces the scalar per-window reference path everywhere.
    boundary_guard:
        Scaled-measurement distance to a quantizer cell edge below which
        a window is recomputed with the scalar GEMV.  Must sit well above
        the ULP-level GEMM/GEMV deviation; the default leaves ~3 orders
        of magnitude of margin on both sides.
    """

    batched: bool = True
    boundary_guard: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.boundary_guard < 0.5:
            raise ValueError("boundary_guard must be in (0, 0.5)")


@profiled("core.encode_batch")
def measure_window_stack(
    phi: ndarray,
    quantizer: UniformQuantizer,
    centered: ndarray,
    boundary_guard: float = EncodeEngineSettings.boundary_guard,
    *,
    settings: Optional[BackendSettings] = None,
) -> ndarray:
    """Measurement codes for a stack of centered windows; shape ``(w, m)``.

    One GEMM for the stack, then the boundary guard described in the
    module docstring: rows with any scaled measurement within
    ``boundary_guard`` of a quantizer cell edge are recomputed with the
    per-window float64 GEMV.  ``centered`` must be C-contiguous float64 —
    each guarded row is then the exact array the scalar path sees.  With
    default/exact ``settings`` every code equals the scalar path's bit
    for bit; on the fast path only the bulk GEMM runs in float32 while
    guard detection and recomputation stay float64, as does the
    quantizer.
    """
    host = HOST.xp
    centered = host.ascontiguousarray(centered, dtype=host.float64)
    if centered.ndim != 2:
        raise ValueError("expected a (windows, n) stack of centered windows")
    backend, _, dtype, settings = resolve(settings)
    w = centered.shape[0]
    m = phi.shape[0]
    # The guard pipeline always runs in host float64, so the workspace
    # lease is pinned to the exact settings even on a fast-path GEMM.
    with lease_workspace(None, f"encode:{m}x{phi.shape[1]}") as ws:
        y = ws.buf("y", (w, m))
        if settings.is_exact:
            HOST.matmul(centered, phi.T, out=y)
        else:
            phi_dev = backend.asarray(phi, dtype=dtype)
            centered_dev = backend.asarray(centered, dtype=dtype)
            y[...] = backend.to_numpy(centered_dev @ phi_dev.T)
        scaled = ws.buf("scaled", (w, m))
        host.add(y, quantizer.full_scale, out=scaled)
        scaled /= quantizer.step
        edge = ws.buf("edge", (w, m))
        host.rint(scaled, out=edge)
        host.subtract(scaled, edge, out=edge)
        host.abs(edge, out=edge)
        near_edge = edge < boundary_guard
        for row in host.flatnonzero(near_edge.any(axis=1)):
            y[row] = phi @ centered[row]
        # quantize() returns a fresh array, so nothing leased escapes.
        return quantizer.quantize(y)
