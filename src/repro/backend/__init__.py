"""The NumPy array seam (``xp``) for the batched engines.

Every hot kernel in this repo — the stack solvers
(:mod:`repro.recovery.batched`), the one-GEMM encoder
(:mod:`repro.core.encode_batch`) and the ECGSYN synthesis kernels
(:mod:`repro.signals.ecgsyn`) — consumes this package instead of
importing ``numpy`` directly (reprolint RL105 enforces it).  The seam
has three parts:

* :class:`~repro.backend.numpy_backend.NumpyBackend` — the namespace
  ``xp`` (the ``numpy`` module) plus the shims NumPy lacks (Cholesky
  factor/solve, the in-place BSBL algebra, the first-order IIR), with
  :data:`HOST` its one instance;
* :class:`~repro.backend.settings.BackendSettings` — the frozen
  precision carried on ``FrontEndConfig`` and threaded through stages,
  sessions and the CLI (``--precision``);
* :func:`resolve` — settings in, the ``(backend, xp, dtype, settings)``
  bundle out, with ``None`` meaning the exact float64 default.

Dtype policy: ``float64`` is the **exact** path — ``xp`` is the
``numpy`` module itself, so results are bit-identical to the pre-seam
code and every identity gate holds unchanged.  ``float32`` is the
**fast** path, verified differentially against the exact one.

The ``ndarray``/``Generator``/``default_rng`` re-exports let seam
modules keep annotations and host-side RNG (randomness stays in
float64 on the host by policy, so both precisions consume identical
random draws).
"""

from repro.backend.settings import PRECISIONS, BackendSettings
from repro.backend.numpy_backend import HOST, NumpyBackend, ResolvedBackend, resolve

__all__ = [
    "BackendSettings",
    "PRECISIONS",
    "ResolvedBackend",
    "NumpyBackend",
    "resolve",
    "HOST",
    "ndarray",
    "Generator",
    "default_rng",
]

#: Host-side array/RNG types re-exported so seam modules need no direct
#: numpy import for annotations or (host-by-policy) randomness.
ndarray = HOST.xp.ndarray
Generator = HOST.xp.random.Generator
default_rng = HOST.xp.random.default_rng
