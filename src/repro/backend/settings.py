"""Engine precision carried on :class:`repro.core.config.FrontEndConfig`.

:class:`BackendSettings` is the one object that travels: a frozen,
hashable record of *what* floating-point precision the batched engines
run at.  The engines always run on NumPy/SciPy; the precision is the
only choice.

The dtype policy in one sentence: ``float64`` is the **exact** path —
bit-identical to the scalar oracles and to every output the repo
shipped before the seam existed — while ``float32`` is a **fast** path
whose deviation from the exact path is measured, bounded and reported
rather than assumed away (see ``docs/backends.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BackendSettings", "PRECISIONS"]

#: Supported precision names, mapped to dtypes by
#: :meth:`~repro.backend.numpy_backend.NumpyBackend.dtype`.
PRECISIONS = ("float64", "float32")


@dataclass(frozen=True)
class BackendSettings:
    """The precision the batched engines execute at.

    Hashable so it can live inside ``FrontEndConfig`` and participate in
    operator-cache keys (:mod:`repro.recovery.opcache` keys cached
    factorizations by ``(problem, precision)``).

    Attributes
    ----------
    precision:
        ``"float64"`` (exact default) or ``"float32"`` (fast path).
    """

    precision: str = "float64"

    def __post_init__(self) -> None:
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )

    @property
    def is_exact(self) -> bool:
        """Whether this is the bit-identical reference path (float64)."""
        return self.precision == "float64"

    @property
    def label(self) -> str:
        """Stable ``numpy/precision`` label used in bench cells and reports."""
        return f"numpy/{self.precision}"
