"""Metric vocabulary, seeded inputs and helpers shared by the workloads.

Importing this module imports nothing from numpy or ``repro``, so the
runner can pin the BLAS thread count and time the imports itself.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "METHODS",
    "CR_POINTS",
    "WINDOW_LEN",
    "WINDOW_PERIOD_S",
    "SetupClock",
    "WorkloadResult",
    "percentile",
]

#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("windows_per_s", "windows/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
)

#: The paper's Fig. 7 recovery methods and CS-channel CR operating points.
METHODS: Tuple[str, ...] = ("hybrid", "normal", "bsbl-dequant")
CR_POINTS: Tuple[int, ...] = (50, 75)

#: Samples per window and the MIT-BIH sampling rate (n = 512 at 360 Hz).
WINDOW_LEN = 512
FS_HZ = 360.0
WINDOW_PERIOD_S = WINDOW_LEN / FS_HZ


def _per_method(prefix: str, unit: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((f"{prefix}.{m}", unit) for m in METHODS)


#: Per-layer metrics every workload reports with ``--trace 1``.  A layer
#: that a workload's path never enters reports 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("setup.import_s", "s"),
    ("setup.synth_s", "s"),
    ("setup.codebook_s", "s"),
    ("setup.link_s", "s"),
    ("signals.load_record.busy_s", "s"),
    ("signals.load_record.calls", "count"),
    ("signals.load_record.samples_per_s", "samples/s"),
    ("core.frontend.encode.busy_s", "s"),
    ("core.frontend.encode.windows", "count"),
    ("core.receiver.decode.busy_s", "s"),
    *_per_method("recovery.solve.busy_s", "s"),
    *_per_method("recovery.solve.iterations", "count"),
    *_per_method("recovery.solve.us_per_iter", "us"),
    *_per_method("recovery.solve.converged_frac", "fraction"),
    ("recovery.opcache.hit_rate", "fraction"),
    ("recovery.opcache.operator_hit_rate", "fraction"),
    *_per_method("metrics.score.prd_pct", "%"),
    ("metrics.score.busy_s", "s"),
    ("runtime.engine.self_s", "s"),
    ("perf.workspace.bytes_allocated", "B"),
    ("perf.workspace.reuse_fraction", "fraction"),
    ("stream.gateway.submit.busy_s", "s"),
    ("stream.gateway.poll.busy_s", "s"),
    ("stream.gateway.windows_per_poll", "windows"),
    ("stream.gateway.queue_wait_p90_s", "s"),
    ("stream.gateway.service_p90_s", "s"),
    ("stream.gateway.deadline_miss_frac", "fraction"),
    ("stream.session.solved", "count"),
    ("stream.session.concealed", "count"),
    ("stream.session.cs_fallbacks", "count"),
    ("stream.session.frames_lost", "count"),
    ("loadgen.lag_p90_s", "s"),
    ("loadgen.lag_max_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


class SetupClock:
    """Accumulates set-up time per phase (import, synth, codebook, link)."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + (
                time.perf_counter() - start
            )


@dataclass
class WorkloadResult:
    """What one workload's timed phase, trace and checks produced.

    ``end_to_end`` maps a metric name to ``(value, samples)``;
    ``layers`` maps a per-layer metric name to its value; ``failures``
    maps each failed operation (a window id, or a check's name) to the
    first reason it failed, so an operation counts once however many
    checks it fails.
    """

    attempted: int = 0
    failures: Dict[str, str] = field(default_factory=dict)
    end_to_end: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(key, f"{key}: {reason}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

