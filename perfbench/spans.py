"""In-memory span recorder for the benchmark's traced runs.

A span records its name, start, end, parent span and a request id (the
window id).  Spans are kept in a list and written out once, when the run
ends.  A layer's self time is its span's duration minus the time its
direct children cover, so the self times of every span under a root add
up to the root's duration.

Untraced runs use :data:`NULL_TRACER`, whose ``span`` returns one shared
do-nothing context manager.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

__all__ = ["Span", "Tracer", "NULL_TRACER"]


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans with ``time.perf_counter`` timestamps."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        """Time the enclosed block as a child of the innermost open span."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(span_id, name, time.perf_counter(), 0.0, parent, rid)
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        child_total: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] += span.duration
        return [s.duration - child_total[s.span_id] for s in self.spans]

    def self_time_by_name(self) -> Dict[str, float]:
        """Summed self time per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] += own
        return dict(totals)

    def busy_by_name(self) -> Dict[str, float]:
        """Summed span duration (self plus children) per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.duration
        return dict(totals)

    def count_by_name(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
        return dict(counts)

    def write(self, path) -> None:
        """Write every span as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans]}, fh)


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str, rid: Optional[str] = None):
        del name, rid
        return self._null


NULL_TRACER = _NullTracer()
