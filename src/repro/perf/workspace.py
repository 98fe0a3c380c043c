"""Reusable named buffers for the batched hot loops.

A :class:`Workspace` owns one flat backing array per ``(name, dtype)``
pair and hands out C-contiguous views of the requested shape.  The hot
loops ask for the same names every iteration, so after the first
iteration of the first solve on a lease every request is served from
memory that already exists — the per-iteration allocation count drops
to the few temporaries that cannot be routed through a buffer (boolean
masks, per-column norms, LAPACK-internal copies).

Contract of :meth:`Workspace.buf`: the returned view is *uninitialized*
(it may hold stale bytes from a previous solve).  Callers must fully
overwrite it before reading — which the engines do by construction,
because every buffer is the ``out=`` target of a GEMM/ufunc or an
explicit full-slice assignment.  That is also why reuse is exact: the
arithmetic never sees the stale contents.

:class:`WorkspacePool` keys workspaces by ``(precision, shape-class)``
and guarantees two concurrent leases never alias (each
lease pops a workspace from the free list or builds a fresh one, under
a lock).  :class:`NullWorkspace` implements the same ``buf`` API but
allocates fresh every call: with workspaces disabled
(:func:`use_workspaces`), the engines run *byte-for-byte the same code*
against fresh memory — the no-reuse baseline the property suite and the
profile bench compare against.

Accounting: every workspace counts ``bytes_served`` (what the engines
asked for) against ``bytes_allocated`` (what actually hit the
allocator).  The pool folds those counters in at release time, so the
``repro profile`` artifact can report deterministic per-iteration
allocation numbers for the reuse and no-reuse paths of the same solve.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backend import BackendSettings, HOST

__backend_seam__ = True

__all__ = [
    "Workspace",
    "NullWorkspace",
    "WorkspacePool",
    "POOL",
    "lease_workspace",
    "use_workspaces",
    "workspaces_enabled",
    "pool_stats",
    "reset_pool",
]


def _size_of(shape: Sequence[int]) -> int:
    count = 1
    for dim in shape:
        if dim < 0:
            raise ValueError(f"negative dimension in shape {tuple(shape)}")
        count *= int(dim)
    return count


class Workspace:
    """Named reusable buffers on the host backend (see module docstring).

    Not thread-safe on its own; exclusivity is the pool's job (one lease
    at a time per workspace).
    """

    def __init__(self) -> None:
        # (name, dtype-str) -> (flat backing array, capacity, itemsize)
        self._raw: Dict[Tuple[str, str], Tuple[Any, int, int]] = {}
        #: Bytes that actually hit the allocator (capacity growth only).
        self.bytes_allocated = 0
        #: Bytes handed to callers across all ``buf`` calls.
        self.bytes_served = 0
        #: Number of ``buf`` calls served.
        self.buf_calls = 0

    def buf(self, name: str, shape: Sequence[int], dtype: Any = None) -> Any:
        """An uninitialized C-contiguous array view of ``shape``.

        Repeated calls with one ``name`` reuse one backing allocation,
        growing it only when the requested element count exceeds the
        retained capacity (so a shrinking active set never reallocates).
        The caller must fully overwrite the view before reading it.
        """
        xp = HOST.xp
        if dtype is None:
            dtype = xp.float64
        count = _size_of(shape)
        key = (name, str(dtype))
        entry = self._raw.get(key)
        if entry is None or entry[1] < count:
            capacity = max(count, 1)
            raw = xp.empty((capacity,), dtype=dtype)
            entry = (raw, capacity, raw.itemsize)
            self._raw[key] = entry
            self.bytes_allocated += capacity * entry[2]
        raw, _, itemsize = entry
        self.bytes_served += count * itemsize
        self.buf_calls += 1
        return raw[:count].reshape(tuple(shape))

    @property
    def capacity_bytes(self) -> int:
        """Total bytes currently retained across all named buffers."""
        return sum(
            capacity * itemsize
            for _, capacity, itemsize in self._raw.values()
        )

    def reset_counters(self) -> None:
        """Zero the served/allocated accounting (capacity is kept)."""
        self.bytes_allocated = 0
        self.bytes_served = 0
        self.buf_calls = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Workspace names={len(self._raw)} "
            f"capacity={self.capacity_bytes}B>"
        )


class NullWorkspace(Workspace):
    """The no-reuse baseline: every ``buf`` call allocates fresh.

    Same API, same shapes, same dtype policy — so the engines execute
    identical arithmetic against fresh memory, and ``bytes_allocated``
    equals ``bytes_served`` by construction (the honest baseline for
    the profile artifact's allocation-reduction ratio).
    """

    def buf(self, name: str, shape: Sequence[int], dtype: Any = None) -> Any:
        xp = HOST.xp
        if dtype is None:
            dtype = xp.float64
        count = _size_of(shape)
        fresh = xp.empty(tuple(shape), dtype=dtype)
        nbytes = count * fresh.itemsize
        self.bytes_allocated += nbytes
        self.bytes_served += nbytes
        self.buf_calls += 1
        return fresh


class WorkspacePool:
    """Process-wide workspace pool keyed by ``(precision, shape class)``.

    ``lease`` pops a workspace from the key's free list (or creates one)
    under a lock and returns it on exit, so two in-flight leases can
    never hand out views of the same backing memory — the aliasing
    guarantee the property suite pins.  Released workspaces keep their
    capacity: the next solve of the same shape class starts warm.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[Tuple[str, str], List[Workspace]] = {}
        self._created = 0
        self._leases = 0
        self._null_leases = 0
        self._bytes_allocated = 0
        self._bytes_served = 0
        self._buf_calls = 0

    def acquire(
        self, settings: BackendSettings, shape_class: str
    ) -> Workspace:
        """Pop (or build) a workspace for the key; caller must release."""
        key = (settings.precision, str(shape_class))
        with self._lock:
            self._leases += 1
            free = self._free.get(key)
            if free:
                ws = free.pop()
                ws.reset_counters()
                return ws
            self._created += 1
        return Workspace()

    def release(
        self, settings: BackendSettings, shape_class: str, ws: Workspace
    ) -> None:
        """Return a workspace to the free list, folding its counters in."""
        key = (settings.precision, str(shape_class))
        with self._lock:
            self._bytes_allocated += ws.bytes_allocated
            self._bytes_served += ws.bytes_served
            self._buf_calls += ws.buf_calls
            if isinstance(ws, NullWorkspace):
                self._null_leases += 1
            else:
                self._free.setdefault(key, []).append(ws)

    def stats(self) -> Dict[str, float]:
        """Counters for the profile artifact (process-lifetime totals)."""
        with self._lock:
            capacity = sum(
                ws.capacity_bytes
                for pool in self._free.values()
                for ws in pool
            )
            served = self._bytes_served
            allocated = self._bytes_allocated
            return {
                "leases": self._leases,
                "null_leases": self._null_leases,
                "workspaces_created": self._created,
                "workspaces_free": sum(
                    len(pool) for pool in self._free.values()
                ),
                "capacity_bytes": capacity,
                "bytes_allocated": allocated,
                "bytes_served": served,
                "buf_calls": self._buf_calls,
                "reuse_fraction": (
                    1.0 - allocated / served if served else 0.0
                ),
            }

    def clear(self) -> None:
        """Drop retained workspaces and zero every counter (tests)."""
        with self._lock:
            self._free.clear()
            self._created = 0
            self._leases = 0
            self._null_leases = 0
            self._bytes_allocated = 0
            self._bytes_served = 0
            self._buf_calls = 0


#: The per-process pool every engine leases from (one per worker, like
#: the operator cache).
POOL = WorkspacePool()

#: Module-level switch consulted by :func:`lease_workspace`.  On (the
#: default) leases come from :data:`POOL`; off they yield a fresh
#: :class:`NullWorkspace`, i.e. the fresh-allocation baseline.
_ENABLED = True


def workspaces_enabled() -> bool:
    """Whether engine leases currently reuse pooled buffers."""
    return _ENABLED


@contextmanager
def use_workspaces(enabled: bool) -> Iterator[None]:
    """Scoped override of the reuse switch (benchmarks and tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


@contextmanager
def lease_workspace(
    settings: Optional[BackendSettings], shape_class: str
) -> Iterator[Workspace]:
    """Lease a workspace for one engine invocation.

    This is the one seam the engines call: with reuse enabled the
    workspace comes from :data:`POOL` (warm after the first solve of a
    shape class); disabled, a :class:`NullWorkspace` drives the same
    code down the fresh-allocation path.  Either way the lease's
    counters fold into the pool at exit, so both paths are accounted.
    """
    if settings is None:
        settings = BackendSettings()
    ws: Workspace
    if _ENABLED:
        ws = POOL.acquire(settings, shape_class)
    else:
        ws = NullWorkspace()
    try:
        yield ws
    finally:
        POOL.release(settings, shape_class, ws)


def pool_stats() -> Dict[str, float]:
    """:data:`POOL` counters (see :meth:`WorkspacePool.stats`)."""
    return POOL.stats()


def reset_pool() -> None:
    """Clear :data:`POOL` (test isolation / benchmark baselines)."""
    POOL.clear()
