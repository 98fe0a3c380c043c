"""Solver microbenchmark: batched+cached engine vs the per-window loop.

``repro bench`` runs this after the sweep and writes the result as
``BENCH_solvers.json``.  For each (solver, CR) cell it times the same
window sequence through two paths:

* **loop** — :func:`repro.recovery.batched.recover_windows_loop` with
  ``fresh_problem=True``: one scalar solve per window against a freshly
  built :class:`~repro.recovery.problem.CsProblem`, i.e. the pre-cache
  cost model (per-window ΦΨ composition, operator norm and — for ADMM —
  Cholesky factorization);
* **batched** — :func:`repro.recovery.batched.recover_windows` against a
  problem from the process-wide
  :data:`~repro.recovery.opcache.PROBLEM_CACHE`: all setup paid once,
  iterations vectorized over window stacks.

Both paths run the identical warm-start schedule, so besides throughput
the cell reports how far the two solution sets drift (``max_prd_dev`` —
the PRD of each batched reconstruction against its loop twin, worst
window): the batched engine is the same arithmetic reordered, so this
sits at BLAS-rounding level (~1e-10 %), far below the 1e-6 acceptance
bound the CI checks.

With extra ``backends`` the batched path also runs per
:class:`~repro.backend.BackendSettings` (the loop oracle always stays
scalar float64), producing one cell per (solver, CR, backend).  Only
exact (NumPy/float64) cells feed the gated top-level aggregates
(``min_speedup`` / ``max_prd_dev_percent``); fast-path cells report
their measured deviation under ``by_backend`` instead (see
``docs/backends.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backend import BackendSettings
from repro.core.config import FrontEndConfig
from repro.metrics.quality import prd as prd_metric
from repro.recovery.batched import recover_windows, recover_windows_loop
from repro.recovery.fista import lambda_max
from repro.recovery.opcache import problem_for_config
from repro.signals.database import load_record

__all__ = ["SolverBenchCell", "run_solver_bench", "solver_bench_payload"]

#: Solvers the microbenchmark exercises (both have a batched engine).
BENCH_SOLVERS = ("admm", "fista")

#: Iteration controls for the timed solves — enough work per window for
#: the timing to be solver-bound, small enough that a smoke run stays
#: in seconds.
_BENCH_MAX_ITER = 300
_BENCH_TOL = 1e-6


@dataclass(frozen=True)
class SolverBenchCell:
    """Timings and agreement for one (solver, CR, backend) cell."""

    solver: str
    cr_percent: float
    n_measurements: int
    n_windows: int
    loop_s: float
    batched_s: float
    max_abs_alpha_dev: float
    max_prd_dev_percent: float
    backend: BackendSettings = BackendSettings()

    @property
    def loop_windows_per_sec(self) -> float:
        return self.n_windows / self.loop_s

    @property
    def batched_windows_per_sec(self) -> float:
        return self.n_windows / self.batched_s

    @property
    def speedup(self) -> float:
        """Batched+cached throughput over the per-window loop."""
        return self.loop_s / self.batched_s


def _signal_windows(
    record_name: str, window_len: int, n_windows: int, duration_s: float
) -> List[np.ndarray]:
    """Centered float windows from a synthetic record, shape ``(n,)`` each."""
    record = load_record(record_name, duration_s=duration_s)
    center = 1 << (record.header.resolution_bits - 1)
    windows = []
    for codes in record.windows(window_len):
        windows.append(np.asarray(codes, dtype=float) - center)
        if len(windows) == n_windows:
            break
    if len(windows) < n_windows:
        raise ValueError(
            f"record {record_name!r} too short: {len(windows)} windows "
            f"of {window_len} (need {n_windows})"
        )
    return windows


def _bench_cells(
    config: FrontEndConfig,
    solver: str,
    xs: Sequence[np.ndarray],
    backends: Sequence[BackendSettings],
) -> List[SolverBenchCell]:
    """Time one (solver, CR) grid point: the loop oracle once, then the
    batched engine once per backend (all cells share the loop timing)."""
    problem = problem_for_config(config)
    ys = [problem.measure_signal(x) for x in xs]

    # Solver parameters scaled to the data so both engines converge in a
    # comparable, bounded number of iterations.
    sigma = 0.02 * float(np.median([np.linalg.norm(y) for y in ys]))
    lam = 0.05 * max(lambda_max(problem, y) for y in ys)

    kwargs: Dict[str, object] = dict(
        method=solver,
        sigma=sigma,
        lam=lam,
        batch_size=config.recovery.batch_size,
        warm_start=True,
        max_iter=_BENCH_MAX_ITER,
        tol=_BENCH_TOL,
    )

    # Legacy cost model: fresh operator state per window.
    start = time.perf_counter()
    loop_results = recover_windows_loop(problem, ys, fresh_problem=True, **kwargs)
    loop_s = time.perf_counter() - start

    # Warm the factorizations outside the timed region (in production they
    # are paid once per process, not once per benchmark).
    if solver == "admm":
        problem.admm_factor()
    cells = []
    for settings in backends:
        start = time.perf_counter()
        batch_results = recover_windows(problem, ys, settings=settings, **kwargs)
        batched_s = time.perf_counter() - start

        alpha_dev = max(
            float(np.max(np.abs(b.alpha - s.alpha)))
            for b, s in zip(batch_results, loop_results)
        )
        prd_dev = max(
            float(prd_metric(s.x, b.x))
            if float(np.linalg.norm(s.x)) > 0
            else 0.0
            for b, s in zip(batch_results, loop_results)
        )
        cells.append(
            SolverBenchCell(
                solver=solver,
                cr_percent=float(config.cs_cr_percent),
                n_measurements=config.n_measurements,
                n_windows=len(ys),
                loop_s=loop_s,
                batched_s=batched_s,
                max_abs_alpha_dev=alpha_dev,
                max_prd_dev_percent=prd_dev,
                backend=settings,
            )
        )
    return cells


def run_solver_bench(
    base_config: FrontEndConfig,
    cr_values: Sequence[float],
    *,
    record_name: str = "100",
    n_windows: int = 12,
    duration_s: float = 30.0,
    solvers: Sequence[str] = BENCH_SOLVERS,
    backends: Sequence[BackendSettings] = (BackendSettings(),),
) -> List[SolverBenchCell]:
    """Run the batched-vs-loop microbenchmark over a CR grid.

    One record's first ``n_windows`` windows are solved at every CR by
    every solver, through both engines; the batched engine additionally
    runs once per entry of ``backends`` (default: exact only).  Returns
    one cell per (solver, CR, backend), solver-major, in input order.
    """
    xs = _signal_windows(
        record_name, base_config.window_len, n_windows, duration_s
    )
    cells = []
    for solver in solvers:
        for cr in cr_values:
            cells.extend(
                _bench_cells(base_config.for_cr(cr), solver, xs, backends)
            )
    return cells


def solver_bench_payload(
    cells: Sequence[SolverBenchCell],
    *,
    smoke: bool,
    cache_stats: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The ``BENCH_solvers.json`` document for a cell list.

    Gated aggregates (``min_speedup`` / ``max_prd_dev_percent``) are
    computed over the *exact* cells only — the fast path's measured
    deviation is reported per label under ``by_backend``, never mixed
    into the bit-identity gate.
    """
    exact = [c for c in cells if c.backend.is_exact]
    speedups = [c.speedup for c in exact]
    by_backend: Dict[str, Dict[str, object]] = {}
    for c in cells:
        group = by_backend.setdefault(
            c.backend.label,
            {"cells": 0, "min_speedup": None, "max_prd_dev_percent": None},
        )
        group["cells"] = int(group["cells"]) + 1
        if group["min_speedup"] is None or c.speedup < group["min_speedup"]:
            group["min_speedup"] = c.speedup
        if (
            group["max_prd_dev_percent"] is None
            or c.max_prd_dev_percent > group["max_prd_dev_percent"]
        ):
            group["max_prd_dev_percent"] = c.max_prd_dev_percent
    return {
        "schema": "repro-bench-solvers/v1",
        "smoke": bool(smoke),
        "max_iter": _BENCH_MAX_ITER,
        "tol": _BENCH_TOL,
        "cells": [
            {
                "solver": c.solver,
                "cr_percent": c.cr_percent,
                "n_measurements": c.n_measurements,
                "n_windows": c.n_windows,
                "backend": "numpy",
                "precision": c.backend.precision,
                "loop": {
                    "wall_clock_s": c.loop_s,
                    "windows_per_sec": c.loop_windows_per_sec,
                },
                "batched": {
                    "wall_clock_s": c.batched_s,
                    "windows_per_sec": c.batched_windows_per_sec,
                },
                "speedup": c.speedup,
                "max_abs_alpha_dev": c.max_abs_alpha_dev,
                "max_prd_dev_percent": c.max_prd_dev_percent,
            }
            for c in cells
        ],
        "min_speedup": min(speedups) if speedups else None,
        "max_prd_dev_percent": (
            max(c.max_prd_dev_percent for c in exact) if exact else None
        ),
        "by_backend": by_backend,
        "problem_cache": dict(cache_stats) if cache_stats is not None else None,
    }
