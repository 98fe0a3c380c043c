"""paper-sweep: the paper's Fig. 7 grid through the execution engine.

Closed loop, one caller.  Each seeded record contributes one window; the
timed phase runs one-window :class:`RecordJob`\\ s for {hybrid, normal,
bsbl-dequant} x CR {50, 75} at n = 512 through
:class:`ExecutionEngine` on the serial executor.  hybrid and normal each
get 30% of ``--seconds``; bsbl-dequant, much slower per window, gets a
fixed number of windows, which take about 60% of ``--seconds`` on a
shared 2-core host, so its rate always rests on the same count.  The jobs are interleaved: the next one goes to the open
method with the least busy time so far, so drift on a shared machine
falls on all three alike.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.codebooks import CodebookKey, build_codebook
from repro.core.config import DEFAULT_CONFIG
from repro.recovery.opcache import PROBLEM_CACHE
from repro.runtime import stages
from repro.runtime.engine import ExecutionEngine, RecordJob
from repro.runtime.executors import SerialExecutor
from repro.signals.database import MITBIH_RECORD_NAMES, load_record
from repro.signals.records import Record

from perfbench.common import (
    CR_POINTS,
    METHODS,
    WINDOW_LEN,
    SetupClock,
    WorkloadResult,
    percentile,
)
from perfbench.layers import cache_and_pool_layers

#: Source-record length; each record contributes one window from it.
RECORD_S = 30.0

WARMUP_RECORD = MITBIH_RECORD_NAMES[0]

#: Share of ``--seconds`` that hybrid and normal each get.
FAST_SHARE = 0.3
#: bsbl-dequant windows per run, per second of ``--seconds``.
BSBL_WINDOWS_PER_S = 0.3

Cell = Tuple[str, int, int]  # (record name, window index, CR)


class PaperSweep:
    name = "paper-sweep"
    #: One set-up here takes ~5 s; five would add ~20 s to every run.
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.configs = {cr: DEFAULT_CONFIG.for_cr(cr) for cr in CR_POINTS}
        self.engine = ExecutionEngine(SerialExecutor())
        self.windows: List[Tuple[str, int, Record]] = []
        # (method, cell, prd, iterations, converged) in execution order.
        self.done: List[Tuple[str, Cell, float, int, bool]] = []
        self.busy: Dict[str, float] = {m: 0.0 for m in METHODS}
        self.latency: Dict[str, List[float]] = {m: [] for m in METHODS}
        self.synth_s = 0.0

    def setup(self, clock: SetupClock) -> None:
        rng = np.random.default_rng(self.seed)
        names = rng.permutation(MITBIH_RECORD_NAMES)
        with clock.phase("synth"):
            for name in names:
                record = load_record(str(name), duration_s=RECORD_S)
                full = len(record) // WINDOW_LEN
                j = int(rng.integers(1, full))
                self.windows.append((str(name), j, _one_window(record, j)))
        self.synth_s = clock.phases["synth"]
        with clock.phase("codebook"):
            cfg = DEFAULT_CONFIG
            build_codebook(
                CodebookKey(
                    lowres_bits=cfg.lowres_bits,
                    acquisition_bits=cfg.acquisition_bits,
                )
            )
        with clock.phase("link"):
            # A fixed warm-up window, so set-up work does not depend on the seed.
            warm = _one_window(load_record(WARMUP_RECORD, duration_s=RECORD_S), 0)
            for method in METHODS:
                for cr in CR_POINTS:
                    self.engine.run_jobs(
                        [RecordJob(warm, self.configs[cr], method, max_windows=1)]
                    )

    def cells(self) -> List[Tuple[Cell, Record]]:
        return [
            ((name, j, cr), record)
            for name, j, record in self.windows
            for cr in CR_POINTS
        ]

    def run_cells(self) -> Dict[str, List[Tuple[Cell, Record]]]:
        """The cells each method cycles through.

        hybrid and normal take every (record, CR) cell in seeded order;
        bsbl-dequant takes one cell per record, alternating the CR, so
        its few windows come from as many records as possible.
        """
        cells = self.cells()
        bsbl = [
            ((name, j, CR_POINTS[i % len(CR_POINTS)]), record)
            for i, (name, j, record) in enumerate(self.windows)
        ]
        return {"hybrid": cells, "normal": cells, "bsbl-dequant": bsbl}

    def bsbl_windows(self) -> int:
        return max(2, round(self.seconds * BSBL_WINDOWS_PER_S))

    def is_open(self, method: str, share: float) -> bool:
        """Whether ``method`` has budget left once ``share`` of it is open."""
        if method == "bsbl-dequant":
            return len(self.latency[method]) < round(self.bsbl_windows() * share)
        return self.busy[method] < self.seconds * FAST_SHARE * share

    def run(self, result: WorkloadResult, between=()) -> None:
        """Timed phase: interleaved jobs until every method's budget is spent.

        The budgets open in one segment more than there are calls in
        ``between``, and each call runs, untimed, after a segment.
        """
        cells = self.run_cells()
        cursor = {m: 0 for m in METHODS}
        segments = len(between) + 1
        for k in range(segments):
            self.run_segment(result, cells, cursor, (k + 1) / segments)
            if k < len(between):
                between[k]()

    def run_segment(self, result, cells, cursor, share: float) -> None:
        while True:
            open_methods = [m for m in METHODS if self.is_open(m, share)]
            if not open_methods:
                break
            method = min(open_methods, key=self.busy.__getitem__)
            cell, record = cells[method][cursor[method] % len(cells[method])]
            cursor[method] += 1
            job = RecordJob(record, self.configs[cell[2]], method, max_windows=1)
            result.attempted += 1
            start = time.perf_counter()
            try:
                window = self.engine.run_jobs([job])[0].windows[0]
            except Exception as exc:  # a raising call is a failed window
                window = None
                result.fail(window_id(method, cell), f"raised {exc!r}")
            elapsed = time.perf_counter() - start
            self.busy[method] += elapsed
            self.latency[method].append(elapsed)
            if window is not None:
                self.done.append(
                    (
                        method,
                        cell,
                        window.prd_percent,
                        window.solver_iterations,
                        window.solver_converged,
                    )
                )

    def check(self, result: WorkloadResult) -> None:
        """Finite reconstructions, and hybrid PRD below normal PRD per cell."""
        prd: Dict[Tuple[str, Cell], float] = {}
        for method, cell, value, _, _ in self.done:
            if not math.isfinite(value):
                result.fail(window_id(method, cell), "non-finite reconstruction")
            prd[(method, cell)] = value
        for (method, cell), value in prd.items():
            if method != "hybrid" or ("normal", cell) not in prd:
                continue
            if not value < prd[("normal", cell)]:
                result.fail(
                    window_id(method, cell),
                    f"hybrid PRD {value:.3f} not below normal "
                    f"PRD {prd[('normal', cell)]:.3f}",
                )

    def end_to_end(self, result: WorkloadResult) -> None:
        """Geometric mean of the three methods' window rates, and latency.

        Each method's rate is its windows over its own busy time.  The
        geometric mean weighs a relative change in any one method alike,
        so bsbl-dequant, much slower per window, moves it as much as
        hybrid does: a method k times slower moves it by k^(1/3).
        Latency pools the hybrid and normal windows: a run holds only a
        few bsbl-dequant windows, too few for a steady percentile.
        """
        rates = {m: len(self.latency[m]) / self.busy[m] for m in METHODS}
        result.end_to_end["windows_per_s"] = (
            statistics.geometric_mean(rates.values()),
            sum(len(self.latency[m]) for m in METHODS),
        )
        pooled = self.latency["hybrid"] + self.latency["normal"]
        for q in (50, 90):
            result.end_to_end[f"latency_p{q}_s"] = (
                percentile(pooled, q),
                len(pooled),
            )
        result.report["windows"] = {m: len(self.latency[m]) for m in METHODS}
        result.report["windows_per_s"] = rates
        result.report["latency_p50_s"] = {
            m: percentile(self.latency[m], 50) for m in METHODS
        }
        result.report["latency_p90_s"] = {
            m: percentile(self.latency[m], 90) for m in METHODS
        }
        result.report["prd_pct"] = self.mean_prd()

    def mean_prd(self) -> Dict[str, float]:
        return {
            m: float(np.mean([d[2] for d in self.done if d[0] == m]))
            for m in METHODS
        }

    def trace(self, tracer, result: WorkloadResult) -> float:
        """Replay the completed jobs stage by stage under spans.

        Uses the engine's public ``plan`` and the public stage functions,
        so each stage gets its own span.  The receiver's own decode calls
        inside ``recover`` get child spans, so ``recovery.solve`` self
        time has the decode subtracted.  Returns the traced wall time
        over the untraced busy time of the same jobs, minus one.
        """
        records = {cell: record for cell, record in self.cells()}
        replayed = []
        with tracer.span("run") as root:
            for method, cell, _, _, _ in self.done:
                rid = window_id(method, cell)
                with tracer.span("runtime.engine", rid):
                    job = RecordJob(
                        records[cell], self.configs[cell[2]], method, max_windows=1
                    )
                    for task in self.engine.plan(job):
                        link = stages.link_for(task)
                        with tracer.span("core.frontend.encode", rid):
                            packet = stages.encode(task, link)
                        with tracer.span("runtime.stages.transport", rid):
                            packet = stages.transport(packet, task)
                        with tracer.span(
                            f"recovery.solve.{method}", rid
                        ), spanned_decode(tracer, link.receiver, rid):
                            recon = stages.recover(packet, task, link)
                        with tracer.span("metrics.score", rid):
                            outcome = stages.score(task, packet, recon)
                        replayed.append(outcome.prd_percent)
        for (method, cell, value, _, _), again in zip(self.done, replayed):
            if again != value:
                result.fail(
                    window_id(method, cell),
                    f"traced PRD {again!r} != untraced {value!r}",
                )
        self_times = tracer.self_time_by_name()
        busy = tracer.busy_by_name()
        layers = result.layers
        layers["signals.load_record.busy_s"] = self.synth_s
        layers["signals.load_record.calls"] = len(self.windows)
        layers["core.frontend.encode.busy_s"] = busy["core.frontend.encode"]
        layers["core.frontend.encode.windows"] = len(replayed)
        layers["core.receiver.decode.busy_s"] = busy["core.receiver.decode"]
        layers["metrics.score.busy_s"] = busy["metrics.score"]
        layers["runtime.engine.self_s"] = self_times["runtime.engine"]
        for method in METHODS:
            done = [d for d in self.done if d[0] == method]
            solve = self_times[f"recovery.solve.{method}"]
            iterations = sum(d[3] for d in done)
            layers[f"recovery.solve.busy_s.{method}"] = solve
            layers[f"recovery.solve.iterations.{method}"] = iterations / len(done)
            layers[f"recovery.solve.us_per_iter.{method}"] = 1e6 * solve / iterations
            layers[f"recovery.solve.converged_frac.{method}"] = sum(
                d[4] for d in done
            ) / len(done)
        for method, value in self.mean_prd().items():
            layers[f"metrics.score.prd_pct.{method}"] = value
        layers.update(cache_and_pool_layers(PROBLEM_CACHE.stats()))
        return root.duration / sum(self.busy.values()) - 1.0


@contextlib.contextmanager
def spanned_decode(tracer, receiver, rid: str):
    """Span the receiver's decode calls made while the block runs.

    ``HybridReceiver.reconstruct`` calls ``self.decode_measurements``
    and ``self.decode_lowres``; wrapping them on the instance times the
    calls the program makes, and no others.
    """
    names = ("decode_measurements", "decode_lowres")
    for name in names:
        setattr(receiver, name, _spanned(tracer, getattr(receiver, name), rid))
    try:
        yield
    finally:
        for name in names:
            delattr(receiver, name)


def _spanned(tracer, fn, rid: str):
    def call(*args, **kwargs):
        with tracer.span("core.receiver.decode", rid):
            return fn(*args, **kwargs)

    return call


def _one_window(record: Record, j: int) -> Record:
    """A record holding only window ``j`` of ``record``."""
    return Record(
        name=record.name,
        adu=record.adu[j * WINDOW_LEN : (j + 1) * WINDOW_LEN],
        header=record.header,
    )


def window_id(method: str, cell: Cell) -> str:
    name, j, cr = cell
    return f"{method}:{name}:{j}:CR{cr}"
