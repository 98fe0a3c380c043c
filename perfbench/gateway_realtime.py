"""gateway-realtime: four patients streaming at 1x real time into one gateway.

Open loop.  Every patient's frames are encoded during set-up; the
generator then submits each frame when its window's last sample is due
and polls the gateway straight after, whether or not the previous poll
finished on time.  Each window is timed from its due time to the return
of the ``poll()`` that applied it, so a stall also delays the windows
behind it.  Patients sit in evenly spaced phase slots across one window
period, each with a seeded jitter of a quarter slot; hybrid recovery at
CR 75 on a clean link (no erasures).  Each patient's stream runs
through seeded three-window segments of the 48 records.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np

from repro.core.codebooks import CodebookKey, build_codebook
from repro.core.config import DEFAULT_CONFIG
from repro.recovery.opcache import PROBLEM_CACHE
from repro.runtime.executors import SerialExecutor
from repro.signals.database import MITBIH_RECORD_NAMES, load_record
from repro.stream.gateway import StreamGateway
from repro.stream.ingest import IngestSession, StreamFrame
from repro.stream.session import RecoveredWindow, execute_recovery_task

from perfbench.common import (
    WINDOW_LEN,
    WINDOW_PERIOD_S,
    SetupClock,
    WorkloadResult,
    percentile,
)
from perfbench.layers import cache_and_pool_layers
from perfbench.spans import NULL_TRACER

PATIENTS = 4
#: Each patient streams consecutive windows of one record for this many
#: windows, then moves to another record, so one run covers most of the
#: 48 records rather than four.
SEGMENT_WINDOWS = 3
#: Source-record length.
RECORD_S = 30.0
CR = 75
METHOD = "hybrid"


class RecordingExecutor(SerialExecutor):
    """The serial executor, keeping every solve result for the checks.

    Under a tracer each solve also gets a ``recovery.solve.hybrid`` span.
    """

    def __init__(self, tracer=NULL_TRACER) -> None:
        self.tracer = tracer
        self.results: List[RecoveredWindow] = []

    def run_tasks(self, tasks, fn=execute_recovery_task):
        out = []
        for task in tasks:
            rid = f"{task.patient_id}:{task.window_index}"
            with self.tracer.span(f"recovery.solve.{METHOD}", rid):
                out.append(fn(task))
        self.results.extend(out)
        return out


class StreamPass:
    """The generator's record of one timed streaming pass."""

    def __init__(self) -> None:
        self.due = 0
        #: Solved windows applied within one window period of their due time.
        self.met = 0
        self.latency: List[float] = []
        self.queue_wait: List[float] = []
        self.service: List[float] = []
        self.lag: List[float] = []
        self.polls = 0
        self.submit_busy = 0.0
        self.poll_busy = 0.0
        self.elapsed = 0.0
        self.snapshot = None
        self.results: List[RecoveredWindow] = []

    @property
    def busy(self) -> float:
        return self.submit_busy + self.poll_busy


class GatewayRealtime:
    name = "gateway-realtime"
    #: The stream cannot pause for set-ups, so they all run before it
    #: and only add to the run's length.
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float) -> None:
        if seconds < 2 * WINDOW_PERIOD_S:
            raise ValueError(
                f"{self.name} needs --seconds of at least two window "
                f"periods ({2 * WINDOW_PERIOD_S:.2f} s)"
            )
        self.seed = seed
        self.seconds = seconds
        self.config = DEFAULT_CONFIG.for_cr(CR)
        self.frames: List[List[StreamFrame]] = []
        self.phases: List[float] = []
        self.encode_s = 0.0
        self.synth_s = 0.0
        self.untraced: StreamPass = StreamPass()

    def setup(self, clock: SetupClock) -> None:
        rng = np.random.default_rng(self.seed)
        names = rng.permutation(MITBIH_RECORD_NAMES)
        slots = rng.permutation(PATIENTS)
        self.phases = [
            (int(slot) + 0.25 * float(rng.random())) * WINDOW_PERIOD_S / PATIENTS
            for slot in slots
        ]
        windows = math.ceil(self.seconds / WINDOW_PERIOD_S) + 1
        segments = math.ceil(windows / SEGMENT_WINDOWS)
        with clock.phase("synth"):
            records = [load_record(str(name), duration_s=RECORD_S) for name in names]
        self.synth_s = clock.phases["synth"]
        streams = []
        for i in range(PATIENTS):
            parts = []
            for k in range(segments):
                adu = records[(i + k * PATIENTS) % len(records)].adu
                full = len(adu) // WINDOW_LEN
                j = int(rng.integers(0, full - SEGMENT_WINDOWS + 1))
                parts.append(
                    adu[j * WINDOW_LEN : (j + SEGMENT_WINDOWS) * WINDOW_LEN]
                )
            streams.append(np.concatenate(parts))
        with clock.phase("codebook"):
            build_codebook(
                CodebookKey(
                    lowres_bits=self.config.lowres_bits,
                    acquisition_bits=self.config.acquisition_bits,
                )
            )
        with clock.phase("link"):
            start = time.perf_counter()
            for i, stream in enumerate(streams):
                ingest = IngestSession(f"p{i}", self.config, method=METHOD)
                self.frames.append(ingest.push(stream))
            self.encode_s = time.perf_counter() - start
            warm = StreamGateway(clock=time.perf_counter)
            warm.open_session("warmup", self.config, method=METHOD)
            ingest = IngestSession("warmup", self.config, method=METHOD)
            fixed = load_record(MITBIH_RECORD_NAMES[0], duration_s=RECORD_S)
            warm.submit(ingest.push(fixed.adu[:WINDOW_LEN])[0])
            warm.poll()

    def stream(self, tracer=NULL_TRACER) -> StreamPass:
        """One timed open-loop pass into a fresh gateway."""
        executor = RecordingExecutor(tracer)
        gateway = StreamGateway(executor=executor, clock=time.perf_counter)
        for i in range(len(self.frames)):
            gateway.open_session(f"p{i}", self.config, method=METHOD)
        events = sorted(
            (self.phases[i] + (k + 1) * WINDOW_PERIOD_S, i, k)
            for i, frames in enumerate(self.frames)
            for k in range(len(frames))
            if self.phases[i] + (k + 1) * WINDOW_PERIOD_S <= self.seconds
        )
        out = StreamPass()
        out.due = len(events)
        applied = [0] * len(self.frames)
        solved = 0
        t0 = time.perf_counter() + 0.01
        end = t0
        for offset, i, k in events:
            due = t0 + offset
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            sent = time.perf_counter()
            out.lag.append(sent - due)
            rid = f"p{i}:{k}"
            with tracer.span("stream.gateway.submit", rid):
                gateway.submit(self.frames[i][k])
            poll_start = time.perf_counter()
            with tracer.span("stream.gateway.poll", rid):
                gateway.poll()
            end = time.perf_counter()
            out.polls += 1
            out.submit_busy += poll_start - sent
            out.poll_busy += end - poll_start
            for j, session in enumerate(gateway.sessions):
                for idx in range(applied[j], session.windows_completed):
                    window_due = t0 + self.phases[j] + (idx + 1) * WINDOW_PERIOD_S
                    out.latency.append(end - window_due)
                    out.queue_wait.append(poll_start - window_due)
                    out.service.append(end - poll_start)
                applied[j] = session.windows_completed
            for window in executor.results[solved:]:
                i = int(window.patient_id[1:])
                offset = self.phases[i] + (window.window_index + 1) * WINDOW_PERIOD_S
                out.met += end - (t0 + offset) <= WINDOW_PERIOD_S
            solved = len(executor.results)
        out.elapsed = end - t0
        gateway.finish()
        out.snapshot = gateway.snapshot()
        out.results = executor.results
        return out

    def run(self, result: WorkloadResult, between=()) -> None:
        # An open-loop stream cannot pause, so the calls all run first.
        for call in between:
            call()
        self.untraced = self.stream()
        result.attempted = self.untraced.due

    def check(self, result: WorkloadResult) -> None:
        """Every due window accounted for, every output finite, honest load."""
        run = self.untraced
        snap = run.snapshot
        solved = sum(s.solved for s in snap.per_session)
        accounted = solved + snap.concealed + snap.frames_lost
        if accounted != run.due:
            result.fail(
                "accounting",
                f"solved {solved} + concealed {snap.concealed} + lost "
                f"{snap.frames_lost} != due {run.due}"
            )
        for window in run.results:
            if not np.all(np.isfinite(window.x_codes)):
                result.fail(
                    f"{window.patient_id}:{window.window_index}", "non-finite output"
                )
        lag_max = max(run.lag)
        if lag_max > WINDOW_PERIOD_S:
            result.fail(
                "loadgen",
                f"generator fell {lag_max:.3f} s behind its schedule, more "
                "than one window period: it offered less load than scheduled"
            )

    def end_to_end(self, result: WorkloadResult) -> None:
        run = self.untraced
        samples = len(run.latency)
        result.end_to_end["windows_per_s"] = (samples / run.elapsed, samples)
        for q in (50, 90):
            result.end_to_end[f"latency_p{q}_s"] = (
                percentile(run.latency, q),
                samples,
            )
        result.report["windows_due"] = run.due
        result.report["deadline_miss_frac"] = deadline_miss_frac(run)
        result.report["prd_pct"] = {METHOD: mean_prd(run)}
        result.report["loadgen.lag_max_s"] = max(run.lag)

    def trace(self, tracer, result: WorkloadResult) -> float:
        """A second, traced pass; returns its busy time over the untraced one's, minus one."""
        with tracer.span("run"):
            run = self.stream(tracer)
        busy = tracer.busy_by_name()
        solve = busy[f"recovery.solve.{METHOD}"]
        iterations = sum(w.iterations for w in run.results)
        snap = run.snapshot
        layers = result.layers
        layers.update(
            {
                "signals.load_record.busy_s": self.synth_s,
                "signals.load_record.calls": len(MITBIH_RECORD_NAMES),
                "core.frontend.encode.busy_s": self.encode_s,
                "core.frontend.encode.windows": sum(len(f) for f in self.frames),
                f"recovery.solve.busy_s.{METHOD}": solve,
                f"recovery.solve.iterations.{METHOD}": iterations / len(run.results),
                f"recovery.solve.us_per_iter.{METHOD}": 1e6 * solve / iterations,
                f"recovery.solve.converged_frac.{METHOD}": sum(
                    w.converged for w in run.results
                )
                / len(run.results),
                f"metrics.score.prd_pct.{METHOD}": mean_prd(run),
                "stream.gateway.submit.busy_s": busy["stream.gateway.submit"],
                "stream.gateway.poll.busy_s": busy["stream.gateway.poll"],
                "stream.gateway.windows_per_poll": len(run.latency) / run.polls,
                "stream.gateway.queue_wait_p90_s": percentile(run.queue_wait, 90),
                "stream.gateway.service_p90_s": percentile(run.service, 90),
                "stream.gateway.deadline_miss_frac": deadline_miss_frac(run),
                "stream.session.solved": sum(s.solved for s in snap.per_session),
                "stream.session.concealed": snap.concealed,
                "stream.session.cs_fallbacks": snap.cs_fallbacks,
                "stream.session.frames_lost": snap.frames_lost,
                "loadgen.lag_p90_s": percentile(run.lag, 90),
                "loadgen.lag_max_s": max(run.lag),
            }
        )
        layers.update(cache_and_pool_layers(PROBLEM_CACHE.stats()))
        return run.busy / self.untraced.busy - 1.0


def deadline_miss_frac(run: StreamPass) -> float:
    """Windows due but not solved and applied within one window period.

    A share of the windows due.  Lost, shed and concealed windows count as misses.
    """
    return (run.due - run.met) / run.due


def mean_prd(run: StreamPass) -> float:
    values = [w.prd_percent for w in run.results if w.prd_percent is not None]
    return float(np.mean(values))

