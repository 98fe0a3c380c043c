"""node-encode: record synthesis and node-side encoding, no recovery.

Closed loop, one caller.  Seeded records are synthesized by
``load_record`` and every window is encoded through
``process_record`` for both front-ends at CR 50 and CR 75.  Each pass
over the 48 seeded names uses a record length one window longer than
the pass before, so every ``load_record`` call in the timed phase is a
first call that synthesizes (``load_record`` memoizes per parameter
tuple).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.codebooks import CodebookKey, build_codebook
from repro.core.config import DEFAULT_CONFIG
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.core.packets import WindowPacket
from repro.recovery.opcache import PROBLEM_CACHE
from repro.signals.database import MITBIH_RECORD_NAMES, load_record
from repro.signals.records import Record

from perfbench.common import (
    CR_POINTS,
    WINDOW_LEN,
    WINDOW_PERIOD_S,
    SetupClock,
    WorkloadResult,
    percentile,
)
from perfbench.layers import cache_and_pool_layers
from perfbench.spans import NULL_TRACER

#: Length of a first-pass record, as in the repository's encode
#: benchmark; pass p adds p windows.
RECORD_S = 60.0
FRONT_ENDS = ("hybrid", "normal")

#: Windows per (record, front-end, CR) compared with the per-window path.
CHECKED_WINDOWS = 2


class NodeEncode:
    name = "node-encode"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.names: List[str] = []
        self.frontends: Dict[Tuple[str, int], object] = {}
        self.rng = np.random.default_rng(seed)
        self.pass_index = 0
        self.cursor = 0
        self.untraced: Dict[str, object] = {}

    def setup(self, clock: SetupClock) -> None:
        self.names = [str(n) for n in self.rng.permutation(MITBIH_RECORD_NAMES)]
        cfg = DEFAULT_CONFIG
        with clock.phase("codebook"):
            codebook = build_codebook(
                CodebookKey(
                    lowres_bits=cfg.lowres_bits,
                    acquisition_bits=cfg.acquisition_bits,
                )
            )
        with clock.phase("synth"):
            warm = load_record(self.names[0], duration_s=10 * WINDOW_PERIOD_S)
        with clock.phase("link"):
            for cr in CR_POINTS:
                config = cfg.for_cr(cr)
                self.frontends[("hybrid", cr)] = HybridFrontEnd(config, codebook)
                self.frontends[("normal", cr)] = NormalCsFrontEnd(config)
            for frontend in self.frontends.values():
                frontend.process_record(warm)

    def next_record(self, tracer) -> Tuple[Record, float]:
        """Synthesize the next seeded record; returns it and the call's time."""
        if self.cursor == len(self.names):
            self.cursor = 0
            self.pass_index += 1
        name = self.names[self.cursor]
        self.cursor += 1
        duration = RECORD_S + self.pass_index * WINDOW_PERIOD_S
        start = time.perf_counter()
        with tracer.span("signals.load_record", name):
            record = load_record(name, duration_s=duration)
        return record, time.perf_counter() - start

    def encode_pass(
        self, tracer=NULL_TRACER, seconds=None, between=()
    ) -> Dict[str, object]:
        """Synthesize and encode records for ``seconds``.

        The time is split into one segment more than there are calls in
        ``between``, and each call runs, untimed, after a segment.  The
        run's ``busy_s`` is its synthesis plus encode time, without the
        benchmark's own bookkeeping.
        """
        seconds = self.seconds if seconds is None else seconds
        segments = len(between) + 1
        run: Dict[str, object] = {
            "synth_s": 0.0,
            "samples": 0,
            "records": 0,
            "encode_s": 0.0,
            "windows": 0,
            "per_window": {fe: [] for fe in FRONT_ENDS},
            "checked": [],
        }
        for k in range(segments):
            self.encode_segment(run, tracer, seconds / segments)
            if k < len(between):
                between[k]()
        run["busy_s"] = run["synth_s"] + run["encode_s"]
        return run

    def encode_segment(self, run, tracer, seconds: float) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            record, synth_s = self.next_record(tracer)
            run["synth_s"] += synth_s
            run["samples"] += len(record)
            run["records"] += 1
            for (fe, cr), frontend in self.frontends.items():
                t = time.perf_counter()
                with tracer.span("core.frontend.encode", f"{record.name}:{fe}:{cr}"):
                    packets = frontend.process_record(record)
                elapsed = time.perf_counter() - t
                run["encode_s"] += elapsed
                run["windows"] += len(packets)
                run["per_window"][fe].append(elapsed / len(packets))
                picks = self.rng.choice(
                    len(packets), min(CHECKED_WINDOWS, len(packets)), replace=False
                )
                run["checked"].extend(
                    (fe, cr, record.name, int(i), packets[i], window_of(record, int(i)))
                    for i in picks
                )

    def run(self, result: WorkloadResult, between=()) -> None:
        self.untraced = self.encode_pass(between=between)
        result.attempted = self.untraced["windows"]

    def check(self, result: WorkloadResult) -> None:
        """Sampled packets must equal the per-window ``process_window`` path."""
        for fe, cr, name, idx, packet, window in self.untraced["checked"]:
            expected = self.frontends[(fe, cr)].process_window(window, idx)
            if not same_packet(packet, expected):
                result.fail(f"{name}:{idx}:{fe}:CR{cr}", "packet differs")

    def end_to_end(self, result: WorkloadResult) -> None:
        run = self.untraced
        windows = run["windows"]
        result.end_to_end["windows_per_s"] = (windows / run["busy_s"], windows)
        for q in (50, 90):
            result.end_to_end[f"latency_p{q}_s"] = (
                statistics.geometric_mean(
                    [percentile(run["per_window"][fe], q) for fe in FRONT_ENDS]
                ),
                sum(len(v) for v in run["per_window"].values()),
            )
        result.report["encode_windows_per_s"] = windows / run["encode_s"]
        result.report["synth_samples_per_s"] = run["samples"] / run["synth_s"]
        result.report["records"] = run["records"]

    def trace(self, tracer, result: WorkloadResult) -> float:
        """A traced pass over the same names, each record one window longer.

        Returns the traced pass's time per window over the untraced
        pass's, minus one.
        """
        self.cursor = 0
        self.pass_index += 1
        with tracer.span("run"):
            run = self.encode_pass(tracer)
        busy = tracer.busy_by_name()
        calls = tracer.count_by_name()
        layers = result.layers
        layers["signals.load_record.busy_s"] = busy["signals.load_record"]
        layers["signals.load_record.calls"] = calls["signals.load_record"]
        layers["signals.load_record.samples_per_s"] = (
            run["samples"] / busy["signals.load_record"]
        )
        layers["core.frontend.encode.busy_s"] = busy["core.frontend.encode"]
        layers["core.frontend.encode.windows"] = run["windows"]
        layers.update(cache_and_pool_layers(PROBLEM_CACHE.stats()))
        untraced = self.untraced
        return (run["busy_s"] / run["windows"]) / (
            untraced["busy_s"] / untraced["windows"]
        ) - 1.0


def same_packet(a: WindowPacket, b: WindowPacket) -> bool:
    """Field equality, which is byte equality of ``to_bytes()``."""
    return (
        a.window_index == b.window_index
        and a.n == b.n
        and a.measurement_bits == b.measurement_bits
        and np.array_equal(a.measurement_codes, b.measurement_codes)
        and a.lowres_bit_length == b.lowres_bit_length
        and a.lowres_payload == b.lowres_payload
    )


def window_of(record: Record, idx: int) -> np.ndarray:
    """A copy of window ``idx`` of ``record``."""
    return record.adu[idx * WINDOW_LEN : (idx + 1) * WINDOW_LEN].copy()
