"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.core  # noqa: E402,F401  (first: it breaks an import cycle in repro)

from perfbench import run  # noqa: E402
from perfbench.common import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.spans import Span, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_in_process(argv):
    """``run.main`` in this process; returns (report, result) lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_metric_vocabulary_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        PER_LAYER
    )
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(
        run.WORKLOADS
    )


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "3",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    report = json.loads(lines[-2])["report"]
    assert report["environment"]["blas_threads"] == run.BLAS_THREADS
    for name, metric in report["end_to_end"].items():
        assert metric["samples"] >= 1, name
    if not trace:
        assert all(v > 0 for v in (m["value"] for m in result["metrics"].values()))


def test_nonfinite_reconstruction_counts_as_failure(monkeypatch):
    from repro.runtime import stages

    recover = stages.recover

    def poisoned(packet, task, link=None):
        recon = recover(packet, task, link)
        return dataclasses.replace(
            recon, x_codes=np.full_like(recon.x_codes, np.nan)
        )

    monkeypatch.setattr(stages, "recover", poisoned)
    report, result = run_in_process(
        ["--workload", "paper-sweep", "--seed", "4", "--seconds", "1", "--trace", "1"]
    )
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert report["error_frac"] > 0
    assert any("non-finite" in f for f in report["checks"]["failures"])


def test_corrupted_packet_counts_as_failure(monkeypatch):
    from repro.core.frontend import HybridFrontEnd

    process_record = HybridFrontEnd.process_record

    def corrupted(self, record, max_windows=None):
        packets = process_record(self, record, max_windows)
        return [
            dataclasses.replace(p, measurement_codes=p.measurement_codes + 1)
            for p in packets
        ]

    monkeypatch.setattr(HybridFrontEnd, "process_record", corrupted)
    report, result = run_in_process(
        ["--workload", "node-encode", "--seed", "4", "--seconds", "1", "--trace", "1"]
    )
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert report["error_frac"] == result["failed"] / result["attempted"]
    assert all("packet differs" in f for f in report["checks"]["failures"])


@pytest.mark.parametrize("slow", ["hybrid", "normal", "bsbl-dequant"])
def test_paper_sweep_rate_moves_alike_for_every_method(slow):
    from perfbench.common import METHODS, WorkloadResult
    from perfbench.paper_sweep import PaperSweep

    def windows_per_s(slowed):
        sweep = PaperSweep(seed=1, seconds=20)
        for method in METHODS:
            per_window = 1.5 if method == "bsbl-dequant" else 0.07
            if method == slowed:
                per_window *= 2
            sweep.latency[method] = [per_window] * 10
            sweep.busy[method] = 10 * per_window
            sweep.done.append((method, ("100", 1, 50), 5.0, 10, True))
        result = WorkloadResult()
        sweep.end_to_end(result)
        return result.end_to_end["windows_per_s"][0]

    assert windows_per_s(None) / windows_per_s(slow) == pytest.approx(2 ** (1 / 3))


def test_calls_between_segments_run_untimed():
    from perfbench.common import SetupClock
    from perfbench.node_encode import NodeEncode

    workload = NodeEncode(seed=2, seconds=0.6)
    workload.setup(SetupClock())
    calls = []

    def pause():
        calls.append(time.perf_counter())
        time.sleep(0.5)

    start = time.perf_counter()
    run = workload.encode_pass(between=[pause, pause])
    wall = time.perf_counter() - start
    assert len(calls) == 2
    assert run["records"] >= 3 and run["windows"] > 0
    assert run["busy_s"] < wall - 1.0


def test_self_times_add_up_to_traced_wall_time():
    run_in_process(
        ["--workload", "node-encode", "--seed", "5", "--seconds", "1", "--trace", "1"]
    )
    spans = json.loads(
        (ROOT / "perfbench" / "out" / "spans-node-encode-5.json").read_text()
    )["spans"]
    tracer = Tracer()
    tracer.spans = [Span(**s) for s in spans]
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["run"]
    assert sum(tracer.self_times()) == pytest.approx(roots[0].duration, rel=1e-9)
    assert len(tracer.spans) > 1


def test_self_time_subtracts_only_direct_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                sum(range(10000))
        sum(range(10000))
    outer, middle, inner = tracer.spans
    own = tracer.self_times()
    assert own[0] == pytest.approx(outer.duration - middle.duration)
    assert own[1] == pytest.approx(middle.duration - inner.duration)
    assert own[2] == inner.duration
    assert sum(own) == pytest.approx(outer.duration)
    assert (middle.parent, inner.parent) == (outer.span_id, middle.span_id)
