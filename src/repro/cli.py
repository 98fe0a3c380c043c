"""Command-line interface to the hybrid CS ECG front-end.

The subcommands cover the everyday workflows:

* ``repro synthesize`` — write synthetic database records as WFDB files;
* ``repro compress``   — run a record through a front-end and report the
  per-window quality/compression table (``--workers N`` fans the window
  solves out over processes);
* ``repro bench``      — a timed CR sweep through the staged execution
  engine, emitting machine-readable ``BENCH_sweep.json`` throughput
  numbers plus a streaming-gateway section (``--workers``, ``--smoke``,
  ``--compare-serial``);
* ``repro stream``     — the multi-patient streaming telemetry gateway:
  N synthetic patients through a lossy link into a ``StreamGateway``,
  with periodic snapshots (see ``docs/streaming.md``);
* ``repro loadtest``   — the deterministic gateway load test: hundreds
  to thousands of interleaved synthetic patients with scripted
  loss/overload phases against the single-process or sharded gateway,
  writing ``BENCH_gateway.json`` (see ``docs/streaming.md``);
* ``repro tradeoff``   — the low-resolution channel design table
  (Figs. 5-6 / Table I in one view);
* ``repro power``      — the Section VI power comparison for a given pair
  of operating points;
* ``repro lint``       — the ``reprolint`` static-analysis pass over the
  source tree (see ``docs/static_analysis.md``).

Installed as ``repro`` via the console-script entry point, also runnable
as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.recovery.methods import method_names

__all__ = ["build_parser", "main"]


def _add_precision_option(parser: argparse.ArgumentParser) -> None:
    """The shared ``--precision`` knob.

    Selects the engine precision carried on ``FrontEndConfig.backend``
    (see ``docs/backends.md``).  The default (float64) is the exact
    path; ``repro bench`` benches float32 *alongside* the exact arm
    rather than instead of it, so the artifacts always contain the gated
    reference cells.
    """
    from repro.backend import PRECISIONS

    parser.add_argument(
        "--precision", default="float64", choices=list(PRECISIONS),
        help="engine dtype policy (default: float64, the exact path)",
    )


def _backend_settings(args: argparse.Namespace):
    """The ``BackendSettings`` an argparse namespace selects."""
    from repro.backend import BackendSettings

    return BackendSettings(precision=args.precision)


def _add_workers_option(parser: argparse.ArgumentParser, default: int = 1) -> None:
    """The one shared ``--workers`` knob (resolved by executor_from_workers).

    Every subcommand that fans window solves out over processes adds the
    flag through here, so the semantics stay uniform: ``1`` = serial,
    ``0`` = all CPUs, ``N`` = that many worker processes.
    """
    parser.add_argument(
        "--workers", type=int, default=default,
        help="worker processes for window solves "
             f"(1 = serial, 0 = all CPUs; default {default})",
    )


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.signals.database import (
        MITBIH_RECORD_NAMES,
        load_record,
        load_record_pair,
    )
    from repro.signals.wfdb_io import write_record, write_record_pair

    names = args.records or list(MITBIH_RECORD_NAMES[: args.count])
    out = Path(args.output)
    for name in names:
        if args.two_lead:
            mlii, v5 = load_record_pair(
                name, duration_s=args.duration, clean=args.clean
            )
            hea, dat = write_record_pair(mlii, v5, out)
            print(f"wrote {hea} (2 leads, {len(mlii)} samples each)")
        else:
            record = load_record(
                name, duration_s=args.duration, clean=args.clean
            )
            hea, dat = write_record(record, out)
            print(
                f"wrote {hea} ({len(record)} samples, "
                f"{record.duration_s:.0f} s)"
            )
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.core.config import FrontEndConfig
    from repro.core.pipeline import run_record
    from repro.recovery.pdhg import PdhgSettings
    from repro.runtime.executors import executor_from_workers
    from repro.signals.database import load_record
    from repro.signals.wfdb_io import read_record

    if args.wfdb:
        record = read_record(Path(args.wfdb))
    else:
        record = load_record(args.record, duration_s=args.duration)

    config = FrontEndConfig(
        window_len=args.window,
        n_measurements=args.measurements,
        lowres_bits=args.lowres_bits,
        solver=PdhgSettings(max_iter=args.max_iter),
        backend=_backend_settings(args),
    )
    outcome = run_record(
        record,
        config,
        method=args.method,
        max_windows=args.max_windows,
        executor=executor_from_workers(args.workers),
    )
    print(
        f"record {record.name} | method {args.method} | "
        f"m={config.n_measurements} (CS CR {config.cs_cr_percent:.1f}%)"
    )
    print(f"{'win':>4} {'PRD %':>8} {'SNR dB':>8} {'net CR %':>9} {'iters':>6}")
    for w in outcome.windows:
        print(
            f"{w.window_index:>4} {w.prd_percent:>8.2f} {w.snr_db:>8.2f} "
            f"{w.budget.net_cr_percent:>9.2f} {w.solver_iterations:>6}"
        )
    print(
        f"mean: PRD {outcome.mean_prd:.2f}% | SNR {outcome.mean_snr_db:.2f} dB | "
        f"net CR {outcome.net_cr_percent:.2f}% | "
        f"low-res overhead {outcome.lowres_overhead_percent:.2f}%"
    )
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from repro.experiments.fig5_fig6_table1 import run_lowres_tradeoff
    from repro.experiments.runner import ExperimentScale

    scale = ExperimentScale(
        record_names=tuple(args.records or ("100", "101", "103")),
        duration_s=args.duration,
        max_windows=None,
    )
    data = run_lowres_tradeoff(
        resolutions=range(args.min_bits, args.max_bits + 1), scale=scale
    )
    print(f"{'bits':>4} {'entries':>8} {'flash B':>8} "
          f"{'bits/smp':>9} {'overhead %':>11}")
    for row in data.rows:
        print(
            f"{row.resolution_bits:>4} {row.codebook_entries:>8} "
            f"{row.storage_bytes:>8} {row.bits_per_sample:>9.2f} "
            f"{row.overhead_percent:>11.2f}"
        )
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.power.comparison import power_gain
    from repro.power.rmpi_power import HybridArchitecture, RmpiArchitecture

    normal = RmpiArchitecture(m=args.m_normal, n=args.window)
    hybrid = HybridArchitecture(
        cs=RmpiArchitecture(m=args.m_hybrid, n=args.window),
        lowres_bits=args.lowres_bits,
    )
    print(f"fs = {args.fs:g} Hz, n = {args.window}")
    for name, arch in (("normal RMPI", normal), ("hybrid CS", hybrid)):
        b = arch.breakdown(args.fs)
        uw = b.as_microwatts()
        print(
            f"  {name:<12} m={arch.m if hasattr(arch, 'm') else arch.cs.m:>4}  "
            f"adc {uw['P[adc]']:.3g} uW | int {uw['P[Int]']:.3g} uW | "
            f"amp {uw['P[amp]']:.3g} uW | total {uw['P[Total]']:.3g} uW"
        )
    gain = power_gain(
        args.m_normal,
        args.m_hybrid,
        fs_hz=args.fs,
        n=args.window,
        lowres_bits=args.lowres_bits,
    )
    print(f"  power gain (normal/hybrid): {gain:.2f}x")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import os
    import time

    from repro.core.codebooks import CodebookKey, build_codebook
    from repro.core.config import FrontEndConfig
    from repro.experiments.runner import (
        PAPER_CR_VALUES,
        ExperimentScale,
        sweep_compression_ratios,
    )
    from repro.experiments.solver_bench import (
        run_solver_bench,
        solver_bench_payload,
    )
    from repro.recovery.pdhg import PdhgSettings
    from repro.runtime.executors import (
        executor_from_workers,
        resolve_worker_count,
    )
    from repro.runtime.stages import recovery_cache_stats
    from repro.stream.driver import StreamScenario, run_stream_scenario

    if args.cache_size is not None:
        from repro.recovery.opcache import PROBLEM_CACHE

        PROBLEM_CACHE.resize(args.cache_size)

    records = tuple(args.records) if args.records else (
        ("100", "101") if args.smoke else ("100", "101", "103", "107")
    )
    crs = tuple(args.crs) if args.crs else (
        (75.0, 88.0) if args.smoke else PAPER_CR_VALUES
    )
    max_windows = (
        args.max_windows
        if args.max_windows is not None
        else (3 if args.smoke else 2)
    )
    compare_serial = args.compare_serial or args.smoke
    workers = resolve_worker_count(args.workers)
    methods = ("hybrid", "normal")

    # Microbench precision arms: always the exact reference, plus the
    # selected precision when it differs.
    from repro.backend import BackendSettings

    bench_backends = [BackendSettings()]
    selected = _backend_settings(args)
    if selected != bench_backends[0]:
        bench_backends.append(selected)

    config = FrontEndConfig(
        window_len=args.window,
        lowres_bits=args.lowres_bits,
        solver=PdhgSettings(max_iter=args.max_iter),
    )

    if args.encode_only:
        _write_encode_bench(args, config, crs, records[0], bench_backends)
        return 0

    if args.bsbl_only:
        _write_bsbl_bench(args, workers)
        return 0

    scale = ExperimentScale(
        record_names=records, duration_s=args.duration, max_windows=max_windows
    )
    windows_total = len(records) * len(crs) * len(methods) * max_windows

    # Train the shared offline codebook outside the timed region: it is
    # identical state for both executors (fork-based workers inherit it).
    build_codebook(
        CodebookKey(
            lowres_bits=config.lowres_bits,
            acquisition_bits=config.acquisition_bits,
        )
    )

    def timed_sweep(executor):
        start = time.perf_counter()
        points = sweep_compression_ratios(
            config,
            cr_values=crs,
            methods=methods,
            scale=scale,
            cache=False,
            executor=executor,
        )
        elapsed = time.perf_counter() - start
        return points, elapsed

    serial_stats = None
    serial_points = None
    if compare_serial:
        serial_points, serial_s = timed_sweep(executor_from_workers(1))
        serial_stats = {
            "wall_clock_s": serial_s,
            "windows_per_sec": windows_total / serial_s,
        }
        print(
            f"serial:   {serial_s:.2f} s "
            f"({serial_stats['windows_per_sec']:.1f} windows/s)"
        )

    points, parallel_s = timed_sweep(executor_from_workers(workers))
    parallel_stats = {
        "wall_clock_s": parallel_s,
        "windows_per_sec": windows_total / parallel_s,
    }
    print(
        f"workers={workers}: {parallel_s:.2f} s "
        f"({parallel_stats['windows_per_sec']:.1f} windows/s)"
    )

    speedup = None
    results_equal = None
    if serial_stats is not None:
        speedup = (
            parallel_stats["windows_per_sec"] / serial_stats["windows_per_sec"]
        )
        results_equal = all(
            pa.cr_percent == pb.cr_percent
            and pa.method == pb.method
            and pa.outcomes == pb.outcomes
            for pa, pb in zip(serial_points, points)
        )
        print(
            f"speedup:  {speedup:.2f}x windows/s over serial "
            f"(results identical: {results_equal})"
        )

    # Streaming-gateway throughput: a short multi-patient run through a
    # 10% erasure link, reported next to the batch numbers.
    stream_patients = 2 if args.smoke else 4
    stream_duration = 6.0 if args.smoke else 15.0
    stream_snapshot = run_stream_scenario(
        StreamScenario(
            patients=stream_patients,
            duration_s=stream_duration,
            config=config,
            erasure_rate=0.1,
        ),
        executor=executor_from_workers(workers),
    )
    stream_stats = {
        "sessions": stream_snapshot.sessions,
        "duration_s": stream_duration,
        "erasure_rate": 0.1,
        "frames_total": stream_snapshot.windows_completed,
        "frames_per_sec": stream_snapshot.reconstructed_per_sec,
        "latency_p50_s": stream_snapshot.latency_p50_s,
        "latency_p95_s": stream_snapshot.latency_p95_s,
        "concealed": stream_snapshot.concealed,
        "cs_fallbacks": stream_snapshot.cs_fallbacks,
        "queue_drops": stream_snapshot.queue_drops,
    }
    rate = stream_stats["frames_per_sec"]
    rate_txt = f"{rate:.1f} frames/s" if rate is not None else "n/a"
    print(
        f"stream:   {stream_stats['sessions']} sessions, "
        f"{stream_stats['frames_total']} frames ({rate_txt})"
    )

    payload = {
        "schema": "repro-bench-sweep/v1",
        "smoke": bool(args.smoke),
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "records": list(records),
        "cr_values": [float(c) for c in crs],
        "methods": list(methods),
        "window_len": config.window_len,
        "max_windows": max_windows,
        "duration_s": args.duration,
        "windows_total": windows_total,
        "parallel": parallel_stats,
        "serial": serial_stats,
        "speedup_windows_per_sec": speedup,
        "results_equal_serial": results_equal,
        "stream": stream_stats,
        "points": [
            {
                "cr_percent": p.cr_percent,
                "method": p.method,
                "mean_snr_db": p.mean_snr_db,
                "mean_prd_percent": p.mean_prd_percent,
                "net_cr_percent": p.net_cr_percent,
            }
            for p in points
        ],
    }
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    # Solver microbenchmark: the batched+cached recovery engine against
    # the legacy per-window loop, on the same CR grid.
    cells = run_solver_bench(
        config,
        crs,
        record_name=records[0],
        n_windows=4 if args.smoke else 12,
        duration_s=args.duration,
        backends=bench_backends,
    )
    for c in cells:
        print(
            f"solver {c.solver:<6} CR {c.cr_percent:5.1f}% "
            f"[{c.backend.label}]: "
            f"loop {c.loop_windows_per_sec:6.1f} w/s | "
            f"batched {c.batched_windows_per_sec:6.1f} w/s | "
            f"speedup {c.speedup:5.2f}x | "
            f"max PRD dev {c.max_prd_dev_percent:.2e}%"
        )
    solver_payload = solver_bench_payload(
        cells, smoke=bool(args.smoke), cache_stats=recovery_cache_stats()
    )
    solvers_out = Path(args.solvers_output)
    solvers_out.parent.mkdir(parents=True, exist_ok=True)
    solvers_out.write_text(json.dumps(solver_payload, indent=2) + "\n")
    print(f"wrote {solvers_out}")

    # Encoder microbenchmark: the batched encode engine + vectorized
    # synthesis kernels against their scalar reference loops.
    _write_encode_bench(args, config, crs, records[0], bench_backends)

    # Bayesian-family comparison: BSBL / de-quantization vs the hybrid
    # baseline on the smoke CR grid, plus batched-vs-scalar agreement.
    _write_bsbl_bench(args, workers)
    return 0


def _write_bsbl_bench(args, workers) -> None:
    """Run the Bayesian-family comparison and write BENCH_bsbl.json.

    Always runs the fixed smoke grid (2 records x 3 windows at window
    length 256) — the artifact is a quality *comparison* whose gate the
    CI asserts, not a throughput benchmark, so it stays cheap even in
    full bench runs.  ``--crs`` still overrides the CR grid.
    """
    import json

    from repro.core.config import FrontEndConfig
    from repro.experiments.bayes_bench import (
        BAYES_SMOKE_CR_VALUES,
        bayes_bench_payload,
        run_bayes_bench,
        run_bsbl_agreement,
    )
    from repro.recovery.pdhg import PdhgSettings
    from repro.runtime.executors import executor_from_workers
    from repro.runtime.stages import recovery_cache_stats

    crs = tuple(args.crs) if args.crs else BAYES_SMOKE_CR_VALUES
    config = FrontEndConfig(
        window_len=256, solver=PdhgSettings(max_iter=1500, tol=2e-4)
    )
    cells = run_bayes_bench(
        config, crs, executor=executor_from_workers(workers)
    )
    for c in cells:
        print(
            f"bayes {c.method:<12} CR {c.cr_percent:5.1f}%: "
            f"SNR {c.mean_snr_db:6.2f} dB | PRD {c.mean_prd_percent:6.2f}%"
        )
    agreement = run_bsbl_agreement(config, crs)
    for c in agreement:
        print(
            f"agree {c.solver:<12} CR {c.cr_percent:5.1f}%: "
            f"max |dalpha| {c.max_abs_alpha_dev:.2e} "
            f"(speedup {c.speedup:.2f}x)"
        )
    payload = bayes_bench_payload(
        cells, agreement, smoke=True, cache_stats=recovery_cache_stats()
    )
    out = Path(args.bsbl_output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")


def _write_encode_bench(args, config, crs, record_name, backends=None) -> None:
    """Run the encoder/synthesis microbenchmark and write BENCH_encode.json."""
    import json

    from repro.backend import BackendSettings
    from repro.experiments.encode_bench import (
        encode_bench_payload,
        run_encode_bench,
        run_synth_bench,
    )

    encode_cells = run_encode_bench(
        config,
        crs,
        record_name=record_name,
        n_windows=16 if args.smoke else 32,
        duration_s=args.duration,
        backends=backends or (BackendSettings(),),
    )
    for c in encode_cells:
        print(
            f"encode {c.method:<6} CR {c.cr_percent:5.1f}% "
            f"[{c.backend.label}]: "
            f"loop {c.loop_windows_per_sec:7.1f} w/s | "
            f"batched {c.batched_windows_per_sec:7.1f} w/s | "
            f"speedup {c.speedup:5.2f}x | "
            f"bytes identical: {c.bytes_identical}"
        )
    synth_cells = run_synth_bench(
        duration_s=4.0 if args.smoke else 8.0,
        database_duration_s=3.0 if args.smoke else 6.0,
    )
    for c in synth_cells:
        print(
            f"synth  {c.kind:<8}: "
            f"loop {c.loop_samples_per_sec:8.0f} sps | "
            f"vectorized {c.vectorized_samples_per_sec:10.0f} sps | "
            f"speedup {c.speedup:6.1f}x | identical: {c.identical}"
        )
    payload = encode_bench_payload(
        encode_cells, synth_cells, smoke=bool(args.smoke)
    )
    encode_out = Path(args.encode_output)
    encode_out.parent.mkdir(parents=True, exist_ok=True)
    encode_out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {encode_out}")


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.core.config import FrontEndConfig
    from repro.experiments.profile_bench import (
        profile_bench_payload,
        run_profile_bench,
    )
    from repro.perf import pool_stats
    from repro.recovery.opcache import PROBLEM_CACHE
    from repro.runtime.stages import recovery_cache_stats

    if args.cache_size is not None:
        PROBLEM_CACHE.resize(args.cache_size)

    n_windows = args.windows if args.windows is not None else (
        4 if args.smoke else 8
    )
    repeats = args.repeats if args.repeats is not None else (
        2 if args.smoke else 3
    )
    config = FrontEndConfig(window_len=args.window)
    cells, profiler_rows = run_profile_bench(
        config,
        cr_percent=args.cr,
        record_name=args.record,
        n_windows=n_windows,
        duration_s=args.duration,
        repeats=repeats,
        solver_max_iter=60 if args.smoke else 120,
        bsbl_max_iter=6 if args.smoke else 10,
        synth_duration_s=2.0 if args.smoke else 4.0,
    )
    for c in cells:
        print(
            f"kernel {c.kernel:<7}: "
            f"baseline {c.baseline_units_per_sec:9.1f} {c.units}/s | "
            f"workspace {c.workspace_units_per_sec:9.1f} {c.units}/s | "
            f"speedup {c.speedup:5.2f}x | "
            f"alloc {c.baseline_alloc_bytes:>10} B -> "
            f"{c.workspace_alloc_bytes:>4} B "
            f"({c.alloc_reduction:9.0f}x) | "
            f"max dev {c.max_abs_dev:.1e}"
        )
    payload = profile_bench_payload(
        cells,
        profiler_rows,
        smoke=bool(args.smoke),
        cache_stats=recovery_cache_stats(),
        workspace_stats=pool_stats(),
    )
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.config import FrontEndConfig
    from repro.recovery.pdhg import PdhgSettings
    from repro.runtime.executors import executor_from_workers
    from repro.stream.driver import StreamScenario, run_stream_scenario

    config = FrontEndConfig(
        window_len=args.window,
        n_measurements=args.measurements,
        lowres_bits=args.lowres_bits,
        solver=PdhgSettings(max_iter=args.max_iter),
        backend=_backend_settings(args),
    )
    scenario = StreamScenario(
        patients=args.patients,
        duration_s=args.duration,
        config=config,
        method=args.method,
        chunk_size=args.chunk,
        erasure_rate=args.erasure_rate,
        bit_error_rate=args.bit_error_rate,
        seed=args.seed,
        queue_capacity=args.queue_capacity,
        shed_policy=args.policy,
        reorder_depth=args.reorder_depth,
        poll_every=args.poll_every,
    )
    print(
        f"streaming {scenario.patients} patients x {scenario.duration_s:g} s "
        f"(erasure {scenario.erasure_rate:.0%}, BER {scenario.bit_error_rate:g}, "
        f"chunk {scenario.chunk_size})"
    )
    final = run_stream_scenario(
        scenario,
        executor=executor_from_workers(args.workers),
        on_snapshot=lambda snap: print(snap.summary_line()),
    )
    print(final.summary_line())
    per_patient_prd = ", ".join(
        f"{s.patient_id}: "
        + (
            f"{s.rolling_prd_percent:.2f}%"
            if s.rolling_prd_percent is not None
            else "-"
        )
        for s in final.per_session
    )
    print(f"rolling PRD by patient: {per_patient_prd}")
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(final.to_json() + "\n")
        print(f"wrote {out}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json

    from repro.core.config import FrontEndConfig
    from repro.recovery.pdhg import PdhgSettings
    from repro.stream.loadgen import (
        PHASE_SCRIPTS,
        LoadScenario,
        run_loadtest,
    )

    config = FrontEndConfig(
        window_len=args.window,
        n_measurements=args.measurements,
        lowres_bits=args.lowres_bits,
        solver=PdhgSettings(max_iter=args.max_iter),
        backend=_backend_settings(args),
    )
    scenario = LoadScenario(
        patients=args.patients,
        duration_s=args.duration,
        config=config,
        method=args.method,
        chunk_size=args.chunk,
        seed=args.seed,
        queue_capacity=args.queue_capacity,
        shed_policy=args.policy,
        reorder_depth=args.reorder_depth,
        phases=PHASE_SCRIPTS[args.phases],
    )
    mode = (
        f"{args.shards} shards ({args.transport})"
        if args.shards > 1
        else "single-process"
    )
    print(
        f"loadtest: {scenario.patients} patients x {scenario.duration_s:g} s "
        f"[{args.phases}] against {mode}, policy {scenario.shed_policy}"
    )
    payload = run_loadtest(
        scenario,
        shards=args.shards,
        transport=args.transport,
        workers=args.workers,
        on_progress=print if args.verbose else None,
    )

    if args.compare_single and args.shards > 1:
        # The acceptance cross-check: the sharded runtime must recover
        # byte-identical output, and (given the cores) not run slower.
        baseline = run_loadtest(scenario, shards=1, workers=args.workers)
        payload["baseline_single"] = {
            "wall_s": baseline["wall_s"],
            "frames_per_sec": baseline["frames_per_sec"],
            "recovered_digest": baseline["recovered_digest"],
        }
        payload["identical_to_single"] = (
            payload["recovered_digest"] == baseline["recovered_digest"]
        )
        print(
            f"identity vs single-process: {payload['identical_to_single']} "
            f"(sharded {payload['frames_per_sec']:.1f} fr/s, "
            f"single {baseline['frames_per_sec']:.1f} fr/s)"
        )

    rate = payload["frames_per_sec"]
    rate_txt = f"{rate:.1f} frames/s" if rate is not None else "n/a"
    p99 = payload["latency_p99_s"]
    p99_txt = f"{1e3 * p99:.0f}ms" if p99 is not None else "-"
    print(
        f"completed {payload['windows_completed']} windows ({rate_txt}) | "
        f"p99 {p99_txt} | lost {payload['frames_lost']} "
        f"(drops {payload['queue_drops']} rejects {payload['queue_rejects']} "
        f"shed {payload['shed_frames']}) | "
        f"concealed {payload['concealed']}"
    )
    if payload["per_shard"]:
        balance = ", ".join(
            f"{name}: {stats['sessions']}s/{stats['windows_completed']}w"
            for name, stats in payload["per_shard"].items()
        )
        print(f"per-shard balance: {balance}")
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.reprolint import (
        get_rules,
        render_json,
        render_sarif,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for rule in get_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    try:
        run = run_lint(
            [Path(p) for p in (args.paths or ["src"])],
            select=args.select or None,
            ignore=args.ignore or None,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=Path(args.cache_dir) if args.cache_dir else None,
            changed_base=args.changed,
        )
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    render = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }[args.format]
    report = render(run.findings)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n")
        print(f"wrote {out}")
    else:
        print(report)
    print(run.summary_line(), file=sys.stderr)
    if run.findings:
        return 1 if args.strict else 0
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report, write_report

    results_dir = Path(args.results)
    if args.output:
        out = write_report(results_dir, Path(args.output))
    else:
        out = write_report(results_dir)
    _, present, expected = build_report(results_dir)
    print(f"wrote {out} ({present}/{expected} artifacts present)")
    return 0 if present == expected or not args.strict else 1


def build_parser() -> argparse.ArgumentParser:
    """The full CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid compressed-sensing ECG front-end (DATE 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="write synthetic records as WFDB files")
    p.add_argument("--output", "-o", default="./records", help="output directory")
    p.add_argument("--records", nargs="*", help="record names (default: first N)")
    p.add_argument("--count", type=int, default=4, help="how many records")
    p.add_argument("--duration", type=float, default=60.0, help="seconds per record")
    p.add_argument("--clean", action="store_true", help="disable the noise model")
    p.add_argument("--two-lead", action="store_true",
                   help="write 2-signal records (MLII + V5), like real MIT-BIH")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("compress", help="compress + reconstruct one record")
    p.add_argument("--record", default="100", help="synthetic record name")
    p.add_argument("--wfdb", help="path to a WFDB .hea file (overrides --record)")
    p.add_argument("--method", choices=method_names(), default="hybrid")
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--measurements", "-m", type=int, default=96)
    p.add_argument("--lowres-bits", type=int, default=7)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--max-windows", type=int, default=4)
    p.add_argument("--max-iter", type=int, default=3000)
    _add_workers_option(p, default=1)
    _add_precision_option(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser(
        "bench",
        help="timed CR sweep through the execution engine; writes "
             "BENCH_sweep.json + BENCH_solvers.json + BENCH_encode.json",
    )
    p.add_argument("--records", nargs="*", help="record names to sweep")
    p.add_argument("--crs", nargs="*", type=float, metavar="CR",
                   help="CS-channel CR values in percent")
    _add_workers_option(p, default=0)
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--lowres-bits", type=int, default=7)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--max-windows", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=3000)
    p.add_argument("--compare-serial", action="store_true",
                   help="also time the serial executor and record the speedup")
    p.add_argument("--smoke", action="store_true",
                   help="small fixed 2-record sweep with serial comparison "
                        "(the `make bench-smoke` configuration)")
    p.add_argument("--output", "-o", default="benchmarks/results/BENCH_sweep.json",
                   help="where to write the machine-readable result")
    p.add_argument("--solvers-output",
                   default="benchmarks/results/BENCH_solvers.json",
                   help="where to write the solver microbenchmark result")
    p.add_argument("--encode-output",
                   default="benchmarks/results/BENCH_encode.json",
                   help="where to write the encoder microbenchmark result")
    p.add_argument("--encode-only", action="store_true",
                   help="run only the encoder/synthesis microbenchmark "
                        "(the `make bench-encode-smoke` configuration)")
    p.add_argument("--bsbl-output",
                   default="benchmarks/results/BENCH_bsbl.json",
                   help="where to write the Bayesian-family comparison")
    p.add_argument("--bsbl-only", action="store_true",
                   help="run only the Bayesian-family comparison "
                        "(the `make bench-bsbl-smoke` configuration)")
    p.add_argument("--cache-size", type=int, default=None,
                   help="resize the process problem/operator LRU cache "
                        "before benchmarking (entries beyond the new size "
                        "are evicted oldest-first)")
    _add_precision_option(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "profile",
        help="workspace/allocation profile of the hot kernels; writes "
             "BENCH_profile.json",
    )
    p.add_argument("--record", default="100", help="synthetic record name")
    p.add_argument("--cr", type=float, default=50.0,
                   help="CS-channel CR in percent for the solver kernels")
    p.add_argument("--window", type=int, default=256)
    p.add_argument("--windows", type=int, default=None,
                   help="windows per solve stack (default 8, smoke 4)")
    p.add_argument("--repeats", type=int, default=None,
                   help="timed runs per arm (default 3, smoke 2)")
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--smoke", action="store_true",
                   help="small fixed configuration "
                        "(the `make profile-smoke` configuration)")
    p.add_argument("--cache-size", type=int, default=None,
                   help="resize the process problem/operator LRU cache "
                        "before profiling")
    p.add_argument("--output", "-o",
                   default="benchmarks/results/BENCH_profile.json",
                   help="where to write the machine-readable result")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "stream",
        help="online multi-patient streaming demo over a lossy link",
    )
    p.add_argument("--patients", type=int, default=4,
                   help="concurrent synthetic patient streams")
    p.add_argument("--duration", type=float, default=10.0,
                   help="seconds of signal per patient")
    p.add_argument("--method", choices=method_names(), default="hybrid")
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--measurements", "-m", type=int, default=96)
    p.add_argument("--lowres-bits", type=int, default=7)
    p.add_argument("--max-iter", type=int, default=3000)
    p.add_argument("--chunk", type=int, default=181,
                   help="samples per playback chunk (window-misaligned by "
                        "default to exercise the incremental framer)")
    p.add_argument("--erasure-rate", type=float, default=0.1,
                   help="per-frame packet erasure probability")
    p.add_argument("--bit-error-rate", type=float, default=0.0,
                   help="per-bit flip probability on surviving frames")
    p.add_argument("--seed", type=int, default=0, help="base channel seed")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="per-session ingress queue bound")
    p.add_argument("--policy", default="drop-oldest",
                   choices=("drop-oldest", "drop-newest", "shed-patient"),
                   help="ingress queue overflow policy (default: drop-oldest)")
    p.add_argument("--reorder-depth", type=int, default=4,
                   help="windows a frame may run ahead before a gap is "
                        "declared lost and concealed")
    p.add_argument("--poll-every", type=int, default=8,
                   help="gateway poll cadence, in playback chunks")
    _add_workers_option(p, default=1)
    _add_precision_option(p)
    p.add_argument("--output", "-o",
                   help="also write the final gateway snapshot as JSON")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser(
        "loadtest",
        help="deterministic gateway load test; writes BENCH_gateway.json",
    )
    p.add_argument("--patients", type=int, default=200,
                   help="interleaved synthetic patient streams (records "
                        "repeat beyond 48, each under its own identity)")
    p.add_argument("--duration", type=float, default=1.5,
                   help="seconds of signal per patient")
    p.add_argument("--method", choices=method_names(), default="hybrid")
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--measurements", "-m", type=int, default=96)
    p.add_argument("--lowres-bits", type=int, default=7)
    p.add_argument("--max-iter", type=int, default=3000)
    p.add_argument("--chunk", type=int, default=181,
                   help="samples per playback chunk")
    p.add_argument("--seed", type=int, default=0, help="base channel seed")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="per-session ingress queue bound")
    p.add_argument("--policy", default="drop-oldest",
                   choices=("drop-oldest", "drop-newest", "shed-patient"),
                   help="ingress queue overflow policy (default: drop-oldest)")
    p.add_argument("--reorder-depth", type=int, default=4)
    p.add_argument("--phases", default="nominal",
                   choices=("nominal", "stress"),
                   help="scripted load timeline: steady nominal traffic, or "
                        "nominal -> loss -> poll-starved overload")
    p.add_argument("--shards", type=int, default=1,
                   help="gateway shards (1 = single-process StreamGateway)")
    p.add_argument("--transport", default="inproc",
                   choices=("inproc", "wire"),
                   help="sharded ingress transport (wire = length-prefixed "
                        "byte framing; ignored for --shards 1)")
    p.add_argument("--compare-single", action="store_true",
                   help="with --shards > 1, also run single-process and "
                        "record throughput + bit-identity of the output")
    p.add_argument("--verbose", action="store_true",
                   help="print a snapshot line after every gateway poll")
    _add_workers_option(p, default=1)
    _add_precision_option(p)
    p.add_argument("--output", "-o",
                   default="benchmarks/results/BENCH_gateway.json",
                   help="where to write the machine-readable result")
    p.set_defaults(func=_cmd_loadtest)

    p = sub.add_parser("tradeoff", help="low-res channel design table")
    p.add_argument("--records", nargs="*", help="training/eval records")
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--min-bits", type=int, default=3)
    p.add_argument("--max-bits", type=int, default=10)
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("report", help="aggregate benchmark artifacts into REPORT.md")
    p.add_argument("--results", default="benchmarks/results",
                   help="directory holding the benchmark artifacts")
    p.add_argument("--output", "-o", help="report path (default: <results>/REPORT.md)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero unless every expected artifact exists")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("lint", help="run the reprolint static-analysis pass")
    p.add_argument("paths", nargs="*", help="files/directories (default: src)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="reporter (default: text)")
    p.add_argument("--output", "-o",
                   help="write the report to a file instead of stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any finding remains")
    p.add_argument("--select", nargs="*", metavar="RULE",
                   help="only run these rule ids (e.g. RL001 RL100)")
    p.add_argument("--ignore", nargs="*", metavar="RULE",
                   help="skip these rule ids")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes for the per-file pass "
                        "(1 = in-process, 0 = all CPUs)")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="REF",
                   help="report findings only in files changed vs REF "
                        "(default HEAD) plus untracked files; the "
                        "whole-program analysis still sees every file")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-hash result cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default .repro_cache)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the registered rules and exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("power", help="Section VI power comparison")
    p.add_argument("--m-normal", type=int, default=240)
    p.add_argument("--m-hybrid", type=int, default=96)
    p.add_argument("--window", type=int, default=512)
    p.add_argument("--lowres-bits", type=int, default=7)
    p.add_argument("--fs", type=float, default=360.0)
    p.set_defaults(func=_cmd_power)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
