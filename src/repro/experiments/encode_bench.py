"""Encoder microbenchmark: batched encode engine vs the per-window loop.

``repro bench`` runs this alongside the solver microbenchmark and writes
the result as ``BENCH_encode.json``.  Two kernels are timed:

* **window encoding** — for each (method, CR) cell the same record
  windows run through the scalar reference
  (:meth:`~repro.core.frontend.HybridFrontEnd.process_record_loop`: one
  GEMV + one symbol-at-a-time Huffman pass per window) and the batch
  engine (:meth:`~repro.core.frontend.HybridFrontEnd.encode_windows`:
  one GEMM + the table-driven vectorized coder of
  :mod:`repro.coding.vectorized`).  Unlike the solver bench, agreement
  here is not a tolerance but an equality: the cell records whether the
  concatenated packet bytes match exactly (they must — see
  ``docs/encoding.md``);
* **signal synthesis** — the vectorized phase-domain integrators
  (:func:`~repro.signals.ecgsyn.synthesize_ecg` and the database's
  per-beat variant) against their per-sample scalar oracles
  (:func:`~repro.signals.ecgsyn.synthesize_loop`,
  :func:`~repro.signals.database.synthesize_with_beats_loop`), again
  with bit-identity recorded alongside samples/sec.

CI gates on ``min_encode_speedup`` (hybrid cells) ≥ 2x, byte identity,
and database-synthesis speedup ≥ 5x.  With extra ``backends`` the batch
engine additionally runs per :class:`~repro.backend.BackendSettings`;
those fast-path cells report their byte-identity *fraction* and worst
measurement-code delta against the scalar oracle (``docs/backends.md``)
and are excluded from the gated exact aggregates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.backend import BackendSettings
from repro.core.codebooks import CodebookKey, build_codebook
from repro.core.config import FrontEndConfig
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.signals.database import (
    _synthesize_with_beats,
    load_record,
    record_profile,
    synthesize_with_beats_loop,
)
from repro.signals.ecgsyn import synthesize_ecg, synthesize_loop

__all__ = [
    "EncodeBenchCell",
    "SynthBenchCell",
    "run_encode_bench",
    "run_synth_bench",
    "encode_bench_payload",
]

#: Front-end variants the encoder microbenchmark exercises.
BENCH_METHODS = ("hybrid", "normal")


@dataclass(frozen=True)
class EncodeBenchCell:
    """Timings and byte agreement for one (method, CR, backend) cell."""

    method: str
    cr_percent: float
    n_measurements: int
    n_windows: int
    loop_s: float
    batched_s: float
    bytes_identical: bool
    backend: BackendSettings = BackendSettings()
    #: Fraction of windows whose packet bytes match the scalar oracle
    #: exactly (1.0 on the exact path by contract).
    identical_fraction: float = 1.0
    #: Worst absolute measurement-code difference vs the scalar oracle
    #: (0 on the exact path by contract).
    max_code_delta: int = 0

    @property
    def loop_windows_per_sec(self) -> float:
        return self.n_windows / self.loop_s

    @property
    def batched_windows_per_sec(self) -> float:
        return self.n_windows / self.batched_s

    @property
    def speedup(self) -> float:
        """Batch-engine throughput over the per-window loop."""
        return self.loop_s / self.batched_s


@dataclass(frozen=True)
class SynthBenchCell:
    """Timings and bit agreement for one synthesis kernel."""

    kind: str
    n_samples: int
    loop_s: float
    vectorized_s: float
    identical: bool

    @property
    def loop_samples_per_sec(self) -> float:
        return self.n_samples / self.loop_s

    @property
    def vectorized_samples_per_sec(self) -> float:
        return self.n_samples / self.vectorized_s

    @property
    def speedup(self) -> float:
        """Vectorized-integrator throughput over the per-sample loop."""
        return self.loop_s / self.vectorized_s


def run_encode_bench(
    base_config: FrontEndConfig,
    cr_values: Sequence[float],
    *,
    record_name: str = "100",
    n_windows: int = 32,
    duration_s: float = 60.0,
    methods: Sequence[str] = BENCH_METHODS,
    backends: Sequence[BackendSettings] = (BackendSettings(),),
) -> List[EncodeBenchCell]:
    """Time scalar vs batched encoding over a (method, CR, backend) grid.

    One record's first ``n_windows`` windows are encoded at every CR by
    every front-end variant through both paths; the batch engine
    additionally runs once per entry of ``backends`` (default: exact
    only), every batch arm compared against the one scalar oracle run
    (whose timing the cells share).  Each cell records whole-run byte
    identity plus the per-window identity fraction and the worst
    measurement-code delta.  Cells come back method-major in input
    order.
    """
    record = load_record(record_name, duration_s=duration_s)
    cells: List[EncodeBenchCell] = []
    for method in methods:
        for cr in cr_values:
            config = base_config.for_cr(cr)
            if method == "hybrid":
                codebook = build_codebook(
                    CodebookKey(
                        lowres_bits=config.lowres_bits,
                        acquisition_bits=config.acquisition_bits,
                    )
                )
                frontend = HybridFrontEnd(config, codebook)
                # Build the encode LUTs outside the timed region (paid
                # once per codebook, like the solver bench's warmed
                # factorizations).
                codebook.tables
            else:
                frontend = NormalCsFrontEnd(config)

            start = time.perf_counter()
            loop_packets = frontend.process_record_loop(
                record, max_windows=n_windows
            )
            loop_s = time.perf_counter() - start

            for settings in backends:
                if settings == config.backend:
                    frontend_b = frontend
                else:
                    config_b = replace(config, backend=settings)
                    if method == "hybrid":
                        frontend_b = HybridFrontEnd(config_b, codebook)
                    else:
                        frontend_b = NormalCsFrontEnd(config_b)

                start = time.perf_counter()
                batched_packets = frontend_b.process_record(
                    record, max_windows=n_windows
                )
                batched_s = time.perf_counter() - start

                matches = sum(
                    lp.to_bytes() == bp.to_bytes()
                    for lp, bp in zip(loop_packets, batched_packets)
                )
                code_delta = max(
                    (
                        int(
                            np.max(
                                np.abs(
                                    np.asarray(bp.measurement_codes)
                                    - np.asarray(lp.measurement_codes)
                                )
                            )
                        )
                        for lp, bp in zip(loop_packets, batched_packets)
                    ),
                    default=0,
                )
                cells.append(
                    EncodeBenchCell(
                        method=method,
                        cr_percent=float(config.cs_cr_percent),
                        n_measurements=config.n_measurements,
                        n_windows=len(loop_packets),
                        loop_s=loop_s,
                        batched_s=batched_s,
                        bytes_identical=matches == len(loop_packets),
                        backend=settings,
                        identical_fraction=(
                            matches / len(loop_packets)
                            if loop_packets
                            else 1.0
                        ),
                        max_code_delta=code_delta,
                    )
                )
    return cells


def run_synth_bench(
    *,
    duration_s: float = 6.0,
    fs_hz: float = 360.0,
    database_records: Sequence[str] = ("100", "106"),
    database_duration_s: float = 4.0,
) -> List[SynthBenchCell]:
    """Time the vectorized synthesis kernels against their scalar oracles.

    Returns one ``ecgsyn`` cell (plain :func:`synthesize_ecg`) and one
    ``database`` cell (the per-beat variant summed over
    ``database_records``, both leads of each via MLII only is enough for
    throughput — one lead per record keeps the smoke run fast).
    """
    start = time.perf_counter()
    fast = synthesize_ecg(duration_s, fs_hz, seed=0)
    vec_s = time.perf_counter() - start
    start = time.perf_counter()
    slow = synthesize_loop(duration_s, fs_hz, seed=0)
    loop_s = time.perf_counter() - start
    cells = [
        SynthBenchCell(
            kind="ecgsyn",
            n_samples=fast.size,
            loop_s=loop_s,
            vectorized_s=vec_s,
            identical=bool(np.array_equal(fast, slow)),
        )
    ]

    total_samples = 0
    vec_total = 0.0
    loop_total = 0.0
    identical = True
    for name in database_records:
        profile = record_profile(name)
        start = time.perf_counter()
        fast_z, fast_ann = _synthesize_with_beats(
            profile, database_duration_s, fs_hz
        )
        vec_total += time.perf_counter() - start
        start = time.perf_counter()
        slow_z, slow_ann = synthesize_with_beats_loop(
            profile, database_duration_s, fs_hz
        )
        loop_total += time.perf_counter() - start
        total_samples += fast_z.size
        identical = identical and bool(
            np.array_equal(fast_z, slow_z) and fast_ann == slow_ann
        )
    cells.append(
        SynthBenchCell(
            kind="database",
            n_samples=total_samples,
            loop_s=loop_total,
            vectorized_s=vec_total,
            identical=identical,
        )
    )
    return cells


def encode_bench_payload(
    encode_cells: Sequence[EncodeBenchCell],
    synth_cells: Sequence[SynthBenchCell],
    *,
    smoke: bool,
) -> Dict[str, object]:
    """The ``BENCH_encode.json`` document for the two cell lists.

    The gated aggregates (``min_encode_speedup`` /
    ``all_bytes_identical``) cover the *exact* cells only; the fast
    path's byte-identity fraction and worst code delta are reported per
    label under ``by_backend``.
    """
    exact = [c for c in encode_cells if c.backend.is_exact]
    hybrid_speedups = [c.speedup for c in exact if c.method == "hybrid"]
    database_speedups = [
        c.speedup for c in synth_cells if c.kind == "database"
    ]
    by_backend: Dict[str, Dict[str, object]] = {}
    for c in encode_cells:
        group = by_backend.setdefault(
            c.backend.label,
            {
                "cells": 0,
                "min_speedup": None,
                "all_bytes_identical": True,
                "min_identical_fraction": None,
                "max_code_delta": 0,
            },
        )
        group["cells"] = int(group["cells"]) + 1
        if group["min_speedup"] is None or c.speedup < group["min_speedup"]:
            group["min_speedup"] = c.speedup
        group["all_bytes_identical"] = bool(
            group["all_bytes_identical"] and c.bytes_identical
        )
        if (
            group["min_identical_fraction"] is None
            or c.identical_fraction < group["min_identical_fraction"]
        ):
            group["min_identical_fraction"] = c.identical_fraction
        group["max_code_delta"] = max(
            int(group["max_code_delta"]), c.max_code_delta
        )
    return {
        "schema": "repro-bench-encode/v1",
        "smoke": bool(smoke),
        "cells": [
            {
                "method": c.method,
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
                "bytes_identical": c.bytes_identical,
                "identical_fraction": c.identical_fraction,
                "max_code_delta": c.max_code_delta,
            }
            for c in encode_cells
        ],
        "min_encode_speedup": (
            min(hybrid_speedups) if hybrid_speedups else None
        ),
        "all_bytes_identical": all(c.bytes_identical for c in exact),
        "by_backend": by_backend,
        "synth": {
            "cells": [
                {
                    "kind": c.kind,
                    "n_samples": c.n_samples,
                    "loop": {
                        "wall_clock_s": c.loop_s,
                        "samples_per_sec": c.loop_samples_per_sec,
                    },
                    "vectorized": {
                        "wall_clock_s": c.vectorized_s,
                        "samples_per_sec": c.vectorized_samples_per_sec,
                    },
                    "speedup": c.speedup,
                    "identical": c.identical,
                }
                for c in synth_cells
            ],
            "database_speedup": (
                min(database_speedups) if database_speedups else None
            ),
            "all_identical": all(c.identical for c in synth_cells),
        },
    }
