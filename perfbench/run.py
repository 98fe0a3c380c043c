"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced run, and the
spans are written to ``perfbench/out/``.  The line before it is a JSON
report: the environment, every metric with its sample count, and the
output checks.  See ``perfbench/README.md``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: BLAS threads, pinned before numpy is first imported.
BLAS_THREADS = 1
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import END_TO_END, PER_LAYER, SetupClock, WorkloadResult  # noqa: E402

WORKLOADS = {
    "paper-sweep": ("perfbench.paper_sweep", "PaperSweep"),
    "gateway-realtime": ("perfbench.gateway_realtime", "GatewayRealtime"),
    "node-encode": ("perfbench.node_encode", "NodeEncode"),
}

#: Set-ups per untraced run (this process plus fresh child processes);
#: ``setup_s`` is their median.  A workload may set its own
#: ``setup_repeats`` when one set-up costs a large share of a run.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print {'setup_s': ...} and exit (used for the repeats)",
    )
    return parser.parse_args(argv)


def load_workload(name: str, seed: int, seconds: float, clock: SetupClock):
    """Import the program and the workload, then run its set-up."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: no program sources at {src}")
    sys.path.insert(0, str(src))
    module_name, class_name = WORKLOADS[name]
    with clock.phase("import"):
        import numpy  # noqa: F401
        import repro.core  # noqa: F401  (imported first: it breaks an import cycle)

        module = importlib.import_module(module_name)
    workload = getattr(module, class_name)(seed, seconds)
    workload.setup(clock)
    return workload


def child_setup_s(args) -> float:
    """Set-up time of the same workload in a fresh process."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=150, check=True
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.show_config(mode="dicts")["Build Dependencies"][
            "blas"
        ]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "executor": "serial",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    clock = SetupClock()
    workload = load_workload(args.workload, args.seed, args.seconds, clock)
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]
    repeats = 1 if args.trace else getattr(workload, "setup_repeats", SETUP_REPEATS)
    # The child set-ups are handed to the timed phase, which runs them
    # between its segments where it can: the measured time then spans
    # more of the run, so a slow stretch of a shared machine weighs on
    # part of it rather than on all of it.
    between = [
        lambda: setups.append(child_setup_s(args)) for _ in range(repeats - 1)
    ]

    result = WorkloadResult()
    workload.run(result, between)
    workload.end_to_end(result)
    workload.check(result)

    if args.trace:
        from perfbench.spans import Tracer

        tracer = Tracer()
        overhead = workload.trace(tracer, result)
        for phase in ("import", "synth", "codebook", "link"):
            result.layers[f"setup.{phase}_s"] = clock.phases.get(phase, 0.0)
        result.layers["trace.overhead_frac"] = overhead
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.json")
        metrics = {
            name: {"value": result.layers.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        result.end_to_end["setup_s"] = (statistics.median(setups), len(setups))
        metrics = {
            name: {"value": result.end_to_end[name][0], "unit": unit}
            for name, unit in END_TO_END
        }

    units = dict(END_TO_END)
    failed = len(result.failures)
    attempted = max(result.attempted, failed, 1)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args),
        "end_to_end": {
            name: {"value": value, "unit": units[name], "samples": samples}
            for name, (value, samples) in result.end_to_end.items()
        },
        "setup_s_values": setups,
        "error_frac": failed / attempted,
        "checks": {
            "passed": not result.failures,
            "failures": list(result.failures.values())[:20],
        },
        "details": result.report,
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not result.failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
