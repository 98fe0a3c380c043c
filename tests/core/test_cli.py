"""Tests of the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["compress"])
        assert args.method == "hybrid"
        assert args.measurements == 96
        assert args.window == 512

    def test_power_args(self):
        args = build_parser().parse_args(
            ["power", "--m-normal", "176", "--m-hybrid", "16"]
        )
        assert args.m_normal == 176
        assert args.m_hybrid == 16


class TestSynthesize:
    def test_writes_wfdb_pairs(self, tmp_path, capsys):
        rc = main(
            [
                "synthesize",
                "--output", str(tmp_path),
                "--records", "100", "101",
                "--duration", "2",
            ]
        )
        assert rc == 0
        assert (tmp_path / "100.hea").exists()
        assert (tmp_path / "100.dat").exists()
        assert (tmp_path / "101.hea").exists()

    def test_written_files_load_back(self, tmp_path):
        from repro.signals.database import load_record
        from repro.signals.wfdb_io import read_record

        main(["synthesize", "-o", str(tmp_path), "--records", "103",
              "--duration", "2"])
        loaded = read_record(tmp_path / "103.hea")
        reference = load_record("103", duration_s=2.0)
        assert np.array_equal(loaded.adu, reference.adu)


class TestCompress:
    def test_hybrid_run(self, capsys):
        rc = main(
            [
                "compress", "--record", "100", "--duration", "5",
                "--window", "128", "-m", "48",
                "--max-windows", "1", "--max-iter", "400",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SNR" in out and "mean:" in out

    def test_normal_run(self, capsys):
        rc = main(
            [
                "compress", "--method", "normal", "--duration", "5",
                "--window", "128", "-m", "48",
                "--max-windows", "1", "--max-iter", "400",
            ]
        )
        assert rc == 0

    def test_wfdb_input(self, tmp_path, capsys):
        main(["synthesize", "-o", str(tmp_path), "--records", "100",
              "--duration", "5"])
        rc = main(
            [
                "compress", "--wfdb", str(tmp_path / "100.hea"),
                "--window", "128", "-m", "48",
                "--max-windows", "1", "--max-iter", "400",
            ]
        )
        assert rc == 0

    def test_bad_record_reports_error(self, capsys):
        rc = main(["compress", "--record", "999", "--duration", "5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class _Captured(Exception):
    """Stops a subcommand once it has handed over the config it built."""


class TestPrecisionOption:
    """``--precision`` reaches ``FrontEndConfig.backend``; ``--backend`` is gone."""

    @staticmethod
    def _argv(argv, precision):
        return argv if precision is None else argv + ["--precision", precision]

    @pytest.mark.parametrize("precision", [None, "float32"])
    def test_compress_threads_precision(self, monkeypatch, precision):
        import repro.core.pipeline as pipeline

        seen = {}

        def fake_run_record(record, config, **kwargs):
            seen["config"] = config
            raise _Captured

        monkeypatch.setattr(pipeline, "run_record", fake_run_record)
        with pytest.raises(_Captured):
            main(self._argv(["compress", "--duration", "2"], precision))
        assert seen["config"].backend.precision == (precision or "float64")

    @pytest.mark.parametrize("precision", [None, "float32"])
    def test_stream_threads_precision(self, monkeypatch, precision):
        import repro.stream.driver as driver

        seen = {}

        def fake_run_stream_scenario(scenario, **kwargs):
            seen["config"] = scenario.config
            raise _Captured

        monkeypatch.setattr(driver, "run_stream_scenario", fake_run_stream_scenario)
        with pytest.raises(_Captured):
            main(self._argv(["stream", "--patients", "1"], precision))
        assert seen["config"].backend.precision == (precision or "float64")

    @pytest.mark.parametrize("command", ["compress", "bench", "stream", "loadtest"])
    def test_backend_flag_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--backend", "numpy"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestTradeoffAndPower:
    def test_tradeoff_table(self, capsys):
        rc = main(
            [
                "tradeoff", "--min-bits", "6", "--max-bits", "7",
                "--duration", "5", "--records", "100",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overhead" in out

    def test_power_table(self, capsys):
        rc = main(["power"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2.50x" in out

    def test_power_custom_point(self, capsys):
        rc = main(["power", "--m-normal", "176", "--m-hybrid", "16"])
        assert rc == 0
        assert "11.0" in capsys.readouterr().out


class TestTwoLeadSynthesize:
    def test_writes_two_signal_record(self, tmp_path):
        import numpy as np

        from repro.cli import main
        from repro.signals.database import load_record_pair
        from repro.signals.wfdb_io import read_record

        rc = main(
            [
                "synthesize", "-o", str(tmp_path), "--records", "100",
                "--duration", "2", "--two-lead",
            ]
        )
        assert rc == 0
        mlii, v5 = load_record_pair("100", duration_s=2.0)
        assert np.array_equal(
            read_record(tmp_path / "100.hea", channel=0).adu, mlii.adu
        )
        assert np.array_equal(
            read_record(tmp_path / "100.hea", channel=1).adu, v5.adu
        )


class TestBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.workers == 0  # 0 = all CPUs
        assert args.smoke is False
        assert args.output.endswith("BENCH_sweep.json")

    def test_compress_workers_flag(self):
        args = build_parser().parse_args(["compress", "--workers", "4"])
        assert args.workers == 4

    def test_cache_size_knob(self):
        args = build_parser().parse_args(["bench"])
        assert args.cache_size is None  # default: leave the LRU alone
        args = build_parser().parse_args(["bench", "--cache-size", "4"])
        assert args.cache_size == 4


class TestProfileParser:
    def test_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.record == "100"
        assert args.cr == 50.0
        assert args.window == 256
        assert args.windows is None  # resolved from --smoke at run time
        assert args.repeats is None
        assert args.smoke is False
        assert args.cache_size is None
        assert args.output.endswith("BENCH_profile.json")

    def test_smoke_flag(self):
        args = build_parser().parse_args(["profile", "--smoke"])
        assert args.smoke is True

    def test_bench_writes_machine_readable_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_sweep.json"
        rc = main(
            [
                "bench",
                "--records", "100",
                "--crs", "75",
                "--max-windows", "1",
                "--duration", "5",
                "--window", "128",
                "--max-iter", "400",
                "--workers", "1",
                "--output", str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "repro-bench-sweep/v1"
        assert data["workers"] == 1
        assert data["windows_total"] == 2  # 1 record x 1 CR x 2 methods
        assert data["parallel"]["windows_per_sec"] > 0
        assert data["serial"] is None  # no --compare-serial
        assert {p["method"] for p in data["points"]} == {"hybrid", "normal"}

    def test_bench_compare_serial_records_speedup(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_sweep.json"
        rc = main(
            [
                "bench",
                "--records", "100",
                "--crs", "75",
                "--max-windows", "2",
                "--duration", "5",
                "--window", "128",
                "--max-iter", "400",
                "--workers", "2",
                "--compare-serial",
                "--output", str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["serial"]["wall_clock_s"] > 0
        assert data["speedup_windows_per_sec"] > 0
        assert data["results_equal_serial"] is True
        assert "speedup" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "power"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "2.50x" in result.stdout
