"""Tests for the command-line interface."""

from pathlib import Path

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


@pytest.mark.parametrize("argv", [
    ["run", "--chunks", "0"],
    ["run", "--chunks", "-5"],
    ["run", "--cpu-cores", "0"],
    ["run", "--dedup-ratio", "0.5"],
    ["run", "--comp-ratio", "0"],
    ["calibrate", "--chunks", "0"],
    ["trace", "--chunks", "0", "--format", "summary"],
    ["run", "--tenants", "examples/tenant_mix.json", "--tenancy-cache", "0"],
], ids=" ".join)
def test_library_error_is_an_error_line_not_a_traceback(argv, capsys,
                                                         monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
        from repro.bench.experiments import EXPERIMENTS

        code = main(["bench", "list"])
        out = capsys.readouterr().out.split()
        assert code == 0
        assert out == [*EXPERIMENTS]
        for expected in ("e1", "e4", "a9", "a14", "a18"):
            assert expected in out

    def test_plane_run_writes_no_file(self, tmp_path, monkeypatch,
                                      capsys):
        """No ``bench`` command writes a file: an experiment run in an
        empty working directory leaves it empty."""
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "a2"]) == 0
        assert "=== a2" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["zz", "dedup", "all"])
    def test_unknown_experiment(self, name, capsys):
        code = main(["bench", name])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown experiment" in err

    def test_no_bench_flags(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["bench", "--help"])
        assert raised.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--quick", "--profile", "--json"):
            assert flag not in out

    def test_run_dataclass_result(self, capsys):
        code = main(["bench", "a9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok   duplicates the lost index missed" in out

    def test_run_list_result(self, capsys):
        code = main(["bench", "a14"])
        out = capsys.readouterr().out
        assert code == 0
        assert "write amp" in out

    def test_run_dict_result(self, capsys):
        code = main(["bench", "a1-balance"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok   balance of 256 bins" in out

    def test_bench_prints_the_documented_region(self, capsys):
        """``repro bench a15`` prints what ``repro evaluate`` wrote into
        EXPERIMENTS.md: one id, one size, one table."""
        import re
        from pathlib import Path

        doc = (Path(__file__).resolve().parents[1]
               / "EXPERIMENTS.md").read_text()
        region = re.search(r"<!-- repro:a15 -->\n```text\n(.*?)\n```\n",
                           doc, re.S).group(1)
        code = main(["bench", "a15"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.split("\n", 1)[1] == region + "\n"

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        from repro.bench.experiments import EXPERIMENTS, Experiment

        monkeypatch.setitem(EXPERIMENTS, "zz", Experiment(
            "§0", "Z", run=lambda: [1], columns=(("v", lambda v: v),),
            checks=(("one row", len, (2, 2)),)))
        assert main(["bench", "zz"]) == 1
        assert "FAIL one row: 1 == 2" in capsys.readouterr().out


class TestEvaluateCommand:
    @pytest.mark.parametrize("option", ["--chunks", "--dedup-ratio",
                                        "--comp-ratio", "--seed"])
    def test_workload_options_are_usage_errors(self, option, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["evaluate", "EXPERIMENTS.md", option, "7"])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rewrites_the_document(self, tmp_path, capsys, monkeypatch):
        from repro.bench import experiments

        monkeypatch.setattr(experiments, "EXPERIMENTS", {
            "z": experiments.Experiment(
                "§0", "Z - fake row", run=lambda: [1.5],
                columns=(("value", lambda v: v),),
                checks=(("value", lambda rows: rows[0], (1.0, 2.0)),))})
        doc = tmp_path / "doc.md"
        doc.write_text("prose\n<!-- repro:z -->\n<!-- /repro -->\n")
        assert main(["evaluate", str(doc)]) == 0
        assert doc.read_text().endswith(
            "ok   value: 1.5 in [1, 2]\n```\n<!-- /repro -->\n")
        assert "Z - fake row" in capsys.readouterr().out

    def test_unpaired_region_fails_before_running(self, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text("<!-- repro:zz -->\n<!-- /repro -->\n")
        assert main(["evaluate", str(doc)]) == 1
        assert "regions without a row: ['zz']" in capsys.readouterr().err
        assert doc.read_text() == "<!-- repro:zz -->\n<!-- /repro -->\n"

    def test_missing_document(self, tmp_path, capsys):
        assert main(["evaluate", str(tmp_path / "absent.md")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_document(self, tmp_path, capsys, monkeypatch):
        from pathlib import Path

        from repro.bench import experiments

        monkeypatch.setattr(experiments, "EXPERIMENTS", {
            "z": experiments.Experiment(
                "§0", "Z", run=lambda: [1],
                columns=(("v", lambda v: v),), checks=())})

        def refuse(self, text):
            raise OSError(f"read-only: {self}")

        doc = tmp_path / "doc.md"
        doc.write_text("<!-- repro:z -->\n<!-- /repro -->\n")
        monkeypatch.setattr(Path, "write_text", refuse)
        assert main(["evaluate", str(doc)]) == 2
        assert "error: read-only" in capsys.readouterr().err
