import json
from pathlib import Path

import pytest

from e2ebench import cli
from e2ebench.metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent.parent


def test_unknown_workload_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--workload", "no_such_workload"])
    assert info.value.code == 2
    assert "no_such_workload" in capsys.readouterr().err


def test_run_prints_every_metric_and_passes(small_workloads, tmp_path,
                                            capsys):
    out = tmp_path / "result.json"
    status = cli.main(["run", "--workload", "volume_write", "--reps", "2",
                       "--json", str(out)])
    assert status == 0
    printed = capsys.readouterr().out
    for metric in END_TO_END:
        assert metric.name in printed and metric.unit in printed
    (result,) = json.loads(out.read_text())
    assert result["failed"] == 0 and result["attempted"] == 3 * 64
    assert result["timing"]["reps"] == 2
    assert set(result["env"]) >= {"commit", "python", "numpy", "nproc"}


def test_injected_model_mismatch_fails_the_run(small_workloads, monkeypatch,
                                               tmp_path):
    from repro.storage.volume import ReducedVolume

    real_read = ReducedVolume.read
    calls = {"n": 0}

    def corrupting_read(self, offset, size):
        calls["n"] += 1
        data = real_read(self, offset, size)
        return data[:-1] + b"\x00" if calls["n"] == 7 else data

    monkeypatch.setattr(ReducedVolume, "read", corrupting_read)
    out = tmp_path / "result.json"
    status = cli.main(["run", "--workload", "volume_read", "--reps", "1",
                       "--json", str(out)])
    assert status == 1
    (result,) = json.loads(out.read_text())
    assert result["failed"] > 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any("differ from the model" in line
               for line in result["problems"])


@pytest.mark.parametrize("trace, table", [(0, END_TO_END), (1, PER_LAYER)])
def test_bench_ends_with_the_contract_line(small_workloads, capsys, trace,
                                           table):
    status = cli.main(["bench", "--workload", "desc_fit", "--seed", "3",
                       "--seconds", "0.1", "--trace", str(trace)])
    assert status == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert list(line["metrics"]) == [metric.name for metric in table]
    for metric in table:
        assert line["metrics"][metric.name]["unit"] == metric.unit
        assert isinstance(line["metrics"][metric.name]["value"],
                          (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_driver_seeds_fold_onto_the_pinned_pool():
    bases = {cli.pooled_seed(seed) for seed in range(100)}
    assert len(bases) == cli.SEED_POOL
    pinned = cli.pinned_seed_range()
    assert all(base in pinned and base + cli.MAX_REPS in pinned
               for base in bases)
