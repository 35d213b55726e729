"""Structural tests for every experiment function, at tiny scale, and
for the experiment table's region rewriter.

The table's checks assert the *paper's shape* at the documented sizes
(``repro evaluate EXPERIMENTS.md``, a CI job); these tests assert the
experiment code itself is sound (fields populated, units sane,
invariants hold) fast enough for the normal test run.
"""

from pathlib import Path

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    INF,
    SSD_IOPS,
    Experiment,
    a1_bin_balance,
    a1_thread_scaling,
    a2_prefix_truncation,
    a3_bin_buffer,
    a4_replacement,
    a5_calibration,
    a6_inline_vs_background,
    a7_segment_sweep,
    a8_index_locking,
    a8_offload_policy,
    a9_restart,
    a10_read_path,
    a11_kernel_variants,
    a13_batch_sweep,
    a14_ftl_endurance,
    a15_delta_reduction,
    a16_tenant_mix,
    a17_cache_contention,
    e1_indexing,
    e2_dedup,
    e3_compression,
    e4_integration,
    e5_workflow,
    regenerate,
)
from repro.bench.reporting import Table
from repro.core.modes import IntegrationMode
from repro.errors import ConfigError, ReproError

CPU_ONLY, GPU_DEDUP, GPU_BOTH, GPU_COMP = (IntegrationMode.CPU_ONLY,
                                           IntegrationMode.GPU_DEDUP,
                                           IntegrationMode.GPU_BOTH,
                                           IntegrationMode.GPU_COMP)


class TestReporting:
    def test_table_renders_aligned(self):
        table = Table("t", ["a", "bb"])
        table.add_row(1, 2.5)
        table.add_row("xx", 100.25)
        lines = table.render().splitlines()
        assert lines[0] == "t"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len({len(line) for line in lines[2:]}) == 1

    def test_table_row_arity_checked(self):
        table = Table("t", ["a"])
        with pytest.raises(ConfigError):
            table.add_row(1, 2)


class TestHeadlineExperiments:
    def test_e1_rows_populated(self):
        seconds = e1_indexing(batch_sizes=(16, 64), n_entries=2048)
        assert list(seconds) == [16, 64]
        for sides in seconds.values():
            assert sides["cpu"] > 0 and sides["gpu"] > 0

    def test_e2_structure(self):
        results = e2_dedup(n_chunks=2048)
        assert set(results) == {CPU_ONLY, GPU_DEDUP}
        for report in results.values():
            assert report.chunks == 2048
            assert report.iops > SSD_IOPS  # dedup beats the SSD line

    def test_e3_rows(self):
        results = e3_compression(ratios=(1.5, 3.0), n_chunks=2048)
        assert list(results) == [1.5, 3.0]
        for reports in results.values():
            assert reports[GPU_COMP].iops > reports[CPU_ONLY].iops > 0

    def test_e4_all_modes_present(self):
        results = e4_integration(n_chunks=2048)
        assert set(results) == set(IntegrationMode.all_modes())

    def test_e5_counters_conserve(self):
        report = e5_workflow(n_chunks=2048)
        counters = report.counters
        terminal = (counters["gpu_hits"] + counters["buffer_hits"]
                    + counters["tree_hits"]
                    + counters.get("pending_hits", 0)
                    + counters.get("race_duplicates", 0)
                    + counters["uniques"])
        assert terminal == 2048


class TestAblations:
    def test_a1_scaling_rows(self):
        reports = a1_thread_scaling(thread_counts=(1, 4), n_chunks=2048)
        assert reports[4].iops > reports[1].iops * 3

    def test_a1_balance(self):
        balance = a1_bin_balance(prefix_bytes_options=(1,),
                                 n_entries=5000)
        assert 0 < balance[1] <= 1.0

    def test_a2_paper_numbers(self):
        result = a2_prefix_truncation(n_chunks=2000)
        by_prefix = result["paper"]
        assert by_prefix[0]["memory_bytes"] == 16 * 1024**3
        assert by_prefix[2]["saved_vs_full"] == 1024**3
        # The built index is measured at the prefix each front end uses.
        assert list(result["built"]) == [1, 2]
        assert 32 < result["built"][1] < result["built"][2]

    def test_a3_rows(self):
        reports = a3_bin_buffer(totals=(256, 4096), n_chunks=4096)
        share = {total: report.counters["buffer_hits"]
                 / report.duplicates_found
                 for total, report in reports.items()}
        assert share[4096] >= share[256]

    def test_a4_policies_all_run(self):
        indexes = a4_replacement(n_uniques=256, n_lookups=2000,
                                 bin_capacity=4)
        assert set(indexes) == {"random", "fifo", "lru"}
        assert all(0 <= index.hit_rate() <= 1 for index in indexes.values())

    def test_a5_each_pick_is_the_measured_argmax(self):
        results = a5_calibration(dummy_chunks=1024)
        assert list(results) == ["testbed", "weak_gpu", "big_cpu"]
        for result in results.values():
            assert set(result.iops_by_mode) == \
                set(IntegrationMode.all_modes())
            assert result.iops_by_mode[result.best_mode] == \
                max(result.iops_by_mode.values())

    def test_a6_endurance_gap(self):
        result = a6_inline_vs_background(n_chunks=4096)
        assert result["logical"] == 4096 * 4096
        assert result["background"] > result["inline"]

    def test_a7_single_segment_lossless(self):
        points = a7_segment_sweep(segment_counts=(1, 4), n_blocks=2)
        assert list(points) == [1, 4]
        assert abs(points[1]["ratio_loss"]) < 1e-9

    def test_a8_locking(self):
        reports = a8_index_locking(n_chunks=2048)
        assert reports["bins"].iops > reports["global"].iops

    def test_a8_policy_latency(self):
        reports = a8_offload_policy(n_chunks=1024)
        assert (reports["always"].mean_latency_s
                > reports["saturation"].mean_latency_s)

    def test_a9_restart_loses_some_dedup(self):
        engines = a9_restart(n_chunks=3000)
        baseline, restarted = engines["no restart"], engines["with restart"]
        assert (restarted.metadata.dedup_ratio()
                < baseline.metadata.dedup_ratio())
        assert restarted.counters["uniques"] > baseline.counters["uniques"]

    def test_a10_read_strategies(self):
        reports = a10_read_path(n_chunks=1024, n_reads=1024)
        assert list(reports) == ["reduced", "raw"]
        for report in reports.values():
            assert report.iops > 0
        # The raw store holds every chunk at full size: nothing to decode.
        assert reports["raw"].decompressed == 0
        assert reports["reduced"].decompressed > 0


class TestExtensionExperiments:
    def test_a11_rows(self):
        variants = a11_kernel_variants(batch_sizes=(64, 512),
                                       n_entries=8192)
        assert list(variants) == [64, 512]
        for launch in variants.values():
            assert launch["tiled_bytes"] <= launch["simple_bytes"]

    def test_a13_rows(self):
        reports = a13_batch_sweep(batch_sizes=(64, 256), n_chunks=2048)
        assert {mode: list(series) for mode, series in reports.items()} \
            == {GPU_COMP: [64, 256], GPU_BOTH: [64, 256]}
        assert all(report.iops > 0 for series in reports.values()
                   for report in series.values())

    def test_a14_rows(self):
        ftls = a14_ftl_endurance(blocks=16, pages_per_block=16,
                                 churn_rounds=4)
        assert (ftls["reduced"].nand_pages_written
                < ftls["raw"].nand_pages_written)

    def test_a15_rows(self):
        stacks = a15_delta_reduction(n_chunks=60)
        assert (stacks["dedup+delta+lz"]["physical_bytes"]
                <= stacks["dedup+lz"]["physical_bytes"])

    @pytest.mark.parametrize("run, swept", [
        (a16_tenant_mix, [0.25, 1.0, 4.0]),
        (a17_cache_contention, [48, 64, 96, 128, 256]),
    ], ids=["a16", "a17"])
    def test_tenancy_sweeps_keyed_and_bounded(self, run, swept):
        results = run(n_chunks=1024)
        assert list(results) == swept
        for reports in results.values():
            assert list(reports) == ["shared_lru", "prioritized"]
            for report in reports.values():
                assert 0 <= report.inline_hit_rate <= 1
                assert 0 <= report.recovery_fraction <= 1

    def test_registry_complete(self):
        assert list(EXPERIMENTS) == [
            "e1", "e2", "e3", "e4", "e5", "a1", "a1-balance", "a2", "a3",
            "a4", "a5", "a6", "a7", "a8-lock", "a8-policy", "a9", "a10",
            "a11", "a13", "a14", "a15", "a16", "a17"]


def fake_row(value=1.5, expect=(1.0, 2.0), run=None) -> Experiment:
    """A table row that runs no simulation."""
    return Experiment(
        "§0", "Z - fake row", run=run or (lambda: [value]),
        columns=(("value", lambda v: v),),
        checks=(("value in band", lambda rows: rows[0], expect),))


DOC = ("intro, 1.25 by hand\n<!-- repro:z -->\nstale 9.99\n"
       "<!-- /repro -->\noutro 3.5\n")


class TestRegions:
    def test_prose_outside_regions_is_untouched(self):
        text, passed = regenerate(DOC, {"z": fake_row()})
        body, _ok = fake_row().report()
        assert passed
        assert text == ("intro, 1.25 by hand\n<!-- repro:z -->\n```text\n"
                        f"{body}\n```\n<!-- /repro -->\noutro 3.5\n")

    def test_regenerating_generated_text_is_a_noop(self):
        text, _passed = regenerate(DOC, {"z": fake_row()})
        assert regenerate(text, {"z": fake_row()}) == (text, True)

    def test_hand_edited_number_is_restored(self):
        text, _passed = regenerate(DOC, {"z": fake_row()})
        edited = text.replace("1.50", "1.75")
        assert edited != text
        assert regenerate(edited, {"z": fake_row()})[0] == text

    def test_failed_check_fails_the_run(self):
        text, passed = regenerate(DOC, {"z": fake_row(expect=(2.0, 3.0))})
        assert not passed
        assert "FAIL value in band: 1.5 in [2, 3]" in text

    @pytest.mark.parametrize("keys, doc, message", [
        (("z", "y"), DOC, "rows without a region: ['y']"),
        ((), DOC, "regions without a row: ['z']"),
        (("z",), DOC + DOC, "regions repeated: ['z']"),
    ])
    def test_rows_and_regions_pair_one_to_one(self, keys, doc, message):
        def unrunnable():
            raise AssertionError("a row ran before the pairing was checked")

        with pytest.raises(ReproError) as raised:
            regenerate(doc, {key: fake_row(run=unrunnable) for key in keys})
        assert message in str(raised.value)

    def test_committed_document_pairs_with_the_table(self):
        doc = (Path(__file__).resolve().parents[1]
               / "EXPERIMENTS.md").read_text()
        _text, passed = regenerate(doc, {key: fake_row()
                                         for key in EXPERIMENTS})
        assert passed

    def test_check_kinds(self):
        row = Experiment(
            "§0", "Z", run=lambda: [1.0, 2.0, 2.0],
            columns=(("v", lambda v: v),),
            checks=(("non-decreasing", tuple, "<="),
                    ("increasing", tuple, "<"),
                    ("member", lambda rows: "gpu_comp",
                     frozenset({"gpu_comp"})),
                    ("exact", len, (3, 3)),
                    ("upper bound", max, (-INF, 1.5))))
        text, passed = row.report()
        assert not passed
        assert text.splitlines()[-5:] == [
            "ok   non-decreasing: 1 <= 2 <= 2",
            "FAIL increasing: 1 < 2 < 2",
            "ok   member: gpu_comp in {gpu_comp}",
            "ok   exact: 3 == 3",
            "FAIL upper bound: 2 <= 1.5",
        ]
