"""Structural tests for every experiment function, at tiny scale.

The benchmarks assert the *paper's shape* at full scale; these tests
assert the experiment code itself is sound (fields populated, units
sane, invariants hold) fast enough for the normal test run.
"""

import pytest

from repro.bench.experiments import (
    SSD_IOPS,
    a1_bin_balance,
    a1_thread_scaling,
    a2_prefix_truncation,
    a3_bin_buffer,
    a4_replacement,
    a6_inline_vs_background,
    a7_segment_sweep,
    a8_index_locking,
    a8_offload_policy,
    a9_restart,
    a10_read_path,
    e1_indexing,
    e2_dedup,
    e3_compression,
    e4_integration,
    e5_workflow,
)
from repro.bench.reporting import BarChart, Table
from repro.core.modes import IntegrationMode


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
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_barchart_scales_to_peak(self):
        chart = BarChart("c", width=10)
        chart.add_bar("big", 100.0)
        chart.add_bar("small", 10.0)
        rendered = chart.render()
        assert rendered.count("#") == 11  # 10 + 1 (floor of small)

    def test_barchart_empty(self):
        assert "no data" in BarChart("c").render()


class TestHeadlineExperiments:
    def test_e1_rows_populated(self):
        rows = e1_indexing(batch_sizes=(16, 64), n_entries=2048)
        assert [r.batch for r in rows] == [16, 64]
        for row in rows:
            assert row.cpu_seconds > 0 and row.gpu_seconds > 0
            assert row.cpu_advantage == pytest.approx(
                row.gpu_seconds / row.cpu_seconds)

    def test_e2_structure(self):
        results = e2_dedup(n_chunks=2048)
        assert set(results) == {"cpu_only", "gpu_assisted"}
        for report in results.values():
            assert report.chunks == 2048
            assert report.iops > SSD_IOPS  # dedup beats the SSD line

    def test_e3_rows(self):
        rows = e3_compression(ratios=(1.5, 3.0), n_chunks=2048)
        assert [r.comp_ratio for r in rows] == [1.5, 3.0]
        for row in rows:
            assert row.gpu_iops > row.cpu_iops > 0

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
        rows = a1_thread_scaling(thread_counts=(1, 4), n_chunks=2048)
        assert rows[1].iops > rows[0].iops * 3

    def test_a1_balance(self):
        balance = a1_bin_balance(prefix_bytes_options=(1,),
                                 n_entries=5000)
        assert 0 < balance[1] <= 1.0

    def test_a2_paper_numbers(self):
        rows = a2_prefix_truncation()
        by_prefix = {r.prefix_bytes: r for r in rows}
        assert by_prefix[0].memory_bytes == 16 * 1024**3
        assert by_prefix[2].saved_vs_full == 1024**3

    def test_a3_rows(self):
        rows = a3_bin_buffer(totals=(256, 4096), n_chunks=4096)
        assert rows[1].buffer_hit_fraction >= rows[0].buffer_hit_fraction

    def test_a4_policies_all_run(self):
        rows = a4_replacement(n_uniques=256, n_lookups=2000,
                              bin_capacity=4)
        assert {r.policy for r in rows} == {"random", "fifo", "lru"}
        assert all(0 <= r.hit_rate <= 1 for r in rows)

    def test_a6_endurance_gap(self):
        result = a6_inline_vs_background(n_chunks=4096)
        assert result.background_nand_bytes > result.inline_nand_bytes

    def test_a7_single_segment_lossless(self):
        rows = a7_segment_sweep(segment_counts=(1, 4), n_blocks=2)
        assert abs(rows[0].ratio_loss_vs_serial) < 1e-9

    def test_a8_locking(self):
        rows = a8_index_locking(n_chunks=2048)
        by_discipline = {r.discipline: r for r in rows}
        assert by_discipline["bins"].iops > by_discipline["global"].iops

    def test_a8_policy_latency(self):
        rows = a8_offload_policy(n_chunks=1024)
        by_policy = {r.policy: r for r in rows}
        assert (by_policy["always"].mean_latency_s
                > by_policy["saturation"].mean_latency_s)

    def test_a9_restart_loses_some_dedup(self):
        result = a9_restart(n_chunks=3000)
        assert result.restarted_dedup_ratio < result.baseline_dedup_ratio
        assert result.duplicates_missed > 0

    def test_a10_read_strategies(self):
        rows = a10_read_path(n_chunks=1024, n_reads=1024)
        assert {r.strategy for r in rows} == {"reduced", "raw"}
        for row in rows:
            assert row.iops > 0


class TestExtensionExperiments:
    def test_a11_rows(self):
        from repro.bench.experiments import a11_kernel_variants
        rows = a11_kernel_variants(batch_sizes=(64, 512),
                                   n_entries=8192)
        assert [r.batch for r in rows] == [64, 512]
        for row in rows:
            assert row.tiled_global_bytes <= row.simple_global_bytes

    def test_a13_rows(self):
        from repro.bench.experiments import a13_batch_sweep
        rows = a13_batch_sweep(batch_sizes=(64, 256), n_chunks=2048)
        assert len(rows) == 4  # 2 modes x 2 batch sizes
        assert all(r.iops > 0 for r in rows)

    def test_a14_rows(self):
        from repro.bench.experiments import a14_ftl_endurance
        rows = a14_ftl_endurance(blocks=16, pages_per_block=16,
                                 churn_rounds=4)
        by_strategy = {r.strategy: r for r in rows}
        assert (by_strategy["reduced"].nand_pages
                < by_strategy["raw"].nand_pages)

    def test_a15_rows(self):
        from repro.bench.experiments import a15_delta_reduction
        rows = a15_delta_reduction(n_chunks=60)
        by_stack = {r.stack: r for r in rows}
        assert (by_stack["dedup+delta+lz"].physical_bytes
                <= by_stack["dedup+lz"].physical_bytes)

    def test_a18_rows(self):
        from repro.bench.experiments import a18_cluster_skew
        rows = {r.assignment: r for r in a18_cluster_skew(n_chunks=1024)}
        assert list(rows) == ["range", "balanced", "rebalanced"]
        assert rows["range"].moved_bins == 0
        assert rows["range"].migration_s == 0.0
        # Both repairs improve on the static split; the greedy one gets
        # there moving fewer bytes than a from-scratch LPT assignment.
        assert rows["balanced"].imbalance <= rows["range"].imbalance
        assert rows["rebalanced"].imbalance <= rows["range"].imbalance
        assert 0 < rows["rebalanced"].moved_bytes \
            < rows["balanced"].moved_bytes
        assert 0 < rows["rebalanced"].migration_s \
            < rows["balanced"].migration_s

    def test_registry_complete(self):
        from repro.bench.experiments import registry
        names = set(registry())
        for expected in ("e1", "e2", "e3", "e4", "e5", "a9", "a13",
                         "a14", "a15", "a16", "a17", "a18"):
            assert expected in names
