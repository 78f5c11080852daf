"""Integration tests for the experiment drivers (fast subsets only)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.metrics import PlatformResult
from repro.experiments import claims, fig2c, fig4, sweeps, table1
from repro.experiments.platforms import (
    DEFAULT_PLATFORMS,
    PLATFORM_CPU,
    PLATFORM_GPU,
    PLATFORM_PTREE,
    PLATFORM_PVECT,
    run_benchmark,
    run_platform,
)
from repro.suite.registry import benchmark_operation_list

_FAST = ["Banknote"]


class TestPlatforms:
    def test_run_benchmark_returns_all_platforms(self):
        results = run_benchmark("Banknote")
        assert set(results) == set(DEFAULT_PLATFORMS)
        for platform, result in results.items():
            assert isinstance(result, PlatformResult)
            assert result.benchmark == "Banknote"
            assert result.ops_per_cycle > 0

    def test_unknown_platform_rejected(self):
        ops = benchmark_operation_list("Banknote")
        with pytest.raises(ValueError):
            run_platform("TPU", ops)

    def test_processor_beats_baselines(self):
        results = run_benchmark("Banknote")
        assert results[PLATFORM_PTREE].ops_per_cycle > 5 * results[PLATFORM_CPU].ops_per_cycle
        assert results[PLATFORM_PTREE].ops_per_cycle > 5 * results[PLATFORM_GPU].ops_per_cycle

    def test_cpu_and_gpu_are_comparable(self):
        """The paper's point: an optimized GPU kernel is in the CPU's ballpark."""
        results = run_benchmark("Banknote")
        ratio = results[PLATFORM_GPU].ops_per_cycle / results[PLATFORM_CPU].ops_per_cycle
        assert 0.2 < ratio < 5.0


class TestTable1:
    def test_rows_cover_four_platforms(self):
        entries = table1.rows()
        assert [r[0] for r in entries] == ["CPU", "GPU", "Ours (Pvect)", "Ours (Ptree)"]

    def test_processor_rows_match_config(self):
        entries = {r[0]: r for r in table1.rows()}
        assert entries["Ours (Ptree)"][1] == "30 PEs"
        assert entries["Ours (Pvect)"][1] == "16 PEs"
        assert entries["Ours (Ptree)"][3] == "32"

    def test_main_renders(self):
        text = table1.main()
        assert "Table I" in text and "Ptree" in text

    def test_module_cli_runs_its_module_once(self):
        # The package loads its submodules lazily, so runpy does not find
        # ``repro.experiments.table1`` already imported and run it twice.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.experiments.table1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("Table I") == 1


class TestFig2c:
    def test_series_structure(self):
        series = fig2c.run(benchmark="Banknote", thread_counts=(1, 32))
        assert set(series) == {"CPU", "GPU 1 thr", "GPU 32 thr"}

    def test_gpu_scaling_is_sublinear(self):
        series = fig2c.run(benchmark="Banknote", thread_counts=(1, 256))
        scaling = series["GPU 256 thr"] / series["GPU 1 thr"]
        assert 1.0 < scaling < 32.0

    def test_main_mentions_paper_value(self):
        text = fig2c.main(benchmark="Banknote")
        assert "4.1x" in text


class TestFig4:
    def test_run_on_fast_subset(self):
        results = fig4.run(names=_FAST)
        assert set(results) == set(_FAST)
        platforms = results["Banknote"]
        assert set(platforms) == set(DEFAULT_PLATFORMS)
        assert platforms[PLATFORM_PTREE].ops_per_cycle > platforms[PLATFORM_CPU].ops_per_cycle

    def test_naive_allocation_variants_included(self):
        results = fig4.run(names=_FAST, include_naive_allocation=True)
        assert "Ptree (naive alloc)" in results["Banknote"]
        assert (
            results["Banknote"]["Ptree (naive alloc)"].ops_per_cycle
            <= results["Banknote"][PLATFORM_PTREE].ops_per_cycle
        )

    def test_main_renders_table(self):
        text = fig4.main(names=_FAST, include_naive_allocation=False)
        assert "Fig. 4" in text and "Banknote" in text


class TestClaims:
    def test_derive_claims_from_subset(self):
        derived = claims.derive_claims(names=_FAST)
        names = [c.name for c in derived]
        assert "Ptree peak ops/cycle" in names
        by_name = {c.name: c for c in derived}
        assert by_name["Ptree speedup over CPU (geomean)"].measured_value > 5.0
        assert by_name["CPU peak ops/cycle"].paper_value == pytest.approx(0.55)

    def test_claim_ratio(self):
        claim = claims.Claim("x", paper_value=2.0, measured_value=3.0)
        assert claim.ratio == pytest.approx(1.5)


class TestSweeps:
    def test_tree_arrangement_sweep(self):
        results = sweeps.tree_arrangement_sweep("Banknote")
        assert len(results) == len(sweeps.TREE_ARRANGEMENTS)
        assert all(v > 0 for v in results.values())

    def test_allocation_ablation(self):
        results = sweeps.allocation_ablation("Banknote")
        assert results["naive"]["Pvect"] <= results["conflict-aware"]["Pvect"] + 1e-9

    def test_packing_ablation(self):
        results = sweeps.packing_ablation("Banknote")
        assert results["packing on"] >= results["packing off"]

    def test_gpu_bank_allocation_ablation(self):
        results = sweeps.gpu_bank_allocation_ablation("Banknote")
        assert set(results) == {"graph coloring", "interleaved"}
