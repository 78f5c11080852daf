"""Benchmark suite used by the paper's evaluation (Fig. 4)."""

from .registry import (
    BENCHMARKS,
    BenchmarkProfile,
    benchmark_n_vars,
    benchmark_names,
    benchmark_operation_list,
    benchmark_tape,
    build_benchmark,
    get_profile,
    suite_summary,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkProfile",
    "benchmark_n_vars",
    "benchmark_names",
    "benchmark_operation_list",
    "benchmark_tape",
    "build_benchmark",
    "get_profile",
    "suite_summary",
]
