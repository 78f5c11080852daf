"""Figure 4: throughput of CPU, GPU, Pvect and Ptree on the nine benchmarks.

For every benchmark of the suite the driver runs the CPU model, the GPU model
(256 threads) and the custom processor in both configurations (compiled with
the full compiler and measured on the verifying cycle-accurate simulator),
and reports effective operations/cycle — the exact quantity plotted in
Fig. 4 of the paper.  All four platforms are resolved by name through the
engine registry (:mod:`repro.platforms`) via
:func:`repro.experiments.platforms.run_suite`.

A second, optional pass repeats the two processor configurations with the
naive first-fit register-bank allocation (``conflict_aware_allocation=False``)
as an ablation of the compiler's conflict-minimizing allocation; the two
settings bracket the paper's reported numbers (see ``docs/architecture.md``
and the guard rails in ``benchmarks/test_bench_fig4.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..analysis.metrics import PlatformResult
from ..analysis.report import format_table
from ..compiler.scheduler import ScheduleOptions
from ..suite.registry import benchmark_names
from .platforms import DEFAULT_PLATFORMS, PLATFORM_PTREE, PLATFORM_PVECT, run_suite

__all__ = ["run", "main"]


def run(
    names: Optional[Iterable[str]] = None,
    include_naive_allocation: bool = False,
) -> Dict[str, Dict[str, PlatformResult]]:
    """Run the Fig. 4 grid and return ``{benchmark: {platform: result}}``.

    With ``include_naive_allocation`` the result dictionaries additionally
    contain ``"Pvect (naive alloc)"`` and ``"Ptree (naive alloc)"`` entries.
    """
    results = run_suite(names, DEFAULT_PLATFORMS)
    if include_naive_allocation:
        naive = ScheduleOptions(conflict_aware_allocation=False)
        naive_results = run_suite(names, (PLATFORM_PVECT, PLATFORM_PTREE), options=naive)
        for benchmark, by_platform in naive_results.items():
            for platform, result in by_platform.items():
                results[benchmark][f"{platform} (naive alloc)"] = result
    return results


def main(
    names: Optional[Iterable[str]] = None,
    include_naive_allocation: bool = True,
) -> str:
    """Render the Fig. 4 table (and the allocation ablation) as text."""
    names = list(names) if names is not None else benchmark_names()
    results = run(names, include_naive_allocation=include_naive_allocation)
    platforms: List[str] = list(next(iter(results.values())).keys())
    rows = []
    for benchmark in names:
        row: List[object] = [benchmark]
        for platform in platforms:
            row.append(results[benchmark][platform].ops_per_cycle)
        rows.append(row)
    table = format_table(
        ["benchmark"] + platforms,
        rows,
        title="Fig. 4 reproduction - throughput in operations/cycle",
    )
    peak_ptree = max(r[PLATFORM_PTREE].ops_per_cycle for r in results.values())
    footer = f"Ptree peak: {peak_ptree:.2f} ops/cycle (paper reports 11.6)"
    return table + "\n\n" + footer


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(main())
