#!/usr/bin/env python3
"""Design-space exploration of the SPN processor (an architect's workflow).

The paper fixes two design points (``Ptree``: 2 trees x 4 levels, ``Pvect``:
16 single PEs).  A hardware architect adopting this library would want to ask
broader questions before committing to RTL:

* how does throughput change with the PE-tree arrangement?
* how sensitive is it to the register-file geometry (banks / depth)?
* how much does the compiler's conflict-aware register allocation contribute?

This script answers those questions for one benchmark of the suite using the
same compiler and cycle-accurate simulator the headline experiments use.
The standard ablation grid additionally runs through the **parallel, cached
sweep runner** (:mod:`repro.experiments.sweeps`) — the first run fans out
over a process pool, repeated runs hit the on-disk cache under
``.cache/sweeps/`` — and the evidence-batch workload is evaluated with both
execution engines to show the vectorized tape's speedup.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.compiler import ScheduleOptions, compile_operation_list
from repro.experiments import sweeps
from repro.processor import ProcessorConfig
from repro.suite import benchmark_operation_list, benchmark_tape
from repro.spn.generate import random_evidence

BENCHMARK = "KDDCup2k"


def measure(config: ProcessorConfig, options: ScheduleOptions | None = None) -> float:
    """Compile the benchmark for ``config`` and return verified ops/cycle."""
    ops = benchmark_operation_list(BENCHMARK)
    kernel = compile_operation_list(ops, config, options)
    return kernel.run(None).ops_per_cycle


def arrangement_sweep() -> str:
    rows = []
    for n_trees, n_levels in ((16, 1), (8, 2), (4, 3), (2, 4)):
        config = ProcessorConfig(
            name=f"{n_trees}x{n_levels}", n_trees=n_trees, n_levels=n_levels,
            n_banks=32, bank_depth=64,
        )
        rows.append((f"{n_trees} trees x {n_levels} levels", config.n_pes,
                     measure(config)))
    return format_table(
        ["arrangement", "PEs", "ops/cycle"], rows,
        title=f"PE arrangement sweep on {BENCHMARK} (32 banks x 64 registers)",
    )


def register_file_sweep() -> str:
    rows = []
    for bank_depth in (32, 64, 128):
        config = ProcessorConfig(
            name=f"d{bank_depth}", n_trees=2, n_levels=4, n_banks=32,
            bank_depth=bank_depth,
        )
        options = ScheduleOptions(stream_rows=bank_depth // 2)
        rows.append((f"32 banks x {bank_depth} regs", measure(config, options)))
    return format_table(
        ["register file", "ops/cycle"], rows,
        title=f"Register-file depth sweep on {BENCHMARK} (Ptree arrangement)",
    )


def compiler_sweep() -> str:
    config = ProcessorConfig(name="Ptree", n_trees=2, n_levels=4, n_banks=32, bank_depth=64)
    rows = [
        ("conflict-aware allocation + packing", measure(config)),
        ("naive allocation", measure(config, ScheduleOptions(conflict_aware_allocation=False))),
        ("no subtree packing", measure(config, ScheduleOptions(pack_multiple_cones=False))),
    ]
    return format_table(
        ["compiler configuration", "ops/cycle"], rows,
        title=f"Compiler feature ablation on {BENCHMARK} (Ptree)",
    )


def parallel_sweep_demo() -> str:
    """Run the full ablation grid through the parallel, cached runner.

    Uses a fresh temporary cache so the first run always demonstrates the
    process-pool fan-out and the second run the cache hits — regardless of
    whatever the persistent ``.cache/sweeps/`` directory already holds.
    """
    points = sweeps.all_sweep_points(BENCHMARK)
    with tempfile.TemporaryDirectory(prefix="sweep-demo-") as tmp:
        cache_dir = Path(tmp) / "sweeps"
        start = time.perf_counter()
        results = sweeps.run_sweep(points, parallel=True, cache_dir=cache_dir)
        first = time.perf_counter() - start
        start = time.perf_counter()
        cached = sweeps.run_sweep(points, parallel=True, cache_dir=cache_dir)
        second = time.perf_counter() - start
    n_hits = sum(1 for r in cached if r.cached)
    lines = [
        f"Parallel sweep runner ({len(points)} design points on {BENCHMARK})",
        f"  first run : {first:6.2f} s ({sum(1 for r in results if r.cached)} cache hits)",
        f"  second run: {second:6.2f} s ({n_hits} cache hits; persistent runs "
        "cache under .cache/sweeps/)",
    ]
    return "\n".join(lines)


def engine_speedup_line() -> str:
    """Evaluate an evidence batch with both engines and report the speedup."""
    ops = benchmark_operation_list(BENCHMARK)
    n_vars = max((s.var for s in ops.inputs if s.kind == "indicator"), default=-1) + 1
    data = random_evidence(n_vars, observed_fraction=0.8, seed=0, n_samples=200)

    from repro.baselines import execute_baseline

    start = time.perf_counter()
    reference = execute_baseline(ops, data)
    t_reference = time.perf_counter() - start
    tape = benchmark_tape(BENCHMARK)
    tape.execute_batch(data)  # plan + warm the tape
    start = time.perf_counter()
    vectorized = tape.execute_batch(data)
    t_vectorized = time.perf_counter() - start
    assert np.allclose(vectorized, reference, rtol=1e-9, atol=0.0)
    return (
        f"Engine comparison on {BENCHMARK} ({ops.n_operations} ops, "
        f"{len(data)} rows): reference {t_reference * 1e3:.1f} ms, "
        f"vectorized {t_vectorized * 1e3:.1f} ms -> "
        f"{t_reference / t_vectorized:.1f}x speedup"
    )


def main() -> None:
    print(arrangement_sweep())
    print()
    print(register_file_sweep())
    print()
    print(compiler_sweep())
    print()
    print(parallel_sweep_demo())
    print()
    print(engine_speedup_line())


if __name__ == "__main__":
    main()
