"""Benchmark: observability overhead — disabled, enabled, and profiled.

Instrumentation that taxes the hot path gets turned off; this gate keeps
the observability subsystem honest about its own cost.
:func:`repro.experiments.sweeps.measure_observability_overhead` runs the
same planned-executor workload (2048 log-likelihood rows through the
default sweep benchmark's tape) in three regimes:

* **disabled** (``configure(metrics=False, tracing=False)``) — the
  instrumented ``execute_batch`` vs the raw planned kernel loop, gated at
  **<= 2%** overhead: with the switches off, the hooks must cost no more
  than one contextvar read per batch;
* **enabled** (metrics + request tracing on) — ``session.run`` with span
  recording vs the same call with observability off, gated at **<= 10%**:
  spans amortize per pass, never per kernel;
* **profiled** (a per-call :class:`~repro.observability.TapeProfiler`) —
  exempt from the overhead gates by design (per-kernel clocks are the one
  genuinely expensive instrument, and they are per-call opt-in only), but
  the per-kernel elapsed must account for **>= 90%** of the profiled pass
  wall time, or the "top kernels" table would be attributing fiction.
  A profiled pass runs NumPy's per-kernel loop, so ``overhead_profiled``
  is taken against a NumPy raw arm (``t_raw_numpy_loop_s``), not the
  native one the disabled gate uses: it reports what profiling costs, not
  the gap between the two executors.

Every regime's output is asserted bit-identical to the raw loop inside
the measurement.  Results land in the ``observability`` section of
``BENCH_sweeps.json`` (merged via
:func:`repro.experiments.sweeps.update_bench_json`, uploaded by CI).
"""

import concurrent.futures
import multiprocessing
from pathlib import Path

from repro.experiments.sweeps import (
    measure_observability_overhead,
    update_bench_json,
)

#: Acceptance ceilings/floors (see module docstring).
MAX_OVERHEAD_DISABLED = 1.02
MAX_OVERHEAD_ENABLED = 1.10
MIN_PROFILE_COVERAGE = 0.90

#: Three independent measurements per gated metric, all recorded
#: alongside — each taken in a freshly *spawned* process, because the
#: heap/allocator state other benchmark files leave behind in the shared
#: pytest process measurably skews the overhead ratios (the same
#: measurement that reads 1.01 in a clean process reads 1.04+ after the
#: memory benchmarks have churned gigabytes through the heap).  The
#: overhead gates take the best measurement: noise can only inflate a
#: whole sample, while a real instrumentation regression inflates every
#: one, including the best.  Profile coverage keeps the median (its
#: noise is two-sided).
_STASH = {}
_SAMPLES = 3


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _measure_in_fresh_process():
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as pool:
        return pool.submit(measure_observability_overhead).result()


def _load_results():
    if "observability" not in _STASH:
        runs = [_measure_in_fresh_process() for _ in range(_SAMPLES)]
        result = dict(runs[0])
        for key in ("overhead_disabled", "overhead_enabled"):
            result[key] = min(run[key] for run in runs)
            result[f"{key}_samples"] = [round(run[key], 4) for run in runs]
        result["profile_coverage"] = _median(
            run["profile_coverage"] for run in runs
        )
        result["profile_coverage_samples"] = [
            round(run["profile_coverage"], 4) for run in runs
        ]
        result["bit_identical"] = all(run["bit_identical"] for run in runs)
        _STASH["observability"] = result
    return _STASH["observability"]


def test_observability_overhead(benchmark, run_once):
    result = run_once(benchmark, _load_results)
    benchmark.extra_info.update(
        {
            "overhead_disabled": round(result["overhead_disabled"], 4),
            "overhead_enabled": round(result["overhead_enabled"], 4),
            "overhead_profiled": round(result["overhead_profiled"], 4),
            "profile_coverage": round(result["profile_coverage"], 4),
            "t_raw_loop_ms": round(result["t_raw_loop_s"] * 1e3, 3),
            "t_raw_numpy_loop_ms": round(result["t_raw_numpy_loop_s"] * 1e3, 3),
            "n_kernels": result["n_kernels"],
            "cpu_count": result["cpu_count"],
        }
    )
    # Gate 1: with observability off, the instrumented executor is free.
    assert result["overhead_disabled"] <= MAX_OVERHEAD_DISABLED
    # Gate 2: metrics + tracing stay within the enabled budget.
    assert result["overhead_enabled"] <= MAX_OVERHEAD_ENABLED
    # Gate 3: the per-kernel profile explains the pass it profiled.
    assert result["profile_coverage"] >= MIN_PROFILE_COVERAGE
    # Instrumented execution never changes a value.
    assert result["bit_identical"]


def test_bench_observability_artifact(benchmark, run_once):
    payload = run_once(
        benchmark,
        lambda: update_bench_json(
            Path("BENCH_sweeps.json"), observability=_load_results()
        ),
    )
    assert Path("BENCH_sweeps.json").exists()
    section = payload["observability"]
    assert section["overhead_disabled"] <= MAX_OVERHEAD_DISABLED
    assert section["overhead_enabled"] <= MAX_OVERHEAD_ENABLED
    assert section["profile_coverage"] >= MIN_PROFILE_COVERAGE
