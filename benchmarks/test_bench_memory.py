"""Benchmark: memory-planned tape execution vs the dense slot matrix.

The source paper's thesis is that SPN inference is *memory-bound*: what
buys throughput is keeping the live operand set small and close, not
adding arithmetic.  :mod:`repro.spn.memplan` applies that lesson to the
software tape — liveness-based physical-slot reuse, lazy input encoding
and broadcast-constant operands shrink the per-block working set from
``n_slots`` rows to ``plan.n_physical`` rows — and
:func:`repro.experiments.sweeps.measure_tape_memory` measures the effect
on the largest suite profile:

* **peak slot-buffer memory** — gated at **>= 4x** reduction vs the dense
  ``(n_slots, n_rows)`` matrix of ``execute_slots`` (analytic bytes per
  row: ``8 * n_slots`` vs ``8 * n_physical``);
* **bit identity** — the planned root compared with the dense root
  (``array_equal``) on a 256-row prefix in both domains inside the
  measurement; any divergence raises before a number is reported;
* **throughput** — planned rows/s on an 8192-row batch, recorded (not
  gated).

Results land in the ``tape_memory`` section of ``BENCH_sweeps.json``
(merged via :func:`repro.experiments.sweeps.update_bench_json`, uploaded
by CI).
"""

from pathlib import Path

from repro.experiments.sweeps import measure_tape_memory, update_bench_json

#: Acceptance floor (see module docstring).
MIN_MEMORY_REDUCTION = 4.0

_STASH = {}


def _load_results():
    if "tape_memory" not in _STASH:
        _STASH["tape_memory"] = measure_tape_memory()
    return _STASH["tape_memory"]


def test_tape_memory_plan(benchmark, run_once):
    result = run_once(benchmark, _load_results)
    benchmark.extra_info.update(
        {
            "benchmark": result["benchmark"],
            "n_slots": result["n_slots"],
            "n_physical": result["n_physical"],
            "memory_reduction": round(result["memory_reduction"], 2),
            "throughput_planned_rps": round(result["throughput_planned_rps"]),
            "cpu_count": result["cpu_count"],
        }
    )
    # Gate 1: the working set shrinks >= 4x vs the dense slot matrix.
    assert result["memory_reduction"] >= MIN_MEMORY_REDUCTION
    assert result["peak_bytes_per_row_planned"] * MIN_MEMORY_REDUCTION <= (
        result["peak_bytes_per_row_legacy"]
    )
    # Gate 2: the planned root is bit-identical to the dense root.
    assert result["bit_identical"]


def test_bench_memory_artifact(benchmark, run_once):
    payload = run_once(
        benchmark,
        lambda: update_bench_json(
            Path("BENCH_sweeps.json"), tape_memory=_load_results()
        ),
    )
    assert Path("BENCH_sweeps.json").exists()
    section = payload["tape_memory"]
    assert section["memory_reduction"] >= MIN_MEMORY_REDUCTION
    assert section["bit_identical"]
