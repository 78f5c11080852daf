"""Benchmark: cost and power of the static verification layer.

The static gates (artifact load, registry publish, ``check=True``
execution, serve-check) only earn their always-on placement if the proof
is near-free and actually catches miscompiles.
:func:`repro.experiments.sweeps.measure_static_analysis` quantifies both
over all nine suite profiles:

* **verify cost** — the structural proof (tape verifier + memory-plan
  verifier, exactly what the lifecycle gates run) timed against a fresh
  linearize → compile → plan of the same networks, gated at **<= 5%** of
  compile time; the advisory abstract interpretation is timed separately
  (``analyze_s``) and not gated;
* **mutation detection** — every applicable mutator of the seeded corpus
  (:mod:`repro.statics.mutate`) applied to every profile, gated at
  **100%** detection;
* **false positives** — unmutated profiles must all verify clean (gate:
  zero) and the abstract interpreter must prove all nine
  normalized-by-construction;
* **project lint** — :func:`repro.statics.lint.lint_paths` over the
  installed ``repro`` package, gated at zero findings (no suppression
  syntax exists).

Results land in the ``static_analysis`` section of ``BENCH_sweeps.json``
(merged via :func:`repro.experiments.sweeps.update_bench_json`, uploaded
by CI).
"""

from pathlib import Path

from repro.experiments.sweeps import measure_static_analysis, update_bench_json

#: Acceptance gates (see module docstring).
MAX_VERIFY_VS_COMPILE = 0.05
REQUIRED_DETECTION_RATE = 1.0
PROFILE_COUNT = 9

#: Median-by-ratio of three measurements: one descheduling blip during the
#: timed verify pass cannot sink the 5% gate, one lucky sample cannot hide
#: a real slowdown.  Detection counts are deterministic across runs.
_STASH = {}
_SAMPLES = 3


def _load_results():
    if "static_analysis" not in _STASH:
        runs = [measure_static_analysis() for _ in range(_SAMPLES)]
        runs.sort(key=lambda r: r["verify_vs_compile"])
        median = dict(runs[len(runs) // 2])
        median["verify_vs_compile_samples"] = [
            round(r["verify_vs_compile"], 4) for r in runs
        ]
        _STASH["static_analysis"] = median
    return _STASH["static_analysis"]


def test_static_analysis(benchmark, run_once):
    result = run_once(benchmark, _load_results)
    benchmark.extra_info.update(
        {
            "profiles": result["profiles"],
            "verify_vs_compile": round(result["verify_vs_compile"], 4),
            "analyze_s": round(result["analyze_s"], 4),
            "mutations_applied": result["mutations_applied"],
            "detection_rate": result["detection_rate"],
            "false_positives": result["false_positives"],
            "proved_normalized": result["proved_normalized"],
            "lint_findings": result["lint_findings"],
        }
    )
    # Gate 1: verifying all nine tapes costs <= 5% of compiling them.
    assert result["verify_vs_compile"] <= MAX_VERIFY_VS_COMPILE
    # Gate 2: the seeded mutation corpus is caught in full.
    assert result["mutations_applied"] > 0
    assert result["detection_rate"] == REQUIRED_DETECTION_RATE
    assert result["mutations_detected"] == result["mutations_applied"]
    # Gate 3: no false positives, and normalization proved for all nine.
    assert result["false_positives"] == 0
    assert result["proved_normalized"] == PROFILE_COUNT == result["profiles"]
    # Gate 4: the project's own source lints clean, unsuppressed.
    assert result["lint_findings"] == 0


def test_bench_statics_artifact(benchmark, run_once):
    payload = run_once(
        benchmark,
        lambda: update_bench_json(
            Path("BENCH_sweeps.json"), static_analysis=_load_results()
        ),
    )
    assert Path("BENCH_sweeps.json").exists()
    section = payload["static_analysis"]
    assert section["verify_vs_compile"] <= MAX_VERIFY_VS_COMPILE
    assert section["detection_rate"] == REQUIRED_DETECTION_RATE
    assert section["false_positives"] == 0
    assert section["lint_findings"] == 0
