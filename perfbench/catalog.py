"""What the benchmark measures: workloads, metrics and the layer -> metric map.

``BENCHMARK.json`` at the repository root declares the same workloads and
metrics; ``perfbench/test_perfbench.py`` keeps the two in step.

Every workload reports every metric.  The end-to-end metrics are defined
per workload, so one name carries each workload's user-facing number:

================  ==========================  ============================  ==========================
metric            offline_value / _analysis   serve_open                    fig4_eval
================  ==========================  ============================  ==========================
setup_s           cold session builds         artifact load + server start  nine SPNs + operation lists
work_per_s        evidence rows answered      requests completed, closed    Fig. 4 points evaluated
                                              loop (capacity)
latency_p50_ms    per query                   open loop at RATE_HI, from    per profile (4 points)
latency_p90_ms                                each request's due time
peak_rss_mb       ``ru_maxrss`` at the end    same                          same
================  ==========================  ============================  ==========================

Every end-to-end time and rate is at the *reference host speed*: a fixed
pure-Python probe (``common.probe_s``) runs after each timed operation or
phase and around each set-up, and each time is multiplied by
``common.REFERENCE_PROBE_S`` over the probes taken beside it.  The shared
host's speed moves by up to 1.8x in phases of tens of seconds, and every
workload's raw times moved with it; scaled, runs of the same code agree.
The probe is the benchmark's own code, so a change to the program moves
the scaled numbers exactly as it moves the raw ones.  serve_open's
latencies keep the part the server's batching window (a timer) can
account for as measured.  The report prints the raw figures beside the
scaled ones.  Per-layer times are raw.  The process runs on one CPU, so
the probe measures the CPU the serving worker runs on too.

Per-layer metrics of a layer a workload bypasses read 0.
"""

from __future__ import annotations

WORKLOADS = (
    ("offline_value",
     "large-batch value queries on four models: the fused tape kernels do nearly "
     "all the work (native kernels gain here; the log domain costs 3-4.5x here)"),
    ("offline_analysis",
     "classify/entropy/MI/sample/MPE at modest batches: many log passes, sweeps, "
     "chains and the per-row MPE search, where the api session does a large share"),
    ("serve_open",
     "open-loop single-row traffic through one server worker: admission, queueing, "
     "grouping and scatter dominate; models loaded from AOT artifacts"),
    ("fig4_eval",
     "the paper's Fig. 4 grid (9 profiles x CPU/GPU/Pvect/Ptree): the only workload "
     "reaching compiler, processor simulation and baselines"),
)

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_KINDS = (
    "likelihood", "log_likelihood", "marginal", "conditional", "mpe",
    "sample", "expectation", "entropy", "mutual_information", "classify",
)

#: The name each workload's end-to-end number would carry on its own.
ALIASES = {
    ("offline_value", "work_per_s"): "rows_per_s",
    ("offline_analysis", "work_per_s"): "rows_per_s",
    ("serve_open", "work_per_s"): "capacity_rps",
    ("serve_open", "latency_p50_ms"): "latency_p50_ms.hi",
    ("serve_open", "latency_p90_ms"): "latency_p90_ms.hi",
    ("fig4_eval", "work_per_s"): "points_per_s",
    ("fig4_eval", "latency_p50_ms"): "profile_p50_ms",
    ("fig4_eval", "latency_p90_ms"): "profile_p90_ms",
}

#: (name, unit, better)
PER_LAYER = (
    ("spn.tape.calls", "calls/op", "lower"),
    ("spn.tape.busy_s", "s/op", "lower"),
    ("spn.tape.rows_per_call", "rows", "higher"),
    ("spn.tape.log_share", "ratio", "lower"),
    ("spn.kernel.gbps", "GB/s", "higher"),
    ("spn.encode.share", "ratio", "lower"),
    ("spn.generate_s", "s/setup", "lower"),
    ("spn.linearize_s", "s/setup", "lower"),
    ("spn.compile_tape_s", "s/setup", "lower"),
    ("spn.memory_plan_s", "s/setup", "lower"),
    ("statics.verify_s", "s/setup", "lower"),
    ("spn.tape_slots", "slots", "lower"),
    ("spn.peak_slots", "slots", "lower"),
    ("api.run.calls", "calls/op", "lower"),
    ("api.run.self_s", "s/op", "lower"),
    *((f"api.passes_per_query.{kind}", "passes", "lower") for kind in _KINDS),
    ("api.mpe.busy_s", "s/op", "lower"),
    ("api.sample.passes", "passes", "lower"),
    ("serving.submit_us", "us", "lower"),
    ("serving.queue_wait_ms.p50", "ms", "lower"),
    ("serving.queue_wait_ms.p90", "ms", "lower"),
    ("serving.rows_per_batch", "rows", "higher"),
    ("serving.batches", "count", "lower"),
    ("serving.execute_ms", "ms", "lower"),
    ("serving.failed", "count", "lower"),
    ("serving.shed", "count", "lower"),
    ("serving.deadline_exceeded", "count", "lower"),
    ("lifecycle.load_s", "s/setup", "lower"),
    ("lifecycle.session_s", "s/setup", "lower"),
    ("lifecycle.artifact_bytes", "B", "lower"),
    ("compiler.cones_s", "s/grid", "lower"),
    ("compiler.schedule_s", "s/grid", "lower"),
    ("compiler.instructions", "count", "lower"),
    ("processor.simulate_s", "s/grid", "lower"),
    ("processor.cycles", "cycles", "lower"),
    ("processor.ops_per_cycle.Pvect", "ops/cycle", "higher"),
    ("processor.ops_per_cycle.Ptree", "ops/cycle", "higher"),
    ("baselines.cpu_s", "s/grid", "lower"),
    ("baselines.gpu_s", "s/grid", "lower"),
    *(
        (f"loadgen.{phase}.{name}", unit, better)
        for phase in ("lo", "hi")
        for name, unit, better in (
            ("sent", "count", "higher"),
            ("succeeded", "count", "higher"),
            ("failed", "count", "lower"),
            ("offered_rps", "1/s", "higher"),
            ("achieved_rps", "1/s", "higher"),
            ("late_ms.p50", "ms", "lower"),
            ("late_ms.p99", "ms", "lower"),
            ("latency_p50_ms", "ms", "lower"),
            ("latency_p90_ms", "ms", "lower"),
        )
    ),
    ("loadgen.closed.sent", "count", "higher"),
    ("loadgen.closed.succeeded", "count", "higher"),
    ("loadgen.closed.failed", "count", "lower"),
    ("loadgen.closed.achieved_rps", "1/s", "higher"),
    ("host.probe_ms.start", "ms", "lower"),
    ("host.probe_ms.end", "ms", "lower"),
    ("host.np_add_gbps", "GB/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

#: Which end-to-end metric each layer's metrics should move, on which workload.
LAYER_MAP = {
    "spn executor": "work_per_s on offline_value (most) and offline_analysis; "
    "serve_open latency_p90_ms and work_per_s a little; nothing on fig4_eval",
    "spn build + statics": "setup_s on offline_* and fig4_eval; peak_rss_mb",
    "api": "work_per_s on offline_analysis; about 0 on offline_value",
    "serving": "every serve_open latency and work_per_s; bypassed by the other three",
    "lifecycle": "setup_s on serve_open only",
    "compiler": "work_per_s on fig4_eval; processor.ops_per_cycle.* if schedules change",
    "processor, baselines": "work_per_s on fig4_eval only",
    "loadgen, host, trace": "diagnostics",
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalog declares."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
