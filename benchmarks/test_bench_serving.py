"""Benchmark: dynamic batching vs one-request-at-a-time inference serving.

A load generator issues individual likelihood queries against one suite
benchmark and measures two ways of serving them:

* **per-request** — the no-batching baseline: each request is one engine
  call on a one-row batch (sequential direct calls, i.e. zero serving
  overhead — the comparison is conservative, since the dynamic side pays
  for its queue, futures and worker thread);
* **dynamic batching** — the full :mod:`repro.serving` stack: requests are
  coalesced into micro-batches under the max-batch-size / max-wait policy
  and executed through the same engine.

Responses must be **bit-identical** to a direct
:func:`repro.spn.evaluate.evaluate_batch` call over all rows (the batch
kernels are elementwise across rows, so batching is invisible to
correctness), and the batched service must beat the per-request loop by
:data:`MIN_SPEEDUP`.  The two arms alternate over :data:`N_WAVES` paired
waves, and the gate reads the median of the per-wave ratios.  The
measurements land in the ``serving`` section of
``BENCH_sweeps.json`` (merged via
:func:`repro.experiments.sweeps.update_bench_json`, uploaded by CI).
"""

import gc
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.sweeps import update_bench_json
from repro.serving import BatchingPolicy, InferenceServer
from repro.serving.server import KIND_LIKELIHOOD
from repro.spn.evaluate import evaluate_batch
from repro.spn.generate import random_evidence
from repro.suite.registry import benchmark_n_vars, build_benchmark

BENCHMARK = "KDDCup2k"
N_REQUESTS = 512
POLICY = BatchingPolicy(max_batch_size=64, max_wait_s=0.002, max_queue_depth=1024)

#: Gate on ``speedup_dynamic_vs_per_request``: the midpoint between the
#: highest ratio with batching removed (``max_batch_size=1``: 0.40-0.53 over
#: 3 unpaired runs) and the lowest with it (1.46-2.92 over 10 runs).  A
#: one-row ``evaluate_batch`` call costs 0.13-0.20 ms on the native plan
#: interpreter, most of it the tape-cache lookup, so batching now saves
#: ~2x where it saved 5-10x over NumPy's per-kernel dispatch.  On the
#: median of :data:`N_WAVES` paired waves, three runs of ``benchmarks/``
#: plus ``perfbench/`` read 2.44-2.85 (every pair >= 2.13) and one with
#: ``max_batch_size=1`` read 0.55 (every pair <= 0.60).
MIN_SPEEDUP = 0.99

#: Paired waves: each runs both arms over the same requests, alternating
#: which goes first, with a ``gc.collect()`` before each arm.  One arm is
#: 20-60 ms, so a single cyclic-GC pass landing in one unpaired trial could
#: decide the gate; the median of the per-wave ratios cannot be.
N_WAVES = 8

#: Shared measurement, computed once per session (mirrors test_bench_sweeps).
_STASH = {}


def _per_request(spn, rows):
    """Baseline: one engine call per request, no serving machinery at all."""
    start = time.perf_counter()
    values = np.array(
        [
            evaluate_batch(spn, rows[i : i + 1], engine="vectorized")[0]
            for i in range(len(rows))
        ]
    )
    return time.perf_counter() - start, values


def _dynamic(server, rows):
    """Dynamic batching: the full serving stack under a batch-heavy load."""
    start = time.perf_counter()
    futures = [server.submit(BENCHMARK, row, kind=KIND_LIKELIHOOD) for row in rows]
    values = np.array([f.result()[0] for f in futures])
    return time.perf_counter() - start, values


def _load_results():
    if "serving" in _STASH:
        return _STASH["serving"]

    spn = build_benchmark(BENCHMARK)
    n_vars = benchmark_n_vars(BENCHMARK)
    rows = random_evidence(n_vars, observed_fraction=0.8, seed=9, n_samples=N_REQUESTS)
    reference = evaluate_batch(spn, rows, engine="vectorized")  # also warms the tape

    server = InferenceServer(models=[BENCHMARK], policy=POLICY).start()
    arms = [
        ("per_request", lambda: _per_request(spn, rows)),
        ("dynamic", lambda: _dynamic(server, rows)),
    ]
    times = {name: [] for name, _ in arms}
    bit_identical = True
    try:
        for wave in range(N_WAVES):
            for name, arm in arms if wave % 2 == 0 else arms[::-1]:
                gc.collect()
                elapsed, values = arm()
                times[name].append(elapsed)
                bit_identical &= bool(np.array_equal(values, reference))
    finally:
        server.stop()
    pairs = [p / d for p, d in zip(times["per_request"], times["dynamic"])]
    t_per_request = float(np.median(times["per_request"]))
    t_dynamic = float(np.median(times["dynamic"]))

    snapshot = server.metrics.snapshot()
    _STASH["serving"] = {
        "benchmark": BENCHMARK,
        "n_requests": N_REQUESTS,
        "max_batch_size": POLICY.max_batch_size,
        "max_wait_s": POLICY.max_wait_s,
        "t_per_request_s": t_per_request,
        "t_dynamic_s": t_dynamic,
        "throughput_per_request_rps": N_REQUESTS / t_per_request,
        "throughput_dynamic_rps": N_REQUESTS / t_dynamic,
        "speedup_dynamic_vs_per_request": float(np.median(pairs)),
        "speedup_pairs": [round(r, 3) for r in pairs],
        "latency_p50_ms": snapshot["latency_p50_ms"],
        "latency_p99_ms": snapshot["latency_p99_ms"],
        "mean_batch_occupancy": snapshot["mean_batch_occupancy"],
        "batches": snapshot["batches"],
        "bit_identical": bit_identical,
    }
    return _STASH["serving"]


def test_dynamic_batching_throughput(benchmark, run_once):
    result = run_once(benchmark, _load_results)
    benchmark.extra_info.update(
        {
            "n_requests": result["n_requests"],
            "speedup": round(result["speedup_dynamic_vs_per_request"], 1),
            "throughput_rps": round(result["throughput_dynamic_rps"], 1),
            "occupancy": round(result["mean_batch_occupancy"], 3),
        }
    )
    # Acceptance criteria: responses bit-identical to direct evaluate_batch,
    # and dynamic batching beating per-request calls under a batch-heavy load.
    assert result["bit_identical"]
    assert result["speedup_dynamic_vs_per_request"] >= MIN_SPEEDUP


def test_bench_serving_artifact(benchmark, run_once):
    payload = run_once(
        benchmark,
        lambda: update_bench_json(Path("BENCH_sweeps.json"), serving=_load_results()),
    )
    assert Path("BENCH_sweeps.json").exists()
    serving = payload["serving"]
    assert serving["bit_identical"]
    assert serving["speedup_dynamic_vs_per_request"] >= MIN_SPEEDUP
    # One server serves every wave, so its batch count spans all of them.
    assert serving["batches"] >= N_WAVES * (N_REQUESTS // POLICY.max_batch_size)
