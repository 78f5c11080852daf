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
:data:`MIN_SPEEDUP`.  The measurements land in the ``serving`` section of
``BENCH_sweeps.json`` (merged via
:func:`repro.experiments.sweeps.update_bench_json`, uploaded by CI).
"""

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
#: 3 runs) and the lowest with it (1.46-2.92 over 10 runs).  A one-row
#: ``evaluate_batch`` call costs 0.13-0.20 ms on the native plan
#: interpreter, most of it the tape-cache lookup, so batching now saves
#: ~2x where it saved 5-10x over NumPy's per-kernel dispatch.
MIN_SPEEDUP = 0.99

#: Shared measurement, computed once per session (mirrors test_bench_sweeps).
_STASH = {}


def _load_results():
    if "serving" in _STASH:
        return _STASH["serving"]

    spn = build_benchmark(BENCHMARK)
    n_vars = benchmark_n_vars(BENCHMARK)
    rows = random_evidence(n_vars, observed_fraction=0.8, seed=9, n_samples=N_REQUESTS)
    reference = evaluate_batch(spn, rows, engine="vectorized")  # also warms the tape

    # Baseline: one engine call per request, no serving machinery at all.
    start = time.perf_counter()
    sequential = np.array(
        [
            evaluate_batch(spn, rows[i : i + 1], engine="vectorized")[0]
            for i in range(N_REQUESTS)
        ]
    )
    t_per_request = time.perf_counter() - start

    # Dynamic batching: the full serving stack under a batch-heavy load.
    server = InferenceServer(models=[BENCHMARK], policy=POLICY).start()
    start = time.perf_counter()
    futures = [
        server.submit(BENCHMARK, rows[i], kind=KIND_LIKELIHOOD)
        for i in range(N_REQUESTS)
    ]
    served = np.array([f.result()[0] for f in futures])
    t_dynamic = time.perf_counter() - start
    server.stop()

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
        "speedup_dynamic_vs_per_request": t_per_request / t_dynamic,
        "latency_p50_ms": snapshot["latency_p50_ms"],
        "latency_p99_ms": snapshot["latency_p99_ms"],
        "mean_batch_occupancy": snapshot["mean_batch_occupancy"],
        "batches": snapshot["batches"],
        "bit_identical": bool(
            np.array_equal(served, reference) and np.array_equal(sequential, reference)
        ),
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
    assert serving["batches"] >= N_REQUESTS // POLICY.max_batch_size
