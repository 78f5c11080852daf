"""Benchmark: the chaos-engineered serving plane's three quantitative gates.

* **Hooks-disabled overhead** — the fault-injection sites follow the
  zero-overhead-when-off discipline: with no plan installed the batch loop
  costs one module-attribute read and one ``plan is not None`` test per
  site over the same loop without them, which the test builds itself.
  Measured on the server's worker as the median, over back-to-back
  micro-batch pairs, of the instrumented batch loop's time over the raw
  one's; gated at <= 1.02.
* **Chaos soak** — ``repro.faults.soak.run_soak`` over >= 10^4 concurrent
  requests with every serving-path fault site armed (worker crashes, slow
  kernels, executor faults, queue stalls, a crash mid-publish): zero lost
  futures, zero mismatched successes, the registry incumbent intact.
* **Deadline-drop precision** — requests whose deadline expires in the
  queue are dropped *before* the engine call: the expired rows account for
  exactly zero engine tape passes (measured at the session's evaluation
  hook), while every expired future resolves with the typed error.

Results land in the ``serving_resilience`` section of ``BENCH_sweeps.json``
(merged via :func:`repro.experiments.sweeps.update_bench_json`).
"""

import statistics
import time
from pathlib import Path

import numpy as np

from repro.experiments.sweeps import update_bench_json
from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.faults.soak import run_soak
from repro.serving import (
    BatchingPolicy,
    DeadlineExceededError,
    InferenceServer,
)
from repro.spn.generate import random_evidence
from repro.suite.registry import benchmark_n_vars

BENCHMARK = "Banknote"
SOAK_REQUESTS = 10_000
OVERHEAD_TRIALS = 15
OVERHEAD_ROWS = 16384
OVERHEAD_GATE = 1.02

#: Shared measurement, computed once per session (mirrors test_bench_serving).
_STASH = {}


def _overhead_disabled():
    """Interleaved median time ratio: instrumented vs raw batch path.

    The two paths alternate micro-batch by micro-batch on the server's
    worker, and each batch is timed there, so the two batches of a pair
    run within a millisecond of each other.  Pairing whole 16384-row
    trials instead left host drift between back-to-back trials (trials
    swing 150-400 ms on a busy 2-CPU box) far larger than the 2% being
    gated.  Admission and queue costs are identical in both arms and stay
    out of the denominator, so a per-batch overhead weighs more here than
    in end-to-end throughput.
    """
    n_vars = benchmark_n_vars(BENCHMARK)
    rows = random_evidence(
        n_vars, observed_fraction=0.8, seed=11, n_samples=OVERHEAD_ROWS
    )
    server = InferenceServer(
        models=[BENCHMARK],
        policy=BatchingPolicy(max_batch_size=64, max_wait_s=0.001,
                              max_queue_depth=OVERHEAD_ROWS),
        n_workers=1,
    ).start()

    instrumented = server._process_batch  # resolves the (absent) fault plan

    def raw(batch):  # the same batch loop with no fault-plane read or test
        server._record_queue_wait(batch)
        for (served, kind), items in server._group_batch(batch).items():
            server._run_group(served, kind, items)

    state = {"turn": 0, "times": ([], [])}

    def alternate(batch):
        arm = state["turn"] % 2
        state["turn"] += 1
        times = state["times"]  # this batch's trial, even if it ends meanwhile
        start = time.perf_counter()
        (instrumented, raw)[arm](batch)
        times[arm].append(time.perf_counter() - start)

    server._process_batch = alternate
    server.query(BENCHMARK, rows, kind="log_likelihood", timeout=30.0)  # warm
    trials = []
    for trial in range(OVERHEAD_TRIALS):
        # Odd trials start on the raw arm, so neither arm always takes the
        # first batch of a trial (which races the submitter for the GIL).
        state["turn"] = trial
        state["times"] = ([], [])
        trials.append(state["times"])
        server.query(BENCHMARK, rows, kind="log_likelihood", timeout=30.0)
    server._process_batch = instrumented
    server.stop()  # joins the worker: every batch's time is recorded
    pairs = [pair for hooked, bare in trials for pair in zip(hooked, bare)]
    # The median over pairs discards the pairs a scheduler hiccup, a GC
    # pause or a GIL handoff split down the middle.
    return {
        "trials": OVERHEAD_TRIALS,
        "rows_per_trial": OVERHEAD_ROWS,
        "batch_pairs": len(pairs),
        "t_hooked_batch_median_s": statistics.median(h for h, _ in pairs),
        "t_raw_batch_median_s": statistics.median(b for _, b in pairs),
        "overhead_ratio": statistics.median(h / b for h, b in pairs),
        "gate": OVERHEAD_GATE,
    }


def _deadline_precision():
    """Expired rows dropped before the engine: zero tape passes for them."""
    n_expired = 32
    plan = FaultPlan(seed=0, specs=[FaultSpec("serving.worker_crash", times=1)])
    server = InferenceServer(
        models=[BENCHMARK],
        policy=BatchingPolicy(max_batch_size=64, max_wait_s=0.005),
        n_workers=1,
        heal_interval_s=60.0,
    )
    counts = {}
    n_vars = benchmark_n_vars(BENCHMARK)
    rng = np.random.default_rng(13)
    with fault_scope(plan):
        server.start()
        session = server.model(BENCHMARK).session
        session.on_evaluate = lambda domain, n_rows: counts.__setitem__(
            domain, counts.get(domain, 0) + n_rows
        )
        # Kill the only worker deterministically; its batch requeues.
        sacrificial = server.submit(BENCHMARK, rng.integers(-1, 2, n_vars))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            fired = plan.report()["serving.worker_crash"]["fired"]
            if fired >= 1 and all(not w.is_alive() for w in server._workers):
                break
            time.sleep(0.005)
        expired = [
            server.submit(
                BENCHMARK,
                rng.integers(-1, 2, n_vars),
                kind="likelihood",
                deadline_s=0.05,
            )
            for _ in range(n_expired)
        ]
        time.sleep(0.15)  # every deadline passes while no worker is alive
        server._heal_workers()
        typed = 0
        for future in expired:
            try:
                future.result(timeout=10.0)
            except DeadlineExceededError:
                typed += 1
        sacrificial.result(timeout=10.0)
    server.stop()
    return {
        "deadline_requests": n_expired,
        "typed_deadline_failures": typed,
        # Expired likelihood rows run linear-domain passes; zero means the
        # deadline gate held at the engine boundary.
        "expired_rows_executed": counts.get("linear", 0),
        "deadline_counter": server.metrics.registry.counter(
            "serving_deadline_exceeded_total"
        ).value,
    }


def _load_results():
    if "serving_resilience" in _STASH:
        return _STASH["serving_resilience"]
    soak = run_soak(n_requests=SOAK_REQUESTS, seed=0)
    _STASH["serving_resilience"] = {
        "benchmark": BENCHMARK,
        "overhead_disabled": _overhead_disabled(),
        "soak": {
            "n_requests": soak["n_requests"],
            "seed": soak["seed"],
            "elapsed_s": soak["elapsed_s"],
            "throughput_rps": soak["throughput_rps"],
            "outcomes": soak["outcomes"],
            "lost_requests": soak["lost_requests"],
            "faults": soak["faults"],
            "counters": soak["counters"],
            "publish": soak["publish"],
            "invariants": soak["invariants"],
        },
        "deadline_precision": _deadline_precision(),
    }
    return _STASH["serving_resilience"]


def test_hooks_disabled_overhead(benchmark, run_once):
    result = run_once(benchmark, _load_results)["overhead_disabled"]
    benchmark.extra_info.update({"overhead_ratio": round(result["overhead_ratio"], 4)})
    assert result["overhead_ratio"] <= OVERHEAD_GATE


def test_soak_invariants(benchmark, run_once):
    soak = run_once(benchmark, _load_results)["soak"]
    benchmark.extra_info.update(
        {
            "n_requests": soak["n_requests"],
            "lost": soak["lost_requests"],
            "restarts": soak["counters"]["worker_restarts"],
        }
    )
    assert soak["n_requests"] >= 10_000
    assert soak["lost_requests"] == 0
    assert soak["outcomes"].get("mismatch", 0) == 0
    assert soak["invariants"]["clean"]
    # The chaos actually happened: crashes healed and the publish crashed
    # without touching the incumbent.
    assert soak["counters"]["worker_restarts"] >= 1
    assert soak["publish"]["live_after"] == soak["publish"]["live_before"]


def test_deadline_drop_precision(benchmark, run_once):
    result = run_once(benchmark, _load_results)["deadline_precision"]
    benchmark.extra_info.update(
        {"expired_rows_executed": result["expired_rows_executed"]}
    )
    assert result["expired_rows_executed"] == 0
    assert result["typed_deadline_failures"] == result["deadline_requests"]


def test_bench_resilience_artifact(benchmark, run_once):
    payload = run_once(
        benchmark,
        lambda: update_bench_json(
            Path("BENCH_sweeps.json"), serving_resilience=_load_results()
        ),
    )
    assert Path("BENCH_sweeps.json").exists()
    section = payload["serving_resilience"]
    assert section["overhead_disabled"]["overhead_ratio"] <= OVERHEAD_GATE
    assert section["soak"]["invariants"]["clean"]
    assert section["deadline_precision"]["expired_rows_executed"] == 0
