"""The ``serve_open`` workload: open-loop Poisson traffic, then a closed loop.

An :class:`~repro.serving.InferenceServer` with one worker and the default
batching policy hosts two models loaded from AOT artifacts.  The main
thread is the load generator: it submits pre-built seeded requests at their
Poisson due times (open loop, at the fixed offered rates :data:`RATE_LO`
and :data:`RATE_HI`), then sends waves of :data:`WAVE` requests, each
after the last has been answered (closed loop), to measure capacity.  The
three phases cycle eight times, interleaved, so each sees the same spread
of host speed.

Latency runs from a request's due time to its result, so a stalled server
also charges the requests queued behind the stall; a failed or refused
request counts as missing every percentile.  Set-up — loading both
artifacts, constructing the server and starting it — is repeated between
the phases and reported as the median.  A host probe runs after every
phase and around every set-up, and the end-to-end times are at the
reference host speed (``common.scaled``); the per-phase figures in the
report are as measured.

Every served answer is compared with ``array_equal`` against offline
``session.run`` on the same rows, one batched pass per (model, kind) after
the traffic stops.
"""

from __future__ import annotations

import gc
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.api import Conditional, LogLikelihood, Marginal
from repro.lifecycle.artifact import build_artifact, load_artifact, save_artifact
from repro.serving import InferenceServer
from repro.spn.generate import generate_rat_spn
from repro.suite.registry import get_profile

from .common import (
    REFERENCE_PROBE_S, Outcomes, median, probe_s, quantile, scaled, timed_setup, values_equal,
)
from .offline import evidence

MODELS = ("KDDCup2k", "Audio")
#: Offered rates in requests/s, about 8% and 25% of the closed-loop capacity
#: measured on a 2-vCPU Xeon host (~1300 requests/s with 16 outstanding).
#: At 20% / 50% the hi phase queued up whenever the host slowed down (p90
#: 12.9-16.8 ms across the segments of one run).  Constants on purpose: a
#: rate that adapted to the run would hide a slowdown instead of showing it
#: as latency.
RATE_LO = 100.0
RATE_HI = 300.0
#: Requests per wave of the closed-loop phase (about 1000 rows, a quarter
#: of the default queue depth): the generator sends a wave and waits for all
#: of it, so the worker drains a backlog of full 64-row batches alone.  With
#: 16 or 128 requests kept in flight the generator's refills competed with
#: the worker for the interpreter lock, and 2 s segments at the same probe
#: reading differed by up to 1.3x in rate.
WAVE = 512
#: Share of requests that are multi-row normalized marginals / conditionals.
MULTI_ROW = 0.1
#: The phases cycle eight times, so each samples the host's speed at eight
#: moments spread over the run, and a probe follows every second or so of
#: traffic; a set-up runs after every fourth segment.
PHASES = ("lo", "hi", "closed") * 8


@dataclass
class Request:
    model: str
    query: object
    due: float = 0.0  # seconds after the phase start (open loop)


@dataclass
class Phase:
    name: str
    seconds: float
    rate: float = 0.0  # offered requests/s (open loop) or completed (closed)
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    #: The host probe taken right after the phase (see ``common.scaled``).
    probe: float = 0.0
    #: Closed loop: (requests answered, seconds, probe after) per wave.
    waves: List[Tuple[int, float, float]] = field(default_factory=list)


@dataclass
class ServeRun:
    outcomes: Outcomes
    setup_s: List[float] = field(default_factory=list)
    #: The same set-ups at the reference host speed.
    setup_ref_s: List[float] = field(default_factory=list)
    phases: List[Phase] = field(default_factory=list)
    artifact_bytes: int = 0
    stats: Dict[str, object] = field(default_factory=dict)
    queue_wait_ms: Tuple[float, float] = (0.0, 0.0)
    #: The server's batching window (``BatchingPolicy.max_wait_s``).
    window_s: float = 0.0
    #: Closed-loop capacity measured before the tracer was installed.
    untraced_capacity: float = 0.0


def make_requests(rng: np.random.Generator, n: int) -> List[Request]:
    """``n`` seeded requests: mostly single-row log-likelihoods."""
    requests = []
    for _ in range(n):
        name = MODELS[int(rng.integers(len(MODELS)))]
        n_vars = get_profile(name).model_vars
        draw = rng.random()
        if draw < 1.0 - MULTI_ROW:
            query = LogLikelihood(evidence=evidence(rng, 1, n_vars))
        else:
            rows = int(rng.integers(4, 17))
            ev = evidence(rng, rows, n_vars)
            if draw < 1.0 - MULTI_ROW / 2:
                query = Marginal(evidence=ev, normalize=True)
            else:
                target = np.full_like(ev, -1)
                pick = (ev < 0) & (rng.random(ev.shape) < 0.3)
                target[pick] = rng.integers(0, 2, size=int(pick.sum()))
                query = Conditional(query=target, evidence=ev)
        requests.append(Request(name, query))
    return requests


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> List[float]:
    times, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= seconds:
            return times
        times.append(t)


def build_artifacts(workdir: Path) -> Tuple[List[Path], int]:
    """Compile both models into artifact files in the run's directory."""
    paths = []
    for name in MODELS:
        spn = generate_rat_spn(get_profile(name).generator_config())
        path = workdir / f"{name}.artifact.json"
        save_artifact(build_artifact(spn, name=name), path)
        paths.append(path)
    return paths, sum(p.stat().st_size for p in paths)


def start_server(paths: List[Path]) -> InferenceServer:
    """The set-up being timed: load the artifacts, build and start a server."""
    return InferenceServer(models=[load_artifact(p) for p in paths], n_workers=1).start()


class _Tracker:
    """Completion times of one phase's requests (done-callbacks, any thread)."""

    def __init__(self, n: int) -> None:
        self.done_at = [math.nan] * n
        self.ok = [False] * n
        self.results: List[object] = [None] * n
        self.remaining = n
        self.all_done = threading.Event()
        self._lock = threading.Lock()
        if n == 0:
            self.all_done.set()

    def callback(self, index: int):
        def done(future) -> None:
            self.done_at[index] = time.perf_counter()
            if future.exception() is None:
                self.ok[index] = True
                self.results[index] = future.result()
            with self._lock:
                self.remaining -= 1
                if self.remaining == 0:
                    self.all_done.set()

        return done


def _open_loop(server, phase: Phase, requests: List[Request]) -> _Tracker:
    tracker = _Tracker(len(requests))
    start = time.perf_counter()
    for i, request in enumerate(requests):
        due = start + request.due
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        phase.late_ms.append(max(0.0, sent - due) * 1e3)
        try:
            future = server.submit(request.model, request.query)
        except Exception:  # refused at admission: a failed request
            tracker.callback(i)(_Refused())
            continue
        future.add_done_callback(tracker.callback(i))
    phase.sent = len(requests)
    tracker.all_done.wait(timeout=60.0)
    for i, request in enumerate(requests):
        due = start + request.due
        latency = (tracker.done_at[i] - due) * 1e3 if tracker.ok[i] else math.inf
        phase.latencies_ms.append(latency)
    return tracker


def _closed_loop(
    server, phase: Phase, pool: List[Request], offset: int = 0
) -> Tuple[_Tracker, List[Request], int]:
    """Send WAVE requests, wait for all of them, repeat; returns completions inside the window.

    A probe follows every wave (``phase.waves``): a wave lasts about 0.2 s,
    short enough for the probe to catch the host's speed while it ran.
    """
    tracker = _Tracker(0)
    sent: List[Request] = []
    start = time.perf_counter()
    end = start + phase.seconds
    while time.perf_counter() < end:
        first = len(sent)
        with tracker._lock:
            tracker.remaining += WAVE
            tracker.all_done.clear()
        t0 = time.perf_counter()
        for _ in range(WAVE):
            request = pool[(offset + len(sent)) % len(pool)]
            index = len(sent)
            sent.append(request)
            tracker.done_at.append(math.nan)
            tracker.ok.append(False)
            tracker.results.append(None)
            try:
                future = server.submit(request.model, request.query)
            except Exception:  # refused at admission: a failed request
                tracker.callback(index)(_Refused())
                continue
            future.add_done_callback(tracker.callback(index))
        tracker.all_done.wait(timeout=60.0)
        phase.waves.append(
            (sum(tracker.ok[first:]), time.perf_counter() - t0, probe_s())
        )
    phase.sent = len(sent)
    in_window = sum(
        1 for i in range(len(sent)) if tracker.ok[i] and tracker.done_at[i] <= end
    )
    return tracker, sent, in_window


class _Refused:
    """Stands in for the future of a request refused at admission."""

    def exception(self):
        return RuntimeError("refused at admission")


def _check(outcomes: Outcomes, reference: Dict[str, object], served) -> None:
    """``array_equal`` of every served answer against one offline batch per group."""
    groups: Dict[tuple, List[Tuple[Request, object]]] = {}
    for request, ok, result in served:
        if not ok:
            outcomes.record(False, f"{request.model} {request.query.kind.value}: failed")
            continue
        key = (request.model,) + request.query.group_key()
        groups.setdefault(key, []).append((request, result))
    for (model, *_), items in groups.items():
        kind = type(items[0][0].query)
        params = items[0][0].query.params()
        if kind is Conditional:
            batch = Conditional(
                query=np.concatenate([r.query.query for r, _ in items]),
                evidence=np.concatenate([r.query.evidence for r, _ in items]),
                **params,
            )
        else:
            batch = kind(evidence=np.concatenate([r.query.evidence for r, _ in items]), **params)
        expected = reference[model].run(batch)
        offset = 0
        for request, result in items:
            rows = request.query.n_rows
            outcomes.record(
                values_equal(result, expected[offset:offset + rows]),
                f"{model} {request.query.kind.value}: served != offline",
            )
            offset += rows


def run_serve(
    seed: int, seconds: float, workdir: Path, tracer=None,
) -> ServeRun:
    run = ServeRun(Outcomes())
    rng = np.random.default_rng([seed, 0])
    paths, run.artifact_bytes = build_artifacts(workdir)
    reference = {name: load_artifact(path).session() for name, path in zip(MODELS, paths)}
    segment = seconds / len(PHASES)
    pool = make_requests(rng, 4096)

    def setup() -> InferenceServer:
        server, seconds, reference = timed_setup(lambda: start_server(paths))
        run.setup_s.append(seconds)
        run.setup_ref_s.append(reference)
        return server

    if tracer is not None:
        # Untraced capacity first: the baseline of trace.overhead_ratio.
        server = start_server(paths)
        calibration = Phase("calibration", min(segment, 2.0))
        _, _, completed = _closed_loop(server, calibration, pool)
        server.stop()
        run.untraced_capacity = completed / calibration.seconds
        tracer.install()
    server = setup()
    served = []
    for number, name in enumerate(PHASES):
        phase = Phase(name, segment)
        # Every phase starts from a collected heap: the answers the
        # benchmark keeps for its checks would otherwise make later phases
        # pay longer collections than earlier ones.
        gc.collect()
        if name == "closed":
            tracker, sent, completed = _closed_loop(server, phase, pool, number * 997)
            phase.rate = completed / segment
        else:
            phase.rate = RATE_LO if name == "lo" else RATE_HI
            times = poisson_schedule(rng, phase.rate, segment)
            requests = make_requests(rng, len(times))
            for request, due in zip(requests, times):
                request.due = due
            tracker = _open_loop(server, phase, requests)
            sent = requests
        phase.succeeded = sum(tracker.ok)
        phase.failed = phase.sent - phase.succeeded
        phase.probe = probe_s(9)
        served.extend(zip(sent, tracker.ok, tracker.results))
        run.phases.append(phase)
        if number % 4 == 3:
            setup().stop()
    server.stop()
    run.window_s = server.policy.max_wait_s
    run.stats = server.stats()
    wait = server.metrics.registry.histogram("serving_queue_wait_seconds")
    run.queue_wait_ms = tuple(
        (wait.quantile(q) or 0.0) * 1e3 for q in (0.5, 0.9)
    )
    if tracer is not None:
        tracer.uninstall()
    _check(run.outcomes, reference, served)
    return run


def measure(seed: int, seconds: float, workdir: Path, tracer=None):
    """Run serve_open; returns (outcomes, end-to-end, per-layer, notes)."""
    run = run_serve(seed, seconds, workdir, tracer)
    phases: Dict[str, Phase] = {}
    for phase in run.phases:
        merged = phases.setdefault(phase.name, Phase(phase.name, 0.0, phase.rate))
        merged.seconds += phase.seconds
        merged.sent += phase.sent
        merged.succeeded += phase.succeeded
        merged.failed += phase.failed
        merged.latencies_ms += phase.latencies_ms
        merged.late_ms += phase.late_ms
    closed = phases["closed"]
    completed = sum(p.rate * p.seconds for p in run.phases if p.name == "closed")
    capacity = completed / closed.seconds
    # Each phase's times at the reference host speed.  The batching window
    # is a timer that does not slow with the host, so the part of a latency
    # it can account for stays as measured and only the rest is scaled.
    # A hi phase is scaled by the probes just before and just after it.
    window_ms = run.window_s * 1e3
    latencies_ref: List[float] = []
    for before, phase in zip(run.phases, run.phases[1:]):
        if phase.name == "hi":
            factor = REFERENCE_PROBE_S / ((before.probe + phase.probe) / 2)
            latencies_ref += [
                min(latency, window_ms) + max(latency - window_ms, 0.0) * factor
                for latency in phase.latencies_ms
            ]
    waves = [wave for phase in run.phases if phase.name == "closed" for wave in phase.waves]
    wave_s = scaled([seconds for _, seconds, _ in waves], [probe for _, _, probe in waves])
    end_to_end = {
        "setup_s": median(run.setup_ref_s),
        "work_per_s": median([answered / s for (answered, _, _), s in zip(waves, wave_s)]),
        "latency_p50_ms": quantile(latencies_ref, 0.5),
        "latency_p90_ms": quantile(latencies_ref, 0.9),
    }
    notes = [
        f"as measured: capacity {capacity:.1f} req/s, host probe median "
        f"{median([p.probe for p in run.phases]) * 1e3:.3f} ms",
        f"closed loop: {len(waves)} waves, probe after them "
        f"{min(p for _, _, p in waves) * 1e3:.2f}-{max(p for _, _, p in waves) * 1e3:.2f} ms",
        "set-ups (s): " + " ".join(f"{s:.3f}" for s in run.setup_s),
    ]
    layers: Dict[str, float] = {"lifecycle.artifact_bytes": run.artifact_bytes}
    for name in ("lo", "hi"):
        p = phases[name]
        late = p.late_ms or [0.0]
        layers.update({
            f"loadgen.{name}.sent": p.sent,
            f"loadgen.{name}.succeeded": p.succeeded,
            f"loadgen.{name}.failed": p.failed,
            f"loadgen.{name}.offered_rps": p.rate,
            f"loadgen.{name}.achieved_rps": p.succeeded / p.seconds,
            f"loadgen.{name}.late_ms.p50": quantile(late, 0.5),
            f"loadgen.{name}.late_ms.p99": quantile(late, 0.99),
            f"loadgen.{name}.latency_p50_ms": quantile(p.latencies_ms, 0.5),
            f"loadgen.{name}.latency_p90_ms": quantile(p.latencies_ms, 0.9),
        })
        notes.append(
            f"{name}: offered {p.rate:.0f}/s achieved {p.succeeded / p.seconds:.1f}/s, "
            f"sent {p.sent} ok {p.succeeded} failed {p.failed}, latency p50 "
            f"{quantile(p.latencies_ms, 0.5):.2f} p90 {quantile(p.latencies_ms, 0.9):.2f} ms, "
            f"generator late p50 {quantile(late, 0.5):.3f} p99 {quantile(late, 0.99):.3f} ms"
        )
    layers.update({
        "loadgen.closed.sent": closed.sent,
        "loadgen.closed.succeeded": closed.succeeded,
        "loadgen.closed.failed": closed.failed,
        "loadgen.closed.achieved_rps": capacity,
    })
    notes.append(
        f"closed (waves of {WAVE}): {capacity:.1f} req/s, sent {closed.sent} "
        f"ok {closed.succeeded} failed {closed.failed}"
    )
    if tracer is None:
        return run.outcomes, end_to_end, layers, notes
    metrics = run.stats["metrics"]
    registry = run.stats["registry"]
    requests = sum(p.sent for p in run.phases)
    setups = len(run.setup_s)
    t, c = tracer.total_s, tracer.calls
    gbps, encode_share = tracer.kernel_stats()
    worker = tracer.busiest_worker()
    _, unattributed, wall = tracer.accounting(thread=worker)
    layers.update({
        "spn.tape.calls": c["spn.tape"] / requests,
        "spn.tape.busy_s": t["spn.tape"] / requests,
        "spn.tape.rows_per_call": tracer.counts["spn.tape.rows"] / max(c["spn.tape"], 1),
        "spn.tape.log_share": tracer.counts["spn.tape.log_s"] / max(t["spn.tape"], 1e-12),
        "spn.kernel.gbps": gbps,
        "spn.encode.share": encode_share,
        "statics.verify_s": t["statics.verify"] / setups,
        "api.run.calls": c["api.run"] / requests,
        "api.run.self_s": tracer.self_time("api.run", worker) / requests,
        "serving.submit_us": tracer.per_call("serving.submit") * 1e6,
        "serving.queue_wait_ms.p50": run.queue_wait_ms[0],
        "serving.queue_wait_ms.p90": run.queue_wait_ms[1],
        "serving.rows_per_batch": metrics["mean_batch_size"],
        "serving.batches": metrics["batches"],
        "serving.execute_ms": tracer.per_call("api.run") * 1e3,
        "serving.failed": sum(p.failed for p in run.phases),
        "serving.shed": registry.get("serving_shed_total", 0.0),
        "serving.deadline_exceeded": registry.get("serving_deadline_exceeded_total", 0.0),
        "lifecycle.load_s": t["lifecycle.load"] / setups,
        "lifecycle.session_s": t["lifecycle.session"] / setups,
        "trace.overhead_ratio": run.untraced_capacity / capacity,
        "trace.unattributed_share": unattributed,
    })
    for key, values in tracer.samples.items():
        if key.startswith("api.passes."):
            layers[f"api.passes_per_query.{key[len('api.passes.'):]}"] = median(values)
    notes.append(f"serving worker thread, self time over its {wall:.2f} s:")
    notes.extend(tracer.top_layers(thread=worker))
    return run.outcomes, end_to_end, layers, notes
