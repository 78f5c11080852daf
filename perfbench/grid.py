"""The ``fig4_eval`` workload: the paper's Fig. 4 grid, point by point.

Each operation is one Fig. 4 point, ``run_suite([profile], (platform,))``
— the call ``repro.experiments.fig4.run`` makes for the whole grid — on
CPU, GPU, Pvect or Ptree (the latter two through the cone/scheduler
compiler and the cycle-accurate simulator in strict mode).  The 36 points
run in a seeded order, a fresh permutation per pass, until the run has
lasted ``seconds`` and covered the whole grid at least once.  A point takes
0.03-1.5 s where a whole profile took up to 2.7 s, short enough for the
probe after it to catch the host's speed while it ran.

Set-up is the cold build of the nine SPNs and their operation lists (the
suite registry's caches cleared first), repeated between operations and
reported as the median.  A host probe runs after every operation and
around every set-up, and the reported times are at the reference host
speed (``common.scaled``).

Checks: strict simulation verifies every value the processor transports
(a mismatch raises, failing the operation); every repeated point must
reproduce the first evaluation's cycle count exactly; every throughput must
be positive and finite.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.platforms import DEFAULT_PLATFORMS as PLATFORMS
from repro.experiments.platforms import run_suite
from repro.suite import registry

from .common import Outcomes, median, probe_s, quantile, scaled, timed_setup

#: Cold set-ups per run: one before the first operation, then one after
#: every ninth operation of the first pass over the 36 points.
SETUP_REPS = 5


@dataclass
class GridRun:
    outcomes: Outcomes
    setup_s: List[float] = field(default_factory=list)
    #: The same set-ups at the reference host speed.
    setup_ref_s: List[float] = field(default_factory=list)
    #: (profile, platform, seconds, traced) per evaluated point.
    calls: List[Tuple[str, str, float, bool]] = field(default_factory=list)
    #: The host probe taken right after each call (see ``common.scaled``).
    probes: List[float] = field(default_factory=list)
    #: profile -> platform -> (cycles, ops/cycle) of the first evaluation.
    points: Dict[str, Dict[str, Tuple[int, float]]] = field(default_factory=dict)
    #: Tracer counters of each point's first traced evaluation.
    first_counts: Dict[Tuple[str, str], Dict[str, float]] = field(default_factory=dict)


def build_suite() -> None:
    """Set-up: the nine SPNs and operation lists, built cold."""
    registry.build_benchmark.cache_clear()
    registry.benchmark_operation_list.cache_clear()
    for name in registry.benchmark_names():
        registry.benchmark_operation_list(name)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_grid(seed: int, seconds: float, traced=lambda i: False, tracer=None) -> GridRun:
    run = GridRun(Outcomes())
    names = registry.benchmark_names()
    rng = np.random.default_rng([seed, 0])

    def setup() -> None:
        if tracer is not None:
            tracer.install()
        _, seconds, reference = timed_setup(build_suite)
        run.setup_s.append(seconds)
        run.setup_ref_s.append(reference)
        if tracer is not None:
            tracer.uninstall()

    setup()
    grid = [(name, platform) for name in names for platform in PLATFORMS]
    setup_every = len(grid) // (SETUP_REPS - 1)
    start = time.perf_counter()
    index = 0
    done = False
    while not done:
        for p in rng.permutation(len(grid)):
            name, platform = grid[p]
            trace = tracer is not None and traced(index)
            before = dict(tracer.counts) if trace else None
            # Each point starts from a collected heap, so the collections it
            # pays are those its own allocations trigger, whatever ran before.
            gc.collect()
            if trace:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = run_suite([name], (platform,))[name][platform]
            except Exception as exc:  # strict simulation failed, or worse
                result = None
                run.outcomes.errors.append(f"{name} {platform}: {exc!r}")
            elapsed = time.perf_counter() - t0
            if trace:
                tracer.uninstall()
                run.first_counts.setdefault((name, platform), {
                    k: v - before.get(k, 0.0) for k, v in tracer.counts.items()
                })
            index += 1
            if result is None:
                run.outcomes.record(False)
                continue
            run.calls.append((name, platform, elapsed, trace))
            run.probes.append(probe_s(3))
            first = run.points.setdefault(name, {}).setdefault(
                platform, (result.cycles, result.ops_per_cycle)
            )
            run.outcomes.record(
                math.isfinite(result.ops_per_cycle)
                and result.ops_per_cycle > 0
                and (result.cycles, result.ops_per_cycle) == first,
                f"{name} {platform}: not reproduced",
            )
            if len(run.setup_s) < SETUP_REPS and index % setup_every == 0:
                setup()
            covered = sum(len(platforms) for platforms in run.points.values())
            if time.perf_counter() - start >= seconds and covered == len(grid):
                done = True
                break
    while len(run.setup_s) < SETUP_REPS:
        setup()
    return run


def measure(seed: int, seconds: float, tracer=None):
    """Run fig4_eval; returns (outcomes, end-to-end, per-layer, notes).

    The traced run traces the first pass over the 36 points (so the
    per-grid counts are complete) and leaves later operations untraced.
    A profile's latency is the sum of its four points' median times.
    """
    names = registry.benchmark_names()
    n_points = len(names) * len(PLATFORMS)
    traced = (lambda i: i < n_points) if tracer is not None else (lambda i: False)
    run = run_grid(seed, seconds, traced=traced, tracer=tracer)
    # Seconds per call at the reference host speed.
    at_reference = scaled([call[2] for call in run.calls], run.probes)
    by_point: Dict[Tuple[str, str], List[float]] = {}
    untraced: Dict[Tuple[str, str], List[float]] = {}
    traced_times: Dict[Tuple[str, str], List[float]] = {}
    for (name, platform, _, trace), elapsed in zip(run.calls, at_reference):
        by_point.setdefault((name, platform), []).append(elapsed)
        (traced_times if trace else untraced).setdefault((name, platform), []).append(elapsed)
    per_profile = [sum(median(by_point[n, p]) for p in PLATFORMS) for n in names]
    grid_s = sum(per_profile)
    end_to_end = {
        "setup_s": median(run.setup_ref_s),
        "work_per_s": n_points / grid_s,
        "latency_p50_ms": quantile(per_profile, 0.5) * 1e3,
        "latency_p90_ms": quantile(per_profile, 0.9) * 1e3,
    }
    ptree = geomean(run.points[n]["Ptree"][1] for n in names)
    pvect = geomean(run.points[n]["Pvect"][1] for n in names)
    notes = [
        f"{len(run.calls)} point evaluations, grid time {grid_s:.2f} s at the "
        f"reference speed; host probe median {median(run.probes) * 1e3:.3f} ms",
        "set-ups (s): " + " ".join(f"{s:.3f}" for s in run.setup_s),
        f"simulated ops/cycle, geometric mean over the nine profiles: "
        f"Ptree {ptree:.6f}  Pvect {pvect:.6f}",
    ]
    layers: Dict[str, float] = {
        "processor.ops_per_cycle.Pvect": pvect,
        "processor.ops_per_cycle.Ptree": ptree,
        "processor.cycles": sum(
            run.points[n][p][0] for n in names for p in ("Pvect", "Ptree")
        ),
    }
    if tracer is None:
        return run.outcomes, end_to_end, layers, notes
    t = tracer.total_s
    setups = len(run.setup_s)
    first = run.first_counts
    ratios = [
        median(traced_times[n]) / median(untraced[n])
        for n in untraced if n in traced_times
    ]
    wall = sum(call[2] for call in run.calls if call[3]) + sum(run.setup_s)
    _, unattributed, _ = tracer.accounting(wall)
    layers.update({
        "spn.generate_s": t["spn.generate"] / setups,
        "spn.linearize_s": t["spn.linearize"] / setups,
        "compiler.cones_s": t["compiler.cones"],
        "compiler.schedule_s": t["compiler.schedule"],
        "compiler.instructions": sum(
            counts.get("compiler.instructions", 0.0) for counts in first.values()
        ),
        "processor.simulate_s": t["processor.simulate"],
        "baselines.cpu_s": t["baselines.cpu"],
        "baselines.gpu_s": t["baselines.gpu"],
        "trace.overhead_ratio": median(ratios) if ratios else 0.0,
        "trace.unattributed_share": unattributed,
    })
    notes.append(f"layer self time over {wall:.2f} s traced:")
    notes.extend(tracer.top_layers(wall))
    return run.outcomes, end_to_end, layers, notes
