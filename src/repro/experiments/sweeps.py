"""Ablation and design-space sweeps beyond the paper's two configurations.

The paper evaluates exactly two design points (``Ptree`` and ``Pvect``).
These sweeps explore the surrounding design space and the compiler features
described in ``docs/architecture.md``, so that the contribution of each
architectural and compiler ingredient can be quantified:

* number of PE trees and tree depth (at a fixed 32-bank register file);
* conflict-aware vs naive register-bank allocation;
* subtree packing (several cones per tree per cycle) on vs off;
* GPU shared-memory bank allocation: graph coloring vs plain interleaving.

Every sweep is expressed as a list of :class:`SweepPoint` design points and
executed by :func:`run_sweep`, a parallel runner that

* fans the points out over a process pool (``parallel=True``), so
  multi-point sweeps saturate all cores instead of running serially;
* caches each point's result on disk under ``.cache/sweeps/`` keyed by a
  content hash of the point (kind, benchmark, **platform** and parameters —
  same point → cached hit, any changed parameter → miss), so repeated
  figure reproductions only pay for new points;
* can emit the consolidated ``BENCH_sweeps.json`` artifact
  (:func:`write_bench_json`) consumed by CI and the benchmark harness.

Every point names the platform engine it runs on, and
:func:`evaluate_point` obtains that engine from the registry
(:func:`repro.platforms.get_engine`) — the sweep recipes only decide *how*
to parameterize it, never hand-wire a model.

The module is also a command-line entry point::

    PYTHONPATH=src python -m repro.experiments.sweeps --json BENCH_sweeps.json

which runs all sweeps for one benchmark (parallel, cached) plus the
reference-vs-vectorized engine speedup measurement
(:func:`measure_engine_speedup`) and the query-API, classify, tape-memory and
lifecycle measurements (all skipped with ``--skip-speedup``), and writes the
JSON artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..analysis.report import format_table
from ..compiler.scheduler import ScheduleOptions
from ..platforms import (
    PLATFORM_GPU,
    PLATFORM_PTREE,
    PLATFORM_PVECT,
    get_engine,
)

__all__ = [
    "SweepPoint",
    "SweepResult",
    "cache_key",
    "run_sweep",
    "all_sweep_points",
    "filter_points",
    "measure_engine_speedup",
    "measure_query_speedup",
    "measure_classify_speedup",
    "measure_tape_memory",
    "measure_lifecycle",
    "measure_observability_overhead",
    "write_bench_json",
    "update_bench_json",
    "tree_arrangement_sweep",
    "allocation_ablation",
    "packing_ablation",
    "gpu_bank_allocation_ablation",
    "render_sweeps",
    "main",
]

#: Benchmark used by default for the sweeps (mid-sized, Lowd-Davis suite).
DEFAULT_BENCHMARK = "KDDCup2k"

#: (name, n_trees, n_levels) points sharing the 32-bank register file.
TREE_ARRANGEMENTS: Tuple[Tuple[str, int, int], ...] = (
    ("16 trees x 1 level (Pvect)", 16, 1),
    ("8 trees x 2 levels", 8, 2),
    ("4 trees x 3 levels", 4, 3),
    ("2 trees x 4 levels (Ptree)", 2, 4),
)

#: Default location of the on-disk result cache (relative to the cwd).
DEFAULT_CACHE_DIR = Path(".cache") / "sweeps"

#: Bumped whenever the meaning of cached values changes; part of every key.
#: v3: sweep points no longer carry a tape execution mode.
CACHE_VERSION = 3


# --------------------------------------------------------------------------- #
# Design points
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepPoint:
    """One design point of a sweep: what to run and with which parameters.

    ``kind`` selects the evaluation recipe (see :func:`evaluate_point`),
    ``platform`` names the engine the point runs on (a registry key, part of
    the on-disk cache identity), and ``params`` is a sorted tuple of
    ``(name, value)`` pairs so that points are hashable, comparable and
    JSON-stable.
    """

    kind: str
    benchmark: str
    label: str
    platform: str = ""
    params: Tuple[Tuple[str, object], ...] = ()

    def param(self, name: str) -> object:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"sweep point {self.label!r} has no parameter {name!r}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "label": self.label,
            "platform": self.platform,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one design point: its measured values plus provenance."""

    point: SweepPoint
    values: Dict[str, float]
    cached: bool
    elapsed: float

    @property
    def ops_per_cycle(self) -> float:
        return self.values["ops_per_cycle"]


def _point(
    kind: str, benchmark: str, label: str, platform: str, **params: object
) -> SweepPoint:
    return SweepPoint(
        kind=kind,
        benchmark=benchmark,
        label=label,
        platform=platform,
        params=tuple(sorted(params.items())),
    )


def tree_arrangement_points(
    benchmark: str = DEFAULT_BENCHMARK,
    arrangements: Iterable[Tuple[str, int, int]] = TREE_ARRANGEMENTS,
) -> List[SweepPoint]:
    return [
        _point(
            "tree_arrangement",
            benchmark,
            name,
            PLATFORM_PTREE,
            n_trees=n_trees,
            n_levels=n_levels,
        )
        for name, n_trees, n_levels in arrangements
    ]


def allocation_points(benchmark: str = DEFAULT_BENCHMARK) -> List[SweepPoint]:
    return [
        _point(
            "allocation",
            benchmark,
            f"{alloc}/{config}",
            config,
            conflict_aware=(alloc == "conflict-aware"),
        )
        for alloc in ("conflict-aware", "naive")
        for config in (PLATFORM_PVECT, PLATFORM_PTREE)
    ]


def packing_points(benchmark: str = DEFAULT_BENCHMARK) -> List[SweepPoint]:
    return [
        _point(
            "packing", benchmark, label, PLATFORM_PTREE, pack=(label == "packing on")
        )
        for label in ("packing on", "packing off")
    ]


def gpu_bank_points(benchmark: str = DEFAULT_BENCHMARK) -> List[SweepPoint]:
    return [
        _point("gpu_banks", benchmark, label, PLATFORM_GPU, allocation=allocation)
        for label, allocation in (
            ("graph coloring", "coloring"),
            ("interleaved", "interleaved"),
        )
    ]


def all_sweep_points(benchmark: str = DEFAULT_BENCHMARK) -> List[SweepPoint]:
    """The full design space covered by this module, as a flat point list."""
    return (
        tree_arrangement_points(benchmark)
        + allocation_points(benchmark)
        + packing_points(benchmark)
        + gpu_bank_points(benchmark)
    )


def filter_points(
    points: Sequence[SweepPoint], platforms: Optional[Sequence[str]] = None
) -> List[SweepPoint]:
    """Keep only the points running on one of ``platforms`` (``None``: all).

    Raises ``ValueError`` when a requested platform matches no point, so a
    typo on the command line fails loudly instead of silently running an
    empty sweep.
    """
    if platforms is None:
        return list(points)
    wanted = set(platforms)
    if not wanted:
        raise ValueError(
            "platforms filter is empty; pass None to run every platform"
        )
    present = {p.platform for p in points}
    unknown = wanted - present
    if unknown:
        known = ", ".join(sorted(present))
        raise ValueError(
            f"no sweep points on platform(s) {sorted(unknown)}; "
            f"platforms in this sweep: {known}"
        )
    return [p for p in points if p.platform in wanted]


def evaluate_point(point: SweepPoint) -> Dict[str, float]:
    """Evaluate one design point (runs in a worker process under ``parallel``).

    The benchmark is bound through its shared
    :class:`~repro.api.session.InferenceSession`
    (:func:`repro.suite.registry.benchmark_session`) and the platform
    engine always comes from the registry
    (:func:`repro.platforms.get_engine`); the ``kind`` recipe only decides
    how the engine is re-parameterized and which scheduler options apply
    before the session measures it
    (:meth:`~repro.api.session.InferenceSession.throughput`).
    """
    from ..suite.registry import benchmark_session

    if point.kind not in ("tree_arrangement", "allocation", "packing", "gpu_banks"):
        raise ValueError(f"unknown sweep point kind {point.kind!r}")
    session = benchmark_session(point.benchmark)
    engine = get_engine(point.platform)
    options: Optional[ScheduleOptions] = None
    if point.kind == "tree_arrangement":
        engine = engine.configured(
            name=point.label,
            n_trees=int(point.param("n_trees")),
            n_levels=int(point.param("n_levels")),
            n_banks=32,
            bank_depth=64,
        )
    elif point.kind == "allocation":
        options = ScheduleOptions(
            conflict_aware_allocation=bool(point.param("conflict_aware"))
        )
    elif point.kind == "packing":
        options = ScheduleOptions(pack_multiple_cones=bool(point.param("pack")))
    elif point.kind == "gpu_banks":
        engine = engine.configured(bank_allocation=str(point.param("allocation")))
    result = session.throughput(engine, options=options)
    return {"ops_per_cycle": float(result.ops_per_cycle)}


def _evaluate_point_timed(point: SweepPoint) -> Tuple[Dict[str, float], float]:
    start = time.perf_counter()
    values = evaluate_point(point)
    return values, time.perf_counter() - start


# --------------------------------------------------------------------------- #
# Keyed on-disk cache
# --------------------------------------------------------------------------- #
_CODE_FINGERPRINT: Optional[str] = None


def _code_fingerprint() -> str:
    """Content hash of the whole ``repro`` package source, computed once.

    Folding this into every cache key means any code change — simulator,
    scheduler, suite profiles — invalidates the on-disk sweep cache, so a
    stale entry can never masquerade as a fresh measurement.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode("utf-8"))
            digest.update(source.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()[:16]
    return _CODE_FINGERPRINT


def cache_key(point: SweepPoint, code: Optional[str] = None) -> str:
    """Stable content hash of a design point (the on-disk cache key).

    Any change to the point's kind, benchmark, platform or parameters
    — or to :data:`CACHE_VERSION` or the ``repro`` package source
    (:func:`_code_fingerprint`) — yields a different key, so stale entries
    are never returned for a modified configuration or modified code.
    ``code`` lets a caller that keys many points pass the package
    fingerprint once (:func:`run_sweep` hoists it per call) instead of
    re-resolving it per point.
    """
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "code": code if code is not None else _code_fingerprint(),
            **point.as_dict(),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _cache_path(cache_dir: Path, point: SweepPoint, code: Optional[str]) -> Path:
    return Path(cache_dir) / f"{cache_key(point, code)}.json"


def _cache_load(
    cache_dir: Path, point: SweepPoint, code: Optional[str]
) -> Optional[Dict[str, float]]:
    path = _cache_path(cache_dir, point, code)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return None
    if entry.get("point") != _jsonable(point.as_dict()):
        return None  # hash collision or hand-edited file: recompute
    values = entry.get("values")
    return dict(values) if isinstance(values, dict) else None


def _cache_store(
    cache_dir: Path, point: SweepPoint, values: Mapping[str, float], code: Optional[str]
) -> None:
    path = _cache_path(cache_dir, point, code)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"point": point.as_dict(), "values": dict(values)}, handle, default=str)
    os.replace(tmp, path)


def _jsonable(value: object) -> object:
    """Round-trip a value through JSON (tuples -> lists, keys -> strings)."""
    return json.loads(json.dumps(value, default=str))


# --------------------------------------------------------------------------- #
# Parallel runner
# --------------------------------------------------------------------------- #
def run_sweep(
    points: Sequence[SweepPoint],
    parallel: bool = True,
    max_workers: Optional[int] = None,
    cache_dir: Optional[Path] = DEFAULT_CACHE_DIR,
) -> List[SweepResult]:
    """Evaluate a list of design points, in parallel and with caching.

    Cached points (``cache_dir`` set and holding a valid entry; pass
    ``cache_dir=None`` to disable caching) are
    returned immediately; the remaining points are fanned out over a
    ``ProcessPoolExecutor`` with ``max_workers`` processes (default: one per
    CPU, capped by the number of misses).  With ``parallel=False``, or when
    at most one point misses the cache, everything runs in-process.  Results
    are returned in the order of ``points``.
    """
    caching = cache_dir is not None
    # The package source hash is part of every key; resolve it once per
    # call instead of once per point (it digests every .py file on first
    # use, and worker processes must never each redo that).
    code = _code_fingerprint() if caching else None
    results: List[Optional[SweepResult]] = [None] * len(points)
    misses: List[int] = []
    for i, point in enumerate(points):
        values = _cache_load(cache_dir, point, code) if caching else None
        if values is not None:
            results[i] = SweepResult(point=point, values=values, cached=True, elapsed=0.0)
        else:
            misses.append(i)

    if misses:
        miss_points = [points[i] for i in misses]
        if parallel and len(miss_points) > 1:
            workers = max_workers or min(len(miss_points), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_evaluate_point_timed, miss_points))
        else:
            outcomes = [_evaluate_point_timed(p) for p in miss_points]
        for i, (values, elapsed) in zip(misses, outcomes):
            results[i] = SweepResult(
                point=points[i], values=values, cached=False, elapsed=elapsed
            )
            if caching:
                _cache_store(cache_dir, points[i], values, code)

    return [r for r in results if r is not None]


# --------------------------------------------------------------------------- #
# Engine speedup measurement (vectorized tape vs reference execution)
# --------------------------------------------------------------------------- #
def measure_engine_speedup(
    n_vars: int = 128,
    n_samples: int = 1000,
    repeats: int = 3,
    seed: int = 5,
) -> Dict[str, float]:
    """Time the reference executors against the vectorized tape.

    Builds a deterministic RAT-SPN with >= 1k nodes, draws an
    ``n_samples``-row evidence batch, and measures three ways of computing
    the same root values:

    * ``t_reference`` — the row-by-row interpretation of the flat operation
      list (Algorithm 1), the repository's reference execution path
      (measured once; it dominates the runtime);
    * ``t_node_batch`` — the per-node NumPy walk of
      :func:`repro.spn.evaluate.evaluate_batch` (best of ``repeats``);
    * ``t_vectorized`` — the compiled tape of :mod:`repro.spn.compiled`
      (best of ``repeats``), plus its one-off ``t_compile``.

    Returns a flat dict with the timings, the derived speedups and the
    network's shape, ready for inclusion in ``BENCH_sweeps.json``.
    """
    import numpy as np

    from ..baselines.cpu import execute_baseline
    from ..spn.compiled import compile_tape
    from ..spn.evaluate import evaluate_batch
    from ..spn.generate import RatSpnConfig, generate_rat_spn, random_evidence
    from ..spn.linearize import linearize

    spn = generate_rat_spn(
        RatSpnConfig(
            n_vars=n_vars, depth=n_vars, repetitions=2, n_sums=2,
            split_balance=0.1, seed=seed,
        )
    )
    ops = linearize(spn)
    data = random_evidence(n_vars, observed_fraction=0.8, seed=seed, n_samples=n_samples)

    start = time.perf_counter()
    tape = compile_tape(ops)
    t_compile = time.perf_counter() - start

    def best_of(fn, n: int) -> Tuple[float, "np.ndarray"]:
        best, out = float("inf"), None
        for _ in range(max(1, n)):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
        return best, out

    t_vectorized, vec = best_of(lambda: tape.execute_batch(data), repeats)
    t_node_batch, ref_batch = best_of(lambda: evaluate_batch(spn, data), repeats)
    t_reference, ref = best_of(lambda: execute_baseline(ops, data), 1)

    if not np.allclose(vec, ref, rtol=1e-9, atol=0.0) or not np.allclose(
        vec, ref_batch, rtol=1e-9, atol=0.0
    ):
        raise AssertionError("engines disagree during the speedup measurement")

    return {
        "n_nodes": len(spn.topological_order()),
        "n_operations": ops.n_operations,
        "n_levels": ops.depth(),
        "n_samples": int(n_samples),
        "t_compile_s": t_compile,
        "t_reference_s": t_reference,
        "t_node_batch_s": t_node_batch,
        "t_vectorized_s": t_vectorized,
        "speedup_vs_reference": t_reference / t_vectorized,
        "speedup_vs_node_batch": t_node_batch / t_vectorized,
    }


# --------------------------------------------------------------------------- #
# Query-API speedup measurement (batched Conditional vs per-row scalar path)
# --------------------------------------------------------------------------- #
#: Benchmark used by the query-API measurement: the suite network with the
#: widest gap between the per-row reference walk and the batched tape.
QUERY_BENCHMARK = "Netflix"


def measure_query_speedup(
    benchmark: str = QUERY_BENCHMARK,
    n_rows: int = 256,
    n_scalar_rows: int = 48,
    repeats: int = 5,
    seed: int = 21,
) -> Dict[str, float]:
    """Time a batched ``Conditional`` against the per-row scalar path.

    Conditionals are the newly-batchable workload of the typed query API:
    one :class:`~repro.api.queries.Conditional` batch is planned as exactly
    **two** log-domain tape passes (joint and evidence, subtracted),
    regardless of the row count, while the scalar path pays two *per-row*
    network evaluations — plus construction and dispatch — per answer.

    Draws ``n_rows`` random evidence rows on the benchmark (one queried
    variable per row, the rest partially observed) and measures three ways
    of answering the same conditionals:

    * ``t_scalar_reference`` — the per-row scalar path as it existed before
      the typed API (and still exists as ``engine="python"``): one
      single-row query at a time, each executing two log-domain *reference
      walks* of the network.  Conditionals could not reach the batched
      engines at all before this API — this is the honest "what a caller
      previously paid per answer" baseline (measured on
      ``n_scalar_rows`` rows, best of 3 loops; it dominates the runtime).
    * ``t_scalar_session`` — one single-row ``session.run`` per answer on
      the vectorized session (the per-answer cost of a caller that does
      not batch).
    * ``t_batched`` — one batched ``session.run(Conditional(...))`` over
      all ``n_rows`` rows (best of ``repeats``).

    The batched result is asserted **bit-identical** to the per-row
    vectorized path (the tape kernels are elementwise across rows) and
    ``allclose`` to the reference walk.  Returns a flat dict — timings,
    derived speedups, the plan's evaluation count — ready for the
    ``query_api`` section of ``BENCH_sweeps.json``.  The headline ``speedup_batched_vs_scalar``
    compares against the reference per-row path.
    """
    import numpy as np

    from ..api import Conditional, InferenceSession
    from ..spn.generate import random_evidence

    session = InferenceSession(benchmark, warm=True)
    reference_session = InferenceSession(benchmark, engine="python")
    n_vars = session.n_vars
    rng = np.random.default_rng(seed)
    evidence = random_evidence(n_vars, observed_fraction=0.5, seed=seed, n_samples=n_rows)
    query = np.full_like(evidence, -1)
    queried = rng.integers(0, n_vars, size=n_rows)
    evidence[np.arange(n_rows), queried] = -1  # the queried var is never evidence
    query[np.arange(n_rows), queried] = rng.integers(0, 2, size=n_rows)

    batch = Conditional(evidence=evidence, query=query)
    plan = session.plan(batch)

    before = session.evaluations
    start = time.perf_counter()
    batched = session.run(batch)
    t_batched = time.perf_counter() - start
    passes = session.evaluations - before
    for _ in range(max(0, repeats - 1)):
        start = time.perf_counter()
        again = session.run(batch)
        t_batched = min(t_batched, time.perf_counter() - start)
        if not np.array_equal(again, batched):  # pragma: no cover - determinism guard
            raise AssertionError("batched conditional is not deterministic")

    # Per-row reference path: one single-row query per answer, two log
    # reference walks each (best of 3 loops over the measured prefix).
    n_scalar = min(n_scalar_rows, n_rows)
    singles = [
        Conditional(evidence=evidence[i], query=query[i]) for i in range(n_scalar)
    ]
    t_scalar_reference = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference = np.array([reference_session.run(q)[0] for q in singles])
        t_scalar_reference = min(t_scalar_reference, time.perf_counter() - start)
    t_scalar_reference /= n_scalar

    # Single-row vectorized sessions, per row — best of 3 loops, symmetric
    # with the reference-path timing above.
    t_scalar_session = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        per_row = np.array([session.run(q)[0] for q in singles])
        t_scalar_session = min(t_scalar_session, time.perf_counter() - start)
    t_scalar_session /= n_scalar

    if not np.array_equal(batched[:n_scalar], per_row):
        raise AssertionError(
            "batched Conditional disagrees with the single-row session"
        )
    if not np.allclose(batched[:n_scalar], reference, rtol=1e-9, atol=0.0):
        raise AssertionError(
            "batched Conditional disagrees with the per-row reference walk"
        )

    t_batched_per_row = t_batched / n_rows
    return {
        "benchmark": benchmark,
        "n_rows": int(n_rows),
        "n_vars": int(n_vars),
        "tape_passes_per_batch": int(passes),
        "planned_passes": int(plan.n_evaluations),
        "t_scalar_reference_per_row_s": t_scalar_reference,
        "t_scalar_session_per_row_s": t_scalar_session,
        "t_batched_s": t_batched,
        "throughput_scalar_reference_rps": 1.0 / t_scalar_reference,
        "throughput_scalar_session_rps": 1.0 / t_scalar_session,
        "throughput_batched_rps": n_rows / t_batched,
        "speedup_batched_vs_scalar": t_scalar_reference / t_batched_per_row,
        "speedup_batched_vs_scalar_session": t_scalar_session / t_batched_per_row,
        "bit_identical": True,
    }


# --------------------------------------------------------------------------- #
# Analysis-query speedup measurement (batched Classify vs per-state scalars)
# --------------------------------------------------------------------------- #
def measure_classify_speedup(
    benchmark: str = QUERY_BENCHMARK,
    n_rows: int = 256,
    n_scalar_rows: int = 48,
    repeats: int = 5,
    seed: int = 23,
) -> Dict[str, float]:
    """Time a batched ``Classify`` against the per-state Conditional loop.

    ``Classify`` is predict_proba over a target variable: for every row,
    the posterior ``P(target = s | e)`` over all of the target's states.
    Without the analysis kind, a caller assembles it from conditionals —
    one single-row :class:`~repro.api.queries.Conditional` per *(row,
    state)* pair, i.e. ``2 * n_rows * n_states`` tape passes.  The batched
    kind plans the whole sweep as exactly **two** log-domain passes (one
    joint sweep over every state of every row, one evidence pass) no
    matter the batch size or state count.

    Both paths run the same vectorized engine, so the batched posteriors
    are asserted **bit-identical** to the per-state loop (the tape kernels
    are elementwise across rows, and the subtraction/exponentiation is the
    same scalar arithmetic).  The loop is measured on ``n_scalar_rows``
    rows (best of 3 loops); the batch on all ``n_rows`` (best of
    ``repeats``).  Returns a flat dict for the ``analysis_queries``
    section of ``BENCH_sweeps.json``, including the planned/observed pass
    counts of every analysis kind on this benchmark.
    """
    import numpy as np

    from ..api import (
        Classify,
        Conditional,
        Entropy,
        Expectation,
        InferenceSession,
        MutualInformation,
        Sample,
    )
    from ..spn.generate import random_evidence

    session = InferenceSession(benchmark, warm=True)
    n_vars = session.n_vars
    evidence = random_evidence(
        n_vars, observed_fraction=0.5, seed=seed, n_samples=n_rows
    )
    rng = np.random.default_rng(seed)
    target = int(rng.integers(0, n_vars))
    evidence[:, target] = -1  # the classified variable is never evidence

    batch = Classify(evidence=evidence, target=target)
    plan = session.plan(batch)
    states = session.domains()[target]

    before = session.evaluations
    start = time.perf_counter()
    batched = session.run(batch)
    t_batched = time.perf_counter() - start
    passes = session.evaluations - before
    for _ in range(max(0, repeats - 1)):
        start = time.perf_counter()
        again = session.run(batch)
        t_batched = min(t_batched, time.perf_counter() - start)
        if not np.array_equal(again, batched):  # pragma: no cover - determinism guard
            raise AssertionError("batched Classify is not deterministic")

    # Per-state loop: one single-row Conditional per (row, state) pair,
    # through the same vectorized session — the honest "assemble
    # predict_proba yourself" baseline (best of 3 loops).
    n_scalar = min(n_scalar_rows, n_rows)
    singles = []
    for i in range(n_scalar):
        for s in states:
            query = np.full(n_vars, -1, dtype=np.int64)
            query[target] = s
            singles.append(Conditional(evidence=evidence[i], query=query))
    t_loop = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        loop = np.array([session.run(q)[0] for q in singles])
        t_loop = min(t_loop, time.perf_counter() - start)
    t_loop /= n_scalar

    if not np.array_equal(batched[:n_scalar].ravel(), loop):
        raise AssertionError(
            "batched Classify disagrees with the per-state Conditional loop"
        )

    # Plan shapes of the remaining analysis kinds on this benchmark — the
    # fixed pass counts the docs promise, recorded for the artifact.
    free = np.array(evidence[:8], copy=True)
    analysis_passes = {
        "classify": plan.n_evaluations,
        "expectation": session.plan(
            Expectation(evidence=free, variables=(0, 1))
        ).n_evaluations,
        "entropy": session.plan(
            Entropy(evidence=free, variables=(0, 1))
        ).n_evaluations,
        "mutual_information": session.plan(
            MutualInformation(evidence=free, variables=(0, 1, 2))
        ).n_evaluations,
        "sample_free_vars": session.plan(
            Sample(evidence=free, n_samples=2)
        ).n_evaluations,
    }

    t_batched_per_row = t_batched / n_rows
    return {
        "benchmark": benchmark,
        "n_rows": int(n_rows),
        "n_vars": int(n_vars),
        "n_states": int(len(states)),
        "target": int(target),
        "tape_passes_per_batch": int(passes),
        "planned_passes": int(plan.n_evaluations),
        "analysis_passes": analysis_passes,
        "t_per_state_loop_per_row_s": t_loop,
        "t_batched_s": t_batched,
        "throughput_loop_rps": 1.0 / t_loop,
        "throughput_batched_rps": n_rows / t_batched,
        "speedup_batched_vs_loop": t_loop / t_batched_per_row,
        "bit_identical": True,
    }


# --------------------------------------------------------------------------- #
# Tape-memory measurement (the memory plan vs the dense slot matrix)
# --------------------------------------------------------------------------- #
def measure_tape_memory(
    benchmark: Optional[str] = None,
    n_rows: int = 8192,
    repeats: int = 3,
    seed: int = 33,
) -> Dict[str, object]:
    """Measure the memory-planned tape executor on one suite profile.

    The dense reference executor
    (:meth:`~repro.spn.compiled.CompiledTape.execute_slots`) materializes an
    ``(n_slots, n_rows)`` slot matrix; the planner (:mod:`repro.spn.memplan`)
    shrinks the working set to ``plan.n_physical`` rows via liveness-based
    slot reuse, lazy input encoding and broadcast-constant operands.  On the
    largest suite profile (``benchmark=None`` picks it by tape slots) this
    reports:

    * **peak slot-buffer memory** per row — analytic: ``8 * n_slots`` dense
      (``peak_bytes_per_row_legacy``) vs ``8 * plan.n_physical`` planned
      (the ``memory_reduction`` ratio);
    * **throughput** — planned wall-clock over an ``n_rows`` batch in both
      domains (best of ``repeats``).

    Before any number is reported, both the NumPy planned executor and
    ``execute_batch`` (the native interpreter when it is available) are
    asserted **bit-identical** (``array_equal``) to the dense root on a
    256-row prefix in both domains; a log pass is held to the dense roots
    combined by the same per-row rule
    (:func:`~repro.spn.compiled.log_via_linear`).  Returns a flat dict for
    the ``tape_memory`` section of ``BENCH_sweeps.json``.
    """
    import numpy as np

    from ..spn.compiled import log_via_linear
    from ..spn.generate import random_evidence
    from ..spn.memplan import execute_plan
    from ..suite.registry import benchmark_n_vars, benchmark_names, benchmark_tape

    if benchmark is None:
        benchmark = max(benchmark_names(), key=lambda n: benchmark_tape(n).n_slots)
    tape = benchmark_tape(benchmark)
    plan = tape.memory_plan()
    n_vars = benchmark_n_vars(benchmark)
    data = random_evidence(n_vars, observed_fraction=0.6, seed=seed, n_samples=n_rows)

    prefix = data[:256]

    def dense(rows, log=False):
        return tape.execute_slots(rows, log_domain=log)[tape.root_slot]

    for log in (False, True):
        if not np.array_equal(execute_plan(plan, prefix, log), dense(prefix, log), equal_nan=True):
            raise AssertionError(
                f"planned execution is not bit-identical to the dense slot "
                f"matrix (log_domain={log})"
            )
        expected = (
            log_via_linear(prefix, tape.linear_floor(), dense, lambda rows: dense(rows, True))
            if log
            else dense(prefix)
        )
        batch = tape.execute_batch(prefix, log_domain=log)
        if not np.array_equal(batch, expected, equal_nan=True):
            raise AssertionError(
                f"execute_batch is not bit-identical to the dense slot matrix "
                f"(log_domain={log})"
            )
    times: Dict[bool, float] = {}
    for log in (False, True):
        times[log] = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            tape.execute_batch(data, log_domain=log)
            times[log] = min(times[log], time.perf_counter() - start)

    return {
        "benchmark": benchmark,
        "n_rows": int(n_rows),
        "n_vars": int(n_vars),
        "n_slots": int(tape.n_slots),
        "n_physical": int(plan.n_physical),
        "max_live": int(plan.max_live),
        "n_kernels": int(plan.n_kernels),
        "memory_reduction": tape.n_slots / plan.n_physical,
        "peak_bytes_per_row_legacy": 8 * int(tape.n_slots),
        "peak_bytes_per_row_planned": 8 * int(plan.n_physical),
        "t_planned_s": times[False],
        "t_planned_log_s": times[True],
        "throughput_planned_rps": n_rows / times[False],
        "cpu_count": int(os.cpu_count() or 1),
        "bit_identical": True,
    }


# --------------------------------------------------------------------------- #
# Model-lifecycle measurement (AOT cold start + hot-swap under load)
# --------------------------------------------------------------------------- #
def measure_lifecycle(
    n_vars: int = 24,
    n_train_rows: int = 2000,
    repeats: int = 3,
    n_requests: int = 200,
    request_rows: int = 8,
    seed: int = 20,
) -> Dict[str, object]:
    """Measure the AOT artifact path against recompile-from-source.

    Two costs bracket a model's route to production
    (:mod:`repro.lifecycle`):

    * **cold start** — the recompile path (dataset → LearnSPN →
      linearize → compile → memory-plan → session) vs the AOT path
      (:func:`~repro.lifecycle.artifact.load_artifact` + a session that
      adopts the shipped tape and plan), best of ``repeats`` each; the
      loaded session's golden replay is asserted bit-identical
      (:func:`~repro.lifecycle.golden.replay_deviation` == 0) to the
      freshly compiled one before any number is reported;
    * **hot swap** — a blocking ``n_requests``-request log-likelihood
      stream against an :class:`~repro.serving.InferenceServer` while a
      background thread publishes a retrained (bit-identical) candidate
      version through the full shadow-validated
      :meth:`~repro.serving.InferenceServer.publish` path.  Every
      response is checked against the offline expectation; a request
      counts as *lost* if it errors or returns anything else.  Per-request
      latency percentiles record the swap's pause, and ``t_publish_s`` is
      the full publish cost including the golden-replay validation.

    Returns a flat dict for the ``model_lifecycle`` section of
    ``BENCH_sweeps.json``.
    """
    import tempfile
    import threading

    import numpy as np

    from ..api.queries import LogLikelihood
    from ..lifecycle.artifact import load_artifact, save_artifact
    from ..lifecycle.golden import golden_evidence, golden_replay, replay_deviation
    from ..lifecycle.train import TrainingJob, train_artifact
    from ..serving import InferenceServer
    from ..spn.datasets import DatasetSpec
    from ..spn.generate import random_evidence

    def job(version: str) -> TrainingJob:
        return TrainingJob(
            name="bench-lifecycle",
            dataset=DatasetSpec(n_vars=n_vars, n_rows=n_train_rows, seed=seed),
            version=version,
        )

    # Recompile path: everything from raw data to a query-ready session.
    t_recompile = float("inf")
    artifact = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        artifact = train_artifact(job("1"))
        fresh = artifact.session()
        t_recompile = min(t_recompile, time.perf_counter() - start)

    with tempfile.TemporaryDirectory() as tmp:
        path = save_artifact(artifact, Path(tmp) / "bench-lifecycle.json")
        artifact_bytes = path.stat().st_size
        # AOT cold start: parse, integrity-check, adopt tape + plan.
        t_cold = float("inf")
        cold = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            cold = load_artifact(path).session()
            t_cold = min(t_cold, time.perf_counter() - start)

    evidence = golden_evidence(n_vars)
    deviation = replay_deviation(
        golden_replay(cold, evidence), golden_replay(fresh, evidence)
    )
    if deviation != 0.0:
        raise AssertionError(
            f"cold-started session is not bit-identical to the fresh compile "
            f"(deviation={deviation})"
        )

    # The candidate: the same job retrained under a new version label —
    # identical weights, so the shadow validation's golden replay passes at
    # tolerance 0 and every in-flight answer stays byte-comparable.
    candidate = train_artifact(job("2"))
    request_evidence = random_evidence(
        n_vars, observed_fraction=0.5, seed=seed, n_samples=request_rows
    )
    want = np.asarray(fresh.run(LogLikelihood(evidence=request_evidence)))

    latencies: List[float] = []
    lost = 0
    publish_elapsed: List[float] = []
    with InferenceServer(models=[artifact]) as server:

        def swap() -> None:
            start = time.perf_counter()
            server.publish("bench-lifecycle", "2", candidate)
            publish_elapsed.append(time.perf_counter() - start)

        swapper = threading.Thread(target=swap)
        for i in range(n_requests):
            if i == n_requests // 3:
                swapper.start()
            start = time.perf_counter()
            try:
                value = server.query(
                    "bench-lifecycle", request_evidence, kind="log_likelihood"
                )
            except Exception:
                lost += 1
                continue
            latencies.append(time.perf_counter() - start)
            if not np.array_equal(np.asarray(value), want):
                lost += 1
        swapper.join(timeout=60)
        live_after = server.live_version("bench-lifecycle")

    lat = np.asarray(latencies) if latencies else np.asarray([float("nan")])
    return {
        "n_vars": int(n_vars),
        "n_train_rows": int(n_train_rows),
        "artifact_bytes": int(artifact_bytes),
        "t_recompile_s": t_recompile,
        "t_cold_start_s": t_cold,
        "cold_start_speedup": t_recompile / t_cold,
        "golden_deviation": float(deviation),
        "n_requests": int(n_requests),
        "request_rows": int(request_rows),
        "requests_lost": int(lost),
        "t_publish_s": float(publish_elapsed[0]) if publish_elapsed else float("nan"),
        "latency_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "latency_p99_ms": float(np.percentile(lat, 99) * 1e3),
        "latency_max_ms": float(lat.max() * 1e3),
        "live_version_after_swap": live_after,
        "cpu_count": int(os.cpu_count() or 1),
        "bit_identical": True,
    }


def measure_observability_overhead(
    benchmark: str = DEFAULT_BENCHMARK,
    n_rows: int = 2048,
    repeats: int = 5,
    passes: int = 3,
) -> Dict[str, object]:
    """Measure what the observability subsystem costs when off, on, and profiling.

    Three regimes over the same planned-executor workload (``n_rows``
    log-likelihood rows through the ``benchmark`` tape, best of
    ``repeats`` timings of ``passes`` consecutive passes each):

    * **disabled** (``configure(metrics=False, tracing=False)``) — the
      instrumented :meth:`~repro.spn.compiled.CompiledTape.execute_batch`
      against the raw executors it runs without a profiler on the same
      :class:`~repro.spn.memplan.MemoryPlan` — the native interpreter
      (:func:`repro.spn.native.execute`; NumPy's
      :func:`~repro.spn.memplan.execute_plan` without a C compiler) for the
      linear pass, ``execute_plan`` for the exact log kernels — combined by
      the same per-row rule (:func:`~repro.spn.compiled.log_via_linear`),
      so the ratio measures instrumentation only.  The instrumentation
      adds one contextvar read per batch; the gate requires the ratio
      <= 1.02.
    * **enabled** (metrics + tracing on) — :meth:`InferenceSession.run`
      with span recording against the same call with observability off.
      Spans amortize per *pass*, never per kernel; gate <= 1.10.
    * **profiled** (a per-call :class:`~repro.observability.TapeProfiler`)
      — explicitly exempt from the overhead gates, but its per-kernel
      elapsed must explain >= 90% of the profiled pass wall time
      (``profile_coverage``), or the "top kernels" table is fiction.  A
      profiled pass runs NumPy's per-kernel loop, so ``overhead_profiled``
      divides it by a NumPy raw arm (``t_raw_numpy_loop_s``:
      ``execute_plan`` for the linear pass too, under the same per-row
      rule) and measures the profiler, not the native-vs-NumPy gap.

    Every regime's result is asserted bit-identical to the raw loop's
    before any time is reported.  Returns a flat dict for the
    ``observability`` section of ``BENCH_sweeps.json``.
    """
    import numpy as np

    from .. import observability
    from ..api.queries import LogLikelihood
    from ..api.session import InferenceSession
    from ..observability import TapeProfiler, observability_scope
    from ..spn import native
    from ..spn.compiled import log_via_linear
    from ..spn.generate import random_evidence
    from ..spn.memplan import execute_plan
    from ..suite.registry import benchmark_n_vars, benchmark_tape

    tape = benchmark_tape(benchmark)
    plan = tape.memory_plan()
    evidence = random_evidence(
        benchmark_n_vars(benchmark),
        observed_fraction=0.5,
        seed=31,
        n_samples=n_rows,
    )
    session = InferenceSession(benchmark)
    query = LogLikelihood(evidence=evidence)

    def raw_arm(linear):
        def run():
            with observability_scope(metrics=False, tracing=False):
                return log_via_linear(
                    evidence,
                    tape.linear_floor(),
                    lambda rows: linear(plan, rows),
                    lambda rows: execute_plan(plan, rows, log_domain=True),
                )

        return run

    def run_disabled():
        with observability_scope(metrics=False, tracing=False):
            return tape.execute_batch(evidence, log_domain=True)

    def run_session_off():
        with observability_scope(metrics=False, tracing=False):
            return session.run(query)

    def run_session_on():
        with observability_scope(metrics=True, tracing=True):
            return session.run(query)

    profiler = TapeProfiler()

    def run_profiled():
        with profiler:
            return tape.execute_batch(evidence, log_domain=True)

    # Each ratio's two arms run back to back, denominator first.
    regimes = {
        "raw": raw_arm(native.execute if native.available() else execute_plan),
        "disabled": run_disabled,
        "session_off": run_session_off,
        "session_on": run_session_on,
        "raw_numpy": raw_arm(execute_plan),
        "profiled": run_profiled,
    }
    outputs = {label: np.asarray(fn()) for label, fn in regimes.items()}  # warm
    # Interleave the regimes within each repeat (and keep the best-of-N
    # minimum per regime): clock-frequency or cache drift over the
    # measurement then shifts every regime together instead of biasing
    # whichever one happened to run last, which is what the overhead
    # *ratios* are sensitive to.
    timings = {label: float("inf") for label in regimes}
    for _ in range(max(1, repeats)):
        for label, fn in regimes.items():
            start = time.perf_counter()
            for _ in range(max(1, passes)):
                fn()
            timings[label] = min(
                timings[label], (time.perf_counter() - start) / max(1, passes)
            )
    t_raw = timings["raw"]
    t_raw_numpy = timings["raw_numpy"]
    t_disabled = timings["disabled"]
    t_session_off = timings["session_off"]
    t_session_on = timings["session_on"]
    t_profiled = timings["profiled"]

    reference = outputs["raw"]
    for label, out in outputs.items():
        if not np.array_equal(out, reference):
            raise AssertionError(
                f"{label} execution is not bit-identical to the raw kernel loop"
            )

    table = profiler.table(top=3)
    return {
        "benchmark": benchmark,
        "n_rows": int(n_rows),
        "n_kernels": len(tape.kernels),
        "t_raw_loop_s": t_raw,
        "t_raw_numpy_loop_s": t_raw_numpy,
        "t_disabled_s": t_disabled,
        "t_session_off_s": t_session_off,
        "t_session_on_s": t_session_on,
        "t_profiled_s": t_profiled,
        "overhead_disabled": t_disabled / t_raw,
        "overhead_enabled": t_session_on / t_session_off,
        "overhead_profiled": t_profiled / t_raw_numpy,
        "profile_coverage": profiler.coverage(),
        "profile_total_gb": profiler.total_bytes / 1e9,
        "top_kernels": [
            {
                "kernel": row["kernel"],
                "op": row["op"],
                "width": int(row["width"]),
                "share": row["share"],
                "gb_per_s": row["gb_per_s"],
            }
            for row in table
        ],
        "bit_identical": True,
        "cpu_count": int(os.cpu_count() or 1),
    }


# --------------------------------------------------------------------------- #
# BENCH_sweeps.json emission
# --------------------------------------------------------------------------- #
def measure_static_analysis() -> Dict[str, object]:
    """Measure the static verification layer across the nine suite profiles.

    Four facts for the ``static_analysis`` section of ``BENCH_sweeps.json``:

    * **verify cost vs compile cost** — for every profile, the structural
      proof (tape verifier + memory-plan verifier) timed against a fresh
      linearize → compile → plan of the same network; the benchmark gates
      the total ratio at <= 5%, the budget that makes always-on
      load/publish gates free in practice.  Abstract interpretation is
      timed separately (``analyze_s``): it is an advisory analysis, not
      part of the pass/fail gate the lifecycle wires in everywhere;
    * **mutation detection** — every applicable mutator of the seeded
      corpus (:mod:`repro.statics.mutate`) applied to every profile; the
      gate requires 100% detection;
    * **false positives** — every unmutated profile must verify clean
      (counted here, gated at zero);
    * **lint** — finding count over the installed ``repro`` package source
      (gated at zero) plus what the abstract interpreter proved
      (normalization for all nine; which profiles carry linear-domain
      underflow risk).
    """
    import time as _time
    from pathlib import Path as _Path

    import repro as _repro
    from ..spn.compiled import compile_tape
    from ..spn.linearize import linearize
    from ..statics.absint import analyze_tape
    from ..statics.lint import lint_paths
    from ..statics.mutate import MUTATORS, mutate
    from ..statics.verifier import VerificationError, verify_compiled
    from ..suite.registry import benchmark_names, build_benchmark

    compile_s = 0.0
    verify_s = 0.0
    analyze_s = 0.0
    false_positives = 0
    proved_normalized = 0
    underflow_flagged = []
    applied = 0
    detected = 0
    for name in benchmark_names():
        spn = build_benchmark(name)
        started = _time.perf_counter()
        tape = compile_tape(linearize(spn))
        plan = tape.memory_plan()
        compile_s += _time.perf_counter() - started

        started = _time.perf_counter()
        try:
            verify_compiled(tape, plan)
        except VerificationError:
            false_positives += 1
        verify_s += _time.perf_counter() - started

        started = _time.perf_counter()
        analysis = analyze_tape(tape)
        analyze_s += _time.perf_counter() - started
        if analysis.proves_log_nonpositive:
            proved_normalized += 1
        if analysis.underflow_risk:
            underflow_flagged.append(name)

        for seed, mutator in enumerate(MUTATORS):
            result = mutate(mutator, tape, plan, seed=seed + 1)
            if result is None:
                continue
            applied += 1
            try:
                verify_compiled(*result)
            except VerificationError:
                detected += 1

    lint_findings = len(lint_paths([_Path(_repro.__file__).parent]))
    return {
        "profiles": len(benchmark_names()),
        "compile_s": compile_s,
        "verify_s": verify_s,
        "analyze_s": analyze_s,
        "verify_vs_compile": verify_s / compile_s if compile_s else float("inf"),
        "mutators": len(MUTATORS),
        "mutations_applied": applied,
        "mutations_detected": detected,
        "detection_rate": detected / applied if applied else 0.0,
        "false_positives": false_positives,
        "proved_normalized": proved_normalized,
        "underflow_flagged": sorted(underflow_flagged),
        "lint_findings": lint_findings,
    }


def _read_bench_json(path: Path) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        return {}
    return existing if isinstance(existing, dict) else {}


def _round_floats(value: object) -> object:
    """Round every float to 6 significant digits, recursively.

    Applied to the whole ``BENCH_sweeps.json`` payload on every write:
    sub-microsecond timing noise in the 15th digit otherwise rewrites all
    ~40 lines of the artifact on every PR without carrying information
    (bools pass through — they are ints to ``isinstance``; non-finite
    floats have no significant digits to round).
    """
    if isinstance(value, bool) or not isinstance(value, float):
        if isinstance(value, dict):
            return {k: _round_floats(v) for k, v in value.items()}
        if isinstance(value, list):
            return [_round_floats(v) for v in value]
        return value
    if value != value or value in (float("inf"), float("-inf")):
        return value
    return float(f"{value:.6g}")


def update_bench_json(path: Path, **sections: object) -> Dict[str, object]:
    """Merge ``sections`` into the artifact at ``path``, preserving other keys.

    Several benchmark writers contribute to the same ``BENCH_sweeps.json``
    (the sweep grid, the engine speedup, the serving benchmark); merging
    keeps the artifact whole no matter which writer runs last.  The file is
    emitted deterministically — sections and keys sorted, floats rounded to
    6 significant digits — so re-running a benchmark only rewrites the
    lines whose measurements genuinely moved.
    """
    payload = _read_bench_json(Path(path))
    payload.setdefault("schema", "BENCH_sweeps/v1")
    payload.update(sections)
    payload = _round_floats(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str, sort_keys=True)
        handle.write("\n")
    return payload


def write_bench_json(
    results: Sequence[SweepResult],
    path: Path = Path("BENCH_sweeps.json"),
    benchmark: str = DEFAULT_BENCHMARK,
    engine_speedup: Optional[Mapping[str, float]] = None,
    merge_sweeps: bool = False,
) -> Dict[str, object]:
    """Write the consolidated sweep artifact and return its payload.

    Top-level keys already present in the file but not produced by this call
    (for example a ``serving`` section written by
    ``benchmarks/test_bench_serving.py``) are preserved.  With
    ``merge_sweeps=True`` the existing ``sweeps`` entries are kept too,
    except those for the points measured now (matched by kind, benchmark,
    label and platform) — so a platform-filtered run updates its rows
    without dropping the other platforms' rows from the artifact.
    """
    sweeps: List[Dict[str, object]] = [
        {
            **result.point.as_dict(),
            **result.values,
            "cached": result.cached,
            "elapsed_s": round(result.elapsed, 6),
        }
        for result in results
    ]
    if merge_sweeps:
        def entry_key(entry: Mapping[str, object]) -> tuple:
            return tuple(entry.get(k) for k in ("kind", "benchmark", "label", "platform"))

        existing = _read_bench_json(Path(path)).get("sweeps")
        if isinstance(existing, list):
            fresh = {entry_key(e) for e in sweeps}
            sweeps = [
                e for e in existing
                if isinstance(e, dict) and entry_key(e) not in fresh
            ] + sweeps
    sections: Dict[str, object] = {
        "benchmark": benchmark,
        "sweeps": sweeps,
    }
    if engine_speedup is not None:
        sections["engine_speedup"] = dict(engine_speedup)
    return update_bench_json(Path(path), **sections)


# --------------------------------------------------------------------------- #
# Named sweeps (thin shapers over the runner, used by tests and benchmarks)
# --------------------------------------------------------------------------- #
def _values_by_label(results: Iterable[SweepResult]) -> Dict[str, float]:
    return {r.point.label: r.ops_per_cycle for r in results}


def _allocation_by_label(results: Iterable[SweepResult]) -> Dict[str, Dict[str, float]]:
    """Decode ``"alloc/config"`` labels into a nested ``{alloc: {config: value}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for result in results:
        alloc, config = result.point.label.split("/", 1)
        out.setdefault(alloc, {})[config] = result.ops_per_cycle
    return out


def tree_arrangement_sweep(
    benchmark: str = DEFAULT_BENCHMARK,
    arrangements: Iterable[Tuple[str, int, int]] = TREE_ARRANGEMENTS,
    parallel: bool = False,
    cache_dir: Optional[Path] = None,
) -> Dict[str, float]:
    """Throughput for several PE-tree arrangements with the same register file."""
    results = run_sweep(
        tree_arrangement_points(benchmark, arrangements),
        parallel=parallel,
        cache_dir=cache_dir,
    )
    return _values_by_label(results)


def allocation_ablation(
    benchmark: str = DEFAULT_BENCHMARK,
    parallel: bool = False,
    cache_dir: Optional[Path] = None,
) -> Dict[str, Dict[str, float]]:
    """Conflict-aware vs naive register-bank allocation for Ptree and Pvect."""
    results = run_sweep(
        allocation_points(benchmark),
        parallel=parallel,
        cache_dir=cache_dir,
    )
    return _allocation_by_label(results)


def packing_ablation(
    benchmark: str = DEFAULT_BENCHMARK,
    parallel: bool = False,
    cache_dir: Optional[Path] = None,
) -> Dict[str, float]:
    """Effect of packing several cones per tree per cycle (Ptree only)."""
    results = run_sweep(
        packing_points(benchmark),
        parallel=parallel,
        cache_dir=cache_dir,
    )
    return _values_by_label(results)


def gpu_bank_allocation_ablation(
    benchmark: str = DEFAULT_BENCHMARK,
    parallel: bool = False,
    cache_dir: Optional[Path] = None,
) -> Dict[str, float]:
    """GPU shared-memory bank allocation: graph coloring vs interleaved layout."""
    results = run_sweep(
        gpu_bank_points(benchmark),
        parallel=parallel,
        cache_dir=cache_dir,
    )
    return _values_by_label(results)


# --------------------------------------------------------------------------- #
# Rendering and CLI
# --------------------------------------------------------------------------- #
def main(
    benchmark: str = DEFAULT_BENCHMARK,
    parallel: bool = True,
    cache_dir: Optional[Path] = DEFAULT_CACHE_DIR,
) -> str:
    """Render all sweeps for one benchmark (single parallel, cached fan-out)."""
    results = run_sweep(
        all_sweep_points(benchmark),
        parallel=parallel,
        cache_dir=cache_dir,
    )
    return render_sweeps(results, benchmark)


def render_sweeps(results: Sequence[SweepResult], benchmark: str) -> str:
    """Render already-computed sweep results as the four ASCII tables."""
    by_kind: Dict[str, List[SweepResult]] = {}
    for result in results:
        by_kind.setdefault(result.point.kind, []).append(result)

    sections: List[str] = []
    sections.append(
        format_table(
            ["arrangement", "ops/cycle"],
            list(_values_by_label(by_kind.get("tree_arrangement", ())).items()),
            title=f"PE arrangement sweep ({benchmark})",
        )
    )
    allocation = _allocation_by_label(by_kind.get("allocation", ()))
    # A platform-filtered sweep may carry only one of the two configs.
    rows = [
        (label, values.get("Pvect", "-"), values.get("Ptree", "-"))
        for label, values in allocation.items()
    ]
    sections.append(
        format_table(
            ["register allocation", "Pvect", "Ptree"],
            rows,
            title=f"Register-bank allocation ablation ({benchmark})",
        )
    )
    sections.append(
        format_table(
            ["scheduler", "ops/cycle"],
            list(_values_by_label(by_kind.get("packing", ())).items()),
            title=f"Subtree packing ablation ({benchmark})",
        )
    )
    sections.append(
        format_table(
            ["GPU bank allocation", "ops/cycle"],
            list(_values_by_label(by_kind.get("gpu_banks", ())).items()),
            title=f"GPU shared-memory bank allocation ({benchmark})",
        )
    )
    return "\n\n".join(sections)


def _cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the design-space sweeps (parallel, cached) and "
        "optionally emit BENCH_sweeps.json."
    )
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--serial", action="store_true", help="disable the process pool")
    parser.add_argument("--workers", type=int, default=None, help="process-pool size")
    parser.add_argument("--no-cache", action="store_true", help="ignore the on-disk cache")
    parser.add_argument("--cache-dir", type=Path, default=DEFAULT_CACHE_DIR)
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="write the BENCH_sweeps.json artifact to PATH")
    parser.add_argument("--skip-speedup", action="store_true",
                        help="skip the engine, query-API and classify speedup, "
                        "tape-memory and lifecycle measurements")
    parser.add_argument("--platforms", nargs="+", default=None, metavar="NAME",
                        help="only run sweep points on these platform-registry "
                        "names (e.g. --platforms GPU Ptree)")
    args = parser.parse_args(argv)

    cache_dir = None if args.no_cache else args.cache_dir
    results = run_sweep(
        filter_points(all_sweep_points(args.benchmark), args.platforms),
        parallel=not args.serial,
        max_workers=args.workers,
        cache_dir=cache_dir,
    )
    print(render_sweeps(results, args.benchmark))
    speedup = query_speedup = tape_memory = None
    classify_speedup = lifecycle = None
    if not args.skip_speedup:
        speedup = measure_engine_speedup()
        print(
            f"\nengine speedup: vectorized tape is "
            f"{speedup['speedup_vs_reference']:.1f}x the reference executor "
            f"({speedup['n_operations']} ops, {speedup['n_samples']} rows)"
        )
        query_speedup = measure_query_speedup()
        print(
            f"query-API speedup: one batched Conditional "
            f"({query_speedup['tape_passes_per_batch']} tape passes, "
            f"{query_speedup['n_rows']} rows) is "
            f"{query_speedup['speedup_batched_vs_scalar']:.1f}x the per-row "
            f"scalar path"
        )
        classify_speedup = measure_classify_speedup()
        print(
            f"analysis-query speedup: one batched Classify "
            f"({classify_speedup['tape_passes_per_batch']} tape passes, "
            f"{classify_speedup['n_rows']} rows x "
            f"{classify_speedup['n_states']} states) is "
            f"{classify_speedup['speedup_batched_vs_loop']:.1f}x the "
            f"per-state Conditional loop"
        )
        tape_memory = measure_tape_memory()
        print(
            f"tape memory: planner shrinks the working set "
            f"{tape_memory['memory_reduction']:.1f}x "
            f"({tape_memory['n_slots']} -> {tape_memory['n_physical']} rows on "
            f"{tape_memory['benchmark']}), planned executor "
            f"{tape_memory['throughput_planned_rps']:.0f} rows/s"
        )
        lifecycle = measure_lifecycle()
        print(
            f"model lifecycle: AOT cold start is "
            f"{lifecycle['cold_start_speedup']:.1f}x recompile-from-source "
            f"({lifecycle['t_cold_start_s'] * 1e3:.0f} ms vs "
            f"{lifecycle['t_recompile_s'] * 1e3:.0f} ms), hot swap lost "
            f"{lifecycle['requests_lost']}/{lifecycle['n_requests']} requests"
        )
    if args.json is not None:
        write_bench_json(
            results,
            args.json,
            args.benchmark,
            engine_speedup=speedup,
            # A platform-filtered run must not drop the other platforms'
            # rows from an already-merged artifact.
            merge_sweeps=args.platforms is not None,
        )
        if query_speedup is not None:
            update_bench_json(args.json, query_api=query_speedup)
        if classify_speedup is not None:
            update_bench_json(args.json, analysis_queries=classify_speedup)
        if tape_memory is not None:
            update_bench_json(args.json, tape_memory=tape_memory)
        if lifecycle is not None:
            update_bench_json(args.json, model_lifecycle=lifecycle)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(_cli())
