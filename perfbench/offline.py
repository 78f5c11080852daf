"""The two closed-loop offline workloads: ``offline_value`` and ``offline_analysis``.

One caller runs a seeded schedule of typed queries against sessions it
built itself.  The schedule is a sequence of *rounds*; a round issues every
(model, query kind) pair once, in a seeded order, on freshly drawn seeded
evidence.  Each pair's row count is fixed, so the work of a round does not
depend on the seed — only the evidence values and the order do.

Set-up is the cold build of every session from its generator profile —
generate, linearize, compile the tape, plan memory, ``verify_compiled``.
It is repeated at evenly spaced instants across the run and reported as the
median, so one slow phase of the host cannot decide it.  A host probe runs
after every query and around every set-up, and the reported times are at
the reference host speed (``common.scaled``).

After the timed window the ``engine="python"`` reference walk re-answers
the first rows of every value query, and of the first few queries of each
analysis (model, kind) pair, and they are compared at the oracle
tolerance; every analysis answer is also checked against the bounds its
kind must meet.  MPE completions are checked for evidence consistency and
for being a local maximum of the reference walk under single-variable
flips.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.api import (
    MPE,
    Classify,
    Conditional,
    Entropy,
    Expectation,
    InferenceSession,
    Likelihood,
    LogLikelihood,
    Marginal,
    MutualInformation,
    Sample,
)
from repro.spn.compiled import compile_tape
from repro.spn.generate import generate_rat_spn
from repro.spn.linearize import linearize
from repro.statics.verifier import verify_compiled
from repro.suite.registry import get_profile

from .common import (
    Outcomes, median, probe_s, quantile, scaled, timed_setup, values_close, values_equal,
)

#: Observed-variable share of generated evidence rows.
OBSERVED = 0.7
#: Cold set-ups per run, evenly spaced from its start to its end.
SETUP_REPS = 7


@dataclass
class Model:
    name: str
    n_vars: int
    session: InferenceSession
    tape_slots: int
    peak_slots: int


def build_models(names) -> List[Model]:
    """Cold-build one session per suite profile (the workloads' set-up)."""
    models = []
    for name in names:
        profile = get_profile(name)
        spn = generate_rat_spn(profile.generator_config())
        tape = compile_tape(linearize(spn))
        plan = tape.memory_plan()
        verify_compiled(tape, plan)
        session = InferenceSession(spn, tape=tape, n_vars=profile.model_vars)
        models.append(
            Model(name, profile.model_vars, session, tape.n_slots, plan.n_physical)
        )
    return models


def evidence(rng: np.random.Generator, n_rows: int, n_vars: int) -> np.ndarray:
    rows = rng.integers(0, 2, size=(n_rows, n_vars))
    rows[rng.random((n_rows, n_vars)) >= OBSERVED] = -1
    return rows


def evidence_exact(rng: np.random.Generator, n_rows: int, n_vars: int) -> np.ndarray:
    """Like :func:`evidence`, with exactly the expected number free in every row.

    The MPE search enumerates every completion of a row when few variables
    are free, so its cost doubles with each free variable; a fixed count
    keeps a query's work independent of the seed.
    """
    rows = rng.integers(0, 2, size=(n_rows, n_vars))
    free = round((1.0 - OBSERVED) * n_vars)
    for row in rows:
        row[rng.choice(n_vars, size=free, replace=False)] = -1
    return rows


# --------------------------------------------------------------------------- #
# Query kinds: a maker, the rows the reference re-answers, a cheap invariant
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Kind:
    make: Callable  # (rng, model, n_rows) -> query
    reference_rows: int
    #: Reference checks per (model, kind) pair and run; the rest get only
    #: ``invariant`` (the python walk of a sweep-expanded analysis query costs
    #: as much as the query itself).
    reference_limit: int = 1 << 30
    invariant: Callable = lambda query, result: True


def _probabilities(result, axis=-1) -> bool:
    result = np.asarray(result)
    return bool(
        ((result >= 0) & (result <= 1 + 1e-9)).all()
        and np.allclose(result.sum(axis=axis), 1.0, rtol=1e-9)
    )


def _value_kinds() -> Dict[str, Kind]:
    def likelihood(rng, m, n):
        return Likelihood(evidence=evidence(rng, n, m.n_vars))

    def log_likelihood(rng, m, n):
        return LogLikelihood(evidence=evidence(rng, n, m.n_vars))

    def marginal(rng, m, n):
        return Marginal(evidence=evidence(rng, n, m.n_vars), normalize=True)

    def conditional(rng, m, n):
        ev = evidence(rng, n, m.n_vars)
        query = np.full_like(ev, -1)
        pick = (ev < 0) & (rng.random(ev.shape) < 0.3)
        query[pick] = rng.integers(0, 2, size=int(pick.sum()))
        return Conditional(query=query, evidence=ev)

    return {
        "likelihood": Kind(likelihood, 2),
        "log_likelihood": Kind(log_likelihood, 2),
        "marginal": Kind(marginal, 2),
        "conditional": Kind(conditional, 2),
    }


def _analysis_kinds() -> Dict[str, Kind]:
    def variables(rng, m, k=4):
        return tuple(int(v) for v in sorted(rng.choice(m.n_vars, size=k, replace=False)))

    def classify(rng, m, n):
        ev = evidence(rng, n, m.n_vars)
        target = int(rng.integers(m.n_vars))
        ev[:, target] = -1
        return Classify(evidence=ev, target=target)

    def entropy(rng, m, n):
        return Entropy(evidence=evidence(rng, n, m.n_vars), variables=variables(rng, m))

    def expectation(rng, m, n):
        return Expectation(
            evidence=evidence(rng, n, m.n_vars), variables=variables(rng, m),
            moment=2, center=True,
        )

    def mutual_information(rng, m, n):
        return MutualInformation(
            evidence=evidence(rng, n, m.n_vars), variables=variables(rng, m)
        )

    def sample(rng, m, n):
        return Sample(
            evidence=evidence(rng, n, m.n_vars), n_samples=4,
            seed=int(rng.integers(1 << 30)),
        )

    def mpe(rng, m, n):
        return MPE(evidence=evidence_exact(rng, n, m.n_vars))

    # Binary variables bound every analysis answer; violating a bound is a
    # wrong answer whatever the reference would say.
    log2 = np.log(2.0) + 1e-9

    def entropy_ok(_query, result):
        return bool(((result >= -1e-9) & (result <= log2)).all())

    def variance_ok(_query, result):
        return bool(((result >= -1e-9) & (result <= 0.25 + 1e-9)).all())

    def information_ok(_query, result):
        return bool(
            np.allclose(result, np.swapaxes(result, 1, 2), rtol=0, atol=0)
            and (result >= -1e-9).all()
            and (result <= log2).all()
        )

    def sample_ok(query, result):
        observed = query.evidence >= 0
        echoed = (result == query.evidence[:, None, :]) | ~observed[:, None, :]
        return bool(echoed.all() and ((result == 0) | (result == 1)).all())

    def mpe_ok(query, result):
        return all(
            all(completion.get(v) == row[v] for v in np.flatnonzero(row >= 0))
            for row, completion in zip(query.evidence, result)
        )

    return {
        "classify": Kind(classify, 2, 3, lambda q, r: _probabilities(r)),
        "entropy": Kind(entropy, 1, 3, entropy_ok),
        "expectation": Kind(expectation, 1, 3, variance_ok),
        "mutual_information": Kind(mutual_information, 1, 3, information_ok),
        "sample": Kind(sample, 1, 2, sample_ok),
        "mpe": Kind(mpe, 1, 3, mpe_ok),
    }


@dataclass(frozen=True)
class Spec:
    """One offline workload: its models, query kinds and rows per query."""

    models: Tuple[str, ...]
    kinds: Dict[str, Kind]
    rows: Callable[[str, str], int]  # (model, kind) -> rows per query


def _value_rows(model: str, kind: str) -> int:
    return 4096 if model in ("EEG-eye", "KDDCup2k") else 2048


_ANALYSIS_ROWS = {
    "classify": 512,
    "entropy": 128,
    "expectation": 128,
    "mutual_information": 48,
    "sample": 24,
    "mpe": 3,
}

SPECS = {
    "offline_value": Spec(
        ("EEG-eye", "KDDCup2k", "Audio", "BBC"), _value_kinds(), _value_rows
    ),
    "offline_analysis": Spec(
        ("CPU", "MSNBC", "KDDCup2k"), _analysis_kinds(),
        lambda model, kind: _ANALYSIS_ROWS[kind],
    ),
}


# --------------------------------------------------------------------------- #
# Checks against the reference walk
# --------------------------------------------------------------------------- #
def _slice(query, rows: int):
    """The first ``rows`` rows of ``query`` as a query of the same kind.

    The arrays are copied: a view would keep the whole batch alive for as
    long as the prefix waits for its check.
    """
    head = query.evidence[:rows].copy()
    if isinstance(query, Conditional):
        return Conditional(query=query.query[:rows].copy(), evidence=head, **query.params())
    if isinstance(query, Sample):
        # A row's k-th draw does not depend on n_samples, so the reference
        # re-draws only the first sample.
        return Sample(
            evidence=head, row_ids=query.row_ids[:rows].copy(), n_samples=1,
            seed=query.seed,
        )
    return type(query)(evidence=head, **query.params())


def _log_value(reference: InferenceSession, assignment: np.ndarray) -> float:
    return float(reference.run(LogLikelihood(evidence=assignment[None, :]))[0])


def check_mpe(reference: InferenceSession, row: np.ndarray, completion: dict) -> bool:
    """Consistent with the evidence, complete, and a local maximum under flips.

    Exact enumeration and the refined max-product search both return a
    completion no single-variable flip improves; every suite variable is
    binary, so a flip is ``1 - value``.
    """
    n_vars = reference.n_vars
    full = np.array([completion.get(v, -1) for v in range(n_vars)], dtype=np.int64)
    observed = row[:n_vars] >= 0
    if (full < 0).any() or not np.array_equal(full[observed], row[:n_vars][observed]):
        return False
    best = _log_value(reference, full)
    if not np.isfinite(best):
        return False
    for var in np.flatnonzero(~observed):
        flipped = full.copy()
        flipped[var] = 1 - flipped[var]
        if _log_value(reference, flipped) > best + 1e-9 * abs(best):
            return False
    return True


def check_prefix(reference: InferenceSession, head, result) -> bool:
    """A query's first rows (``head``) and their vectorized result vs the reference."""
    if isinstance(head, MPE):
        return all(
            check_mpe(reference, row, completion)
            for row, completion in zip(head.evidence, result)
        )
    expected = reference.run(head)
    if isinstance(head, Sample):
        return values_equal(result, expected)
    if isinstance(head, (Entropy, MutualInformation)):
        got, want = np.asarray(result), np.asarray(expected)
        return got.shape == want.shape and bool(
            np.allclose(got, want, rtol=1e-9, atol=1e-9, equal_nan=True)
        )
    return values_close(result, expected, isinstance(head, LogLikelihood))


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #
@dataclass
class OfflineRun:
    outcomes: Outcomes
    setup_s: List[float]
    #: The same set-ups at the reference host speed.
    setup_ref_s: List[float] = field(default_factory=list)
    #: (model, kind, rows, seconds, traced) per query, in the order issued.
    queries: List[Tuple[str, str, int, float, bool]] = field(default_factory=list)
    #: The host probe taken right after each query (see ``common.scaled``).
    probes: List[float] = field(default_factory=list)
    rounds: int = 0
    models: List[Model] = field(default_factory=list)
    wall_s: float = 0.0


def run_offline(
    workload: str, seed: int, seconds: float,
    traced: Callable[[int], bool] = lambda i: False, tracer=None,
) -> OfflineRun:
    """Run ``workload`` for ``seconds``; ``traced(i)`` says which queries trace."""
    spec = SPECS[workload]
    outcomes = Outcomes()
    run = OfflineRun(outcomes, [])
    marks = [seconds * i / (SETUP_REPS - 1) for i in range(SETUP_REPS)]
    pairs = [(m, k) for m in range(len(spec.models)) for k in spec.kinds]
    pending: List[Tuple[Model, object, object, bool]] = []
    referenced: Dict[Tuple[str, str], int] = {}

    def setup() -> List[Model]:
        models, seconds, reference = timed_setup(lambda: build_models(spec.models))
        run.setup_s.append(seconds)
        run.setup_ref_s.append(reference)
        return models

    if tracer is not None:
        tracer.install()
    run.models = models = setup()
    if tracer is not None:
        tracer.uninstall()
    start = time.perf_counter()
    index = 0
    while True:
        rng = np.random.default_rng([seed, run.rounds])
        order = rng.permutation(len(pairs))
        for p in order:
            model_index, kind = pairs[p]
            model = models[model_index]
            kind_spec = spec.kinds[kind]
            query = kind_spec.make(rng, model, spec.rows(model.name, kind))
            trace = tracer is not None and traced(index)
            if trace:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = model.session.run(query)
            except Exception as exc:  # a failed query is a failed operation
                outcomes.record(False, f"{model.name} {kind}: {exc!r}")
                result = None
            elapsed = time.perf_counter() - t0
            if trace:
                tracer.uninstall()
            index += 1
            if result is None:
                continue
            run.queries.append((model.name, kind, query.n_rows, elapsed, trace))
            run.probes.append(probe_s())
            ok = kind_spec.invariant(query, result)
            seen = referenced.get((model.name, kind), 0)
            if seen < kind_spec.reference_limit:
                referenced[(model.name, kind)] = seen + 1
                rows = kind_spec.reference_rows
                head = result[:rows] if isinstance(result, list) else np.array(
                    result[:rows, :1] if isinstance(query, Sample) else result[:rows]
                )
                pending.append((model, _slice(query, rows), head, ok))
            else:
                outcomes.record(ok, f"{model.name} {kind}: invariant violated")
        run.rounds += 1
        now = time.perf_counter() - start
        while len(run.setup_s) < SETUP_REPS and now >= marks[len(run.setup_s)]:
            if tracer is not None:
                tracer.install()
            setup()
            if tracer is not None:
                tracer.uninstall()
            now = time.perf_counter() - start
        if now >= seconds and len(run.setup_s) >= SETUP_REPS:
            break
    run.wall_s = time.perf_counter() - start

    references = {
        m.name: InferenceSession(m.session.spn, engine="python", n_vars=m.n_vars)
        for m in models
    }
    for model, head, result, ok in pending:
        try:
            ok = check_prefix(references[model.name], head, result) and ok
        except Exception as exc:  # the reference itself failing fails the query
            ok = False
            outcomes.errors.append(f"{model.name} {head.kind.value} check: {exc!r}")
        outcomes.record(ok, f"{model.name} {head.kind.value}: reference mismatch")
    return run


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def _by_pair(queries) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    pairs: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for model, kind, rows, seconds, _traced in queries:
        pairs.setdefault((model, kind), []).append((rows, seconds))
    return pairs


def round_profile(queries) -> Tuple[float, List[float]]:
    """Rows per second and per-query latencies (ms) of one reconstructed round.

    Each (model, kind) pair stands in the round once, at the median of its
    samples, so a pair weighs what it weighs in the schedule however many
    rounds the run completed — a quantile never jumps between the clusters
    of two kinds because the run fit one round more or less.
    """
    pairs = _by_pair(queries)
    rows = sum(samples[0][0] for samples in pairs.values())
    latencies = [median([s for _, s in samples]) for samples in pairs.values()]
    return rows / sum(latencies), [s * 1e3 for s in latencies]


def measure(workload: str, seed: int, seconds: float, tracer=None):
    """Run an offline workload; returns (outcomes, end-to-end, per-layer, notes)."""
    traced = (lambda i: i % 2 == 0) if tracer is not None else (lambda i: False)
    run = run_offline(workload, seed, seconds, traced=traced, tracer=tracer)
    # The queries with their seconds at the reference host speed.
    at_reference = [
        q[:3] + (s, q[4])
        for q, s in zip(run.queries, scaled([q[3] for q in run.queries], run.probes))
    ]
    timed = [q for q in at_reference if not q[4]]
    rate, latencies = round_profile(timed)
    end_to_end = {
        "setup_s": median(run.setup_ref_s),
        "work_per_s": rate,
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_p90_ms": quantile(latencies, 0.9),
    }
    raw_rate, _ = round_profile([q for q in run.queries if not q[4]])
    notes = [
        f"{run.rounds} rounds, {len(run.queries)} queries, "
        f"{sum(q[2] for q in run.queries)} rows in {run.wall_s:.1f} s",
        f"as measured: {raw_rate:.6g} rows/s, host probe median "
        f"{median(run.probes) * 1e3:.3f} ms",
        "set-ups (s): " + " ".join(f"{s:.3f}" for s in run.setup_s),
    ]
    layers: Dict[str, float] = {
        "spn.tape_slots": sum(m.tape_slots for m in run.models),
        "spn.peak_slots": sum(m.peak_slots for m in run.models),
    }
    if tracer is None:
        return run.outcomes, end_to_end, layers, notes
    traced_queries = [q for q in run.queries if q[4]]
    ops = len(traced_queries)
    setups = len(run.setup_s)
    ratios = []
    traced_pairs = _by_pair([q for q in at_reference if q[4]])
    untraced_pairs = _by_pair(timed)
    for key, samples in traced_pairs.items():
        if key in untraced_pairs:
            ratios.append(
                median([s for _, s in samples])
                / median([s for _, s in untraced_pairs[key]])
            )
    wall = sum(q[3] for q in traced_queries) + sum(run.setup_s)
    _, unattributed, _ = tracer.accounting(wall)
    gbps, encode_share = tracer.kernel_stats()
    t, c = tracer.total_s, tracer.calls
    layers.update({
        "spn.tape.calls": c["spn.tape"] / ops,
        "spn.tape.busy_s": t["spn.tape"] / ops,
        "spn.tape.rows_per_call": tracer.counts["spn.tape.rows"] / max(c["spn.tape"], 1),
        "spn.tape.log_share": tracer.counts["spn.tape.log_s"] / max(t["spn.tape"], 1e-12),
        "spn.kernel.gbps": gbps,
        "spn.encode.share": encode_share,
        "spn.generate_s": t["spn.generate"] / setups,
        "spn.linearize_s": t["spn.linearize"] / setups,
        "spn.compile_tape_s": t["spn.compile_tape"] / setups,
        "spn.memory_plan_s": t["spn.memory_plan"] / setups,
        "statics.verify_s": t["statics.verify"] / setups,
        "api.run.calls": c["api.run"] / ops,
        "api.run.self_s": tracer.self_time("api.run") / ops,
        "api.mpe.busy_s": t["api.mpe"] / ops,
        # 0 when no (model, kind) pair ran both traced and untraced.
        "trace.overhead_ratio": median(ratios) if ratios else 0.0,
        "trace.unattributed_share": unattributed,
    })
    for key, values in tracer.samples.items():
        if key.startswith("api.passes."):
            layers[f"api.passes_per_query.{key[len('api.passes.'):]}"] = median(values)
    if tracer.samples.get("api.passes.sample"):
        samples = tracer.samples["api.passes.sample"]
        layers["api.sample.passes"] = sum(samples) / len(samples)
    notes.append(f"layer self time over {wall:.2f} s traced:")
    notes.extend(tracer.top_layers(wall))
    return run.outcomes, end_to_end, layers, notes
