"""The inference session: one front door for every query, engine and platform.

:class:`InferenceSession` binds a model — an :class:`~repro.spn.graph.SPN`
object or a suite-registry benchmark name — to an execution engine
(``"vectorized"`` tape or ``"python"`` reference walk) and answers every
typed query of :mod:`repro.api.queries` through the same batched dispatch:

* :meth:`plan` turns a query into its :class:`QueryPlan` — the minimal set
  of vectorized tape evaluations (a :class:`~repro.api.queries.Conditional`
  batch is exactly **two** log-domain passes: joint and evidence,
  subtracted — never a per-row python walk);
* :meth:`run` executes that plan with the existing cached-tape machinery
  (:func:`repro.spn.compiled.cached_tape`) and optional ``check=True``
  engine cross-checking;
* :meth:`throughput` measures the bound model on any registered *platform*
  engine (:mod:`repro.platforms`) — the paper's ops/cycle metric — so the
  experiments issue queries and throughput probes through one object.

Every evaluation pass is observable: the session counts tape evaluations
(:attr:`InferenceSession.evaluations`) and calls an optional
:attr:`on_evaluate` hook, which is how the tests assert the planning
guarantees (e.g. two passes per conditional batch, not ``2 * n_rows``).

Sessions are cheap — the heavy artifacts (SPN, tape, operation list,
partition function) are cached per model, and a structurally mutated model
recomputes each of them.  A single answer is a one-row batch: the session
is the only way a query runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..observability import TRACER
from ..spn.compiled import resolve_engine
from ..spn.evaluate import evaluate_batch, evaluate_log_batch, row_evidence
from ..spn.graph import SPN
from ..spn.linearize import OperationList, linearize
from ..spn.nodes import IndicatorLeaf
from .queries import (
    MPE,
    Classify,
    Conditional,
    Entropy,
    Expectation,
    Likelihood,
    LogLikelihood,
    Marginal,
    MutualInformation,
    Query,
    QueryKind,
    Sample,
    evidence_rows,
)

__all__ = ["EvalPass", "QueryPlan", "InferenceSession"]


@dataclass(frozen=True)
class EvalPass:
    """One planned tape evaluation: its domain and what it evaluates."""

    domain: str  # "linear" | "log"
    operand: str  # "evidence" | "joint" | "partition"
    cached: bool = False  # True: served from the session cache when warm


@dataclass(frozen=True)
class QueryPlan:
    """The evaluation recipe for one query batch.

    ``passes`` lists the tape evaluations in execution order;
    ``postprocess`` names the elementwise combination applied afterwards.
    ``n_evaluations`` is the number of *uncached* batched tape passes the
    plan performs — the quantity the evaluation-count hook observes.

    ``tape_slots``/``peak_slots`` are the memory-plan statistics of the
    tape's executor (:class:`~repro.spn.memplan.MemoryPlan`): the dense
    slot count of the compiled tape and the physical working-set rows each
    pass actually keeps resident (zero for the python reference engine,
    which has no tape).  ``peak_bytes_per_row`` is the executor's peak
    slot-buffer footprint per evidence row.
    """

    kind: QueryKind
    n_rows: int
    passes: Tuple[EvalPass, ...]
    postprocess: str = ""
    tape_slots: int = 0
    peak_slots: int = 0

    @property
    def n_evaluations(self) -> int:
        return sum(1 for p in self.passes if not p.cached)

    @property
    def peak_bytes_per_row(self) -> int:
        return self.peak_slots * 8


def _entropy_terms(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each row of ``probs``, with 0 log 0 = 0.

    ``nan`` rows (zero-probability evidence) come out finite here — the
    callers re-mask them from the evidence pass, which keeps this helper a
    pure elementwise reduction.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=1)


class InferenceSession:
    """Bind one model to one engine and answer every typed query through it.

    Parameters
    ----------
    model:
        An :class:`~repro.spn.graph.SPN` or a suite-registry benchmark name
        (resolved via :func:`repro.suite.registry.build_benchmark`).
    engine:
        Functional execution engine for the tape passes, as accepted by
        :func:`repro.spn.evaluate.evaluate_batch` (``"vectorized"``
        default; ``"python"`` for the reference walk).
    check:
        Statically verify the tape and its memory plan, then cross-check
        every vectorized pass against the reference engine on a batch
        prefix (:class:`~repro.spn.compiled.EngineMismatchError` on
        disagreement); see :func:`repro.spn.evaluate.evaluate_batch`.
    warm:
        Compile the model's tape into the tape cache at construction
        instead of on the first query (keeps compilation latency out of
        the serving path).
    tape:
        A precompiled :class:`~repro.spn.compiled.CompiledTape` for
        ``model`` (AOT artifacts, :mod:`repro.lifecycle`).  The session
        adopts it into the tape cache, so every vectorized pass runs the
        shipped tape and construction never compiles.
    n_vars:
        Explicit evidence width (overrides the width derived from the
        model's indicators); AOT artifacts record it so a loaded model
        admits the exact same evidence shapes as the one that was saved.
    """

    def __init__(
        self,
        model: Union[SPN, str],
        engine: str = "vectorized",
        check: bool = False,
        warm: bool = False,
        tape=None,
        n_vars: Optional[int] = None,
    ) -> None:
        if isinstance(model, str):
            from ..suite.registry import benchmark_n_vars, build_benchmark

            self.name: Optional[str] = model
            self.spn: SPN = build_benchmark(model)
            self.n_vars: int = benchmark_n_vars(model)
        else:
            self.name = None
            self.spn = model
            self.n_vars = (
                max(
                    (n.var for n in model.nodes() if isinstance(n, IndicatorLeaf)),
                    default=-1,
                )
                + 1
            )
        if n_vars is not None:
            self.n_vars = int(n_vars)
        self.engine = resolve_engine(engine)
        self.check = check
        # Guards the evaluation counter and the lazy caches: sessions are
        # shared by serving worker pools (n_workers > 1).
        self._lock = threading.Lock()
        #: Batched tape evaluations performed so far (the plan-count hook).
        self.evaluations: int = 0
        #: Optional callback ``(domain, n_rows)`` invoked per tape pass.
        self.on_evaluate: Optional[Callable[[str, int], None]] = None
        #: key -> (fingerprint, pinned children, value); see :meth:`_fresh`.
        self._cache: Dict[str, tuple] = {}
        if self.engine == "vectorized" and (tape is not None or warm):
            from ..spn.compiled import adopt_tape, cached_tape

            if tape is not None:
                adopt_tape(self.spn, tape)
            else:
                cached_tape(self.spn)

    @property
    def tape(self):
        """The compiled tape the vectorized passes run (``None`` on the
        reference engine).

        Read from the tape cache (:func:`repro.spn.compiled.cached_tape`),
        which holds it while the model lives and recompiles after a
        structural change, so this is never a stale program.
        """
        if self.engine != "vectorized":
            return None
        from ..spn.compiled import cached_tape

        return cached_tape(self.spn)

    # ------------------------------------------------------------------ #
    # Evidence handling
    # ------------------------------------------------------------------ #
    def encode(self, evidence) -> np.ndarray:
        """Normalize evidence to a 2-D batch at least ``n_vars`` wide.

        Wider rows are kept — no indicator reads the surplus columns
        (exact for value queries), and out-of-range observed entries
        survive into MPE completions.  Fixed-width policies on top of this
        (rejecting observed surplus entries, trimming to the model width)
        belong to the serving layer's admission
        (:meth:`repro.serving.server.InferenceServer._encode`).
        """
        return evidence_rows(evidence, self.n_vars)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(self, query: Query) -> QueryPlan:
        """The minimal evaluation recipe for ``query`` (no execution).

        Planning rules:

        * ``Likelihood`` — one linear pass over the evidence batch.
        * ``LogLikelihood`` — one log pass.
        * ``Marginal`` — one log pass (log or normalized output; the
          normalizing partition pass is cached per session) or one linear
          pass (the raw linear case).
        * ``Conditional`` — exactly **two** log passes, joint and evidence,
          combined elementwise; never a per-row walk, and never more than
          two passes regardless of the batch size.
        * ``Classify`` — the same two-pass shape as ``Conditional``: one
          joint sweep over the target's states and one evidence pass,
          subtracted, for any batch size and state count.
        * ``Expectation`` / ``Entropy`` — exactly **two** log passes: one
          shared state sweep over every requested variable's states and
          one evidence pass; the moments / entropies are elementwise
          post-processing.
        * ``MutualInformation`` — exactly **three** log passes: a pair
          sweep over all requested variable pairs, the single-variable
          state sweep, and the evidence pass.
        * ``Sample`` — one log pass per *free* variable of the batch (a
          multi-valued model variable unobserved in at least one row):
          the exact chain-rule sweep, batched across rows and samples.
        * ``MPE`` — a per-row search whose candidate scoring batches
          through the log tape internally (pass count depends on the
          network, so it is not enumerated here).

        Every plan also carries the executor's memory statistics
        (``tape_slots``, ``peak_slots``): the compiled tape's dense slot
        count and the physical rows its memory plan actually keeps
        resident per pass.
        """
        if TRACER.enabled and isinstance(query, Query):
            with TRACER.span(
                "session.plan", kind=query.kind.value, n_rows=query.n_rows
            ) as span:
                result = self._plan(query)
                span.set(passes=result.n_evaluations)
                return result
        return self._plan(query)

    def _plan(self, query: Query) -> QueryPlan:
        stats = self._plan_stats()
        if isinstance(query, Conditional):
            return QueryPlan(
                kind=query.kind,
                n_rows=query.n_rows,
                passes=(EvalPass("log", "joint"), EvalPass("log", "evidence")),
                postprocess="subtract" if query.log else "exp(subtract)",
                **stats,
            )
        if isinstance(query, Marginal):
            passes: List[EvalPass] = []
            if query.log or query.normalize:
                passes.append(EvalPass("log", "evidence"))
            else:
                passes.append(EvalPass("linear", "evidence"))
            if query.normalize:
                passes.append(
                    EvalPass("log", "partition", cached="log_z" in self._cache)
                )
            post = ""
            if query.normalize:
                post = "subtract log Z" if query.log else "exp(subtract log Z)"
            return QueryPlan(query.kind, query.n_rows, tuple(passes), post, **stats)
        if isinstance(query, LogLikelihood):
            return QueryPlan(
                query.kind, query.n_rows, (EvalPass("log", "evidence"),), **stats
            )
        if isinstance(query, Likelihood):
            return QueryPlan(
                query.kind, query.n_rows, (EvalPass("linear", "evidence"),), **stats
            )
        if isinstance(query, Classify):
            return QueryPlan(
                kind=query.kind,
                n_rows=query.n_rows,
                passes=(EvalPass("log", "joint"), EvalPass("log", "evidence")),
                postprocess="subtract" if query.log else "exp(subtract)",
                **stats,
            )
        if isinstance(query, (Expectation, Entropy)):
            post = (
                "conditional moments" if isinstance(query, Expectation)
                else "-sum p log p"
            )
            return QueryPlan(
                kind=query.kind,
                n_rows=query.n_rows,
                passes=(EvalPass("log", "state-sweep"), EvalPass("log", "evidence")),
                postprocess=post,
                **stats,
            )
        if isinstance(query, MutualInformation):
            return QueryPlan(
                kind=query.kind,
                n_rows=query.n_rows,
                passes=(
                    EvalPass("log", "pair-sweep"),
                    EvalPass("log", "state-sweep"),
                    EvalPass("log", "evidence"),
                ),
                postprocess="pairwise mutual information",
                **stats,
            )
        if isinstance(query, Sample):
            chain = self._sample_chain(self.encode(query.evidence), self.domains())
            return QueryPlan(
                kind=query.kind,
                n_rows=query.n_rows,
                passes=tuple(EvalPass("log", f"chain:{var}") for var in chain),
                postprocess="inverse-CDF draw per pass",
                **stats,
            )
        if isinstance(query, MPE):
            return QueryPlan(
                query.kind, query.n_rows, (), postprocess="per-row MPE search",
                **stats,
            )
        raise TypeError(f"unknown query type {type(query).__name__}")

    def _plan_stats(self) -> dict:
        """Memory statistics of the executor behind this session's passes."""
        tape = self.tape
        if tape is None:
            return {"tape_slots": 0, "peak_slots": 0}
        if not tape.kernels:
            return {"tape_slots": tape.n_slots, "peak_slots": tape.n_slots}
        return {"tape_slots": tape.n_slots, "peak_slots": tape.memory_plan().n_physical}

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, query: Query):
        """Execute ``query`` and return its batched result.

        Value kinds return a ``(n_rows,)`` float vector; the analysis
        kinds return per-row vectors or matrices (``Expectation`` /
        ``Entropy``: ``(n_rows, k)``, ``MutualInformation``: ``(n_rows,
        k, k)``, ``Classify``: ``(n_rows, n_states)``, ``Sample``:
        ``(n_rows, n_samples, n_vars)`` int64); :class:`MPE` returns a
        list of ``{var: value}`` completions.  Results are bit-identical
        for a row whether it runs alone, inside a larger batch, or through
        the serving layer — the tape kernels are elementwise across rows,
        and :class:`Sample` seeds each row's draws by its row id.
        """
        if not isinstance(query, Query):
            raise TypeError(
                f"expected a typed query (repro.api), got {type(query).__name__}"
            )
        if not TRACER.enabled:
            return self._run(query)
        before = self.evaluations
        with TRACER.span(
            "session.run", kind=query.kind.value, n_rows=query.n_rows
        ) as span:
            result = self._run(query)
            span.set(passes=self.evaluations - before)
            return result

    def _run(self, query: Query):
        if isinstance(query, Conditional):
            log_joint = self._evaluate(self.encode(query.joint), log_domain=True)
            log_evidence = self._evaluate(self.encode(query.evidence), log_domain=True)
            with np.errstate(invalid="ignore"):
                diff = log_joint - log_evidence  # -inf - -inf -> nan (P(e) = 0)
            return diff if query.log else np.exp(diff)
        if isinstance(query, Marginal):
            if query.log or query.normalize:
                values = self._evaluate(self.encode(query.evidence), log_domain=True)
                if query.normalize:
                    values = values - self.log_partition()
                return values if query.log else np.exp(values)
            return self._evaluate(self.encode(query.evidence), log_domain=False)
        if isinstance(query, LogLikelihood):
            return self._evaluate(self.encode(query.evidence), log_domain=True)
        if isinstance(query, Likelihood):
            return self._evaluate(self.encode(query.evidence), log_domain=False)
        if isinstance(query, Classify):
            return self._run_classify(query)
        if isinstance(query, Expectation):
            return self._run_expectation(query)
        if isinstance(query, Entropy):
            return self._run_entropy(query)
        if isinstance(query, MutualInformation):
            return self._run_mutual_information(query)
        if isinstance(query, Sample):
            return self._run_sample(query)
        if isinstance(query, MPE):
            from ..spn.queries import mpe_row

            return [
                mpe_row(self.spn, row_evidence(row), refine=query.refine)
                for row in self.encode(query.evidence)
            ]
        raise TypeError(f"unknown query type {type(query).__name__}")

    # ------------------------------------------------------------------ #
    # Analysis kinds (sampling, moments, entropy, MI, classification)
    # ------------------------------------------------------------------ #
    def domains(self) -> Dict[int, Tuple[int, ...]]:
        """Per-variable value domains read off the model's indicator leaves.

        ``{var: (sorted values)}`` — the state spaces every analysis kind
        sweeps over (cached by :meth:`_fresh`).
        """
        from ..spn.queries import _indicator_domains

        return self._fresh("domains", lambda: {
            var: tuple(sorted(values))
            for var, values in sorted(_indicator_domains(self.spn).items())
        })

    def _resolve_variables(self, variables, domains) -> Tuple[int, ...]:
        """Validate a query's variable selection (``None`` = every model var)."""
        if variables is None:
            return tuple(sorted(domains))
        for var in variables:
            if var not in domains:
                known = ", ".join(map(str, sorted(domains))) or "none"
                raise ValueError(
                    f"variable {var} is not a model variable (known: {known})"
                )
        return tuple(variables)

    def _state_sweep(self, evidence: np.ndarray, entries) -> np.ndarray:
        """One batched log pass over per-entry variable replacements.

        ``entries`` is a sequence of assignments (tuples of ``(var,
        value)`` pairs); every evidence row is evaluated under every
        assignment in a single tape pass, returned as ``(n_rows,
        len(entries))`` log values.
        """
        n = evidence.shape[0]
        m = len(entries)
        sweep = np.repeat(evidence, m, axis=0)
        for j, assignment in enumerate(entries):
            for var, value in assignment:
                sweep[j::m, var] = value
        return self._evaluate(sweep, log_domain=True).reshape(n, m)

    def _conditional_distributions(self, evidence, variables, domains):
        """Per-row conditionals ``P(X_v = s | e)`` for every requested var.

        Two log passes (the shared state sweep, then the evidence batch).
        Returns ``(cond, entries, log_e)`` where ``cond`` is ``(n_rows,
        sum_v |domain(v)|)`` with the columns in ``entries`` order.
        Observed variables contribute their point mass (the sweep's
        replacement ratio would answer a different question); rows with
        zero-probability evidence are ``nan`` throughout.
        """
        entries = [((v, s),) for v in variables for s in domains[v]]
        log_sweep = self._state_sweep(evidence, entries)
        log_e = self._evaluate(evidence, log_domain=True)
        with np.errstate(invalid="ignore"):
            cond = np.exp(log_sweep - log_e[:, None])
        for j, ((var, value),) in enumerate(entries):
            observed = evidence[:, var] >= 0
            if observed.any():
                cond[observed, j] = (evidence[observed, var] == value)
        cond[log_e == -np.inf] = np.nan
        return cond, entries, log_e

    def _run_classify(self, query: Classify) -> np.ndarray:
        evidence = self.encode(query.evidence)
        domains = self.domains()
        if query.target not in domains:
            known = ", ".join(map(str, sorted(domains))) or "none"
            raise ValueError(
                f"Classify target {query.target} is not a model variable "
                f"(known: {known})"
            )
        states = domains[query.target]
        n, k = evidence.shape[0], len(states)
        joint = np.repeat(evidence, k, axis=0)
        joint[:, query.target] = np.tile(np.asarray(states, dtype=np.int64), n)
        log_joint = self._evaluate(joint, log_domain=True).reshape(n, k)
        log_evidence = self._evaluate(evidence, log_domain=True)
        with np.errstate(invalid="ignore"):
            diff = log_joint - log_evidence[:, None]  # P(e) = 0 rows -> nan
        return diff if query.log else np.exp(diff)

    def _run_expectation(self, query: Expectation) -> np.ndarray:
        evidence = self.encode(query.evidence)
        domains = self.domains()
        variables = self._resolve_variables(query.variables, domains)
        cond, _, _ = self._conditional_distributions(evidence, variables, domains)
        out = np.empty((evidence.shape[0], len(variables)))
        col = 0
        for i, var in enumerate(variables):
            k = len(domains[var])
            probs = cond[:, col:col + k]
            values = np.asarray(domains[var], dtype=np.float64)
            if query.center:
                mean = probs @ values
                out[:, i] = (
                    (values[None, :] - mean[:, None]) ** query.moment * probs
                ).sum(axis=1)
            else:
                out[:, i] = probs @ (values ** query.moment)
            col += k
        return out

    def _run_entropy(self, query: Entropy) -> np.ndarray:
        evidence = self.encode(query.evidence)
        domains = self.domains()
        variables = self._resolve_variables(query.variables, domains)
        cond, _, log_e = self._conditional_distributions(
            evidence, variables, domains
        )
        out = np.empty((evidence.shape[0], len(variables)))
        col = 0
        for i, var in enumerate(variables):
            k = len(domains[var])
            out[:, i] = _entropy_terms(cond[:, col:col + k])
            col += k
        out[log_e == -np.inf] = np.nan
        return out

    def _run_mutual_information(self, query: MutualInformation) -> np.ndarray:
        evidence = self.encode(query.evidence)
        domains = self.domains()
        variables = self._resolve_variables(query.variables, domains)
        n, k = evidence.shape[0], len(variables)
        pair_entries = [
            ((u, a), (v, b))
            for i, u in enumerate(variables)
            for v in variables[i + 1:]
            for a in domains[u]
            for b in domains[v]
        ]
        log_pairs = self._state_sweep(evidence, pair_entries)
        cond, _, log_e = self._conditional_distributions(
            evidence, variables, domains
        )
        with np.errstate(invalid="ignore"):
            pair_probs = np.exp(log_pairs - log_e[:, None])
        offsets: Dict[int, int] = {}
        entropies = np.empty((n, k))
        col = 0
        for i, var in enumerate(variables):
            offsets[var] = col
            entropies[:, i] = _entropy_terms(cond[:, col:col + len(domains[var])])
            col += len(domains[var])
        out = np.zeros((n, k, k))
        pos = 0
        for i, u in enumerate(variables):
            for j in range(i + 1, k):
                v = variables[j]
                ku, kv = len(domains[u]), len(domains[v])
                block = pair_probs[:, pos:pos + ku * kv].reshape(n, ku, kv)
                pu = cond[:, offsets[u]:offsets[u] + ku]
                pv = cond[:, offsets[v]:offsets[v] + kv]
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = (
                        np.log(block)
                        - np.log(pu[:, :, None])
                        - np.log(pv[:, None, :])
                    )
                    terms = np.where(block > 0, block * ratio, 0.0)
                value = terms.sum(axis=(1, 2))
                # An observed variable carries no information; the sweep's
                # replacement probabilities answered a different question
                # for those rows, so the entry is zero by convention.
                either_observed = (evidence[:, u] >= 0) | (evidence[:, v] >= 0)
                value = np.where(either_observed, 0.0, value)
                out[:, i, j] = out[:, j, i] = value
                pos += ku * kv
        for i in range(k):
            out[:, i, i] = entropies[:, i]
        if query.normalize:
            denom = np.sqrt(entropies[:, :, None] * entropies[:, None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(denom > 0, out / denom, 0.0)
        out[log_e == -np.inf] = np.nan
        return out

    def _sample_chain(self, evidence: np.ndarray, domains) -> List[int]:
        """The variables a :class:`Sample` batch must draw, in chain order.

        A variable needs a chain pass when it is multi-valued and
        unobserved in at least one row; single-valued domains are forced
        without a pass.  The order is ascending variable id — fixed, so a
        row's draws do not depend on which rows share its batch.
        """
        return [
            var
            for var in sorted(domains)
            if len(domains[var]) > 1 and bool((evidence[:, var] < 0).any())
        ]

    def _run_sample(self, query: Sample) -> np.ndarray:
        evidence = self.encode(query.evidence)
        domains = self.domains()
        n, width = evidence.shape
        n_samples = query.n_samples
        base = evidence.copy()
        for var, values in domains.items():
            if len(values) == 1:
                base[base[:, var] < 0, var] = values[0]
        states = np.repeat(base[:, None, :], n_samples, axis=1)
        chain = self._sample_chain(evidence, domains)
        if not chain or n == 0:
            return states
        # The per-row uniform table depends only on (seed, row id) and is
        # indexed by variable — never by draw order — so a row's samples
        # are bit-identical across batch compositions and serving
        # micro-batches.
        uniforms = np.stack([
            np.random.default_rng([query.seed, int(rid)]).random(
                (n_samples, self.n_vars)
            )
            for rid in query.row_ids
        ])
        for var in chain:
            values = np.asarray(domains[var], dtype=np.int64)
            k = len(values)
            rows = np.nonzero(evidence[:, var] < 0)[0]
            m = len(rows)
            current = states[rows].reshape(m * n_samples, width)
            batch = np.repeat(current, k, axis=0)
            batch[:, var] = np.tile(values, m * n_samples)
            logs = self._evaluate(batch, log_domain=True).reshape(m, n_samples, k)
            peak = logs.max(axis=-1, keepdims=True)
            dead = ~np.isfinite(peak)
            if dead.any():
                row = int(query.row_ids[rows[int(np.argwhere(dead)[0, 0])]])
                raise ValueError(
                    f"evidence row {row} has probability zero under the "
                    "model; there is no conditional to sample from"
                )
            probs = np.exp(logs - peak)
            cum = np.cumsum(probs, axis=-1)
            cum /= cum[..., -1:]
            cum[..., -1] = 1.0  # guard against round-off at the top state
            draws = uniforms[rows][:, :, var]
            choice = (cum > draws[..., None]).argmax(axis=-1)
            block = states[rows]
            block[:, :, var] = values[choice]
            states[rows] = block
        return states

    def _evaluate(self, data: np.ndarray, log_domain: bool) -> np.ndarray:
        """One batched tape pass (the unit the evaluation hook observes)."""
        domain = "log" if log_domain else "linear"
        with self._lock:
            self.evaluations += 1
        if self.on_evaluate is not None:
            self.on_evaluate(domain, data.shape[0])
        with TRACER.span("session.tape_pass", domain=domain, n_rows=data.shape[0]):
            if log_domain:
                return evaluate_log_batch(
                    self.spn, data, engine=self.engine, check=self.check
                )
            return evaluate_batch(self.spn, data, engine=self.engine, check=self.check)

    def log_partition(self) -> float:
        """Log partition function ``log Z`` (one log pass, cached by :meth:`_fresh`)."""

        def partition_pass() -> float:
            row = np.full((1, max(self.n_vars, 1)), -1, dtype=np.int64)
            return float(self._evaluate(row, log_domain=True)[0])

        return self._fresh("log_z", partition_pass)

    def _fresh(self, key: str, compute: Callable[[], object]):
        """``compute()``, cached under the model's content fingerprint.

        The fingerprint is the tape cache's
        (:func:`repro.spn.compiled.cached_tape`), so a structurally mutated
        model recomputes instead of serving a stale value.  The entry pins
        the fingerprinted children, so a collected node's id can never be
        reused while the entry counts as fresh.
        """
        from ..spn.compiled import _fingerprint_parts

        tag, children = _fingerprint_parts(self.spn)
        fingerprint = (tag, tuple(map(id, children)))
        with self._lock:
            entry = self._cache.get(key)
        if entry is not None and entry[0] == fingerprint:
            return entry[2]
        value = compute()
        with self._lock:
            self._cache[key] = (fingerprint, children, value)
        return value

    # ------------------------------------------------------------------ #
    # Platform throughput (the paper's ops/cycle metric)
    # ------------------------------------------------------------------ #
    def operation_list(self) -> OperationList:
        """The bound model's lowered operation list.

        Suite models share the registry's lowering; an SPN-bound session
        re-lowers its model after a structural change (:meth:`_fresh`).
        """
        if self.name is not None:
            from ..suite.registry import benchmark_operation_list

            return benchmark_operation_list(self.name)
        return self._fresh("ops", lambda: linearize(self.spn))

    def throughput(self, platform, options=None):
        """Measure the bound model on a platform engine: ops/cycle.

        ``platform`` is a registry name (:func:`repro.platforms.get_engine`)
        or an already-configured :class:`~repro.platforms.PlatformEngine`
        instance (how the thread-count and ablation sweeps pass
        re-parameterized engines).  Returns the engine's
        :class:`~repro.analysis.metrics.PlatformResult`.
        """
        from ..platforms import get_engine

        engine = get_engine(platform) if isinstance(platform, str) else platform
        return engine.run(
            self.operation_list(), benchmark=self.name or "", options=options
        )

