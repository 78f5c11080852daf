"""Scalar probabilistic queries — deprecated wrappers over the typed API.

These are the original dict-based, one-answer-at-a-time entry points for
marginals, conditionals and MPE.  Since the unified typed query API landed
(:mod:`repro.api`), every one of them is a thin wrapper over a single-row
:class:`~repro.api.session.InferenceSession` — the same planning and the
same vectorized tape passes a batched caller gets — so the scalar and
batched paths cannot drift.  New code should construct query objects
directly::

    from repro.api import Conditional, InferenceSession

    session = InferenceSession(spn)
    probs = session.run(Conditional(query=q_rows, evidence=e_rows))

The wrappers emit :class:`DeprecationWarning` (hidden by default; enable
with ``-W default::DeprecationWarning``).  They remain exact: each one is
*defined* as single-row session execution, and the property tests assert
bit-equality between the two.

A note on :func:`conditional`: it now computes in the log domain
(``exp(log P(q, e) - log P(e))``), so evidence whose linear-domain
probability merely *underflows* no longer raises a spurious
``ZeroDivisionError`` — only evidence with probability exactly zero does.

:func:`mpe_row` is not deprecated: it is the per-row MPE engine the session
itself executes (exact by enumeration for small free state spaces,
max-product with optional coordinate-ascent refinement otherwise).
"""

from __future__ import annotations

import math
import warnings
from typing import Dict, Mapping, Optional

from .graph import SPN
from .nodes import IndicatorLeaf, ParameterLeaf, ProductNode, SumNode

__all__ = [
    "marginal",
    "log_marginal",
    "conditional",
    "log_likelihood",
    "most_probable_explanation",
    "mpe_row",
]


def _session(spn: SPN):
    from ..api.session import session_for

    return session_for(spn)


def _deprecated(name: str) -> None:
    warnings.warn(
        f"repro.spn.queries.{name}() is deprecated; issue typed queries "
        f"through repro.api.InferenceSession instead",
        DeprecationWarning,
        stacklevel=3,
    )


def marginal(spn: SPN, evidence: Optional[Mapping[int, int]] = None) -> float:
    """Unnormalized marginal probability of the evidence, P(e) * Z.

    For normalized networks (partition function 1) this is exactly P(e).

    .. deprecated:: Use ``InferenceSession(spn).run(Marginal(evidence))``.
    """
    from ..api import Marginal

    _deprecated("marginal")
    return float(_session(spn).run(Marginal(dict(evidence or {})))[0])


def log_marginal(spn: SPN, evidence: Optional[Mapping[int, int]] = None) -> float:
    """Log-domain version of :func:`marginal`.

    .. deprecated:: Use ``InferenceSession(spn).run(Marginal(evidence, log=True))``.
    """
    from ..api import Marginal

    _deprecated("log_marginal")
    return float(_session(spn).run(Marginal(dict(evidence or {}), log=True))[0])


def conditional(
    spn: SPN, query: Mapping[int, int], evidence: Optional[Mapping[int, int]] = None
) -> float:
    """Conditional probability P(query | evidence), computed in the log domain.

    ``query`` and ``evidence`` must not assign conflicting values to the
    same variable.  Raises ``ZeroDivisionError`` only when the evidence has
    probability exactly zero — deep networks whose evidence probability
    underflows the linear domain are handled exactly (the session plans a
    conditional as two log-domain tape passes, subtracted).

    .. deprecated:: Use
       ``InferenceSession(spn).run(Conditional(query=..., evidence=...))``.
    """
    from ..api import Conditional

    _deprecated("conditional")
    result = _session(spn).run(
        Conditional(evidence=dict(evidence or {}), query=dict(query))
    )
    value = float(result[0])
    if math.isnan(value):
        raise ZeroDivisionError("evidence has probability zero")
    return value


def log_likelihood(spn: SPN, data, normalize: bool = True) -> float:
    """Average log-likelihood of observed rows in ``data``.

    ``data`` is an integer array of shape ``(n_rows, n_vars)`` following
    the :data:`~repro.spn.evaluate.MARGINALIZED` convention.  When
    ``normalize`` is true the partition function is subtracted so the
    result is a proper average log-probability even for unnormalized
    networks.  Executes as one batched log-domain pass (plus the session's
    cached partition pass), not a per-row walk.

    .. deprecated:: Use
       ``InferenceSession(spn).run(Marginal(data, log=True, normalize=True))``
       and average.
    """
    import numpy as np

    from ..api import LogLikelihood

    _deprecated("log_likelihood")
    rows = np.asarray(data)
    if rows.ndim == 0 or rows.shape[0] == 0:
        # Checked on the raw input's row count: an empty list would
        # otherwise normalize to one fully-marginalized (1, 0) row and
        # "score" 0.0.  A zero-column batch with rows is fine (every row
        # fully marginalized), matching the historical behavior.
        raise ValueError("data must contain at least one row")
    session = _session(spn)
    values = session.run(LogLikelihood(data))
    log_z = session.log_partition() if normalize else 0.0
    return float(values.mean() - log_z)


def most_probable_explanation(
    spn: SPN, evidence: Optional[Mapping[int, int]] = None, refine: bool = True
) -> Dict[int, int]:
    """MPE assignment completing ``evidence`` (see :func:`mpe_row`).

    .. deprecated:: Use ``InferenceSession(spn).run(MPE(evidence))``.
    """
    from ..api import MPE

    _deprecated("most_probable_explanation")
    return _session(spn).run(MPE(dict(evidence or {}), refine=refine))[0]


#: Exhaustive-search budget for :func:`mpe_row`: when the free variables
#: span at most this many joint assignments, the exact MPE is found by
#: enumerating them all through the vectorized batch engine.
_MPE_EXACT_BUDGET = 4096


def mpe_row(
    spn: SPN, evidence: Optional[Mapping[int, int]] = None, refine: bool = True
) -> Dict[int, int]:
    """MPE assignment: exact for small state spaces, max-product otherwise.

    This is the per-row engine behind the :class:`repro.api.MPE` query
    kind.  When the variables left free by the evidence span at most
    :data:`_MPE_EXACT_BUDGET` joint assignments, the exact MPE is computed
    by evaluating every assignment in one log-domain batch with the
    vectorized engine (:func:`~repro.spn.evaluate.evaluate_log_batch`).
    Larger networks fall back
    to the standard max-product approximation: the upper pass replaces every
    sum with a (weighted) max; the downward pass follows, at every sum node,
    the child that achieved the max, and at every product node all children.
    Variables fixed by the evidence keep their observed value.  For
    selective networks max-product is the exact MPE; for general SPNs it is
    an approximation, so with ``refine`` (the default) the traced assignment
    is additionally polished by coordinate ascent over the free variables
    until it is a local maximum under single-variable flips.
    """
    evidence = dict(evidence or {})
    fixed = {var for var, value in evidence.items() if value >= 0}
    domains = _indicator_domains(spn)
    free = sorted(var for var in domains if var not in fixed and len(domains[var]) > 1)
    n_assignments = 1
    for var in free:
        n_assignments *= len(domains[var])
        if n_assignments > _MPE_EXACT_BUDGET:
            break
    if n_assignments <= _MPE_EXACT_BUDGET:
        return _exact_mpe(spn, evidence, domains, free)
    max_log: Dict[int, float] = {}
    best_child: Dict[int, int] = {}

    for nid in spn.topological_order():
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            observed = evidence.get(node.var)
            if observed is None or observed < 0 or observed == node.value:
                max_log[nid] = 0.0
            else:
                max_log[nid] = -math.inf
        elif isinstance(node, ParameterLeaf):
            max_log[nid] = math.log(node.prob) if node.prob > 0.0 else -math.inf
        elif isinstance(node, SumNode):
            best_value = -math.inf
            best = node.children[0]
            weights = node.weights if node.is_weighted else [1.0] * len(node.children)
            assert weights is not None
            for w, c in zip(weights, node.children):
                term = (math.log(w) if w > 0.0 else -math.inf) + max_log[c]
                if term > best_value:
                    best_value = term
                    best = c
            max_log[nid] = best_value
            best_child[nid] = best
        elif isinstance(node, ProductNode):
            max_log[nid] = sum(max_log[c] for c in node.children)

    assignment: Dict[int, int] = dict(evidence)
    stack = [spn.root]
    visited = set()
    while stack:
        nid = stack.pop()
        if nid in visited:
            continue
        visited.add(nid)
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            if node.var not in assignment or assignment[node.var] < 0:
                assignment[node.var] = node.value
        elif isinstance(node, SumNode):
            stack.append(best_child[nid])
        elif isinstance(node, ProductNode):
            stack.extend(node.children)
    # Drop any marginalization sentinels that leaked in from the evidence.
    assignment = {var: value for var, value in assignment.items() if value >= 0}
    if refine:
        assignment = _refine_assignment(spn, assignment, fixed, domains)
    return assignment


def _indicator_domains(spn: SPN) -> Dict[int, set]:
    """Per-variable value domains, collected from the indicator leaves."""
    domains: Dict[int, set] = {}
    for nid in spn.topological_order():
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            domains.setdefault(node.var, set()).add(node.value)
    return domains


def _exact_mpe(
    spn: SPN,
    evidence: Dict[int, int],
    domains: Mapping[int, set],
    free: list,
) -> Dict[int, int]:
    """Exact MPE by exhaustive enumeration over the free variables.

    All joint assignments of ``free`` are laid out as one evidence batch
    (following the :data:`~repro.spn.evaluate.MARGINALIZED` convention) and
    evaluated in a single vectorized log-domain pass — log domain so that
    deep networks whose joint probabilities underflow to 0.0 in the linear
    domain still rank correctly; the argmax row wins.
    """
    import itertools

    import numpy as np

    from .evaluate import MARGINALIZED, evaluate_log_batch

    base = {var: value for var, value in evidence.items() if value >= 0}
    for var in domains:
        if var not in base and var not in free:
            base[var] = min(domains[var])  # single-value domain
    n_cols = max(*domains, *base, -1) + 1 if (domains or base) else 0
    combos = list(itertools.product(*(sorted(domains[var]) for var in free)))
    data = np.full((len(combos), max(n_cols, 1)), MARGINALIZED, dtype=np.int64)
    for var, value in base.items():
        data[:, var] = value
    for j, var in enumerate(free):
        data[:, var] = [combo[j] for combo in combos]
    values = evaluate_log_batch(spn, data, engine="vectorized")
    best = dict(base)
    best.update(zip(free, combos[int(np.argmax(values))]))
    return best


def _refine_assignment(
    spn: SPN, assignment: Dict[int, int], fixed: set, domains: Mapping[int, set]
) -> Dict[int, int]:
    """Steepest-ascent coordinate refinement of an MPE candidate.

    Each round lays out the current assignment (row 0) and every
    single-variable flip of it (over the free variables' indicator domains)
    as one evidence batch, scores them all with a single vectorized
    log-domain evaluation, and applies the best strictly-improving flip;
    the loop stops when no flip improves, i.e. the assignment is a local
    maximum under single-variable flips.  Scoring the incumbent in the same
    batch compares every candidate through one engine, so a tie never
    passes for an improvement.
    """
    import numpy as np

    from .evaluate import MARGINALIZED, evaluate_log_batch

    free = [var for var in assignment if var not in fixed and len(domains.get(var, ())) > 1]
    if not free:
        return assignment

    best = dict(assignment)
    n_cols = max(max(best, default=-1), max(domains, default=-1)) + 1
    while True:
        flips = [
            (var, value)
            for var in free
            for value in sorted(domains[var])
            if value != best[var]
        ]
        if not flips:
            return best
        data = np.full((1 + len(flips), max(n_cols, 1)), MARGINALIZED, dtype=np.int64)
        for var, value in best.items():
            data[:, var] = value
        for row, (var, value) in enumerate(flips, start=1):
            data[row, var] = value
        scores = evaluate_log_batch(spn, data, engine="vectorized")
        top = 1 + int(np.argmax(scores[1:]))
        if not scores[top] > scores[0]:
            return best
        var, value = flips[top - 1]
        best[var] = value
