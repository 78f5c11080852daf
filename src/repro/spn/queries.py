"""The MPE engine behind :class:`repro.api.MPE`: one batched search over a tape.

:func:`mpe_batch` completes every row of an evidence batch with its most
probable explanation.  A row whose free variables span a small state space
is solved exactly by scoring every completion in one log pass; the other
rows share one max-product search over the compiled tape's kernels
(:func:`_max_product`), each then optionally refined by coordinate ascent.
Every candidate is scored on the tape the caller passes:
:class:`repro.api.InferenceSession` passes the tape its query resolved and
its cached :meth:`~repro.api.InferenceSession.domains`.  :func:`mpe_row` is
the one-row call of the same search on a model's cached tape.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional

import numpy as np

from .compiled import _BLOCK_BYTES, cached_tape
from .evaluate import MARGINALIZED, row_evidence
from .graph import SPN
from .nodes import IndicatorLeaf

__all__ = ["mpe_row", "mpe_batch"]


#: Exhaustive-search budget of :func:`mpe_batch`: when a row's free
#: variables span at most this many joint assignments, its exact MPE is
#: found by scoring them all in one log pass of the tape.
_MPE_EXACT_BUDGET = 4096


def mpe_row(
    spn: SPN, evidence: Optional[Mapping[int, int]] = None, refine: bool = True
) -> Dict[int, int]:
    """MPE assignment of one ``{var: value}`` evidence mapping.

    The one-row call of :func:`mpe_batch`, on ``spn``'s cached tape
    (:func:`~repro.spn.compiled.cached_tape`) with the indicator domains
    read off the graph.  Absent variables and negative values are
    unobserved.
    """
    observed = {var: value for var, value in (evidence or {}).items() if value >= 0}
    domains = _indicator_domains(spn)
    width = max([*domains, *observed], default=-1) + 1
    row = np.full((1, max(width, 1)), MARGINALIZED, dtype=np.int64)
    for var, value in observed.items():
        row[0, var] = value
    return mpe_batch(cached_tape(spn), row, domains, refine)[0]


def mpe_batch(
    tape, data: np.ndarray, domains: Mapping[int, tuple], refine: bool = True
) -> List[Dict[int, int]]:
    """MPE assignments of every row of an evidence batch, on ``tape``.

    ``data`` is an integer ``(n_rows, width)`` batch following the
    :data:`~repro.spn.evaluate.MARGINALIZED` convention; ``domains`` maps
    each model variable to its values (the indicator domains).  A row's
    free variables are the multi-valued ones it leaves unobserved.  When
    they span at most :data:`_MPE_EXACT_BUDGET` joint assignments, the row's
    exact MPE is the best of all of them, scored in one log-domain pass.
    The other rows run one max-product search together
    (:func:`_max_product`).  For selective networks max-product is the
    exact MPE; for general SPNs it is an approximation, so with ``refine``
    (the default) each traced completion is polished by coordinate ascent
    until no single-variable flip improves it.  Observed entries, also
    those outside the model's variables, are kept as given.
    """
    evidences = [row_evidence(row) for row in data]
    results: List[Optional[Dict[int, int]]] = [None] * len(data)
    traced: List[int] = []
    for i, evidence in enumerate(evidences):
        free = [
            var for var in sorted(domains)
            if var not in evidence and len(domains[var]) > 1
        ]
        n_assignments = 1
        for var in free:
            n_assignments *= len(domains[var])
            if n_assignments > _MPE_EXACT_BUDGET:
                traced.append(i)
                break
        else:
            results[i] = _exact_mpe(tape, evidence, domains, free)
    if traced:
        for i, assignment in zip(traced, _max_product(tape, data[traced])):
            if refine:
                fixed = set(evidences[i])
                assignment = _refine_assignment(tape, assignment, fixed, domains)
            results[i] = assignment
    return results


def _indicator_domains(spn: SPN) -> Dict[int, set]:
    """Per-variable value domains, collected from the indicator leaves."""
    domains: Dict[int, set] = {}
    for nid in spn.topological_order():
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            domains.setdefault(node.var, set()).add(node.value)
    return domains


def _max_product(tape, data: np.ndarray) -> List[Dict[int, int]]:
    """Max-product completions of an evidence batch: one up and one down pass.

    The upward pass is a dense log-domain pass of the tape in which every
    add kernel (a sum) takes the maximum of its operands instead of their
    ``logaddexp``, recording per lane and row whether the left operand won.
    Ties go left, so over a sum's binarized children the first maximal
    child wins.  The downward pass walks the kernels in reverse from the
    root and marks active slots: both operands of an active mul lane (a
    product), the winner of an active add lane.  Each row's completion is
    its evidence plus, for every unobserved variable, the value of an
    active indicator input (the lowest such input slot when a
    non-decomposable network activates several).  Product sums follow the
    lowering's balanced order, so a near-tie can resolve differently from
    a left-to-right walk of the graph; the two scores agree to rounding.
    """
    ind_vars, ind_values = tape._ind_vars.tolist(), tape._ind_values.tolist()
    # Row blocks keep the dense slot matrix cache-sized, as tape passes do.
    block = max(1, _BLOCK_BYTES // (8 * tape.n_slots))
    results: List[Dict[int, int]] = []
    for start in range(0, len(data), block):
        rows = data[start:start + block]
        active = _active_inputs(tape, rows)[tape._ind_slots]
        for row, on in zip(rows, active.T):
            assignment = row_evidence(row)
            for k in np.flatnonzero(on):
                assignment.setdefault(ind_vars[k], ind_values[k])
            results.append(assignment)
    return results


def _active_inputs(tape, rows: np.ndarray) -> np.ndarray:
    """``(n_inputs, n_rows)`` mask of the input slots on each row's max-product tree."""
    slots = np.empty((tape.n_slots, rows.shape[0]), dtype=np.float64)
    tape.input_matrix(rows, log_domain=True, out=slots[: tape.n_inputs])
    left_won = []
    for kernel in tape.kernels:
        a, b = slots[kernel.arg0], slots[kernel.arg1]
        dest = slots[kernel.dest_start:kernel.dest_stop]
        if kernel.is_add:
            left_won.append(a >= b)
            np.maximum(a, b, out=dest)
        else:
            left_won.append(None)
            np.add(a, b, out=dest)
    active = np.zeros(slots.shape, dtype=bool)
    active[tape.root_slot] = True
    for kernel, left in zip(reversed(tape.kernels), reversed(left_won)):
        # Only the active (lane, row) pairs scatter.  Storing True is
        # idempotent, so a slot that several lanes read (a child shared by
        # sums of one level) stays marked however many of them are active;
        # ``active[arg] |= lanes`` would keep only one lane's mark.
        lane, row = np.nonzero(active[kernel.dest_start:kernel.dest_stop])
        if left is None:
            active[kernel.arg0[lane], row] = True
            active[kernel.arg1[lane], row] = True
        else:
            winner = np.where(left[lane, row], kernel.arg0[lane], kernel.arg1[lane])
            active[winner, row] = True
    return active[: tape.n_inputs]


def _exact_mpe(
    tape, evidence: Dict[int, int], domains: Mapping[int, tuple], free: list
) -> Dict[int, int]:
    """Exact MPE by exhaustive enumeration over the free variables.

    All joint assignments of ``free`` are laid out as one evidence batch
    (following the :data:`~repro.spn.evaluate.MARGINALIZED` convention) and
    evaluated in a single log-domain pass of ``tape`` — log domain so that
    deep networks whose joint probabilities underflow to 0.0 in the linear
    domain still rank correctly; the first best row wins.
    """
    base = dict(evidence)
    for var in domains:
        if var not in base and var not in free:
            base[var] = min(domains[var])  # single-value domain
    n_cols = max(*domains, *base, -1) + 1 if (domains or base) else 0
    combos = list(itertools.product(*(sorted(domains[var]) for var in free)))
    data = np.full((len(combos), max(n_cols, 1)), MARGINALIZED, dtype=np.int64)
    data[:, list(base)] = list(base.values())
    data[:, free] = np.array(combos, dtype=np.int64).reshape(len(combos), len(free))
    values = tape.execute_batch(data, log_domain=True)
    best = dict(base)
    best.update(zip(free, combos[int(np.argmax(values))]))
    return best


def _refine_assignment(
    tape, assignment: Dict[int, int], fixed: set, domains: Mapping[int, tuple]
) -> Dict[int, int]:
    """Steepest-ascent coordinate refinement of an MPE candidate.

    Each round lays out the current assignment (row 0) and every
    single-variable flip of it (over the free variables' indicator domains)
    as one evidence batch, scores them all with a single log-domain pass
    of ``tape``, and applies the best strictly-improving flip; the loop
    stops when no flip improves, i.e. the assignment is a local maximum
    under single-variable flips.  Scoring the incumbent in the same batch
    compares every candidate through one pass, so a tie never passes for
    an improvement.
    """
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
        data[:, list(best)] = list(best.values())
        flip_vars, flip_values = zip(*flips)
        data[np.arange(1, 1 + len(flips)), flip_vars] = flip_values
        scores = tape.execute_batch(data, log_domain=True)
        top = 1 + int(np.argmax(scores[1:]))
        if not scores[top] > scores[0]:
            return best
        var, value = flips[top - 1]
        best[var] = value
