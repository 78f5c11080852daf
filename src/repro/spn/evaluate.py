"""Exact evaluation of SPNs (reference implementation).

These routines are the functional ground truth that every execution backend
in the repository (operation lists, the vectorized tape of
:mod:`repro.spn.compiled`, the GPU kernel model, the custom processor
simulator) is checked against.

Evidence is a mapping ``{variable_index: value}``; variables that are not
present are marginalized out, i.e. all of their indicator leaves evaluate to
one.  Batched evaluation takes an integer array using the
:data:`MARGINALIZED` sentinel — see its docstring for the canonical
definition of the convention.

Batched entry points accept an ``engine`` argument: ``"python"`` selects the
per-node reference walk implemented here, ``"vectorized"`` routes through
the compiled NumPy tape (:func:`repro.spn.compiled.compile_tape`).  Passing
``check=True`` with the vectorized engine cross-checks the result against
the reference on a small prefix of the batch and raises
:class:`~repro.spn.compiled.EngineMismatchError` on disagreement.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

import numpy as np

from .graph import SPN
from .nodes import IndicatorLeaf, ParameterLeaf, ProductNode, SumNode

__all__ = [
    "MARGINALIZED",
    "as_evidence_array",
    "row_evidence",
    "evaluate",
    "evaluate_log",
    "evaluate_batch",
    "evaluate_log_batch",
    "evaluate_nodes",
    "tape_pass",
    "partition_function",
]

#: Canonical evidence convention for batched evaluation, shared by every
#: engine and backend in the repository: evidence batches are integer arrays
#: of shape ``(n_rows, n_vars)`` where column ``v`` holds the observed value
#: of variable ``v`` and the sentinel ``MARGINALIZED`` (``-1``, like any
#: other negative value) marks an unobserved variable (all of its indicator
#: leaves evaluate to one).  Variables whose index exceeds the number of
#: columns are likewise treated as unobserved.  Dictionary-style evidence
#: (``{var: value}``) expresses the same convention by omission: absent
#: variables are marginalized, and a negative value is equivalent to
#: absence.  Every engine — the reference walks here, the compiled tape of
#: :mod:`repro.spn.compiled` and the operation-list executors — implements
#: exactly this interpretation.
#:
#: Evidence arrays are **integer** arrays.  Float arrays are accepted only
#: when every entry is integral (a common artifact of ``np.loadtxt`` or
#: pandas round-trips): they are coerced exactly via
#: :func:`as_evidence_array`.  Fractional, NaN or infinite entries are
#: rejected with a ``ValueError`` — they would otherwise be silently
#: truncated (``0.7`` observed as ``0``) or misread as observed values.
MARGINALIZED = -1


def as_evidence_array(data) -> np.ndarray:
    """Validate an evidence array's dtype and return it as an integer array.

    Integer (and boolean) arrays pass through; float arrays whose every
    entry is integral are coerced exactly to ``int64``.  Anything else —
    fractional values, NaN/inf, or a non-numeric dtype — raises
    ``ValueError`` with a pointer to the :data:`MARGINALIZED` convention,
    instead of being silently truncated downstream.  Every batched evidence
    entry point (:func:`evaluate_batch`, :func:`evaluate_log_batch`, the
    compiled tape's input encoding, the serving layer) routes through this.
    """
    arr = np.asarray(data)
    if arr.dtype.kind == "i":
        return arr
    if arr.dtype.kind == "u":
        # Unsigned values beyond int64 would wrap negative on any int64
        # cast downstream and be misread as MARGINALIZED.
        if (arr >= 2**63).any():
            raise ValueError(
                "unsigned evidence values exceed the int64 range and cannot "
                "be represented exactly"
            )
        return arr
    if arr.dtype.kind == "b":
        return arr.astype(np.int64)
    if arr.dtype.kind == "f":
        rounded = np.rint(arr)
        if not np.isfinite(arr).all() or not (rounded == arr).all():
            raise ValueError(
                "float evidence must be integral-valued (use the MARGINALIZED "
                "sentinel -1 for unobserved variables, not NaN); got "
                "fractional or non-finite entries"
            )
        if (np.abs(rounded) >= 2.0**63).any():
            # Would wrap on the int64 cast and be misread as MARGINALIZED.
            raise ValueError(
                "float evidence values exceed the int64 range and cannot be "
                "coerced exactly"
            )
        return rounded.astype(np.int64)
    raise ValueError(
        f"evidence must be an integer array following the MARGINALIZED "
        f"convention, got dtype {arr.dtype}"
    )


def row_evidence(row) -> Dict[int, int]:
    """Decode one batched evidence row into a ``{var: value}`` mapping.

    The single decoder for the :data:`MARGINALIZED` convention: negative
    entries (unobserved) are dropped, everything else becomes an observed
    value keyed by its column index.  The row's dtype is validated by
    :func:`as_evidence_array`, so a float ``0.7`` raises instead of being
    truncated to an observed ``0``.
    """
    return {
        var: int(value) for var, value in enumerate(as_evidence_array(row)) if value >= 0
    }


def _indicator_value(leaf: IndicatorLeaf, evidence: Mapping[int, int]) -> float:
    observed = evidence.get(leaf.var)
    if observed is None or observed < 0:
        return 1.0
    return 1.0 if observed == leaf.value else 0.0


def evaluate_nodes(spn: SPN, evidence: Optional[Mapping[int, int]] = None) -> Dict[int, float]:
    """Evaluate every reachable node bottom-up and return ``{node_id: value}``."""
    evidence = evidence or {}
    values: Dict[int, float] = {}
    for nid in spn.topological_order():
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            values[nid] = _indicator_value(node, evidence)
        elif isinstance(node, ParameterLeaf):
            values[nid] = node.prob
        elif isinstance(node, SumNode):
            if node.is_weighted:
                assert node.weights is not None
                values[nid] = sum(
                    w * values[c] for w, c in zip(node.weights, node.children)
                )
            else:
                values[nid] = sum(values[c] for c in node.children)
        elif isinstance(node, ProductNode):
            acc = 1.0
            for c in node.children:
                acc *= values[c]
            values[nid] = acc
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type {type(node)!r}")
    return values


def evaluate(spn: SPN, evidence: Optional[Mapping[int, int]] = None) -> float:
    """Evaluate the SPN at the root in the linear domain."""
    return evaluate_nodes(spn, evidence)[spn.root]


def evaluate_log(spn: SPN, evidence: Optional[Mapping[int, int]] = None) -> float:
    """Evaluate the SPN in the log domain (numerically robust for deep networks).

    Returns ``-inf`` when the evidence has probability zero.
    """
    evidence = evidence or {}
    log_values: Dict[int, float] = {}
    for nid in spn.topological_order():
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            v = _indicator_value(node, evidence)
            log_values[nid] = 0.0 if v > 0.0 else -math.inf
        elif isinstance(node, ParameterLeaf):
            log_values[nid] = math.log(node.prob) if node.prob > 0.0 else -math.inf
        elif isinstance(node, SumNode):
            children = node.children
            if node.is_weighted:
                assert node.weights is not None
                terms = [
                    (math.log(w) if w > 0.0 else -math.inf) + log_values[c]
                    for w, c in zip(node.weights, children)
                ]
            else:
                terms = [log_values[c] for c in children]
            m = max(terms)
            if m == -math.inf:
                log_values[nid] = -math.inf
            else:
                log_values[nid] = m + math.log(sum(math.exp(t - m) for t in terms))
        elif isinstance(node, ProductNode):
            log_values[nid] = sum(log_values[c] for c in node.children)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type {type(node)!r}")
    return log_values[spn.root]


def evaluate_batch(
    spn: SPN, data: np.ndarray, engine: str = "python", check: bool = False
) -> np.ndarray:
    """Evaluate the SPN on a batch of samples.

    Parameters
    ----------
    data:
        Integer array of shape ``(n_samples, n_vars)`` following the
        :data:`MARGINALIZED` evidence convention.
    engine:
        ``"python"`` (default) walks the node graph with one NumPy operation
        per node — the reference implementation.  ``"vectorized"`` compiles
        the network to a levelized tape (:mod:`repro.spn.compiled`) and
        evaluates the whole batch with a few fused kernels.
    check:
        With the vectorized engine, first statically verify the tape and
        its memory plan (:meth:`~repro.spn.compiled.CompiledTape.verify_static`,
        :class:`~repro.statics.verifier.VerificationError` on a violation),
        then evaluate the first few rows with the reference engine and
        raise :class:`~repro.spn.compiled.EngineMismatchError` on
        disagreement.

    Returns
    -------
    numpy.ndarray
        Vector of root values, shape ``(n_samples,)``.
    """
    from .compiled import cached_tape, resolve_engine

    if resolve_engine(engine) == "vectorized":
        return tape_pass(spn, cached_tape(spn), as_evidence_array(data), check=check)
    data = as_evidence_array(data)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D evidence array, got shape {data.shape}")
    n_samples, n_cols = data.shape
    values: Dict[int, np.ndarray] = {}
    for nid in spn.topological_order():
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            if node.var >= n_cols:
                values[nid] = np.ones(n_samples)
            else:
                col = data[:, node.var]
                values[nid] = np.where(
                    (col < 0) | (col == node.value), 1.0, 0.0
                )
        elif isinstance(node, ParameterLeaf):
            values[nid] = np.full(n_samples, node.prob)
        elif isinstance(node, SumNode):
            acc = np.zeros(n_samples)
            if node.is_weighted:
                assert node.weights is not None
                for w, c in zip(node.weights, node.children):
                    acc = acc + w * values[c]
            else:
                for c in node.children:
                    acc = acc + values[c]
            values[nid] = acc
        elif isinstance(node, ProductNode):
            acc = np.ones(n_samples)
            for c in node.children:
                acc = acc * values[c]
            values[nid] = acc
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type {type(node)!r}")
    return values[spn.root]


def evaluate_log_batch(
    spn: SPN, data: np.ndarray, engine: str = "python", check: bool = False
) -> np.ndarray:
    """Log-domain batched evaluation (numerically robust for deep networks).

    The ``"python"`` engine is the reference: it evaluates every row with
    :func:`evaluate_log` (slow, one graph walk per row).  The
    ``"vectorized"`` engine runs a log pass of the compiled tape: ``log``
    of the linear root for rows at or above the tape's proved floor, the
    exact log kernels (products add, sums combine with ``logaddexp``) for
    the rest (see :meth:`~repro.spn.compiled.CompiledTape.execute_batch`).
    Rows with zero probability return ``-inf``.  ``data`` follows the
    :data:`MARGINALIZED` convention; ``check`` behaves as in
    :func:`evaluate_batch`.
    """
    from .compiled import cached_tape, resolve_engine

    data = as_evidence_array(data)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D evidence array, got shape {data.shape}")
    if resolve_engine(engine) == "vectorized":
        return tape_pass(spn, cached_tape(spn), data, log_domain=True, check=check)
    out = np.empty(data.shape[0], dtype=np.float64)
    for row in range(data.shape[0]):
        out[row] = evaluate_log(spn, row_evidence(data[row]))
    return out


def tape_pass(
    spn: SPN, tape, data: np.ndarray, log_domain: bool = False, check: bool = False
) -> np.ndarray:
    """One pass of ``tape``, the compiled form of ``spn``, over an evidence batch.

    The vectorized engine of :func:`evaluate_batch` and
    :func:`evaluate_log_batch`, and of every session pass, which runs the
    tape its query resolved.  ``check`` is the one ``check=True``
    implementation: statically verify the tape and its memory plan
    (:meth:`~repro.spn.compiled.CompiledTape.verify_static`), then compare
    the batch prefix against the reference walk of ``spn``
    (:func:`~repro.spn.compiled.cross_check`).
    """
    if check:
        tape.verify_static()
    result = tape.execute_batch(data, log_domain=log_domain)
    if check:
        from .compiled import cross_check

        reference = evaluate_log_batch if log_domain else evaluate_batch
        cross_check(
            result,
            data,
            lambda head: reference(spn, head, engine="python"),
            atol=1e-12 if log_domain else 1e-300,
            what="vectorized log engine" if log_domain else "vectorized engine",
        )
    return result


def partition_function(spn: SPN) -> float:
    """Value of the network with all variables marginalized (the normalizer Z)."""
    return evaluate(spn, {})
