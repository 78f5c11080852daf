"""Typed probabilistic queries: the objects every caller issues.

The paper's central observation is that diverse probabilistic queries —
marginals, conditionals, MPE — all reduce to (few) bottom-up evaluations of
the same network, which is exactly the kernel every engine in this
repository accelerates.  This module gives that observation an API: each
query *kind* is a small frozen dataclass carrying batched evidence arrays
(the canonical :data:`repro.spn.evaluate.MARGINALIZED` convention), and an
:class:`~repro.api.session.InferenceSession` plans any of them into the
minimal set of vectorized tape evaluations.

Ten kinds, one hierarchy::

    Likelihood(evidence)                    # linear root values, 1 pass
    LogLikelihood(evidence)                 # log root values,    1 pass
    Marginal(evidence, log, normalize)      # (log-)marginal, optionally / Z
    Conditional(query=q, evidence=e, log=l) # P(q | e): exactly 2 log passes
    MPE(evidence, refine)                   # per-row most probable completion
    Sample(evidence, n_samples, seed)       # seeded conditional sampling
    Expectation(evidence, variables,        # conditional moments per variable
                moment, center)
    Entropy(evidence, variables)            # conditional entropy per variable
    MutualInformation(evidence, variables,  # pairwise (normalized) MI matrix
                      normalize)
    Classify(evidence, target, log)         # posterior over a target's states

Queries are *data*: they validate at construction (conflicting assignments,
bad dtypes and unknown kinds fail immediately, not deep inside a worker
pool), they serialize losslessly (:meth:`Query.to_payload` /
:func:`deserialize_query` — evidence is integral, so the JSON round-trip is
bit-identical), and the serving layer transports them unchanged, which is
what makes batched ``Marginal`` and ``Conditional`` servable.

:class:`QueryKind` is the one shared kind vocabulary.  It subclasses
``str``, so the serving layer's historical ``"likelihood"`` /
``"log_likelihood"`` / ``"mpe"`` strings keep comparing equal — but an
unknown kind now fails at construction (:func:`as_kind`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..spn.evaluate import MARGINALIZED, as_evidence_array

__all__ = [
    "QueryKind",
    "QUERY_KINDS",
    "as_kind",
    "Query",
    "Likelihood",
    "LogLikelihood",
    "Marginal",
    "Conditional",
    "MPE",
    "Sample",
    "Expectation",
    "Entropy",
    "MutualInformation",
    "Classify",
    "evidence_rows",
    "query_type",
    "serialize_query",
    "deserialize_query",
]


class QueryKind(str, enum.Enum):
    """The ten query kinds of the unified API (one shared vocabulary).

    Subclasses ``str`` so members compare equal to the historical raw kind
    strings (``KIND_LIKELIHOOD == "likelihood"``), but construction of an
    unknown kind raises immediately — the serving layer and every dispatch
    table use this enum instead of duplicating string literals.
    """

    LIKELIHOOD = "likelihood"
    LOG_LIKELIHOOD = "log_likelihood"
    MARGINAL = "marginal"
    CONDITIONAL = "conditional"
    MPE = "mpe"
    SAMPLE = "sample"
    EXPECTATION = "expectation"
    ENTROPY = "entropy"
    MUTUAL_INFORMATION = "mutual_information"
    CLASSIFY = "classify"


#: All query kinds, in declaration order.
QUERY_KINDS: Tuple[QueryKind, ...] = tuple(QueryKind)


def as_kind(kind: Union[str, QueryKind]) -> QueryKind:
    """Coerce a kind name to :class:`QueryKind`, failing at construction time.

    This is the single validation point for stringly-typed callers (the
    serving admission path, payload deserialization): an unknown kind
    raises ``ValueError`` here, never deep in a worker pool.
    """
    try:
        return QueryKind(kind)
    except ValueError:
        known = ", ".join(repr(k.value) for k in QueryKind)
        raise ValueError(
            f"unknown query kind {kind!r}; expected one of {known}"
        ) from None


def evidence_rows(evidence, n_vars: Optional[int] = None) -> np.ndarray:
    """Normalize any accepted evidence form to a 2-D int64 batch.

    Accepts a ``{var: value}`` mapping, a single evidence row, or a 2-D
    batch (the :data:`~repro.spn.evaluate.MARGINALIZED` convention; dtypes
    validated by :func:`~repro.spn.evaluate.as_evidence_array`).  Mappings
    are laid out with width ``max(n_vars, max variable + 1)``; arrays
    narrower than ``n_vars`` are padded with the sentinel (exact — absent
    columns are unobserved), wider arrays are kept as-is.
    """
    width = int(n_vars or 0)
    if isinstance(evidence, Mapping):
        if evidence:
            variables = as_evidence_array(np.asarray(list(evidence.keys())))
            values = as_evidence_array(np.asarray(list(evidence.values())))
            if (variables < 0).any():
                raise ValueError(
                    f"evidence variable {int(variables[variables < 0][0])} is negative"
                )
            width = max(width, int(variables.max()) + 1)
        row = np.full((1, max(width, 1)), MARGINALIZED, dtype=np.int64)
        if evidence:
            row[0, variables] = values
        return row
    rows = as_evidence_array(evidence)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2:
        raise ValueError(
            f"expected a mapping, row or 2-D batch, got shape {rows.shape}"
        )
    rows = rows.astype(np.int64, copy=False)
    if rows.shape[1] < width:
        padded = np.full((rows.shape[0], width), MARGINALIZED, dtype=np.int64)
        padded[:, : rows.shape[1]] = rows
        return padded
    return rows


def _variables_tuple(variables) -> Optional[Tuple[int, ...]]:
    """Coerce a variable selection to a validated tuple (``None`` = all).

    Order is preserved — it is the column order of the result — and
    duplicates or negative ids are rejected at construction.
    """
    if variables is None:
        return None
    result = tuple(int(v) for v in variables)
    if any(v < 0 for v in result):
        raise ValueError(f"variables must be non-negative, got {result}")
    if len(set(result)) != len(result):
        raise ValueError(f"variables contain duplicates: {result}")
    return result


@dataclass(frozen=True, eq=False)
class Query:
    """Base of the typed query hierarchy: one batched evidence array.

    ``evidence`` accepts a mapping, a single row, or a 2-D batch and is
    normalized to a 2-D int64 array at construction (see
    :func:`evidence_rows`).  Subclasses add their kind-specific parameters;
    everything needed to *execute* the query is part of the object, so a
    serialized query replayed anywhere produces bit-identical results.
    """

    evidence: np.ndarray

    #: The kind tag, set per subclass (also the serialization discriminator).
    kind: ClassVar[QueryKind]

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence", evidence_rows(self.evidence))

    # Value semantics, ndarray-aware: the dataclass-generated __eq__ would
    # crash on multi-row arrays ("truth value of an array is ambiguous"),
    # so equality is defined here (eq=False on every subclass) and hashing
    # stays identity-based — arrays are mutable buffers.
    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        if self.params() != other.params():
            return False
        if not np.array_equal(self.evidence, other.evidence):
            return False
        for name in ("query", "row_ids"):
            mine, theirs = getattr(self, name, None), getattr(other, name, None)
            if mine is None:
                if theirs is not None:
                    return False
            elif not np.array_equal(mine, theirs):
                return False
        return True

    __hash__ = object.__hash__

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return int(self.evidence.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.evidence.shape[1])

    # ------------------------------------------------------------------ #
    # Parameters and grouping
    # ------------------------------------------------------------------ #
    def params(self) -> Dict[str, object]:
        """The kind-specific execution parameters (everything but the arrays).

        ``row_ids`` (the per-row sampling identities of :class:`Sample`) is
        array data, not an execution parameter: it is excluded so the
        serving layer's :meth:`group_key` co-batching stays row-scatter
        safe.
        """
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("evidence", "query", "row_ids")
        }

    def group_key(self) -> tuple:
        """Hashable execution identity: kind plus every parameter.

        Rows from two queries may be co-batched by the serving layer only
        when their group keys are equal — the key carries every flag that
        changes execution, so coalescing can never change a result.
        """
        return (self.kind,) + tuple(sorted(self.params().items()))

    # ------------------------------------------------------------------ #
    # Row-level decomposition (the serving layer's unit of coalescing)
    # ------------------------------------------------------------------ #
    def split_rows(self) -> List[np.ndarray]:
        """This query's rows as independent single-row payloads."""
        return [self.evidence[i] for i in range(self.n_rows)]

    @classmethod
    def join_rows(cls, rows: Sequence[np.ndarray], **params) -> "Query":
        """Rebuild a batched query from row payloads (inverse of split)."""
        return cls(evidence=np.stack(rows) if len(rows) else
                   np.zeros((0, 1), dtype=np.int64), **params)

    @classmethod
    def assemble_rows(cls, results: Sequence[object]):
        """Combine per-row results back into this kind's batched result.

        The inverse of ``list(session.run(query))`` on the serving side:
        value kinds stack their per-row float results (scalars or vectors)
        into one float64 array; :class:`MPE` and :class:`Sample` override
        this to keep their list / int64-array result types.
        """
        return np.asarray(list(results), dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict; evidence is integral so the round-trip is exact.

        The explicit ``shape`` entry keeps zero-row batches lossless: a
        ``(0, n)`` array serializes to ``[]``, which alone could not be
        told apart from a ``(1, 0)`` row on the way back.
        """
        payload: Dict[str, object] = {
            "kind": self.kind.value,
            "evidence": self.evidence.tolist(),
            "shape": list(self.evidence.shape),
        }
        payload.update(self.params())
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "Query":
        data = dict(payload)
        data.pop("kind", None)
        shape = data.pop("shape", None)
        for key in ("evidence", "query"):
            if key in data and data[key] is not None:
                array = np.asarray(data[key], dtype=np.int64)
                if shape is not None:
                    array = array.reshape(tuple(shape))
                data[key] = array
        return cls(**data)


@dataclass(frozen=True, eq=False)
class Likelihood(Query):
    """Linear-domain root value of each evidence row: one tape pass.

    For normalized networks this is exactly :math:`P(e)`; in general it is
    the (unnormalized) network value — identical to what the batched
    engines (:func:`repro.spn.evaluate.evaluate_batch`) return.
    """

    kind: ClassVar[QueryKind] = QueryKind.LIKELIHOOD


@dataclass(frozen=True, eq=False)
class LogLikelihood(Query):
    """Log-domain root value of each evidence row: one log tape pass.

    Numerically robust for deep networks whose linear values underflow;
    zero-probability rows return ``-inf``.
    """

    kind: ClassVar[QueryKind] = QueryKind.LOG_LIKELIHOOD


@dataclass(frozen=True, eq=False)
class Marginal(Query):
    """(Log-)marginal probability of each evidence row, optionally normalized.

    The generalization of :class:`Likelihood` / :class:`LogLikelihood`:
    ``log`` selects the output domain and ``normalize`` divides by the
    partition function :math:`Z` (subtracts :math:`\\log Z`), so the result
    is a proper probability even for unnormalized networks.  Plans to one
    tape pass, plus one session-cached partition pass when normalizing.
    Normalized linear marginals are computed as
    ``exp(log-marginal - log Z)`` — underflow-safe for deep networks.
    """

    kind: ClassVar[QueryKind] = QueryKind.MARGINAL
    log: bool = False
    normalize: bool = False


@dataclass(frozen=True, eq=False, kw_only=True)
class Conditional(Query):
    """Batched conditional :math:`P(q \\mid e)`: exactly two log tape passes.

    Constructed with **keyword arguments** —
    ``Conditional(query=..., evidence=..., log=...)`` — enforced by
    ``kw_only`` so the two assignments can never be swapped positionally
    (a silent inversion of the conditional).  ``query`` and ``evidence``
    are evidence batches of equal row count
    (mappings and single rows normalize like everywhere else); observed
    entries of ``query`` are the queried assignment, observed entries of
    ``evidence`` the conditioning assignment.  Execution is entirely in the
    log domain — ``exp(log P(q, e) - log P(e))`` — so conditionals of deep
    networks whose joint probabilities underflow linearly are still exact;
    rows whose *evidence* has probability zero yield ``nan``.  With
    ``log=True`` the log-ratio is returned instead.

    Conflicting assignments (both arrays observing the same variable with
    different values) are rejected at construction.
    """

    kind: ClassVar[QueryKind] = QueryKind.CONDITIONAL
    query: np.ndarray = field(default=None)
    log: bool = False

    def __post_init__(self) -> None:
        if self.query is None:
            raise ValueError("Conditional requires a query assignment")
        evidence = evidence_rows(self.evidence)
        query = evidence_rows(self.query)
        if query.shape[0] != evidence.shape[0]:
            raise ValueError(
                f"query and evidence row counts differ: "
                f"{query.shape[0]} vs {evidence.shape[0]}"
            )
        width = max(query.shape[1], evidence.shape[1])
        query = evidence_rows(query, width)
        evidence = evidence_rows(evidence, width)
        conflict = (query >= 0) & (evidence >= 0) & (query != evidence)
        if conflict.any():
            row, var = map(int, np.argwhere(conflict)[0])
            raise ValueError(
                f"query and evidence disagree on variable {var} (row {row})"
            )
        object.__setattr__(self, "evidence", evidence)
        object.__setattr__(self, "query", query)

    @property
    def joint(self) -> np.ndarray:
        """The merged (query ∪ evidence) batch — the plan's first pass."""
        return np.where(self.query >= 0, self.query, self.evidence)

    def split_rows(self) -> List[np.ndarray]:
        # Each row payload stacks (query row, evidence row) so the serving
        # layer can scatter rows across micro-batches and reassemble.
        return [
            np.stack([self.query[i], self.evidence[i]]) for i in range(self.n_rows)
        ]

    @classmethod
    def join_rows(cls, rows: Sequence[np.ndarray], **params) -> "Conditional":
        if not len(rows):
            empty = np.zeros((0, 1), dtype=np.int64)
            return cls(evidence=empty, query=empty, **params)
        stacked = np.stack(rows)  # (n_rows, 2, n_vars)
        return cls(evidence=stacked[:, 1], query=stacked[:, 0], **params)

    def to_payload(self) -> Dict[str, object]:
        payload = super().to_payload()
        payload["query"] = self.query.tolist()
        return payload


@dataclass(frozen=True, eq=False)
class MPE(Query):
    """Most probable completion of each evidence row.

    Returns one ``{var: value}`` assignment per row (exact by enumeration
    for small free state spaces, max-product with optional coordinate-ascent
    ``refine`` otherwise — :func:`repro.spn.queries.mpe_row`, which runs
    its candidate scoring through the vectorized log-domain tape).
    """

    kind: ClassVar[QueryKind] = QueryKind.MPE
    refine: bool = True

    @classmethod
    def assemble_rows(cls, results: Sequence[object]):
        return list(results)


@dataclass(frozen=True, eq=False)
class Sample(Query):
    """Seeded conditional samples: ``n_samples`` completions of each row.

    Each evidence row's unobserved variables are drawn from the network's
    conditional distribution given the observed ones, by exact chain-rule
    (ancestral) sampling over batched log tape passes — one pass per free
    variable, shared by the whole batch, never a per-row walk.  The result
    is an ``(n_rows, n_samples, n_vars)`` int64 array whose observed
    columns echo the evidence.

    Determinism is a contract, not an accident: the random draw for a row
    depends only on ``(seed, row id, variable)`` — ``row_ids`` defaults to
    the row's position in the batch — so the same seed returns bit-identical
    samples whether a row runs alone, inside a larger batch, or scattered
    across serving micro-batches.  Rows whose
    evidence has probability zero raise ``ValueError`` (there is no
    conditional to sample from).
    """

    kind: ClassVar[QueryKind] = QueryKind.SAMPLE
    n_samples: int = 1
    seed: int = 0
    row_ids: np.ndarray = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if int(self.n_samples) < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if int(self.seed) < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "n_samples", int(self.n_samples))
        object.__setattr__(self, "seed", int(self.seed))
        if self.row_ids is None:
            ids = np.arange(self.n_rows, dtype=np.int64)
        else:
            ids = np.asarray(self.row_ids, dtype=np.int64).reshape(-1)
            if ids.shape[0] != self.n_rows:
                raise ValueError(
                    f"row_ids has {ids.shape[0]} entries for {self.n_rows} rows"
                )
            if ids.size and ids.min() < 0:
                raise ValueError(f"row_ids must be non-negative, got {ids.min()}")
        object.__setattr__(self, "row_ids", ids)

    def split_rows(self) -> List[np.ndarray]:
        # Each row payload stacks (evidence row, broadcast row id) so the
        # serving layer can scatter rows across micro-batches without
        # losing the identity that seeds the row's draws.
        return [
            np.stack([
                self.evidence[i],
                np.full(self.n_cols, self.row_ids[i], dtype=np.int64),
            ])
            for i in range(self.n_rows)
        ]

    @classmethod
    def join_rows(cls, rows: Sequence[np.ndarray], **params) -> "Sample":
        if not len(rows):
            return cls(
                evidence=np.zeros((0, 1), dtype=np.int64),
                row_ids=np.zeros(0, dtype=np.int64),
                **params,
            )
        stacked = np.stack(rows)  # (n_rows, 2, n_vars)
        return cls(evidence=stacked[:, 0], row_ids=stacked[:, 1, 0], **params)

    @classmethod
    def assemble_rows(cls, results: Sequence[object]):
        if not len(results):
            return np.zeros((0, 0, 0), dtype=np.int64)
        return np.stack([np.asarray(r, dtype=np.int64) for r in results])

    def to_payload(self) -> Dict[str, object]:
        payload = super().to_payload()
        payload["row_ids"] = self.row_ids.tolist()
        return payload


@dataclass(frozen=True, eq=False)
class Expectation(Query):
    """Conditional moments of each variable under each evidence row.

    For every requested variable ``v`` (``variables=None`` means every
    model variable, in ascending id order) the session computes the
    conditional distribution :math:`P(X_v \\mid e)` from one shared
    state-sweep log pass plus one evidence pass — two passes total for any
    number of variables — and returns its ``moment``-th (optionally
    ``center``-ed, i.e. variance for ``moment=2``) moment of the
    variable's integer states, as an ``(n_rows, len(variables))`` float
    array.  A variable observed in a row contributes its observed value's
    point mass; rows whose evidence has probability zero yield ``nan``.
    """

    kind: ClassVar[QueryKind] = QueryKind.EXPECTATION
    variables: Optional[Tuple[int, ...]] = None
    moment: int = 1
    center: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "variables", _variables_tuple(self.variables))
        if int(self.moment) < 1:
            raise ValueError(f"moment must be >= 1, got {self.moment}")
        object.__setattr__(self, "moment", int(self.moment))
        object.__setattr__(self, "center", bool(self.center))


@dataclass(frozen=True, eq=False)
class Entropy(Query):
    """Per-variable conditional entropy (nats) under each evidence row.

    Plans exactly like :class:`Expectation` (one shared state-sweep pass
    plus one evidence pass) and returns
    :math:`H(X_v \\mid e) = -\\sum_s P(s \\mid e) \\log P(s \\mid e)` as an
    ``(n_rows, len(variables))`` float array, with the ``0 log 0 = 0``
    convention.  Observed variables have entropy zero; zero-probability
    evidence rows yield ``nan``.
    """

    kind: ClassVar[QueryKind] = QueryKind.ENTROPY
    variables: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "variables", _variables_tuple(self.variables))


@dataclass(frozen=True, eq=False)
class MutualInformation(Query):
    """Pairwise conditional mutual information matrix under each row.

    ``evidence`` may be omitted (``None``): the unconditional case is one
    fully-marginalized row.  Returns an ``(n_rows, k, k)`` symmetric float
    array over the ``k`` requested variables whose off-diagonal entries are
    :math:`I(X_u; X_v \\mid e)` in nats, whose diagonal carries the
    per-variable entropies :math:`H(X_v \\mid e)`, and whose entries
    involving a variable observed in the row are zero (an observed
    variable carries no information).  With ``normalize=True`` every entry
    is divided by :math:`\\sqrt{H(X_u) H(X_v)}` — a correlation-style
    matrix with unit diagonal — with zero-entropy denominators mapping to
    zero.  Plans to exactly three log passes (pair sweep, state sweep,
    evidence) regardless of ``k`` or the batch size; zero-probability
    evidence rows yield ``nan``.
    """

    kind: ClassVar[QueryKind] = QueryKind.MUTUAL_INFORMATION
    evidence: np.ndarray = None
    variables: Optional[Tuple[int, ...]] = None
    normalize: bool = False

    def __post_init__(self) -> None:
        if self.evidence is None:
            object.__setattr__(self, "evidence", {})
        super().__post_init__()
        object.__setattr__(self, "variables", _variables_tuple(self.variables))
        object.__setattr__(self, "normalize", bool(self.normalize))


@dataclass(frozen=True, eq=False)
class Classify(Query):
    """Posterior over one target variable's states: ``predict_proba``.

    The batched classification sweep: for each evidence row, the
    distribution :math:`P(X_t = s \\mid e)` over every state ``s`` of the
    ``target`` variable, as an ``(n_rows, n_states)`` float array (states
    in ascending value order; log-domain with ``log=True``).  Reuses the
    :class:`Conditional` plan shape — exactly two log passes, a joint
    sweep and an evidence pass, subtracted — regardless of batch size or
    state count, so each row's posterior sums to one by construction.

    A row that already observes the target is rejected at construction
    (the conditional would be a degenerate point mass and almost certainly
    a caller bug); zero-probability evidence rows yield ``nan``.
    """

    kind: ClassVar[QueryKind] = QueryKind.CLASSIFY
    target: int = None
    log: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.target is None:
            raise ValueError("Classify requires a target variable")
        target = int(self.target)
        if target < 0:
            raise ValueError(f"target must be non-negative, got {target}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "log", bool(self.log))
        if target < self.n_cols:
            observed = self.evidence[:, target] >= 0
            if observed.any():
                row = int(np.argwhere(observed)[0, 0])
                raise ValueError(
                    f"Classify target variable {target} is observed in "
                    f"evidence row {row}; remove it from the evidence to "
                    "classify it"
                )


_QUERY_TYPES: Dict[QueryKind, type] = {
    QueryKind.LIKELIHOOD: Likelihood,
    QueryKind.LOG_LIKELIHOOD: LogLikelihood,
    QueryKind.MARGINAL: Marginal,
    QueryKind.CONDITIONAL: Conditional,
    QueryKind.MPE: MPE,
    QueryKind.SAMPLE: Sample,
    QueryKind.EXPECTATION: Expectation,
    QueryKind.ENTROPY: Entropy,
    QueryKind.MUTUAL_INFORMATION: MutualInformation,
    QueryKind.CLASSIFY: Classify,
}


def query_type(kind: Union[str, QueryKind]) -> type:
    """The query class registered for ``kind`` (validated by :func:`as_kind`)."""
    return _QUERY_TYPES[as_kind(kind)]


def serialize_query(query: Query) -> Dict[str, object]:
    """Serialize a query to a JSON-safe payload (exact round-trip)."""
    return query.to_payload()


def deserialize_query(payload: Mapping[str, object]) -> Query:
    """Rebuild a query from :func:`serialize_query` output.

    The ``kind`` discriminator is validated by :func:`as_kind`, so an
    unknown or corrupted payload fails here — at construction — with the
    list of known kinds.
    """
    if "kind" not in payload:
        raise ValueError("query payload is missing its 'kind' discriminator")
    kind = as_kind(payload["kind"])
    return _QUERY_TYPES[kind].from_payload(payload)
