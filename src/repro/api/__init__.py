"""Unified typed query API: one front door for every query, engine, platform.

This package is the public entry point for probabilistic inference in the
repository.  Queries are typed objects (:class:`Likelihood`,
:class:`LogLikelihood`, :class:`Marginal`, :class:`Conditional`,
:class:`MPE`, plus the analysis kinds :class:`Sample`,
:class:`Expectation`, :class:`Entropy`, :class:`MutualInformation` and
:class:`Classify` — all carrying batched evidence arrays in the canonical
:data:`~repro.spn.evaluate.MARGINALIZED` convention) and an
:class:`InferenceSession` binds a model to an engine, plans each query into
the minimal set of vectorized tape evaluations, executes it, and measures
the same model on any registered platform engine.

Quick tour::

    import numpy as np
    from repro.api import Conditional, InferenceSession, Marginal

    session = InferenceSession("Audio")            # suite name or SPN object
    lls = session.run(Marginal(evidence, log=True))
    probs = session.run(Conditional(query=q_rows, evidence=e_rows))
    #   ^ one batch = exactly two log-domain tape passes, any row count
    cpu = session.throughput("CPU").ops_per_cycle  # the paper's metric

The same query objects serialize losslessly (:func:`serialize_query` /
:func:`deserialize_query`) and travel through the serving layer
(:mod:`repro.serving`) unchanged, so a served answer is bit-identical to an
offline :meth:`InferenceSession.run`.  A single answer is a one-row
batch through the same session.  See ``docs/queries.md`` for the full
taxonomy, session lifecycle and planning rules.
"""

from .queries import (
    MPE,
    QUERY_KINDS,
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
    as_kind,
    deserialize_query,
    evidence_rows,
    query_type,
    serialize_query,
)
from .session import EvalPass, InferenceSession, QueryPlan

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
    "EvalPass",
    "QueryPlan",
    "InferenceSession",
]
