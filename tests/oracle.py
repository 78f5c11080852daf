"""Brute-force exact-enumeration oracle for the analysis-query tests.

:class:`BruteForceOracle` tabulates the *entire* joint distribution of a
(small) network — one scalar reference evaluation
(:func:`repro.spn.evaluate.evaluate`, the per-node python walk) per
complete assignment of the indicator domains — and derives every analysis
quantity from that table: evidence probabilities, conditional marginals,
moments, entropies, mutual information matrices and class posteriors.  It
shares **no code path** with the batched engines under test: no tape, no
batching, no log domain, no replacement sweeps.

Exactness contract (the tests' tolerance policy):

* Everything here is a linear-domain sum over the joint table — exact up
  to float summation order.
* The session engines compute the same quantities as ``exp(log-ratio)``
  of two log-domain tape passes, so agreement is asserted with
  ``rtol=1e-9`` (same tolerance the engine-agreement suite uses), not
  bit-equality.
* Zero-probability evidence is ``nan`` everywhere, matching the engine
  convention.

The table has ``prod_v |domain(v)|`` rows, so oracles are built from
``strategies.small_rat_configs`` networks (at most ``2**5`` states).

:func:`max_product` is the oracle of the MPE search's max-product trace: a
walk over the node graph, one row at a time, in the graph's own child
order, sharing no code with the tape search under test.
"""

import itertools
import math

import numpy as np

from repro.spn.evaluate import evaluate
from repro.spn.nodes import IndicatorLeaf, ParameterLeaf, ProductNode, SumNode
from repro.spn.queries import _indicator_domains


def max_product(spn, evidence=None):
    """Max-product trace of one ``{var: value}`` evidence mapping.

    The upward walk replaces every sum with a weighted max (the first child
    reaching it wins) and adds the children's log-values at products; the
    downward walk follows, from the root, every child of a product and the
    winning child of a sum.  Returns ``(assignment, score)``: the evidence
    completed with the value of each traced indicator of an unobserved
    variable, and the root's max-product log-value.
    """
    evidence = {var: value for var, value in (evidence or {}).items() if value >= 0}
    max_log = {}
    best_child = {}
    for nid in spn.topological_order():
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            hit = evidence.get(node.var, node.value) == node.value
            max_log[nid] = 0.0 if hit else -math.inf
        elif isinstance(node, ParameterLeaf):
            max_log[nid] = math.log(node.prob) if node.prob > 0.0 else -math.inf
        elif isinstance(node, SumNode):
            weights = node.weights if node.is_weighted else [1.0] * len(node.children)
            best_value, best = -math.inf, node.children[0]
            for w, c in zip(weights, node.children):
                term = (math.log(w) if w > 0.0 else -math.inf) + max_log[c]
                if term > best_value:
                    best_value, best = term, c
            max_log[nid] = best_value
            best_child[nid] = best
        elif isinstance(node, ProductNode):
            max_log[nid] = sum(max_log[c] for c in node.children)
    assignment = dict(evidence)
    stack, visited = [spn.root], set()
    while stack:
        nid = stack.pop()
        if nid in visited:
            continue
        visited.add(nid)
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            assignment.setdefault(node.var, node.value)
        elif isinstance(node, SumNode):
            stack.append(best_child[nid])
        elif isinstance(node, ProductNode):
            stack.extend(node.children)
    return assignment, max_log[spn.root]


class BruteForceOracle:
    """Exact reference for every analysis query, by full enumeration."""

    def __init__(self, spn):
        self.spn = spn
        raw = _indicator_domains(spn)
        self.variables = sorted(raw)
        self.domains = {v: tuple(sorted(raw[v])) for v in self.variables}
        self.n_vars = (self.variables[-1] + 1) if self.variables else 0
        combos = list(
            itertools.product(*(self.domains[v] for v in self.variables))
        )
        self.assignments = np.array(combos, dtype=np.int64).reshape(
            len(combos), len(self.variables)
        )
        self.probs = np.array([
            evaluate(spn, dict(zip(self.variables, map(int, row))))
            for row in self.assignments
        ])

    # ------------------------------------------------------------------ #
    # Core: consistency masks and evidence probabilities
    # ------------------------------------------------------------------ #
    def _mask(self, row) -> np.ndarray:
        """Which complete assignments are consistent with ``row``.

        ``row`` follows the MARGINALIZED convention (negative =
        unobserved); observed entries beyond the model's variables are
        ignored, exactly as the engines ignore indicator-less columns.
        """
        row = np.asarray(row)
        mask = np.ones(len(self.assignments), dtype=bool)
        for i, var in enumerate(self.variables):
            if var < row.shape[0] and row[var] >= 0:
                mask &= self.assignments[:, i] == row[var]
        return mask

    def prob(self, row) -> float:
        """P(e): the joint table summed over consistent assignments."""
        return float(self.probs[self._mask(row)].sum())

    # ------------------------------------------------------------------ #
    # Conditional distributions and their functionals
    # ------------------------------------------------------------------ #
    def dist(self, row, variables) -> np.ndarray:
        """Joint conditional P(X_vars | e) as an array over state tuples.

        Shape ``(|domain(v1)|, ..., |domain(vk)|)``; ``nan`` throughout
        when the evidence has probability zero.  Variables observed in
        ``row`` come out as point masses (they are part of the
        conditioning event).
        """
        mask = self._mask(row)
        total = self.probs[mask].sum()
        shape = tuple(len(self.domains[v]) for v in variables)
        out = np.full(shape, np.nan)
        if total <= 0:
            return out
        columns = [self.variables.index(v) for v in variables]
        for states in itertools.product(*(range(k) for k in shape)):
            sub = mask.copy()
            for column, v, s in zip(columns, variables, states):
                sub &= self.assignments[:, column] == self.domains[v][s]
            out[states] = self.probs[sub].sum() / total
        return out

    def expectation(self, row, var, moment=1, center=False) -> float:
        dist = self.dist(row, (var,))
        values = np.asarray(self.domains[var], dtype=np.float64)
        if center:
            mean = float(dist @ values)
            return float(((values - mean) ** moment) @ dist)
        return float((values ** moment) @ dist)

    def entropy(self, row, var) -> float:
        dist = self.dist(row, (var,))
        if np.isnan(dist).any():
            return float("nan")
        terms = np.where(dist > 0, dist * np.log(np.where(dist > 0, dist, 1.0)), 0.0)
        return float(-terms.sum())

    def mutual_information(self, row, u, v) -> float:
        """I(X_u; X_v | e) in nats; zero when either variable is observed."""
        row = np.asarray(row)
        for var in (u, v):
            if var < row.shape[0] and row[var] >= 0:
                return 0.0
        pair = self.dist(row, (u, v))
        if np.isnan(pair).any():
            return float("nan")
        pu = pair.sum(axis=1)
        pv = pair.sum(axis=0)
        value = 0.0
        for i in range(pair.shape[0]):
            for j in range(pair.shape[1]):
                if pair[i, j] > 0:
                    value += pair[i, j] * (
                        np.log(pair[i, j]) - np.log(pu[i]) - np.log(pv[j])
                    )
        return float(value)

    def mutual_information_matrix(self, row, variables, normalize=False):
        """The full ``(k, k)`` matrix the MutualInformation kind returns."""
        k = len(variables)
        out = np.zeros((k, k))
        entropies = np.array([self.entropy(row, v) for v in variables])
        for i in range(k):
            for j in range(i + 1, k):
                out[i, j] = out[j, i] = self.mutual_information(
                    row, variables[i], variables[j]
                )
        for i in range(k):
            out[i, i] = entropies[i]
        if normalize:
            denom = np.sqrt(entropies[:, None] * entropies[None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(denom > 0, out / denom, 0.0)
        if np.isnan(entropies).any():
            out[:] = np.nan
        return out

    def classify(self, row, target) -> np.ndarray:
        """P(X_target = s | e) over the target's states, ascending."""
        return self.dist(row, (target,))

    # ------------------------------------------------------------------ #
    # Sampling support
    # ------------------------------------------------------------------ #
    def support(self, row) -> set:
        """Complete assignments with positive probability given ``row``.

        As tuples over the model's variables (ascending var id) — the set
        every conditional sample must fall in.
        """
        mask = self._mask(row) & (self.probs > 0)
        return {tuple(map(int, a)) for a in self.assignments[mask]}
