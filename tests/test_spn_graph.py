"""Unit tests for the SPN graph container (structure, scopes, validity)."""

import numpy as np
import pytest

from repro.spn.evaluate import evaluate, evaluate_batch
from repro.spn.graph import SPN, StructureError
from repro.spn.nodes import SumNode


class TestBuilder:
    def test_ids_are_dense(self, tiny_spn):
        assert tiny_spn.node_ids() == list(range(len(tiny_spn)))

    def test_children_must_exist(self):
        spn = SPN()
        with pytest.raises(StructureError):
            spn.add_sum([42], weights=[1.0])

    def test_negative_indicator_rejected(self):
        spn = SPN()
        with pytest.raises(StructureError):
            spn.add_indicator(-1, 0)

    def test_negative_parameter_rejected(self):
        spn = SPN()
        with pytest.raises(StructureError):
            spn.add_parameter(-0.5)

    def test_root_must_exist(self):
        spn = SPN()
        with pytest.raises(StructureError):
            spn.set_root(3)

    def test_root_required_for_queries(self):
        spn = SPN()
        spn.add_indicator(0, 0)
        with pytest.raises(StructureError):
            _ = spn.root

    def test_contains(self, tiny_spn):
        assert 0 in tiny_spn
        assert len(tiny_spn) not in tiny_spn


class TestTopologicalOrder:
    def test_children_before_parents(self, mixture_spn):
        order = mixture_spn.topological_order()
        position = {nid: i for i, nid in enumerate(order)}
        for nid in order:
            for child in mixture_spn.node(nid).children:
                assert position[child] < position[nid]

    def test_root_is_last(self, mixture_spn):
        assert mixture_spn.topological_order()[-1] == mixture_spn.root

    def test_only_reachable_nodes(self):
        spn = SPN()
        a = spn.add_indicator(0, 0)
        b = spn.add_indicator(0, 1)
        spn.add_indicator(5, 0)  # unreachable
        root = spn.add_sum([a, b], weights=[0.5, 0.5])
        spn.set_root(root)
        assert len(spn.topological_order()) == 3

    def test_set_root_refreshes_cached_order_and_scopes(self):
        # Moving the root after a query must not leave the first root's
        # topological order (and scopes) behind for later queries.
        spn = SPN()
        a = spn.add_indicator(0, 0)
        b = spn.add_indicator(0, 1)
        s1 = spn.add_sum([a, b], weights=[0.25, 0.75])
        p = spn.add_parameter(0.5)
        s2 = spn.add_product([s1, p])
        spn.set_root(s1)
        assert len(spn.topological_order()) == 3
        spn.set_root(s2)
        assert spn.topological_order()[-1] == s2
        assert spn.scopes()[s2] == frozenset({0})
        assert spn.stats().n_nodes == 5
        assert evaluate(spn, {0: 1}) == pytest.approx(0.375)
        data = np.array([[1]])
        assert evaluate_batch(spn, data, engine="vectorized")[0] == pytest.approx(0.375)

    def test_deep_chain_does_not_recurse(self):
        spn = SPN()
        node = SPN.bernoulli_leaf(spn, 0, 0.5)
        for _ in range(3000):
            node = spn.add_sum([node], weights=[1.0])
        spn.set_root(node)
        assert len(spn.topological_order()) == 3003


class TestScopesAndStats:
    def test_scopes(self, tiny_spn):
        scopes = tiny_spn.scopes()
        assert scopes[tiny_spn.root] == frozenset({0, 1})

    def test_parameter_leaf_scope_empty(self):
        spn = SPN()
        p = spn.add_parameter(0.5)
        i = spn.add_indicator(0, 1)
        root = spn.add_product([p, i])
        spn.set_root(root)
        assert spn.scopes()[p] == frozenset()

    def test_variables(self, mixture_spn):
        assert mixture_spn.variables() == [0, 1]

    def test_num_values(self, mixture_spn):
        assert mixture_spn.num_values() == {0: 2, 1: 2}

    def test_depth(self, tiny_spn):
        assert tiny_spn.depth() == 2

    def test_stats_counts(self, tiny_spn):
        stats = tiny_spn.stats()
        assert stats.n_indicator == 4
        assert stats.n_sum == 2
        assert stats.n_product == 1
        assert stats.n_vars == 2
        assert stats.n_nodes == 7

    def test_stats_binary_ops(self, tiny_spn):
        # Each weighted 2-ary sum is 2 muls + 1 add, the product is 1 mul.
        assert tiny_spn.stats().n_binary_ops == 7

    def test_parents(self, tiny_spn):
        parents = tiny_spn.parents()
        assert parents[tiny_spn.root] == []
        root_children = tiny_spn.node(tiny_spn.root).children
        for child in root_children:
            assert tiny_spn.root in parents[child]


class TestValidity:
    def test_valid_fixture(self, mixture_spn):
        mixture_spn.check_valid()
        assert mixture_spn.is_valid()

    def test_non_smooth_detected(self):
        spn = SPN()
        a = SPN.bernoulli_leaf(spn, 0, 0.5)
        b = SPN.bernoulli_leaf(spn, 1, 0.5)
        root = spn.add_sum([a, b], weights=[0.5, 0.5])
        spn.set_root(root)
        with pytest.raises(StructureError, match="smooth"):
            spn.check_smooth()
        assert not spn.is_valid()

    def test_non_decomposable_detected(self):
        spn = SPN()
        a = SPN.bernoulli_leaf(spn, 0, 0.5)
        b = SPN.bernoulli_leaf(spn, 0, 0.7)
        root = spn.add_product([a, b])
        spn.set_root(root)
        with pytest.raises(StructureError, match="decomposable"):
            spn.check_decomposable()

    def test_generated_spns_are_valid(self, small_random_spn, small_rat_spn):
        small_random_spn.check_valid()
        small_rat_spn.check_valid()

    def test_bernoulli_leaf_probability_range(self):
        spn = SPN()
        with pytest.raises(StructureError):
            SPN.bernoulli_leaf(spn, 0, 1.5)

    def test_copy_is_independent(self, tiny_spn):
        clone = tiny_spn.copy()
        clone.add_indicator(9, 0)
        assert len(clone) == len(tiny_spn) + 1
