"""The :class:`SPN` container: a rooted DAG of sum, product and leaf nodes.

The class offers a small builder API (``add_indicator`` / ``add_parameter`` /
``add_sum`` / ``add_product`` / ``set_root``), structural queries (topological
order, scopes, depth, statistics) and validity checks (smoothness and
decomposability), which together form the substrate every other package in
this repository builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .nodes import (
    IndicatorLeaf,
    Node,
    NodeId,
    ParameterLeaf,
    ProductNode,
    SumNode,
    is_leaf,
)

__all__ = ["SPN", "SPNStats", "StructureError"]


class StructureError(ValueError):
    """Raised when an SPN violates a structural requirement."""


@dataclass(frozen=True)
class SPNStats:
    """Summary statistics of an SPN graph."""

    n_nodes: int
    n_edges: int
    n_sum: int
    n_product: int
    n_indicator: int
    n_parameter: int
    n_vars: int
    depth: int
    n_binary_ops: int

    def __str__(self) -> str:  # pragma: no cover - human readable helper
        return (
            f"SPN(nodes={self.n_nodes}, edges={self.n_edges}, sums={self.n_sum}, "
            f"products={self.n_product}, indicators={self.n_indicator}, "
            f"params={self.n_parameter}, vars={self.n_vars}, depth={self.depth}, "
            f"binary_ops={self.n_binary_ops})"
        )


class SPN:
    """A sum-product network represented as a rooted DAG.

    Nodes are created through the ``add_*`` methods, which assign dense
    integer identifiers.  Children must exist before their parents are added,
    which guarantees the graph is acyclic by construction.
    """

    def __init__(self) -> None:
        self._nodes: Dict[NodeId, Node] = {}
        self._root: Optional[NodeId] = None
        # Caches invalidated on every mutation.
        self._topo_cache: Optional[List[NodeId]] = None
        self._scope_cache: Optional[Dict[NodeId, FrozenSet[int]]] = None

    # ------------------------------------------------------------------ #
    # Builder API
    # ------------------------------------------------------------------ #
    def _new_id(self) -> NodeId:
        return len(self._nodes)

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._scope_cache = None

    def _check_children(self, child_ids: Sequence[NodeId]) -> None:
        for cid in child_ids:
            if cid not in self._nodes:
                raise StructureError(f"child node {cid} does not exist yet")

    def add_indicator(self, var: int, value: int) -> NodeId:
        """Add an indicator leaf lambda_{var = value} and return its id."""
        if var < 0 or value < 0:
            raise StructureError("variable index and value must be non-negative")
        nid = self._new_id()
        self._nodes[nid] = IndicatorLeaf(id=nid, var=var, value=value)
        self._invalidate()
        return nid

    def add_parameter(self, prob: float) -> NodeId:
        """Add a constant parameter leaf and return its id."""
        if prob < 0.0:
            raise StructureError(f"parameter leaf value must be non-negative, got {prob}")
        nid = self._new_id()
        self._nodes[nid] = ParameterLeaf(id=nid, prob=float(prob))
        self._invalidate()
        return nid

    def add_sum(
        self,
        child_ids: Sequence[NodeId],
        weights: Optional[Sequence[float]] = None,
    ) -> NodeId:
        """Add a (possibly weighted) sum node over existing children."""
        self._check_children(child_ids)
        nid = self._new_id()
        w = tuple(float(x) for x in weights) if weights is not None else None
        self._nodes[nid] = SumNode(id=nid, child_ids=tuple(child_ids), weights=w)
        self._invalidate()
        return nid

    def add_product(self, child_ids: Sequence[NodeId]) -> NodeId:
        """Add a product node over existing children."""
        self._check_children(child_ids)
        nid = self._new_id()
        self._nodes[nid] = ProductNode(id=nid, child_ids=tuple(child_ids))
        self._invalidate()
        return nid

    def set_root(self, node_id: NodeId) -> None:
        """Declare ``node_id`` as the root of the network."""
        if node_id not in self._nodes:
            raise StructureError(f"root node {node_id} does not exist")
        self._root = node_id
        self._invalidate()

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> NodeId:
        if self._root is None:
            raise StructureError("SPN has no root; call set_root() first")
        return self._root

    @property
    def has_root(self) -> bool:
        return self._root is not None

    def node(self, node_id: NodeId) -> Node:
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def nodes(self) -> Iterable[Node]:
        """Iterate over all nodes in insertion (id) order."""
        return (self._nodes[i] for i in range(len(self._nodes)))

    def node_ids(self) -> List[NodeId]:
        return list(range(len(self._nodes)))

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[NodeId]:
        """Return node ids reachable from the root, children before parents."""
        if self._topo_cache is not None:
            return list(self._topo_cache)
        order: List[NodeId] = []
        visited: set = set()
        # Iterative DFS to avoid recursion limits on deep networks.
        stack: List[Tuple[NodeId, bool]] = [(self.root, False)]
        while stack:
            nid, expanded = stack.pop()
            if expanded:
                order.append(nid)
                continue
            if nid in visited:
                continue
            visited.add(nid)
            stack.append((nid, True))
            for cid in self._nodes[nid].children:
                if cid not in visited:
                    stack.append((cid, False))
        self._topo_cache = order
        return list(order)

    def reachable_ids(self) -> FrozenSet[NodeId]:
        """Ids of all nodes reachable from the root."""
        return frozenset(self.topological_order())

    def parents(self) -> Dict[NodeId, List[NodeId]]:
        """Map from node id to the ids of its parents (reachable nodes only)."""
        result: Dict[NodeId, List[NodeId]] = {nid: [] for nid in self.topological_order()}
        for nid in self.topological_order():
            for cid in self._nodes[nid].children:
                result[cid].append(nid)
        return result

    def scopes(self) -> Dict[NodeId, FrozenSet[int]]:
        """Map from node id to its scope (set of variable indices).

        Parameter leaves have an empty scope; indicator leaves have the
        singleton scope of their variable; internal nodes take the union of
        their children's scopes.
        """
        if self._scope_cache is not None:
            return dict(self._scope_cache)
        scopes: Dict[NodeId, FrozenSet[int]] = {}
        for nid in self.topological_order():
            node = self._nodes[nid]
            if isinstance(node, IndicatorLeaf):
                scopes[nid] = frozenset({node.var})
            elif isinstance(node, ParameterLeaf):
                scopes[nid] = frozenset()
            else:
                merged: set = set()
                for cid in node.children:
                    merged |= scopes[cid]
                scopes[nid] = frozenset(merged)
        self._scope_cache = scopes
        return dict(scopes)

    def variables(self) -> List[int]:
        """Sorted list of variable indices appearing in the network."""
        vars_: set = set()
        for node in self.nodes():
            if isinstance(node, IndicatorLeaf):
                vars_.add(node.var)
        return sorted(vars_)

    def num_values(self) -> Dict[int, int]:
        """Map variable index -> number of distinct values seen in indicators."""
        values: Dict[int, set] = {}
        for node in self.nodes():
            if isinstance(node, IndicatorLeaf):
                values.setdefault(node.var, set()).add(node.value)
        return {var: len(vals) for var, vals in values.items()}

    def depth(self) -> int:
        """Length of the longest leaf-to-root path (leaves have depth 0)."""
        depths: Dict[NodeId, int] = {}
        for nid in self.topological_order():
            node = self._nodes[nid]
            if is_leaf(node):
                depths[nid] = 0
            else:
                depths[nid] = 1 + max(depths[cid] for cid in node.children)
        return depths[self.root]

    def stats(self) -> SPNStats:
        """Return summary statistics (reachable nodes only)."""
        n_sum = n_prod = n_ind = n_par = n_edges = n_ops = 0
        for nid in self.topological_order():
            node = self._nodes[nid]
            if isinstance(node, SumNode):
                n_sum += 1
                n_edges += len(node.children)
                # A k-ary weighted sum costs k multiplications and k-1 additions
                # once lowered to binary operations; an unweighted sum costs k-1.
                n_ops += len(node.children) - 1
                if node.is_weighted:
                    n_ops += len(node.children)
            elif isinstance(node, ProductNode):
                n_prod += 1
                n_edges += len(node.children)
                n_ops += len(node.children) - 1
            elif isinstance(node, IndicatorLeaf):
                n_ind += 1
            elif isinstance(node, ParameterLeaf):
                n_par += 1
        return SPNStats(
            n_nodes=len(self.topological_order()),
            n_edges=n_edges,
            n_sum=n_sum,
            n_product=n_prod,
            n_indicator=n_ind,
            n_parameter=n_par,
            n_vars=len(self.variables()),
            depth=self.depth(),
            n_binary_ops=n_ops,
        )

    # ------------------------------------------------------------------ #
    # Validity
    # ------------------------------------------------------------------ #
    def check_smooth(self) -> None:
        """Check smoothness (completeness): sum children share the same scope.

        Parameter-leaf children (empty scope) are ignored, so arithmetic
        circuits with explicit weight leaves pass the check.
        """
        scopes = self.scopes()
        for nid in self.topological_order():
            node = self._nodes[nid]
            if not isinstance(node, SumNode):
                continue
            child_scopes = [scopes[c] for c in node.children if scopes[c]]
            if not child_scopes:
                continue
            first = child_scopes[0]
            for cs in child_scopes[1:]:
                if cs != first:
                    raise StructureError(
                        f"sum node {nid} is not smooth: child scopes {sorted(first)} "
                        f"vs {sorted(cs)}"
                    )

    def check_decomposable(self) -> None:
        """Check decomposability: product children have pairwise disjoint scopes."""
        scopes = self.scopes()
        for nid in self.topological_order():
            node = self._nodes[nid]
            if not isinstance(node, ProductNode):
                continue
            seen: set = set()
            for cid in node.children:
                overlap = seen & scopes[cid]
                if overlap:
                    raise StructureError(
                        f"product node {nid} is not decomposable: variables "
                        f"{sorted(overlap)} appear in more than one child"
                    )
                seen |= scopes[cid]

    def check_valid(self) -> None:
        """Run all structural checks (root present, smooth, decomposable)."""
        _ = self.root
        self.check_smooth()
        self.check_decomposable()

    def is_valid(self) -> bool:
        """Return True when :meth:`check_valid` passes."""
        try:
            self.check_valid()
        except StructureError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def bernoulli_leaf(spn: "SPN", var: int, p_true: float) -> NodeId:
        """Add a univariate Bernoulli distribution as a weighted sum of indicators."""
        if not 0.0 <= p_true <= 1.0:
            raise StructureError(f"probability must be in [0, 1], got {p_true}")
        i0 = spn.add_indicator(var, 0)
        i1 = spn.add_indicator(var, 1)
        return spn.add_sum([i0, i1], weights=[1.0 - p_true, p_true])

    def copy(self) -> "SPN":
        """Return a deep structural copy of this network."""
        clone = SPN()
        clone._nodes = dict(self._nodes)
        clone._root = self._root
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        root = self._root if self._root is not None else "?"
        return f"<SPN nodes={len(self._nodes)} root={root}>"
