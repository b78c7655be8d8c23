"""Intermediate representation for probabilistic circuits.

A circuit is a rooted DAG over dense integer node ids.  Leaves carry a
variable indicator (``x_i`` or its negation ``~x_i``), internal nodes
are weighted sums or plain products of other nodes.  The root computes a
polynomial over the ``2 * num_vars`` indicator slots: slot ``2*i`` holds
the value of ``x_i`` and slot ``2*i + 1`` the value of ``~x_i``.
Evaluating at 0/1 slots gives probabilities, at all-ones marginalizes a
variable out, and at arbitrary reals supports identity testing.

Circuits are immutable once constructed.  Every analysis here is a pure
pass over the stored topological order; the per-node tables (scopes,
degrees, descendant and ancestor masks) and the flat evaluation plan that
:meth:`Circuit.evaluate` runs are built on first use and cached on the
instance, while :meth:`Circuit.validity` and :meth:`Circuit.stats`
recompute on every call.  Transforms elsewhere in the package always
build fresh circuits, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (
    AssignmentLengthMismatch,
    BadWeights,
    CycleDetected,
    DanglingChild,
    EmptyProductNode,
    MultipleRoots,
)

#: Relative tolerance used for every floating-point comparison in the package.
REL_TOL = 1e-9


def slot(var: int, negated: bool = False) -> int:
    """Indicator slot index of ``x_var`` or ``~x_var``."""
    return 2 * var + (1 if negated else 0)


@dataclass(frozen=True)
class Leaf:
    """Indicator leaf: variable ``var``, negated when ``negated`` is true."""

    var: int
    negated: bool = False


@dataclass(frozen=True)
class Sum:
    """Weighted sum over earlier nodes; one weight per child edge."""

    children: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


@dataclass(frozen=True)
class Product:
    """Product over earlier nodes."""

    children: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


Node = Union[Leaf, Sum, Product]

# evaluation plan step shapes: sums of one, two and more children,
# products of two children and of any other number
_SUM1, _SUM2, _SUMN, _PROD2, _PRODN = range(5)


def _children(node: Node) -> tuple[int, ...]:
    return () if isinstance(node, Leaf) else node.children


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the five structural checks.

    ``witnesses`` maps each failed flag name to the first violating node
    (in topological order) together with a human-readable description;
    a flag has a witness exactly when it is false.
    """

    decomposable: bool
    smooth: bool
    homogeneous: bool
    normalized: bool
    monotone: bool
    witnesses: dict[str, tuple[int, str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the circuit is a valid PC (decomposable and smooth)."""
        return self.decomposable and self.smooth


@dataclass(frozen=True)
class Stats:
    num_nodes: int
    num_edges: int
    depth: int
    max_fanout: int
    is_tree: bool
    degree_of_root: int


class Circuit:
    """Validated, immutable circuit.

    The constructor performs the structural checks needed for any
    analysis to make sense: dense ids, in-range children, sane arities,
    acyclicity, and a unique parentless node equal to ``root``.  Weight
    *sign* checks are deliberately left to :func:`build_circuit` so that
    non-monotone circuits remain representable for analysis (they are
    flagged by :meth:`validity`, never constructed by this package).
    """

    def __init__(self, num_vars: int, nodes: Iterable[Node], root: int):
        nodes = tuple(nodes)
        if num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        if not nodes:
            raise ValueError("node table must be non-empty")
        n = len(nodes)
        if not 0 <= root < n:
            raise DanglingChild(f"root id {root} outside table of {n} nodes")

        indegree = [0] * n
        for v, node in enumerate(nodes):
            if isinstance(node, Leaf):
                if not 0 <= node.var < num_vars:
                    raise DanglingChild(f"leaf {v}: variable {node.var} out of range")
                continue
            if isinstance(node, Sum):
                if len(node.children) != len(node.weights):
                    raise BadWeights(f"sum {v}: {len(node.children)} children vs {len(node.weights)} weights")
                if not node.children:
                    raise BadWeights(f"sum {v} has no children")
            elif not node.children:
                raise EmptyProductNode(f"product {v} has no children")
            for ch in node.children:
                if not 0 <= ch < n:
                    raise DanglingChild(f"node {v}: child {ch} out of range")
                if ch == v:
                    raise CycleDetected(f"node {v} lists itself as a child")
                indegree[ch] += 1

        parentless = [v for v in range(n) if indegree[v] == 0]
        if len(parentless) > 1:
            raise MultipleRoots(f"parentless nodes {parentless}, expected only {root}")
        if not parentless:
            raise CycleDetected("every node has a parent")
        if parentless[0] != root:
            raise MultipleRoots(f"designated root {root} has a parent; parentless node is {parentless[0]}")

        # peel from the root: a node is emitted once every parent has been
        # emitted, so reversing the order puts children before parents
        remaining = indegree[:]
        queue = deque([root])
        order: list[int] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for ch in _children(nodes[v]):
                remaining[ch] -= 1
                if remaining[ch] == 0:
                    queue.append(ch)
        if len(order) != n:
            raise CycleDetected("child relation has a directed cycle")
        order.reverse()

        self.num_vars = num_vars
        self.nodes = nodes
        self.root = root
        self.topo_order = tuple(order)

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"Circuit(num_vars={self.num_vars}, nodes={len(self.nodes)}, root={self.root})"

    def children(self, v: int) -> tuple[int, ...]:
        return _children(self.nodes[v])

    def is_binary(self) -> bool:
        return all(len(_children(node)) <= 2 for node in self.nodes)

    @cached_property
    def _scope_masks(self) -> tuple[int, ...]:
        masks = [0] * len(self.nodes)
        for v in self.topo_order:
            node = self.nodes[v]
            if isinstance(node, Leaf):
                masks[v] = 1 << node.var
            else:
                m = 0
                for ch in node.children:
                    m |= masks[ch]
                masks[v] = m
        return tuple(masks)

    def scope(self, v: int) -> frozenset[int]:
        """Variables whose indicators are reachable from ``v``."""
        return frozenset(_bits(self._scope_masks[v]))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Structural degree per node: 1 at leaves, sum over product
        children, max over sum children.  Equals the polynomial degree on
        homogeneous circuits and is an upper bound otherwise."""
        deg = [0] * len(self.nodes)
        for v in self.topo_order:
            node = self.nodes[v]
            if isinstance(node, Leaf):
                deg[v] = 1
            elif isinstance(node, Sum):
                deg[v] = max(deg[ch] for ch in node.children)
            else:
                deg[v] = sum(deg[ch] for ch in node.children)
        return tuple(deg)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @cached_property
    def topo_positions(self) -> tuple[int, ...]:
        """Inverse of ``topo_order``: position of each node id in it."""
        pos = [0] * len(self.nodes)
        for i, v in enumerate(self.topo_order):
            pos[v] = i
        return tuple(pos)

    @cached_property
    def descendant_masks(self) -> tuple[int, ...]:
        """Per node, a bitmask over node ids of the sub-DAG rooted there
        (the node itself included)."""
        masks = [0] * len(self.nodes)
        for v in self.topo_order:
            m = 1 << v
            for ch in _children(self.nodes[v]):
                m |= masks[ch]
            masks[v] = m
        return tuple(masks)

    @cached_property
    def ancestor_masks(self) -> tuple[int, ...]:
        """Per node, a bitmask of the nodes it is reachable from (itself
        included)."""
        masks = [0] * len(self.nodes)
        for v in reversed(self.topo_order):
            m = masks[v] | 1 << v
            masks[v] = m
            for ch in _children(self.nodes[v]):
                masks[ch] |= m
        return tuple(masks)

    # -- evaluation -----------------------------------------------------------

    @cached_property
    def _evaluation_plan(self) -> tuple[list[int], list[tuple]]:
        """The program :meth:`evaluate` runs: the distinct indicator slots
        the leaves read, in order of first use in ``topo_order``, then one
        step per internal node in ``topo_order``.  A step reads positions
        in the value list (slot values first, then step results), so the
        root's value is the last one."""
        pos = [0] * len(self.nodes)
        at: dict[int, int] = {}  # slot -> position, in order of first use
        for v in self.topo_order:
            node = self.nodes[v]
            if isinstance(node, Leaf):
                pos[v] = at.setdefault(slot(node.var, node.negated), len(at))
        steps: list[tuple] = []
        for v in self.topo_order:
            node = self.nodes[v]
            if isinstance(node, Leaf):
                continue
            kids = [pos[ch] for ch in node.children]
            if isinstance(node, Product):
                step = ((_PROD2, kids[0], kids[1], 0.0, 0.0) if len(kids) == 2
                        else (_PRODN, tuple(kids), 0, 0.0, 0.0))
            elif len(kids) == 1:
                step = (_SUM1, kids[0], 0, node.weights[0], 0.0)
            elif len(kids) == 2:
                step = (_SUM2, kids[0], kids[1], *node.weights)
            else:
                step = (_SUMN, tuple(zip(kids, node.weights)), 0, 0.0, 0.0)
            pos[v] = len(at) + len(steps)
            steps.append(step)
        return list(at), steps

    def evaluate(self, assignment: Sequence[float]) -> float:
        """Bottom-up evaluation; ``assignment[2*i]`` feeds ``x_i`` and
        ``assignment[2*i + 1]`` feeds ``~x_i``.

        Runs the cached evaluation plan.  Every value equals, bit for bit,
        what a per-node loop gives with ``sum()`` over each sum's weighted
        children and a running product over each product's children."""
        if len(assignment) != 2 * self.num_vars:
            raise AssignmentLengthMismatch(
                f"expected {2 * self.num_vars} slot values, got {len(assignment)}")
        slots, steps = self._evaluation_plan
        vals = [float(assignment[s]) for s in slots]
        push = vals.append
        for op, a, b, wa, wb in steps:
            # ``0.0 +`` as in sum(), which starts at 0: -0.0 terms total +0.0
            if op == _SUM2:
                push(0.0 + wa * vals[a] + wb * vals[b])
            elif op == _PROD2:
                push(vals[a] * vals[b])
            elif op == _SUM1:
                push(0.0 + wa * vals[a])
            elif op == _SUMN:
                # sum() rounds 3+ terms differently from a left fold on 3.12+
                push(sum([w * vals[ch] for ch, w in a]))
            else:
                acc = 1.0
                for ch in a:
                    acc *= vals[ch]
                push(acc)
        return vals[-1]

    # -- analyses -------------------------------------------------------------

    def validity(self) -> ValidityReport:
        """Compute all five structural flags in one topological pass.

        Homogeneity is decided structurally (all sum children share one
        structural degree, everywhere), which is exact for decomposable
        circuits; monotonicity by the syntactic condition that every sum
        weight is non-negative (NaN is not).
        """
        flags = {"decomposable": True, "smooth": True, "homogeneous": True,
                 "normalized": True, "monotone": True}
        witnesses: dict[str, tuple[int, str]] = {}

        def fail(flag: str, v: int, why: str) -> None:
            if flags[flag]:
                flags[flag] = False
                witnesses[flag] = (v, why)

        scope = self._scope_masks
        deg = self.degrees
        for v in self.topo_order:
            node = self.nodes[v]
            if isinstance(node, Sum):
                total = sum(node.weights)
                if any(not (w >= 0) for w in node.weights):
                    fail("monotone", v, "negative or NaN edge weight")
                if not math.isclose(total, 1.0, rel_tol=REL_TOL):
                    fail("normalized", v, f"outgoing weights total {total!r}")
                first = node.children[0]
                if any(scope[ch] != scope[first] for ch in node.children[1:]):
                    fail("smooth", v, "children with different scopes")
                if any(deg[ch] != deg[first] for ch in node.children[1:]):
                    fail("homogeneous", v, "children with different structural degrees")
            elif isinstance(node, Product):
                union = 0
                total_bits = 0
                for ch in node.children:
                    union |= scope[ch]
                    total_bits += scope[ch].bit_count()
                if union.bit_count() != total_bits:
                    fail("decomposable", v, "children with overlapping scopes")
        return ValidityReport(witnesses=witnesses, **flags)

    def stats(self) -> Stats:
        edges = 0
        max_fanout = 0
        depth = [0] * len(self.nodes)
        for v in self.topo_order:
            kids = _children(self.nodes[v])
            if kids:
                edges += len(kids)
                max_fanout = max(max_fanout, len(kids))
                depth[v] = 1 + max(depth[ch] for ch in kids)
        is_tree = edges == len(self.nodes) - 1  # every non-root node has a parent
        return Stats(
            num_nodes=len(self.nodes),
            num_edges=edges,
            depth=depth[self.root],
            max_fanout=max_fanout,
            is_tree=is_tree,
            degree_of_root=self.degrees[self.root],
        )


def build_circuit(num_vars: int, nodes: Iterable[Node], root: int) -> Circuit:
    """Construct a circuit and enforce the full node invariants.

    Beyond the structural checks done by :class:`Circuit` itself, this
    rejects sum nodes with a negative or non-finite (NaN, infinite)
    weight or an all-zero weight vector.  The reader, the generators and
    ``strip_negations`` build through here; the transforms call
    :class:`Circuit` directly, so their output is checked only structurally.
    """
    nodes = tuple(nodes)
    for v, node in enumerate(nodes):
        if isinstance(node, Sum) and node.children:
            if not all(0.0 <= w < math.inf for w in node.weights):
                raise BadWeights(f"sum {v}: negative or non-finite weight")
            if all(w == 0 for w in node.weights):
                raise BadWeights(f"sum {v}: all weights zero")
    return Circuit(num_vars, nodes, root)


def _renumber(nodes: Sequence[Node], keep: Sequence[bool]) -> tuple[list[Node], dict[int, int]]:
    """Node table of the flagged nodes, in id order, with children renumbered.

    Edges into nodes that are not kept are dropped together with their
    sum weights.  Returns the new table and the new id of every kept old
    id.  Raises :class:`EmptyProductNode` naming the old id of any node
    left without children.
    """
    remap: dict[int, int] = {}
    for v, flag in enumerate(keep):
        if flag:
            remap[v] = len(remap)
    out: list[Node] = []
    for v in remap:
        node = nodes[v]
        if isinstance(node, Sum):
            pairs = [(remap[ch], w) for ch, w in zip(node.children, node.weights) if ch in remap]
            node = Sum(tuple(ch for ch, _ in pairs), tuple(w for _, w in pairs))
        elif isinstance(node, Product):
            node = Product(tuple(remap[ch] for ch in node.children if ch in remap))
        if not isinstance(node, Leaf) and not node.children:
            raise EmptyProductNode(f"{type(node).__name__.lower()} {v} would lose all children")
        out.append(node)
    return out, remap


def boolean_assignment(values: Sequence[int]) -> list[float]:
    """Slot values for a 0/1 variable assignment: ``x_i = values[i]`` and
    ``~x_i`` its complement."""
    out = []
    for bit in values:
        out.extend((float(bit), 1.0 - float(bit)))
    return out


def marginal_assignment(num_vars: int) -> list[float]:
    """All-ones slot values; evaluating a valid PC here sums every
    monomial coefficient (marginalizes all variables out)."""
    return [1.0] * (2 * num_vars)
