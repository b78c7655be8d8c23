"""Intermediate representation for probabilistic circuits.

A circuit is a rooted DAG over dense integer node ids.  Leaves carry a
variable indicator (``x_i`` or its negation ``~x_i``), internal nodes
are weighted sums or plain products of other nodes; every node kind has
``children`` (a leaf's is ``()``), and :func:`_renumber` is the one way
a pass drops nodes from a table.  The root computes a polynomial over
the ``2 * num_vars`` indicator slots: slot ``2*i`` holds the value of
``x_i`` and slot ``2*i + 1`` the value of ``~x_i``.  Evaluating at 0/1
slots gives probabilities, at all-ones marginalizes a variable out, and
at arbitrary reals supports identity testing.

Circuits are immutable once constructed.  Every analysis here is a pure
pass over the stored topological order; the per-node tables (scopes,
degrees, descendant and ancestor masks) and the plan that
:meth:`Circuit.evaluate` runs are built on first use and cached on the
instance, while :meth:`validity` and :meth:`stats` recompute on every
call.  The plan has one step per distinct subcircuit, grouped into runs
of one height and one shape, and evaluation is one loop per run.
Transforms elsewhere in the package always build fresh circuits, so
instances are safe to share.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from typing import ClassVar, Iterable, Sequence, Union

from .errors import (
    AssignmentLengthMismatch,
    BadWeights,
    CycleDetected,
    DanglingChild,
    EmptyProductNode,
    InvalidNode,
    MultipleRoots,
)

#: Relative tolerance used for every floating-point comparison in the package.
REL_TOL = 1e-9


def slot(var: int, negated: bool = False) -> int:
    """Indicator slot index of ``x_var`` or ``~x_var``."""
    return 2 * var + (1 if negated else 0)


@dataclass(frozen=True, slots=True)
class Leaf:
    """Indicator leaf: variable ``var``, negated when ``negated`` is true."""

    var: int
    negated: bool = False
    children: ClassVar[tuple[int, ...]] = ()  # not a field: equality and documents ignore it


@dataclass(frozen=True, slots=True, init=False)
class Sum:
    """Weighted sum over earlier nodes; one weight per child edge."""

    children: tuple[int, ...]
    weights: tuple[float, ...]

    def __init__(self, children: Iterable[int], weights: Iterable[float]) -> None:
        # frozen: each field is set once, already converted
        _set_sum_children(self, tuple(children))
        _set_sum_weights(self, tuple(map(float, weights)))

    @staticmethod
    def _of(children: tuple[int, ...], weights: tuple[float, ...]) -> "Sum":
        """Adopt ``children`` and tuple ``weights`` of floats as they are."""
        s = object.__new__(Sum)
        _set_sum_children(s, children)
        _set_sum_weights(s, weights)
        return s


@dataclass(frozen=True, slots=True, init=False)
class Product:
    """Product over earlier nodes."""

    children: tuple[int, ...]

    def __init__(self, children: Iterable[int]) -> None:
        _set_product_children(self, tuple(children))  # tuple() of a tuple is that tuple


# the slots' own setters, which frozen __setattr__ does not guard: a fast first set
_set_sum_children, _set_sum_weights = Sum.children.__set__, Sum.weights.__set__
_set_product_children = Product.children.__set__


def _refuse(self: object, name: str, *value: object) -> None:
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


# frozen=True's own refusals raise TypeError on 3.11 for a name that is not a field
# (their super() names the class slots=True replaced), and it forbids these in the body
for _kind in (Leaf, Sum, Product):
    _kind.__setattr__ = _kind.__delattr__ = _refuse

Node = Union[Leaf, Sum, Product]

# evaluation plan run shapes: products and sums of two and of three
# children, and of any other number (one-child sums join the n-ary sums)
_PROD2, _PROD3, _PRODN, _SUM2, _SUM3, _SUMN = range(6)


def _require_count(name: str, value: object, least: int) -> None:
    """Raise :class:`ValueError` unless ``value`` is an int of at least ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
    FLAGS: ClassVar[tuple[str, ...]] = ("decomposable", "smooth", "homogeneous", "normalized", "monotone")

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
        _require_count("num_vars", num_vars, 1)
        if not nodes:
            raise ValueError("node table must be non-empty")
        n = len(nodes)
        if type(root) is not int:
            raise InvalidNode(f"root id {root!r} is not an int")
        if not 0 <= root < n:
            raise DanglingChild(f"root id {root} outside table of {n} nodes")

        indegree = [0] * n
        for v, node in enumerate(nodes):
            if isinstance(node, Leaf):
                var = node.var
                if type(var) is not int or type(node.negated) is not bool:
                    raise InvalidNode(f"leaf {v}: var must be an int and negated a bool")
                if not 0 <= var < num_vars:
                    raise DanglingChild(f"leaf {v}: variable {var} out of range")
                continue
            if isinstance(node, Sum):
                if len(node.children) != len(node.weights):
                    raise BadWeights(f"sum {v}: {len(node.children)} children vs {len(node.weights)} weights")
                if not node.children:
                    raise BadWeights(f"sum {v} has no children")
            elif not isinstance(node, Product):
                raise InvalidNode(f"table entry {v} is a {type(node).__name__}, "
                                  f"not a Leaf, Sum or Product")
            elif not node.children:
                raise EmptyProductNode(f"product {v} has no children")
            for ch in node.children:
                if type(ch) is not int:
                    raise InvalidNode(f"node {v}: child id {ch!r} is not an int")
                if not 0 <= ch < n:
                    raise DanglingChild(f"node {v}: child {ch} out of range")
                if ch == v:
                    raise CycleDetected(f"node {v} lists itself as a child")
                indegree[ch] += 1

        if indegree[root] or indegree.count(0) != 1:
            parentless = [v for v, d in enumerate(indegree) if not d]
            if len(parentless) > 1:
                raise MultipleRoots(f"parentless nodes {parentless}, expected only {root}")
            if not parentless:
                raise CycleDetected("every node has a parent")
            raise MultipleRoots(f"designated root {root} has a parent; parentless node is {parentless[0]}")

        # peel from the root: a node is emitted once every parent has been
        # emitted, so reversing the order puts children before parents.
        # ``order`` grows while it is read, first in, first out.
        order = [root]
        for v in order:
            for ch in nodes[v].children:
                indegree[ch] -= 1
                if not indegree[ch]:
                    order.append(ch)
        if len(order) != n:
            raise CycleDetected("child relation has a directed cycle")
        order.reverse()

        self.num_vars = num_vars
        self.nodes = nodes
        self.root = root
        self.topo_order = tuple(order)

    def _reweighted(self, nodes: Sequence[Node]) -> "Circuit":
        """This circuit with ``nodes`` of the same kinds and children: no check or peel again."""
        c = object.__new__(Circuit)
        c.num_vars, c.nodes, c.root, c.topo_order = self.num_vars, tuple(nodes), self.root, self.topo_order
        return c

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"Circuit(num_vars={self.num_vars}, nodes={len(self.nodes)}, root={self.root})"

    def is_binary(self) -> bool:
        return all(len(node.children) <= 2 for node in self.nodes)

    @cached_property
    def _scope_masks(self) -> tuple[int, ...]:
        nodes = self.nodes
        masks = [0] * len(nodes)
        for v in self.topo_order:
            node = nodes[v]
            kids = node.children
            if len(kids) == 2:
                a, b = kids
                masks[v] = masks[a] | masks[b]
            elif kids:
                m = 0
                for ch in kids:
                    m |= masks[ch]
                masks[v] = m
            else:
                masks[v] = 1 << node.var
        return tuple(masks)

    def scope(self, v: int) -> frozenset[int]:
        """Variables whose indicators are reachable from ``v``."""
        return frozenset(_bits(self._scope_masks[v]))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Structural degree per node: 1 at leaves, sum over product
        children, max over sum children.  Equals the polynomial degree on
        homogeneous circuits and is an upper bound otherwise."""
        nodes = self.nodes
        deg = [1] * len(nodes)  # leaves keep theirs
        for v in self.topo_order:
            node = nodes[v]
            kids = node.children
            if len(kids) == 2:
                a, b = kids
                a, b = deg[a], deg[b]
                deg[v] = (a if a > b else b) if isinstance(node, Sum) else a + b
            elif kids:
                ds = [deg[ch] for ch in kids]
                deg[v] = max(ds) if isinstance(node, Sum) else sum(ds)
        return tuple(deg)

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
            for ch in self.nodes[v].children:
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
            for ch in self.nodes[v].children:
                masks[ch] |= m
        return tuple(masks)

    # -- evaluation -----------------------------------------------------------

    @cached_property
    def _evaluation_plan(self) -> tuple[int, int, list[tuple[int, list[tuple]]]]:
        """The program :meth:`evaluate` runs: the root's position, the step
        count and the steps as runs of one shape.  Positions ``0..2n-1``
        hold the slot values (a leaf's position is its slot) and step ``i``
        writes ``2n + i``.  One pass over ``topo_order`` keys each internal
        node by shape, operand positions and weights; a key already planned
        reuses its step, so each distinct subcircuit (a tree's copies of a
        shared node) runs once.  A new step is one higher than its highest
        operand (slots have height 0) and joins the run of its height and
        shape; runs go by height, so no step reads one of its own run."""
        width = 2 * self.num_vars
        nodes = self.nodes
        pos = [0] * len(nodes)
        height = [0] * width  # per position
        # key -> its step's position; 0.0 and -0.0 weights key alike, and as
        # sums start at +0.0 both add the same
        planned: dict[tuple, int] = {}
        runs: list[tuple[list[tuple], ...]] = []  # runs[h - 1][shape]: the steps of height h
        for v in self.topo_order:
            node = nodes[v]
            kids = node.children
            if not kids:  # a leaf; slot() inlined, as leaves are half a tree's nodes
                pos[v] = 2 * node.var + node.negated
                continue
            if len(kids) == 2:  # most nodes; unpacked, not listed, for speed
                a, b = kids
                a, b = pos[a], pos[b]
                key = (_PROD2, a, b) if isinstance(node, Product) else (_SUM2, a, b) + node.weights
            elif len(kids) == 3:
                a, b, c = kids
                ops = (pos[a], pos[b], pos[c])
                key = (_PROD3,) + ops if isinstance(node, Product) else (_SUM3,) + ops + node.weights
            else:
                ops = tuple([pos[ch] for ch in kids])
                key = (_PRODN, ops) if isinstance(node, Product) else (_SUMN, ops, node.weights)
            new = len(height)
            p = pos[v] = planned.setdefault(key, new)
            if p == new:
                if len(kids) == 2:
                    h = height[a] if height[a] > height[b] else height[b]
                else:
                    h = max([height[o] for o in ops])
                height.append(h + 1)
                if h == len(runs):
                    runs.append(([], [], [], [], [], []))
                runs[h][key[0]].append((p,) + key[1:])
        return (pos[self.root], len(planned),
                [(shape, run) for by_shape in runs for shape, run in enumerate(by_shape) if run])

    def evaluate(self, assignment: Sequence[float]) -> float:
        """Bottom-up evaluation; ``assignment[2*i]`` feeds ``x_i`` and
        ``assignment[2*i + 1]`` feeds ``~x_i``, each through ``float()``
        (a non-number raises even in a slot no leaf reads).

        Runs the cached evaluation plan, one loop per run.  Every value
        equals, bit for bit, what a per-node loop gives with ``sum()`` over
        each sum's weighted children and a running product over each
        product's children."""
        if len(assignment) != 2 * self.num_vars:
            raise AssignmentLengthMismatch(
                f"expected {2 * self.num_vars} slot values, got {len(assignment)}")
        root, n_steps, runs = self._evaluation_plan
        vals = list(map(float, assignment))
        vals += [0.0] * n_steps
        for shape, run in runs:
            if shape == _PROD2:
                for o, a, b in run:
                    vals[o] = vals[a] * vals[b]
            elif shape == _SUM2:
                # ``0.0 +`` as in sum(), which starts at 0: -0.0 terms total +0.0
                for o, a, b, wa, wb in run:
                    vals[o] = 0.0 + wa * vals[a] + wb * vals[b]
            elif shape == _PROD3:
                # equals the running product: 1.0 * x is x
                for o, a, b, c in run:
                    vals[o] = vals[a] * vals[b] * vals[c]
            elif shape == _SUM3:
                # sum() rounds 3+ terms differently from a left fold on 3.12+
                for o, a, b, c, wa, wb, wc in run:
                    vals[o] = sum((wa * vals[a], wb * vals[b], wc * vals[c]))
            elif shape == _SUMN:
                for o, kids, weights in run:
                    vals[o] = sum([w * vals[ch] for ch, w in zip(kids, weights)])
            else:
                for o, kids in run:
                    acc = 1.0
                    for ch in kids:
                        acc *= vals[ch]
                    vals[o] = acc
        return vals[root]

    # -- analyses -------------------------------------------------------------

    def validity(self) -> ValidityReport:
        """Compute all five structural flags in one topological pass.

        Homogeneity is decided structurally (all sum children share one
        structural degree, everywhere), which is exact for decomposable
        circuits; monotonicity by the syntactic condition that every sum
        weight is non-negative (NaN is not).
        """
        witnesses: dict[str, tuple[int, str]] = {}
        fail = witnesses.setdefault  # keeps each flag's first violation
        nodes, scope, deg = self.nodes, self._scope_masks, self.degrees
        nonnegative = (0.0).__le__  # False on NaN
        for v in self.topo_order:
            node = nodes[v]
            kids = node.children
            if not kids:
                continue
            if isinstance(node, Sum):
                weights = node.weights
                if not all(map(nonnegative, weights)):
                    fail("monotone", (v, "negative or NaN edge weight"))
                total = sum(weights)
                if not math.isclose(total, 1.0, rel_tol=REL_TOL):
                    fail("normalized", (v, f"outgoing weights total {total!r}"))
                if len(kids) == 2:
                    a, b = kids
                    smooth, homogeneous = scope[a] == scope[b], deg[a] == deg[b]
                else:
                    smooth = len({scope[ch] for ch in kids}) == 1
                    homogeneous = len({deg[ch] for ch in kids}) == 1
                if not smooth:
                    fail("smooth", (v, "children with different scopes"))
                if not homogeneous:
                    fail("homogeneous", (v, "children with different structural degrees"))
            elif len(kids) == 2:
                a, b = kids
                if scope[a] & scope[b]:
                    fail("decomposable", (v, "children with overlapping scopes"))
            else:
                union = 0
                for ch in kids:
                    if union & scope[ch]:
                        fail("decomposable", (v, "children with overlapping scopes"))
                    union |= scope[ch]
        return ValidityReport(**{flag: flag not in witnesses for flag in ValidityReport.FLAGS},
                              witnesses=witnesses)

    def _shape(self) -> tuple[int, int, int]:
        """Edge count, root depth and largest fan-out, by one pass over
        ``topo_order``; :meth:`stats` and ``stage_metrics`` share it."""
        kids_of = [node.children for node in self.nodes]
        depth = [0] * len(kids_of)  # leaves keep theirs
        for v in self.topo_order:
            kids = kids_of[v]
            if len(kids) == 2:
                a, b = kids
                a, b = depth[a], depth[b]
                depth[v] = 1 + (a if a > b else b)
            elif kids:
                depth[v] = 1 + max([depth[ch] for ch in kids])
        return sum(map(len, kids_of)), depth[self.root], max(map(len, kids_of))

    def stats(self) -> Stats:
        edges, depth, max_fanout = self._shape()
        return Stats(
            num_nodes=len(self.nodes),
            num_edges=edges,
            depth=depth,
            max_fanout=max_fanout,
            is_tree=edges == len(self.nodes) - 1,  # every non-root node has a parent
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
    inf = math.inf
    for v, node in enumerate(nodes):
        if isinstance(node, Sum) and node.children:
            ws = node.weights  # floats, as Sum converts them; no min/max, which skip NaN
            if len(ws) == 2:  # most sums; unpacked, not listed, for speed
                a, b = ws
                finite, nonzero = 0.0 <= a < inf and 0.0 <= b < inf, a or b
            else:
                finite, nonzero = all([0.0 <= w < inf for w in ws]), any(ws)
            if not finite:  # NaN fails 0.0 <= w too
                raise BadWeights(f"sum {v}: negative or non-finite weight")
            if not nonzero:
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
            node = Sum._of(tuple(ch for ch, _ in pairs), tuple(w for _, w in pairs))
        elif isinstance(node, Product):
            node = Product(remap[ch] for ch in node.children if ch in remap)
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
