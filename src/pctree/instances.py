"""Explicit hard instances and a random-circuit generator.

The hard instance is a shallow tree PC over ``n = 4**k`` variables built
in ``2k`` alternating product/sum layers above the non-negated leaves,
where every product node also absorbs the negation indicators covering
its sibling's scope.  Its polynomial has ``2**(2**k - 1)`` monomials of
full degree ``n``; removing the negation leaves turns it into a plain
monotone formula for :func:`pctree.poly.pairing_polynomial`.

The generator produces decomposable, smooth, homogeneous, monotone DAG
circuits with full-scope roots, for property testing of the transforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .circuit import Circuit, Leaf, Node, Product, Sum, _bits, _renumber, build_circuit
from .errors import EmptyProductNode, KTooLarge


@dataclass(frozen=True)
class HardInstanceLayout:
    """Layer bookkeeping for the hard instance.

    ``layer_index`` maps every node to its layer: 0 for the base leaves,
    ``2k`` for the root, and -1 for the negation leaves added during
    augmentation.  ``label`` maps each structural node to its
    ``(layer, position)`` pair, positions starting at 1.
    """

    k: int
    n: int
    layer_index: dict[int, int] = field(default_factory=dict)
    label: dict[int, tuple[int, int]] = field(default_factory=dict)

    def node_at(self, layer: int, position: int) -> int:
        for node, pair in self.label.items():
            if pair == (layer, position):
                return node
        raise KeyError((layer, position))


def _build_hard(k: int) -> tuple[Circuit, HardInstanceLayout]:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 4:
        raise KTooLarge(f"k={k} means {4 ** k} variables; supported range is 1..4")
    n = 4 ** k
    nodes: list[Node] = [Leaf(i) for i in range(n)]
    scope: list[int] = [1 << i for i in range(n)]  # scope bitmask per node id
    layout = HardInstanceLayout(k, n)
    for i in range(n):
        layout.layer_index[i] = 0
        layout.label[i] = (0, i + 1)

    def emit(node: Node, mask: int, layer: int, position: int | None = None) -> int:
        nid = len(nodes)
        nodes.append(node)
        scope.append(mask)
        layout.layer_index[nid] = layer
        if position is not None:
            layout.label[nid] = (layer, position)
        return nid

    level = list(range(n))
    for layer in range(1, 2 * k + 1):
        width = len(level) // 2
        ids = []
        if layer % 2 == 1:
            pre = []
            for q in range(width):
                a, b = level[2 * q], level[2 * q + 1]
                mask = scope[a] | scope[b]
                ids.append(emit(Product((a, b)), mask, layer, q + 1))
                pre.append(mask)
            # augmentation: each product gains fresh negation leaves for
            # exactly its sibling's pre-augmentation scope
            for q in range(0, width, 2):
                for me, sib in ((q, q + 1), (q + 1, q)):
                    negs = tuple(emit(Leaf(var, negated=True), 1 << var, -1)
                                 for var in _bits(pre[sib]))
                    grown = nodes[ids[me]]
                    nodes[ids[me]] = Product(grown.children + negs)
                    scope[ids[me]] = pre[me] | pre[sib]
        else:
            for q in range(width):
                a, b = level[2 * q], level[2 * q + 1]
                ids.append(emit(Sum((a, b), (1.0, 1.0)), scope[a] | scope[b], layer, q + 1))
        level = ids
    return build_circuit(n, nodes, level[0]), layout


def build_hard_instance(k: int) -> Circuit:
    """Tree PC over ``4**k`` variables with ``2*4**k - 1 + k*4**k`` nodes
    and depth ``2k``, unit sum weights, valid on all structural checks."""
    return _build_hard(k)[0]


def hard_instance_layout(k: int) -> HardInstanceLayout:
    """Layer/label map matching the node ids of :func:`build_hard_instance`."""
    return _build_hard(k)[1]


def strip_negations(c: Circuit) -> Circuit:
    """Detach every negated-indicator leaf, yielding a plain monotone
    formula/DAG over the non-negated indicators.

    Raises :class:`EmptyProductNode` if any internal node would lose all
    of its children (the hard instances never do: no sum node has a
    negation leaf child and every product keeps its structural children).
    """
    keep = [not (isinstance(node, Leaf) and node.negated) for node in c.nodes]
    if all(keep):
        return c
    if not keep[c.root]:
        raise EmptyProductNode("root is a negation leaf; nothing would remain")
    nodes, remap = _renumber(c.nodes, keep)
    return build_circuit(c.num_vars, nodes, remap[c.root])


@dataclass(frozen=True)
class GenParams:
    """Knobs for :func:`random_valid_pc`; identical params give identical
    circuits."""

    n: int
    seed: int = 0
    reuse_prob: float = 0.0
    max_fanout: int = 3

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 0.0 <= self.reuse_prob <= 1.0:
            raise ValueError("reuse_prob must lie in [0, 1]")
        if self.max_fanout < 2:
            raise ValueError("max_fanout must be >= 2")


def random_valid_pc(params: GenParams) -> Circuit:
    """Random decomposable, smooth, homogeneous, monotone DAG PC whose
    root covers all ``n`` variables (hence has structural degree ``n``).

    Product nodes split their scope by a random balanced partition; sum
    nodes mix 2..max_fanout same-scope children with random positive
    weights.  A sub-circuit over a scope that was built before is reused
    with probability ``reuse_prob``, which is what creates genuine
    multi-parent DAG nodes.
    """
    rng = random.Random(params.seed)
    nodes: list[Node] = []
    by_scope: dict[frozenset[int], list[int]] = {}

    def emit(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def build(scope: frozenset[int]) -> int:
        known = by_scope.get(scope)
        if known and rng.random() < params.reuse_prob:
            return rng.choice(known)
        nid = fresh(scope)
        by_scope.setdefault(scope, []).append(nid)
        return nid

    def fresh(scope: frozenset[int]) -> int:
        if len(scope) == 1:
            (var,) = scope
            if rng.random() < 0.2:
                return emit(Leaf(var, rng.random() < 0.5))
            pos = emit(Leaf(var, False))
            neg = emit(Leaf(var, True))
            return emit(Sum((pos, neg), (rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))))
        fanout = rng.randint(2, params.max_fanout)
        kids = []
        for _ in range(fanout):
            members = sorted(scope)
            rng.shuffle(members)
            half = len(members) // 2
            left = frozenset(members[:half])
            right = frozenset(members[half:])
            kids.append(emit(Product((build(left), build(right)))))
        weights = tuple(rng.uniform(0.2, 1.0) for _ in kids)
        return emit(Sum(tuple(kids), weights))

    root = fresh(frozenset(range(params.n)))
    return build_circuit(params.n, nodes, root)
