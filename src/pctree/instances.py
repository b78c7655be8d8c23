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
from dataclasses import dataclass

from .circuit import Circuit, Leaf, Node, Product, Sum, _renumber, _require_count, build_circuit
from .errors import EmptyProductNode, KTooLarge


def build_hard_instance(k: int) -> Circuit:
    """Tree PC over ``4**k`` variables with ``2*4**k - 1 + k*4**k`` nodes
    and depth ``2k``, unit sum weights, valid on all structural checks."""
    _require_count("k", k, 1)
    if k > 4:
        raise KTooLarge(f"k={k} means {4 ** k} variables; supported range is 1..4")
    n = 4 ** k
    nodes: list[Node] = [Leaf(i) for i in range(n)]

    def emit(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    level = list(range(n))
    for layer in range(1, 2 * k + 1):
        pairs = [(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        if layer % 2 == 1:
            ids = [emit(Product(pair)) for pair in pairs]
            # augmentation: each product gains fresh negation leaves for its
            # sibling's pre-augmentation scope, the sibling's block of ``width`` variables
            width = 2 * 4 ** (layer // 2)
            for me, v in enumerate(ids):
                sib = me ^ 1
                negs = tuple(emit(Leaf(var, negated=True))
                             for var in range(sib * width, (sib + 1) * width))
                nodes[v] = Product(nodes[v].children + negs)
        else:
            ids = [emit(Sum(pair, (1.0, 1.0))) for pair in pairs]
        level = ids
    return build_circuit(n, nodes, level[0])


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
        _require_count("n", self.n, 2)
        if not 0.0 <= self.reuse_prob <= 1.0:
            raise ValueError("reuse_prob must lie in [0, 1]")
        _require_count("max_fanout", self.max_fanout, 2)


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
