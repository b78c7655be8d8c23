"""Circuit-to-circuit passes: binarization, normalization, partial
derivatives, depth reduction, and tree expansion.

The depth reducer rewrites a binary, valid circuit band by band over
node degrees.  Degree-one nodes and the derivative gates at degree gap
at most one are realized directly as sums over indicator leaves; band
``i`` then covers degrees in ``(2**i, 2**(i+1)]``.  Within a band, a
node's polynomial is re-expressed as a sum over the *frontier* products
below it (products whose own degree exceeds the band threshold ``m``
while both children stay at or below it)::

    f(v)       = sum over frontier t below v   of  f(t1) * f(t2) * d_t f(v)
    d_w f(u)   = sum over frontier t below u   of  f(t2) * d_w f(t1) * d_t f(u)

where ``d_w f(u)`` is the partial derivative of ``u``'s polynomial with
respect to the polynomial of its descendant ``w``, and the second
expansion uses the frontier at threshold ``m = 2**i + deg(w)`` with
``t1`` the higher-degree child of ``t``.  Every factor on the right is a
gate of an earlier band (or, for ``f(t2)``, a value gate of the same
band), so each band adds two levels and the result has depth
logarithmic in the root degree.  A gate is a pair ``(node, scale)``;
a constant ``(None, c)`` folds into the edge weights of the sums that use
it.  A summand left with one node factor is that node, not a one-child
product, and a gate whose one summand has weight 1.0 is that summand,
not a one-child sum; multiplying by 1.0 is exact, so no weight changes.
A summand product takes the children of a factor that is itself a
product in place of that factor, so no product of the output has a
product child: the factor's scope is disjoint from the other factors',
so decomposability holds, and depth cannot grow.  Sums are never
spliced.

Only the gates the root's gate reaches are built, by one memoized
recursion over gate keys from the root's value.  A key at degree gap at
most one is built from plain numbers.  A degree-one value is an
indicator leaf or an affine gate over the node's term map, from the one
memo that the exact oracle also expands; one forward pass fills it for
every degree-one node before the recursion starts.  A derivative is a
constant at gap zero and an affine gate at gap one, read from the
reverse pass that :func:`partial_derivative` also reads: down from
``u``, with floats at ``u``'s degree and term maps below it, it gives
the derivatives by every node of ``deg(w)`` at once, memoized per
``(u, deg(w))``.  Any other key lists its summands (the frontier pivots
below it and the three factor keys of each), builds each factor not
built yet, last factor first, and then its own sum, so arena ids are
children-first.  The pivots, and whether a pivot's child reaches ``w``,
come from the same degree-floored walk; a product is a pivot at ``m``
when ``heavy[t] <= m < deg[t]``, with its heavier child's degree stored
once per node (:func:`_heavy`).  The recursion follows bands, not the
input's depth: each nested key is in a lower band or is a value of at
most half its caller's degree, so it nests O(log^2 d) calls for root
degree ``d``; the walks over the input are iterative.  Constant folding
and splicing happen while building, so some gates go unused (the
spliced chain products: 612 of hard-4's 1 379); the final reachability
pass drops them.  The output depends only on the circuit's
nodes and root, not on its ``topo_order``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .circuit import Circuit, Leaf, Node, Product, Sum, _renumber, _require_count
from .errors import (
    DanglingChild,
    InvalidInput,
    MissingGate,
    NonFiniteValue,
    NotBinary,
    NotHomogeneous,
    NotMultilinear,
    SizeBudgetExceeded,
    TermBudgetExceeded,
    ZeroWeightSum,
)
from .poly import SparsePolynomial, _below, _Expander

#: Node budget of every tree expansion, read at each call; the worst case
#: is exponential in the depth of the input, so expansion is pre-counted.
DEFAULT_TREE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class FrontierSet:
    """Product nodes of degree above ``m`` whose children both have
    degree at most ``m``; the pivot set for the band expansions."""

    m: int
    members: frozenset[int]


@dataclass(frozen=True)
class StageMetrics:
    stage: str
    nodes: int
    edges: int
    depth: int


@dataclass(frozen=True)
class PipelineReport:
    """Size/depth measurements after every pipeline stage."""

    stages: tuple[StageMetrics, ...]
    root_constant: float | None = None

    def to_text(self) -> str:
        lines = [f"{s.stage}.{key}={getattr(s, key)}"
                 for s in self.stages for key in ("nodes", "edges", "depth")]
        if self.root_constant is not None:
            lines.append(f"root_constant={self.root_constant!r}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["stage,nodes,edges,depth"]
        lines.extend(f"{s.stage},{s.nodes},{s.edges},{s.depth}" for s in self.stages)
        return "\n".join(lines) + "\n"


def stage_metrics(stage: str, c: Circuit) -> StageMetrics:
    edges, depth, _ = c._shape()
    return StageMetrics(stage, len(c.nodes), edges, depth)


def _require_binary(c: Circuit, message: str) -> None:
    """Raise :class:`NotBinary` naming the first node with over two children."""
    v = next((v for v, node in enumerate(c.nodes) if len(node.children) > 2), None)
    if v is not None:
        raise NotBinary(f"{message} (node {v} has {len(c.nodes[v].children)} children)")


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------

def binarize(c: Circuit) -> Circuit:
    """Rewrite every node with more than two children into a chain of
    binary nodes of its own kind, preserving the polynomial.

    A k-ary node keeps its first child and hands the rest to a
    right-leaning chain of k-2 fresh nodes, appended deepest first; each
    sum link carries its child's weight and weight 1.0 into the next
    link.  Already-binary circuits are returned unchanged.
    """
    report = c.validity()
    if not report.ok:
        v, why = report.witnesses.get("decomposable") or report.witnesses["smooth"]
        raise InvalidInput(f"binarize requires a decomposable, smooth circuit (node {v}: {why})")
    if c.is_binary():
        return c
    nodes: list[Node] = list(c.nodes)
    for v, node in enumerate(c.nodes):
        kids = node.children
        if len(kids) <= 2:
            continue
        weights = node.weights if isinstance(node, Sum) else (1.0,) * len(kids)
        tail, tail_weight = kids[-1], weights[-1]
        for j in range(len(kids) - 2, -1, -1):
            pair = (kids[j], tail)
            link = Sum._of(pair, (weights[j], tail_weight)) if isinstance(node, Sum) else Product(pair)
            if j == 0:
                nodes[v] = link
            else:
                nodes.append(link)
                tail, tail_weight = len(nodes) - 1, 1.0
    return Circuit(c.num_vars, nodes, c.root)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def normalize(c: Circuit) -> tuple[Circuit, float]:
    """Renormalize locally, pushing excess weight upward.

    Every sum's outgoing weights are divided by their (scale-adjusted)
    total, and the total propagates to the parents; the returned constant
    satisfies ``evaluate(old, a) == constant * evaluate(new, a)`` for
    every assignment.  A sum total or product scale that is not finite
    raises :class:`NonFiniteValue` naming the node.
    """
    scale = [1.0] * len(c.nodes)
    nodes: list[Node] = list(c.nodes)
    for v in c.topo_order:
        node = c.nodes[v]
        if isinstance(node, Sum):
            eff = [w * scale[ch] for ch, w in zip(node.children, node.weights)]
            total = sum(eff)
            if total <= 0.0:
                raise ZeroWeightSum(f"sum {v} has no positive outgoing weight")
            nodes[v] = Sum._of(node.children, tuple([e / total for e in eff]))
            scale[v] = total
        elif isinstance(node, Product):
            acc = 1.0
            for ch in node.children:
                acc *= scale[ch]
            scale[v] = acc
        if not math.isfinite(scale[v]):
            raise NonFiniteValue(f"{type(node).__name__.lower()} {v}: scale {scale[v]!r} is not finite")
    return c._reweighted(nodes), scale[c.root]


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------

def partial_derivative(c: Circuit, v: int, w: int) -> SparsePolynomial:
    """Exact partial derivative of ``v``'s polynomial with respect to the
    polynomial of node ``w`` (zero when ``w`` is not below ``v``), by the
    reverse pass down from ``v`` that the reducer also reads
    (``_Expander.adjoints``); an error names the pair.  The pass forms
    the co-factor of every node of degree at least ``deg(w)`` below ``v``,
    so a circuit that is not decomposable can raise :class:`NotMultilinear`
    even where the paths to ``w`` multiply no overlapping factors."""
    n = len(c.nodes)
    if type(v) is not int or type(w) is not int:
        raise ValueError(f"node ids must be ints, got ({v!r}, {w!r})")
    if not 0 <= v < n or not 0 <= w < n:
        raise DanglingChild(f"node ids ({v}, {w}) outside table of {n} nodes")
    polys, pair = _Expander(c), f"derivative of node {v} by node {w}"
    try:
        d = polys.adjoints(v, c.degrees[w]).get(w, {})
    except TermBudgetExceeded:
        raise TermBudgetExceeded(f"{pair} expands past {polys.cap} monomials") from None
    except NotMultilinear as e:
        raise NotMultilinear(f"{pair}: {e}") from e
    if isinstance(d, float):  # w has v's degree
        d = {0: d} if d else {}
    return polys.finite(d, pair)


# ---------------------------------------------------------------------------
# degree frontier
# ---------------------------------------------------------------------------

def _heavy(c: Circuit) -> list[float]:
    """Per node, its heavier child's degree if a product, else ``inf``: so
    ``t`` straddles threshold ``m`` exactly when ``heavy[t] <= m < deg[t]``."""
    deg = c.degrees.__getitem__
    return [max(map(deg, node.children)) if isinstance(node, Product) else math.inf
            for node in c.nodes]


def _pivots(deg: tuple[int, ...], heavy: list[float], region: set[int], m: int) -> list[int]:
    """The products in ``region`` straddling threshold ``m``, ascending;
    ``_below(c, u, m + 1)`` holds all of those below ``u``."""
    return sorted([t for t in region if heavy[t] <= m < deg[t]])


def degree_frontier(c: Circuit, m: int) -> FrontierSet:
    """All products straddling degree threshold ``m``: their own degree
    exceeds ``m`` while neither child's does."""
    _require_count("threshold m", m, 1)
    _require_binary(c, "the degree frontier is defined for binary circuits")
    return FrontierSet(m, frozenset(_pivots(c.degrees, _heavy(c), _below(c, c.root, m + 1), m)))


# ---------------------------------------------------------------------------
# depth reduction
# ---------------------------------------------------------------------------

#: A gate ``(node, scale)`` is ``scale`` times arena node ``node``'s
#: polynomial, or the constant ``scale`` when ``node`` is None.  It is keyed
#: ``(node, None)`` for a source node's value and ``(node, wrt)`` for the
#: partial derivative of its polynomial by descendant ``wrt``.
_Gate = tuple[int | None, float]


class _Arena:
    """Append-only node table of the circuit under construction: each
    gate's leaf, sum or product node, built once after its children, so
    ids are children-first.  :func:`_compact` keeps what the root reaches."""

    def __init__(self) -> None:
        self.entries: list[Node] = []
        self._leaves: dict[int, int] = {}  # indicator slot -> its leaf

    def add(self, node: Node) -> int:
        self.entries.append(node)
        return len(self.entries) - 1

    def leaf(self, s: int) -> int:
        """The one leaf of indicator slot ``s``, added on first use."""
        i = self._leaves.get(s)
        if i is None:
            i = self._leaves[s] = self.add(Leaf(s >> 1, bool(s & 1)))
        return i

    def sum_(self, key: tuple[int, int | None], pairs: list[tuple[int, float]]) -> _Gate:
        """Gate ``key`` as the weighted sum of ``pairs``: the constant 0.0
        when there are none, the one node itself when its weight is 1.0,
        else a new sum node; the key names it if a weight is not finite."""
        if not pairs:
            return None, 0.0
        if len(pairs) == 1 and pairs[0][1] == 1.0:
            return pairs[0][0], 1.0
        kids, weights = zip(*pairs)
        if not all(map(math.isfinite, weights)):
            raise NonFiniteValue(f"gate (node, wrt) = {key} has a non-finite weight")
        return self.add(Sum._of(kids, weights)), 1.0

    def affine_gate(self, key: tuple[int, int | None], terms: dict[int, float]) -> _Gate:
        """Realize gate ``key``'s linear form, given as its term map, as a
        :meth:`sum_` over the matching indicator leaves; the empty map, a
        form whose every coefficient underflowed, is the constant 0.0."""
        pairs = []
        for m, coeff in sorted(terms.items()):
            if not m or m & (m - 1):  # the constant monomial, or one of degree two or more
                raise NotHomogeneous(f"gate (node, wrt) = {key} has a term of degree other than one")
            pairs.append((self.leaf(m.bit_length() - 1), coeff))
        return self.sum_(key, pairs)


def reduce_depth(circuit: Circuit) -> Circuit:
    """Rebuild a binary valid circuit with the same polynomial and depth
    logarithmic in its root degree (see the module docstring for the
    band construction and the gate recursion).  It makes no polynomial
    object: a degree-one value is a term map from the one memo, filled
    by one forward pass before the recursion (``_Expander.degree_one``);
    pivots come from one precomputed straddle test (:func:`_pivots`);
    and a derivative, read from the one reverse pass
    (``_Expander.adjoints``), is a float at degree gap zero and a term map
    at gap one.  A summand whose weight, the product of its constant
    factors, is 0.0 is dropped, also when nonzero factors underflow to it;
    a summand product splices in the children of each factor that is a
    product, so no product of the output has a product child.
    A gate weight that overflows raises :class:`NonFiniteValue` naming the
    gate, and a root polynomial that underflows to zero raises
    :class:`ZeroWeightSum` naming the root."""
    _require_binary(circuit, "depth reduction requires fan-out <= 2; binarize first")
    report = circuit.validity()
    failed = [name for name in ("decomposable", "smooth", "homogeneous") if name in report.witnesses]
    if failed:
        v, why = report.witnesses[failed[0]]
        raise NotHomogeneous(f"depth reduction requires a valid homogeneous circuit "
                             f"(failed: {', '.join(failed)}; node {v}: {why})")
    return _reduce(circuit)


def _reduce(circuit: Circuit) -> Circuit:
    """:func:`reduce_depth` of a binary, valid, homogeneous circuit."""
    deg = circuit.degrees
    arena = _Arena()
    entries = arena.entries
    gates: dict[tuple[int, int | None], _Gate] = {}
    polys = _Expander(circuit)
    polys.degree_one()
    adjoints = cache(polys.adjoints)
    heavy = _heavy(circuit)
    pivots = cache(lambda u, m: _pivots(deg, heavy, polys.below(u, m + 1), m))

    def gate(u: int, w: int | None) -> _Gate:
        """Gate ``(u, w)``: ``f(u)`` when ``w`` is None, else ``d_w f(u)``.
        At degree gap <= 1 it is an indicator leaf, an affine gate over a
        term map, or, for a derivative at gap zero, a constant.  Otherwise
        each frontier pivot ``t`` of its band gives one summand, and the
        factors not built yet are built last factor first.  A derivative
        flows through the heavier child ``t1`` of ``t``; on a degree tie
        neither child reaches ``w``, since every pair a summand names has
        deg(u) < 2 deg(w), as the band expansions require."""
        gap = deg[u] - (0 if w is None else deg[w])
        if gap <= 1:
            if w is None:
                node = circuit.nodes[u]
                if isinstance(node, Leaf):
                    return arena.leaf(2 * node.var + node.negated), 1.0
                return arena.affine_gate((u, w), polys.get(u))
            try:
                a = adjoints(u, deg[w])[w]
            except TermBudgetExceeded:
                raise TermBudgetExceeded(f"derivative of node {u} by node {w} expands past "
                                         f"{polys.cap} monomials") from None
            return (None, a) if not gap else arena.affine_gate((u, w), a)
        lo = 1 << ((gap - 1).bit_length() - 1)
        m = lo if w is None else lo + deg[w]
        below = pivots(u, m)
        if not below:
            raise MissingGate(f"no frontier product below node {u} at threshold {m}")
        summands = []
        for t in below:
            a, b = circuit.nodes[t].children
            if w is not None:
                t1, t2 = (a, b) if deg[a] > deg[b] else (b, a)
                if w not in polys.below(t1, deg[w]):
                    continue  # derivative cannot flow through t1: zero summand
                a, b = t2, t1
            summands.append(((a, None), (b, w), (u, t)))
        for k in reversed([k for keys in summands for k in keys]):
            if k not in gates:
                gates[k] = gate(*k)
        pairs = []
        for keys in summands:
            scale, kids = 1.0, []
            for k in keys:
                child, factor = gates[k]
                scale *= factor
                if child is not None:
                    kids.append(child)
            if scale == 0.0:
                continue
            if len(kids) == 1:
                pairs.append((kids[0], scale))
                continue
            spliced = []
            for child in kids:
                node = entries[child]
                if type(node) is Product:
                    spliced.extend(node.children)
                else:
                    spliced.append(child)
            pairs.append((arena.add(Product(spliced)), scale))
        return arena.sum_((u, w), pairs)

    try:
        root_gate, _ = gate(circuit.root, None)
    finally:
        # gate's closure holds gate itself: a cycle that would keep the
        # arena and every cache alive until the next full garbage collection
        del gate
    if root_gate is None:
        # the root has degree >= 1, so a constant gate is a polynomial
        # whose every coefficient underflowed to zero
        raise ZeroWeightSum(f"root {circuit.root}: every coefficient of its polynomial "
                            f"underflows to zero")
    return _compact(arena, circuit.num_vars, root_gate)


def _compact(arena: _Arena, num_vars: int, root_id: int) -> Circuit:
    """Keep only the nodes reachable from the root gate, in id order.
    Arena children have lower ids than their parents, so one sweep down
    from the root marks them all."""
    entries = arena.entries
    keep = bytearray(root_id + 1)
    keep[root_id] = 1
    for v in range(root_id, -1, -1):
        if keep[v]:
            for ch in entries[v].children:
                keep[ch] = 1
    if all(keep):
        return Circuit(num_vars, entries[:root_id + 1], root_id)
    nodes, remap = _renumber(entries, keep)
    return Circuit(num_vars, nodes, remap[root_id])


# ---------------------------------------------------------------------------
# tree expansion
# ---------------------------------------------------------------------------

def duplicate_to_tree(c: Circuit) -> Circuit:
    """Clone shared sub-DAGs until every non-root node has exactly one
    parent: a post-order copy placed by subtree offsets.  Depth and
    polynomial are unchanged.

    A node's copied subtree has ``size[v] = 1 + sum of its children's
    sizes`` nodes; ``size[root]``, the number of root-to-node paths, is
    checked against :data:`DEFAULT_TREE_BUDGET` before anything is
    copied.  A copy at offset ``base`` sits at ``base + size[v] - 1``,
    after its children's copies, which lie side by side from ``base``
    on.  An explicit stack places them, so deep inputs need no recursion.
    """
    nodes = c.nodes
    size = [1] * len(nodes)
    for v in c.topo_order:  # children before parents; leaves keep size 1
        kids = nodes[v].children
        if len(kids) == 2:
            a, b = kids
            size[v] = 1 + size[a] + size[b]
        elif kids:
            size[v] = 1 + sum([size[ch] for ch in kids])
    total = size[c.root]
    if total > DEFAULT_TREE_BUDGET:
        raise SizeBudgetExceeded(f"expanded tree would have {total} nodes (budget {DEFAULT_TREE_BUDGET})")

    out: list[Node | None] = [None] * total
    stack = [(c.root, 0)]
    while stack:
        v, base = stack.pop()
        node = nodes[v]
        if isinstance(node, Leaf):
            out[base] = node
            continue
        kids = []
        for ch in node.children:
            stack.append((ch, base))
            base += size[ch]
            kids.append(base - 1)
        out[base] = Sum._of(tuple(kids), node.weights) if isinstance(node, Sum) else Product(kids)
    return Circuit(c.num_vars, out, total - 1)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def treeify(c: Circuit, normalize_output: bool = False) -> tuple[Circuit, PipelineReport]:
    """binarize -> reduce_depth -> (normalize) -> duplicate_to_tree,
    recording node/edge/depth metrics after every stage.  The input's
    validity is checked once, by ``binarize``.

    Normalizing the reduced circuit before the copy gives the same tree
    and constant, bit for bit, as normalizing the copy, since a node's
    scale and weights depend only on the sub-DAG below it; so each tree
    node is built once, and a :class:`ZeroWeightSum` or
    :class:`NonFiniteValue` from normalizing names a reduced node.  The
    ``duplicate`` and ``normalize`` rows are derived, not measured: the
    tree has one edge fewer than nodes and the reduced circuit's depth.
    """
    stages = [stage_metrics("input", c)]
    b = binarize(c)
    stages.append(stage_metrics("binarize", b))
    # b is binary, valid and so homogeneous: each degree is a scope's size
    r = _reduce(b)
    reduced = stage_metrics("reduce_depth", r)
    stages.append(reduced)
    constant = None
    if normalize_output:
        r, constant = normalize(r)
    t = duplicate_to_tree(r)
    n = len(t.nodes)
    stages.append(StageMetrics("duplicate", n, n - 1, reduced.depth))
    if normalize_output:
        stages.append(StageMetrics("normalize", n, n - 1, reduced.depth))
    return t, PipelineReport(tuple(stages), constant)
