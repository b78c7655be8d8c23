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
gate built by an earlier band (or, for ``f(t2)``, earlier in the same
band), so each band adds two levels and the result has depth
logarithmic in the root degree.  Constant-valued gates are never
materialized: they fold into the edge weights of the sums that use them.

Only the gates the root's gate reaches are built.  A demand pass walks
the gate keys top-down from the root's value: a key at degree gap above
one gets its summand plan (the frontier pivots below it, found as the
threshold's frontier bitmask ANDed with the node's descendant mask, and
the three factor keys of each) and pushes those factors; keys at gap at
most one are collected per ``w``.  Constant folding is not looked at, so
the demand set is a superset of what the root reaches, and the final
reachability pass drops the few leftovers.  The build pass then makes
every indicator leaf and degree-one value, one ancestor sweep per
demanded ``w`` for the shallow derivatives, and the planned gates band by
band: values by node id, then derivative pairs by ``(u, w)``, since pairs
read their band's values.  That is the order in which building every
admissible gate would create them, so the gates the root reaches appear
in the same relative order and the compacted output is the same node
for node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .circuit import Circuit, Leaf, Node, Product, Sum, _bits, _renumber
from .errors import (
    DanglingChild,
    InvalidInput,
    MissingGate,
    NonFiniteValue,
    NotBinary,
    NotHomogeneous,
    SizeBudgetExceeded,
    ZeroWeightSum,
)
from .poly import SparsePolynomial, _expand, term_budget

#: Default node budget for tree expansion; the worst case is exponential
#: in the depth of the input, so expansion is always pre-counted.
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
        lines = []
        for s in self.stages:
            lines.append(f"{s.stage}.nodes={s.nodes}")
            lines.append(f"{s.stage}.edges={s.edges}")
            lines.append(f"{s.stage}.depth={s.depth}")
        if self.root_constant is not None:
            lines.append(f"root_constant={self.root_constant!r}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["stage,nodes,edges,depth"]
        lines.extend(f"{s.stage},{s.nodes},{s.edges},{s.depth}" for s in self.stages)
        return "\n".join(lines) + "\n"


def stage_metrics(stage: str, c: Circuit) -> StageMetrics:
    s = c.stats()
    return StageMetrics(stage, s.num_nodes, s.num_edges, s.depth)


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------

def binarize(c: Circuit) -> Circuit:
    """Rewrite every node with more than two children into a chain of
    alternating sum/product intermediates, preserving the polynomial.

    A k-ary node keeps its first child and hands the rest to a chain of
    2(k-1) fresh nodes whose types alternate, so no introduced sum feeds
    a sum and no introduced product feeds a product.  Already-binary
    circuits are returned unchanged.
    """
    report = c.validity()
    if not report.ok:
        raise InvalidInput("binarize requires a decomposable, smooth circuit")
    if c.is_binary():
        return c
    nodes: list[Node] = list(c.nodes)

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    for v, node in enumerate(c.nodes):
        if isinstance(node, Leaf) or len(node.children) <= 2:
            continue
        kids = node.children
        if isinstance(node, Sum):
            tail = add(Product((add(Sum((kids[-1],), (node.weights[-1],))),)))
            for j in range(len(kids) - 2, 0, -1):
                tail = add(Product((add(Sum((kids[j], tail), (node.weights[j], 1.0))),)))
            nodes[v] = Sum((kids[0], tail), (node.weights[0], 1.0))
        else:
            tail = add(Sum((add(Product((kids[-1],))),), (1.0,)))
            for j in range(len(kids) - 2, 0, -1):
                tail = add(Sum((add(Product((kids[j], tail))),), (1.0,)))
            nodes[v] = Product((kids[0], tail))
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
            nodes[v] = Sum(node.children, tuple(e / total for e in eff))
            scale[v] = total
        elif isinstance(node, Product):
            acc = 1.0
            for ch in node.children:
                acc *= scale[ch]
            scale[v] = acc
        if not math.isfinite(scale[v]):
            raise NonFiniteValue(f"{type(node).__name__.lower()} {v}: scale {scale[v]!r} is not finite")
    return Circuit(c.num_vars, nodes, c.root), scale[c.root]


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------

class _LazyPolys:
    """Memoized exact node polynomials, expanded only on demand."""

    def __init__(self, c: Circuit, cap: int):
        self.c = c
        self.cap = cap
        self.memo: dict[int, SparsePolynomial] = {}

    def get(self, s: int) -> SparsePolynomial:
        memo = self.memo
        if s in memo:
            return memo[s]
        c = self.c
        pending = [u for u in _bits(c.descendant_masks[s]) if u not in memo]
        pending.sort(key=c.topo_positions.__getitem__)
        _expand(c, pending, memo, self.cap)
        return memo[s]


def _ancestor_derivatives(polys: _LazyPolys, w: int, within: int) -> dict[int, SparsePolynomial]:
    """Partial derivatives ``d_w f(u)`` for the ancestors ``u`` of ``w``
    in the node-id bitmask ``within``, ``w`` itself (1.0) included.

    Substitutes an atom for ``w``'s polynomial and propagates the atom's
    linear coefficient upward; the co-factor (the untouched sibling
    polynomial) is expanded lazily, so the cost scales with the size of
    the derivatives rather than of the full polynomials.
    """
    c, cap = polys.c, polys.cap
    alpha: dict[int, SparsePolynomial] = {w: SparsePolynomial.constant(c.num_vars, 1.0)}
    candidates = _bits(c.ancestor_masks[w] & within)
    candidates.sort(key=c.topo_positions.__getitem__)
    for u in candidates:
        if u == w:
            continue
        node = c.nodes[u]
        if isinstance(node, Sum):
            p = SparsePolynomial.zero(c.num_vars)
            for ch, wt in zip(node.children, node.weights):
                a = alpha.get(ch)
                if a is not None:
                    p = p.add(a, wt)
        else:
            # product rule; decomposability means at most one child can
            # reach w, but the sum over children stays correct without it
            p = SparsePolynomial.zero(c.num_vars)
            for j, ch in enumerate(node.children):
                a = alpha.get(ch)
                if a is None or a.is_zero():
                    continue
                term = a
                for i, other in enumerate(node.children):
                    if i != j:
                        term = term.mul(polys.get(other), max_terms=cap)
                p = p.add(term)
        alpha[u] = p
    return alpha


def partial_derivative(c: Circuit, v: int, w: int) -> SparsePolynomial:
    """Exact partial derivative of ``v``'s polynomial with respect to the
    polynomial of node ``w`` (the zero polynomial when ``w`` is not a
    descendant of ``v``)."""
    n = len(c.nodes)
    if not 0 <= v < n or not 0 <= w < n:
        raise DanglingChild(f"node ids ({v}, {w}) outside table of {n} nodes")
    alphas = _ancestor_derivatives(_LazyPolys(c, term_budget()), w, c.descendant_masks[v])
    return alphas.get(v, SparsePolynomial.zero(c.num_vars))


# ---------------------------------------------------------------------------
# degree frontier
# ---------------------------------------------------------------------------

def _binary_products(c: Circuit) -> list[tuple[int, int, int]]:
    """``(t, a, b)`` for every product ``t`` with exactly the children ``a, b``."""
    return [(t, node.children[0], node.children[1]) for t, node in enumerate(c.nodes)
            if isinstance(node, Product) and len(node.children) == 2]


def _straddling(products: list[tuple[int, int, int]], deg: tuple[int, ...],
                m: int) -> list[tuple[int, int, int]]:
    """The products whose own degree exceeds ``m`` while neither child's does."""
    return [(t, a, b) for t, a, b in products if deg[t] > m and deg[a] <= m and deg[b] <= m]


def degree_frontier(c: Circuit, m: int) -> FrontierSet:
    """All products straddling degree threshold ``m``: their own degree
    exceeds ``m`` while neither child's does."""
    if m < 1:
        raise ValueError("threshold m must be >= 1")
    if not c.is_binary():
        raise NotBinary("the degree frontier is defined for binary circuits")
    members = _straddling(_binary_products(c), c.degrees, m)
    return FrontierSet(m, frozenset(t for t, _, _ in members))


# ---------------------------------------------------------------------------
# depth reduction
# ---------------------------------------------------------------------------

class _Arena:
    """Append-only node store for the circuit under construction."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._leaves: dict[tuple[int, bool], int] = {}

    def add(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def leaf(self, var: int, negated: bool = False) -> int:
        key = (var, negated)
        if key not in self._leaves:
            self._leaves[key] = self.add(Leaf(var, negated))
        return self._leaves[key]

    def product(self, children: list[int]) -> int:
        return self.add(Product(tuple(children)))

    def sum_(self, key: tuple[int, int | None], pairs: list[tuple[int, float]]) -> int:
        """Sum node of gate ``key``; the key names it if a weight is not finite."""
        weights = tuple(w for _, w in pairs)
        if not all(map(math.isfinite, weights)):
            raise NonFiniteValue(f"gate (node, wrt) = {key} has a non-finite weight")
        return self.add(Sum(tuple(p for p, _ in pairs), weights))

    def affine_gate(self, key: tuple[int, int | None], p: SparsePolynomial) -> int | float:
        """Realize gate ``key``'s polynomial of degree <= 1: constants
        (including the zero polynomial) stay plain floats, linear forms
        become a sum over the matching indicator leaves."""
        if p.is_constant():
            return p.constant_value()
        pairs = []
        for m, coeff in p.sorted_terms():
            if m.bit_count() != 1:
                raise NotHomogeneous("affine gate mixes a constant with linear terms")
            s = m.bit_length() - 1
            pairs.append((self.leaf(s // 2, bool(s % 2)), coeff))
        return self.sum_(key, pairs)


#: A rebuilt gate is keyed ``(node, None)`` for the value of source node
#: ``node`` and ``(node, wrt)`` for the partial derivative of its polynomial
#: with respect to descendant ``wrt``.
_GateTable = dict[tuple[int, int | None], int | float]


def _resolve(gates: _GateTable,
             keys: tuple[tuple[int, int | None], ...]) -> tuple[list[int], float] | None:
    """Split gate references into node children and a folded constant
    weight; None when any factor is the constant zero."""
    weight = 1.0
    kids: list[int] = []
    for key in keys:
        got = gates.get(key)
        if got is None:
            raise MissingGate(f"gate (node, wrt) = {key} was not built by an earlier band")
        if isinstance(got, float):
            if got == 0.0:
                return None
            weight *= got
        else:
            kids.append(got)
    return kids, weight


def reduce_depth(circuit: Circuit) -> Circuit:
    """Rebuild a binary valid circuit with the same polynomial and depth
    logarithmic in its root degree (see the module docstring for the
    band construction and the demand pass).  A gate weight that
    overflows raises :class:`NonFiniteValue` naming the gate, and a root
    polynomial that underflows to zero raises :class:`ZeroWeightSum`
    naming the root."""
    if not circuit.is_binary():
        raise NotBinary("depth reduction requires fan-out <= 2; binarize first")
    report = circuit.validity()
    if not (report.decomposable and report.smooth and report.homogeneous):
        failed = [name for name in ("decomposable", "smooth", "homogeneous")
                  if not getattr(report, name)]
        raise NotHomogeneous(
            f"depth reduction requires a valid homogeneous circuit (failed: {', '.join(failed)})")

    deg = circuit.degrees
    desc = circuit.descendant_masks
    arena = _Arena()
    gates: _GateTable = {}
    polys = _LazyPolys(circuit, term_budget())

    # frontier masks per threshold on demand
    binary_products = _binary_products(circuit)

    @cache
    def frontier(m: int) -> int:
        mask = 0
        for t, _, _ in _straddling(binary_products, deg, m):
            mask |= 1 << t
        return mask

    def plan(u: int, w: int | None, lo: int) -> list[tuple[tuple[int, int | None], ...]]:
        """Factor keys of each summand of gate ``(u, w)`` in band ``lo``:
        ``f(a) * f(b) * d_t f(u)`` for a value, ``f(t2) * d_w f(t1) *
        d_t f(u)`` for a derivative, one per frontier pivot ``t``."""
        m = lo if w is None else lo + deg[w]
        below = _bits(frontier(m) & desc[u])
        if not below:
            raise MissingGate(f"no frontier product below node {u} at threshold {m}")
        summands = []
        for t in below:
            a, b = circuit.nodes[t].children
            if w is not None:
                # the derivative flows through the heavier child t1; on a
                # degree tie neither child reaches w, as deg(t) < 2 deg(w)
                t1, t2 = (a, b) if deg[a] > deg[b] else (b, a)
                if not desc[t1] >> w & 1:
                    continue  # derivative cannot flow through t1: zero summand
                a, b = t2, t1
            summands.append(((a, None), (b, w), (u, t)))
        return summands

    # demand pass: walk the gate keys the root's gate reaches.  Values of
    # degree one and derivatives at degree gap <= 1 are built directly
    # (the latter grouped by ``w``); every other key is planned once and
    # queued for its band, under the band's build order.  Every pair a
    # plan names has deg(u) < 2 deg(w), as the band expansions require.
    shallow: dict[int, list[int]] = {}
    planned = []
    seen = {(circuit.root, None)}
    stack = [(circuit.root, None)]
    while stack:
        key = stack.pop()
        u, w = key
        gap = deg[u] - (0 if w is None else deg[w])
        if gap <= 1:
            if w is not None:
                shallow.setdefault(w, []).append(u)
            continue
        band = (gap - 1).bit_length() - 1
        summands = plan(u, w, 1 << band)
        planned.append(((band, 0, u, 0) if w is None else (band, 1, u, w), key, summands))
        for keys in summands:
            for k in keys:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)

    # values: indicator leaves, then every degree-one node as a sum over
    # the indicators of its single variable
    for v in circuit.topo_order:
        if deg[v] == 1:
            node = circuit.nodes[v]
            gates[v, None] = (arena.leaf(node.var, node.negated) if isinstance(node, Leaf)
                              else arena.affine_gate((v, None), polys.get(v)))

    # derivative gates at degree gap <= 1 (gap zero folds to a constant,
    # gap one is affine over a single variable), one ancestor sweep per
    # ``w`` limited to the demanded ancestors' sub-DAGs; degrees never grow
    # downward, so every ancestor of ``w`` in there is within gap one
    for w in sorted(shallow):
        us = sorted(shallow[w])
        within = 0
        for u in us:
            within |= desc[u]
        derivs = _ancestor_derivatives(polys, w, within)
        for u in us:
            gates[u, w] = arena.affine_gate((u, w), derivs[u])

    # band gates: per band, values by node, then derivative pairs by
    # (u, w), which read the band's values
    planned.sort(key=lambda entry: entry[0])
    for _, key, summands in planned:
        products = []
        for keys in summands:
            folded = _resolve(gates, keys)
            if folded is None:
                continue
            kids, weight = folded
            products.append((arena.product(kids), weight))
        gates[key] = arena.sum_(key, products) if products else 0.0

    root_gate = gates.get((circuit.root, None))
    if root_gate is None:
        raise MissingGate("value gate of the root was never built")
    if isinstance(root_gate, float):
        # the root has degree >= 1, so a constant gate is a polynomial
        # whose every coefficient underflowed to zero
        raise ZeroWeightSum(f"root {circuit.root}: every coefficient of its polynomial "
                            f"underflows to zero")
    return _compact(arena, circuit.num_vars, root_gate)


def _compact(arena: _Arena, num_vars: int, root_id: int) -> Circuit:
    """Keep only the nodes reachable from the root gate, in id order."""
    keep = bytearray(len(arena.nodes))
    keep[root_id] = 1
    stack = [root_id]
    while stack:
        node = arena.nodes[stack.pop()]
        if isinstance(node, Leaf):
            continue
        for ch in node.children:
            if not keep[ch]:
                keep[ch] = 1
                stack.append(ch)
    nodes, remap = _renumber(arena.nodes, keep)
    return Circuit(num_vars, nodes, remap[root_id])


# ---------------------------------------------------------------------------
# tree expansion
# ---------------------------------------------------------------------------

def duplicate_to_tree(c: Circuit, node_budget: int = DEFAULT_TREE_BUDGET) -> Circuit:
    """Clone shared sub-DAGs until every non-root node has exactly one
    parent: a plain recursive copy from the root with memoization
    disabled.  Depth and polynomial are unchanged; the final size (the
    number of root-to-node paths) is counted up front against the budget.
    """
    paths = [0] * len(c.nodes)
    paths[c.root] = 1
    for v in reversed(c.topo_order):  # parents before children
        pv = paths[v]
        if pv:
            for ch in c.children(v):
                paths[ch] += pv
    total = sum(paths)
    if total > node_budget:
        raise SizeBudgetExceeded(f"expanded tree would have {total} nodes (budget {node_budget})")

    out: list[Node] = []
    stack: list[list] = [[c.root, 0, []]]
    root_clone = -1
    while stack:
        frame = stack[-1]
        v, idx, acc = frame
        kids = c.children(v)
        if idx < len(kids):
            frame[1] += 1
            stack.append([kids[idx], 0, []])
            continue
        node = c.nodes[v]
        if isinstance(node, Leaf):
            clone: Node = node
        elif isinstance(node, Sum):
            clone = Sum(tuple(acc), node.weights)
        else:
            clone = Product(tuple(acc))
        out.append(clone)
        nid = len(out) - 1
        stack.pop()
        if stack:
            stack[-1][2].append(nid)
        else:
            root_clone = nid
    return Circuit(c.num_vars, out, root_clone)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def treeify(c: Circuit, normalize_output: bool = False,
            node_budget: int = DEFAULT_TREE_BUDGET) -> tuple[Circuit, PipelineReport]:
    """binarize -> reduce_depth -> duplicate_to_tree (-> normalize),
    recording node/edge/depth metrics after every stage."""
    stages = [stage_metrics("input", c)]
    b = binarize(c)
    stages.append(stage_metrics("binarize", b))
    r = reduce_depth(b)
    stages.append(stage_metrics("reduce_depth", r))
    t = duplicate_to_tree(r, node_budget)
    stages.append(stage_metrics("duplicate", t))
    constant = None
    if normalize_output:
        t, constant = normalize(t)
        stages.append(stage_metrics("normalize", t))
    return t, PipelineReport(tuple(stages), constant)
