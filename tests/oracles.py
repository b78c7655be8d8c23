"""Independent reference computations for the test suite.

Nothing here reuses the library's symbolic expansion paths: coefficients
are recovered from circuit *evaluations* with exact rational arithmetic,
and derivatives are computed by the literal substitute-an-atom
definition or by a plain chain-rule sweep.  Tests compare the production
code against these.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import deque
from fractions import Fraction

from pctree import SparsePolynomial
from pctree.circuit import REL_TOL, Circuit, Leaf, Product, Stats, Sum, ValidityReport, slot
from pctree.errors import BadWeights, CycleDetected, DanglingChild, EmptyProductNode, MultipleRoots


def float_evaluate(c: Circuit, assignment: list[float]) -> float:
    """Per-node float evaluation: ``sum()`` over each sum's weighted
    children, a running product over each product's children.
    ``Circuit.evaluate`` must reproduce it bit for bit."""
    vals = [0.0] * len(c.nodes)
    for v in c.topo_order:
        node = c.nodes[v]
        if isinstance(node, Leaf):
            vals[v] = float(assignment[slot(node.var, node.negated)])
        elif isinstance(node, Sum):
            vals[v] = sum(w * vals[ch] for ch, w in zip(node.children, node.weights))
        else:
            acc = 1.0
            for ch in node.children:
                acc *= vals[ch]
            vals[v] = acc
    return vals[c.root]


def fraction_evaluate(c: Circuit, point: list[Fraction]) -> Fraction:
    vals: list[Fraction] = [Fraction(0)] * len(c.nodes)
    for v in c.topo_order:
        node = c.nodes[v]
        if isinstance(node, Leaf):
            vals[v] = point[slot(node.var, node.negated)]
        elif isinstance(node, Sum):
            vals[v] = sum((Fraction(w) * vals[ch]
                           for ch, w in zip(node.children, node.weights)), Fraction(0))
        else:
            acc = Fraction(1)
            for ch in node.children:
                acc *= vals[ch]
            vals[v] = acc
    return vals[c.root]


def mobius_terms(c: Circuit) -> dict[int, Fraction]:
    """Exact multilinear coefficients by subset inversion of the 0/1
    evaluation table; feasible for a handful of variables."""
    n2 = 2 * c.num_vars
    vals = [fraction_evaluate(c, [Fraction(m >> s & 1) for s in range(n2)])
            for m in range(1 << n2)]
    for s in range(n2):
        bit = 1 << s
        for m in range(1 << n2):
            if m & bit:
                vals[m] -= vals[m ^ bit]
    return {m: v for m, v in enumerate(vals) if v != 0}


def left_fold_polynomials(c: Circuit, num_vars: int | None = None,
                          fixed: dict[int, SparsePolynomial] | None = None) -> list[SparsePolynomial]:
    """Node polynomials in id order by the textbook left folds: a sum adds
    its weighted children in order, a product multiplies the constant 1
    by each child in order with ``SparsePolynomial.mul``.  ``fixed`` pins
    the polynomials of some nodes, over ``num_vars`` variables."""
    n = c.num_vars if num_vars is None else num_vars
    polys: list[SparsePolynomial] = [SparsePolynomial(n)] * len(c.nodes)
    for u in c.topo_order:
        node = c.nodes[u]
        if fixed and u in fixed:
            p = fixed[u]
        elif isinstance(node, Leaf):
            p = SparsePolynomial(n, {1 << slot(node.var, node.negated): 1.0})
        elif isinstance(node, Sum):
            p = SparsePolynomial(n)
            for ch, wt in zip(node.children, node.weights):
                p = p.add(polys[ch], wt)
        else:
            p = SparsePolynomial(n, {0: 1.0})
            for ch in node.children:
                p = p.mul(polys[ch])
        polys[u] = p
    return polys


def substitute_atom_derivative(c: Circuit, v: int, w: int) -> SparsePolynomial:
    """Derivative by the definition: expand the polynomial of ``v`` with
    node ``w`` replaced by a fresh atom (an extra variable), then keep
    the atom-linear part with the atom stripped."""
    wide = c.num_vars + 1  # the extra variable's positive slot is the atom
    atom = 1 << (2 * c.num_vars)
    polys = left_fold_polynomials(c, wide, {w: SparsePolynomial(wide, {atom: 1.0})})
    linear = {m ^ atom: coeff for m, coeff in polys[v].terms.items() if m & atom}
    return SparsePolynomial(c.num_vars, linear)


def descendants(c: Circuit) -> list[set[int]]:
    """Per node, the ids of the sub-DAG rooted there (the node itself
    included), by one children-first sweep."""
    below: list[set[int]] = [set() for _ in c.nodes]
    for v in c.topo_order:
        below[v] = {v}.union(*(below[ch] for ch in c.nodes[v].children))
    return below


def chain_rule_table(c: Circuit, polys: list[SparsePolynomial],
                     w: int) -> dict[int, SparsePolynomial]:
    """Derivatives of every ancestor of ``w`` by one bottom-up sweep of
    the sum/product chain rules.  Children come first in the sweep, so a
    node is an ancestor exactly when one of its children has an entry."""
    table = {w: SparsePolynomial(c.num_vars, {0: 1.0})}
    for v in c.topo_order:
        node = c.nodes[v]
        if v == w or not any(ch in table for ch in node.children):
            continue
        p = SparsePolynomial(c.num_vars)
        if isinstance(node, Sum):
            for ch, wt in zip(node.children, node.weights):
                if ch in table:
                    p = p.add(table[ch], wt)
        else:
            for j, ch in enumerate(node.children):
                if ch not in table:
                    continue
                term = table[ch]
                for i, other in enumerate(node.children):
                    if i != j:
                        term = term.mul(polys[other])
                p = p.add(term)
        table[v] = p
    return table


def reverse_pass_adjoints(c: Circuit, u: int, floor: int,
                          polys: list[SparsePolynomial]) -> dict[int, SparsePolynomial]:
    """``d_w f(u)`` for every ``w`` reachable from ``u`` through nodes of
    degree at least ``floor``, by the reverse pass in polynomial
    arithmetic: a node, once each parent of it there has passed, passes
    ``weight * adjoint`` to each child there if a sum, and the adjoint
    times the other children's ``polys`` if a product.  Nodes are visited
    from a stack of ready nodes, children in order, so that every sum
    adds its parts in the order the library's pass does."""
    deg = c.degrees
    region, stack = {u}, [u]
    while stack:
        for ch in c.nodes[stack.pop()].children:
            if ch not in region and deg[ch] >= floor:
                region.add(ch)
                stack.append(ch)
    waiting = dict.fromkeys(region, 0)
    for v in region:
        for ch in c.nodes[v].children:
            if ch in region:
                waiting[ch] += 1
    adj = {u: SparsePolynomial(c.num_vars, {0: 1.0})}
    ready = [u]
    while ready:
        v = ready.pop()
        node = c.nodes[v]
        for j, ch in enumerate(node.children):
            if ch not in region:
                continue
            if isinstance(node, Sum):
                part = adj[v].scaled(node.weights[j])
            else:
                part = adj[v]
                for i, other in enumerate(node.children):
                    if i != j:
                        part = part.mul(polys[other])
            adj[ch] = adj[ch].add(part) if ch in adj else part
            waiting[ch] -= 1
            if not waiting[ch]:
                ready.append(ch)
    return adj


def frontier_triples(c: Circuit, m: int) -> list[tuple[int, int, int]]:
    deg = c.degrees
    return [(t, node.children[0], node.children[1])
            for t, node in enumerate(c.nodes)
            if isinstance(node, Product) and len(node.children) == 2
            and deg[t] > m and deg[node.children[0]] <= m and deg[node.children[1]] <= m]


def grow_nonsmooth_child(c: Circuit, rng) -> Circuit:
    """Attach a stray leaf child to a high-degree sum: the result stays
    decomposable with an unchanged full-degree root, but is neither
    smooth nor structurally homogeneous."""
    from pctree import build_circuit

    sums = [v for v, node in enumerate(c.nodes)
            if isinstance(node, Sum) and c.degrees[v] >= 2]
    v = rng.choice(sums)
    var = min(c.scope(v))
    nodes = list(c.nodes)
    nodes.append(Leaf(var))
    grown = nodes[v]
    nodes[v] = Sum(grown.children + (len(nodes) - 1,), grown.weights + (1.0,))
    return build_circuit(c.num_vars, nodes, c.root)


def chain_dag(n: int, root_weights: tuple[float, float]) -> Circuit:
    """Deep DAG over ``n`` variables: the suffix circuit over variables
    ``i..n-1`` is a sum of two products, each a different mixture of
    ``x_i`` and ``~x_i`` times the one shared suffix circuit over
    ``i+1..n-1``.  Depth, root degree and node count are all linear in
    ``n``."""
    from pctree import build_circuit

    nodes: list = []

    def emit(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def mixture(var: int, weights: tuple[float, float]) -> int:
        return emit(Sum((emit(Leaf(var)), emit(Leaf(var, True))), weights))

    suffix = mixture(n - 1, (0.5, 0.5))
    for var in range(n - 2, -1, -1):
        left = emit(Product((mixture(var, (0.3, 0.7)), suffix)))
        right = emit(Product((mixture(var, (0.6, 0.4)), suffix)))
        suffix = emit(Sum((left, right), root_weights if var == 0 else (0.5, 0.5)))
    return build_circuit(n, nodes, suffix)


def layered_dag(n: int, w: int, seed: int) -> Circuit:
    """Wide DAG over ``n`` variables: each suffix scope ``i..n-1`` holds
    ``w`` sums (the root's scope holds one), and each sum mixes, over
    ``k``, the product of a fresh mixture of ``x_i`` and ``~x_i`` with the
    ``k``-th sum of the next suffix.  Weights are drawn from ``seed``.
    Its reduced circuit is mostly derivative gates, and its tree grows
    like ``n ** (2 log2 w + 1)``."""
    from pctree import build_circuit

    rng = random.Random(seed)
    nodes: list = []

    def emit(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def mixture(var: int) -> int:
        p = rng.random()
        return emit(Sum((emit(Leaf(var)), emit(Leaf(var, True))), (p, 1.0 - p)))

    suffix = [mixture(n - 1) for _ in range(w)]
    for var in range(n - 2, -1, -1):
        suffix = [emit(Sum(tuple(emit(Product((mixture(var), s))) for s in suffix),
                           tuple(rng.random() for _ in suffix)))
                  for _ in range(1 if var == 0 else w)]
    return build_circuit(n, nodes, suffix[0])


def table_hash(c: Circuit) -> str:
    """SHA-256 of the node table, root and variable count; weights are
    written with shortest round-trip precision, so equal hashes mean
    node-for-node identical circuits."""
    rows = []
    for node in c.nodes:
        if isinstance(node, Leaf):
            rows.append(("L", node.var, node.negated))
        elif isinstance(node, Sum):
            rows.append(("S", node.children, [repr(w) for w in node.weights]))
        else:
            rows.append(("P", node.children))
    text = json.dumps([c.num_vars, c.root, rows], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- whole-circuit analyses by the plain per-node loops ----------------------

def reference_topo_order(num_vars: int, nodes: list, root: int) -> tuple[int, ...]:
    """``Circuit``'s checks, raising the same errors, and its order: the
    peel from the root through a ``deque``, a node queued once all of its
    parents are out, reversed."""
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
    remaining = indegree[:]
    queue = deque([root])
    order: list[int] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for ch in nodes[v].children:
            remaining[ch] -= 1
            if remaining[ch] == 0:
                queue.append(ch)
    if len(order) != n:
        raise CycleDetected("child relation has a directed cycle")
    return tuple(reversed(order))


def reference_scopes_and_degrees(c: Circuit) -> tuple[list[int], list[int]]:
    """Per node, the bitmask of its scope's variables and its structural
    degree (1 at a leaf, the max over a sum's children, the sum over a
    product's)."""
    scope, deg = [0] * len(c.nodes), [0] * len(c.nodes)
    for v in c.topo_order:
        node = c.nodes[v]
        if isinstance(node, Leaf):
            scope[v], deg[v] = 1 << node.var, 1
        else:
            for ch in node.children:
                scope[v] |= scope[ch]
            child_degrees = (deg[ch] for ch in node.children)
            deg[v] = max(child_degrees) if isinstance(node, Sum) else sum(child_degrees)
    return scope, deg


def reference_validity(c: Circuit) -> ValidityReport:
    """The five flags, each with the first violating node in
    ``topo_order`` as its witness."""
    flags = dict.fromkeys(("decomposable", "smooth", "homogeneous", "normalized", "monotone"), True)
    witnesses: dict[str, tuple[int, str]] = {}

    def fail(flag: str, v: int, why: str) -> None:
        if flags[flag]:
            flags[flag] = False
            witnesses[flag] = (v, why)

    scope, deg = reference_scopes_and_degrees(c)
    for v in c.topo_order:
        node = c.nodes[v]
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


def reference_stats(c: Circuit) -> Stats:
    edges = 0
    max_fanout = 0
    depth = [0] * len(c.nodes)
    for v in c.topo_order:
        kids = c.nodes[v].children
        if kids:
            edges += len(kids)
            max_fanout = max(max_fanout, len(kids))
            depth[v] = 1 + max(depth[ch] for ch in kids)
    _, deg = reference_scopes_and_degrees(c)
    return Stats(num_nodes=len(c.nodes), num_edges=edges, depth=depth[c.root],
                 max_fanout=max_fanout, is_tree=edges == len(c.nodes) - 1,
                 degree_of_root=deg[c.root])
