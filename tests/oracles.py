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
from fractions import Fraction

from pctree import SparsePolynomial
from pctree.circuit import Circuit, Leaf, Product, Sum, slot


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


def substitute_atom_derivative(c: Circuit, v: int, w: int) -> SparsePolynomial:
    """Derivative by the definition: expand the polynomial of ``v`` with
    node ``w`` replaced by a fresh atom (an extra variable), then keep
    the atom-linear part with the atom stripped."""
    wide = c.num_vars + 1  # the extra variable's positive slot is the atom
    atom = 1 << (2 * c.num_vars)
    polys: dict[int, SparsePolynomial] = {}
    for u in c.topo_order:
        if u == w:
            polys[u] = SparsePolynomial(wide, {atom: 1.0})
            continue
        node = c.nodes[u]
        if isinstance(node, Leaf):
            polys[u] = SparsePolynomial.indicator(wide, node.var, node.negated)
        elif isinstance(node, Sum):
            p = SparsePolynomial.zero(wide)
            for ch, wt in zip(node.children, node.weights):
                p = p.add(polys[ch], wt)
            polys[u] = p
        else:
            p = SparsePolynomial.constant(wide, 1.0)
            for ch in node.children:
                p = p.mul(polys[ch])
            polys[u] = p
    linear = {m ^ atom: coeff for m, coeff in polys[v].terms.items() if m & atom}
    return SparsePolynomial(c.num_vars, linear)


def chain_rule_table(c: Circuit, polys: list[SparsePolynomial],
                     w: int) -> dict[int, SparsePolynomial]:
    """Derivatives of every ancestor of ``w`` by one bottom-up sweep of
    the sum/product chain rules."""
    desc = c.descendant_masks
    table = {w: SparsePolynomial.constant(c.num_vars, 1.0)}
    for v in c.topo_order:
        if v == w or not desc[v] >> w & 1:
            continue
        node = c.nodes[v]
        p = SparsePolynomial.zero(c.num_vars)
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
            if isinstance(node, Sum) and c.degree(v) >= 2]
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
