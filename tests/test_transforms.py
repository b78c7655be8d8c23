import gc
import math
import random
import sys

import pytest

import pctree as pt
from pctree import SparsePolynomial, build_circuit
from pctree.circuit import Circuit, Leaf, Product, Sum
from pctree.errors import (
    DanglingChild,
    InvalidInput,
    NonFiniteValue,
    NotBinary,
    NotHomogeneous,
    SizeBudgetExceeded,
    TermBudgetExceeded,
    ZeroWeightSum,
)
from pctree.transforms import stage_metrics

from oracles import (
    chain_rule_table,
    descendants,
    frontier_triples,
    layered_dag,
    left_fold_polynomials,
    reverse_pass_adjoints,
    scope,
    substitute_atom_derivative,
    table_hash,
)


# -- binarize ---------------------------------------------------------------

def _wide_nodes():
    """3- and 5-ary sums, a 4-ary product and a 130-child product, the
    width of the widest products of ``build_hard_instance(4)``."""
    for k in (3, 5):
        leaves = [Leaf(0, j % 2 == 1) for j in range(k)]
        yield build_circuit(1, [*leaves, Sum(tuple(range(k)), tuple(range(1, k + 1)))], k)
    for k in (4, 130):
        yield build_circuit(k, [*map(Leaf, range(k)), Product(tuple(range(k)))], k)


def test_binarize_chains_wide_nodes():
    for wide in _wide_nodes():
        k = len(wide.nodes[wide.root].children)
        out = pt.binarize(wide)
        assert len(out.nodes) == len(wide.nodes) + k - 2
        assert out.is_binary()
        assert pt.poly_equal(pt.extract_polynomial(wide), pt.extract_polynomial(out), 1e-9)


def test_binarize_chains_keep_the_parent_kind():
    for wide in _wide_nodes():
        parent = wide.nodes[wide.root]
        out = pt.binarize(wide)
        fresh = out.nodes[len(wide.nodes):]
        assert fresh and all(len(node.children) == 2 for node in fresh)
        assert all(type(node) is type(parent) for node in fresh)
        if isinstance(parent, Sum):
            # a chain edge is an edge into a fresh node
            chain = [w for node in (out.nodes[out.root], *fresh)
                     for ch, w in zip(node.children, node.weights) if ch >= len(wide.nodes)]
            assert chain == [1.0] * len(fresh)


def test_binarize_keeps_binary_circuits():
    c = pt.random_valid_pc(pt.GenParams(n=4, seed=0, max_fanout=2))
    assert pt.binarize(c) is c


def test_binarize_requires_validity():
    bad = build_circuit(2, [Leaf(0), Leaf(0, True), Leaf(1), Product((0, 1, 2))], 3)
    with pytest.raises(InvalidInput, match="node 3: children with overlapping scopes"):
        pt.binarize(bad)


def test_binarize_bounds_and_polynomials(small_corpus):
    for c, b in small_corpus:
        assert b.is_binary()
        assert len(b.nodes) - len(c.nodes) == sum(max(len(node.children) - 2, 0) for node in c.nodes)
        assert b.validity().ok
        assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(b), 1e-9)


# -- normalize ----------------------------------------------------------------

def test_normalize_example():
    c = build_circuit(1, [Leaf(0), Leaf(0, True), Sum((0, 1), (2.0, 3.0))], 2)
    out, constant = pt.normalize(c)
    assert out.nodes[2].weights == pytest.approx((0.4, 0.6))
    assert constant == pytest.approx(5.0)


def test_normalize_is_identity_on_normalized_input():
    c = build_circuit(1, [Leaf(0), Leaf(0, True), Sum((0, 1), (0.25, 0.75))], 2)
    out, constant = pt.normalize(c)
    assert out.nodes == c.nodes
    assert constant == 1.0
    assert out.validity().normalized


def test_normalize_proportionality(small_corpus):
    rng = random.Random(5)
    for c, _ in small_corpus[:6]:
        out, constant = pt.normalize(c)
        assert out.validity().normalized
        # a normalized valid PC marginalizes to exactly one
        assert math.isclose(out.evaluate(pt.marginal_assignment(c.num_vars)), 1.0,
                            rel_tol=1e-9)
        for node in out.nodes:
            if isinstance(node, Sum):
                assert math.isclose(sum(node.weights), 1.0, rel_tol=0, abs_tol=1e-12)
        for _ in range(10):
            a = [rng.uniform(0.0, 2.0) for _ in range(2 * c.num_vars)]
            assert math.isclose(c.evaluate(a), constant * out.evaluate(a), rel_tol=1e-9)


def test_normalize_rejects_zero_total():
    c = Circuit(1, [Leaf(0), Leaf(0, True), Sum((0, 1), (0.0, 0.0))], 2)
    with pytest.raises(ZeroWeightSum):
        pt.normalize(c)


def test_normalize_rejects_overflow():
    # an infinite total would leave all-zero weights and an infinite constant
    wide = build_circuit(1, [Leaf(0), Leaf(0, True), Sum((0, 1), (1e308, 1e308))], 2)
    with pytest.raises(NonFiniteValue, match="sum 2"):
        pt.normalize(wide)
    scaled = build_circuit(2, [Leaf(0), Leaf(0, True), Sum((0, 1), (1e200, 1e200)),
                               Leaf(1), Leaf(1, True), Sum((3, 4), (1e200, 1e200)),
                               Product((2, 5))], 6)
    with pytest.raises(NonFiniteValue, match="product 6"):
        pt.normalize(scaled)


# -- partial derivatives -------------------------------------------------------

def test_derivative_base_cases():
    c = build_circuit(2, [Leaf(0), Leaf(1), Sum((0, 1), (0.3, 0.7))], 2)
    assert pt.partial_derivative(c, 2, 2).terms == {0: 1.0}
    assert pt.partial_derivative(c, 2, 0).terms == {0: 0.3}
    assert not pt.partial_derivative(c, 0, 1).terms
    with pytest.raises(DanglingChild):
        pt.partial_derivative(c, 0, 9)
    # a node id that is not an int, bools included, is a ValueError, not a TypeError
    for v, w in ((2, 0.0), ("2", 0), (2, False), (True, 0)):
        with pytest.raises(ValueError, match="^node ids must be ints"):
            pt.partial_derivative(c, v, w)


def test_derivatives_read_no_ancestor_table():
    # the frontier, reach and derivative walks stop on degrees, so neither
    # the reducer nor partial_derivative builds a quadratic mask table;
    # hard-3 plans derivatives at gap > 1, which the dag corpus never does
    for c in (pt.random_valid_pc(pt.GenParams(n=16, seed=1, reuse_prob=0.5)),
              pt.build_hard_instance(3)):
        b = pt.binarize(c)
        pt.reduce_depth(b)
        assert "descendant_masks" not in vars(b)
        pt.partial_derivative(b, b.root, 0)
        assert "ancestor_masks" not in vars(b) and "topo_positions" not in vars(b)


def _small_circuits():
    return [pt.random_valid_pc(pt.GenParams(n=n, seed=seed, reuse_prob=0.3, max_fanout=2))
            for n, seed in ((3, 0), (4, 1), (4, 6))]


def test_derivative_matches_substitution_definition():
    for c in _small_circuits():
        for v in range(len(c.nodes)):
            for w in range(len(c.nodes)):
                got = pt.partial_derivative(c, v, w)
                want = substitute_atom_derivative(c, v, w)
                assert pt.poly_equal(got, want, 1e-9), (v, w)


def test_derivative_matches_chain_rule_where_paths_join():
    """In a width-3 layered DAG each sum two scopes below the root's has
    three parents, reached from above by paths of different lengths (the
    binarized sums are chains), so a reverse pass that let a node pass
    its adjoint on before all of them had passed theirs (breadth first,
    say) would get the derivatives below it wrong.  No pass at degree gap
    <= 1 meets such a join here, so every pair of a node and a descendant
    is checked."""
    b = pt.binarize(layered_dag(3, 3, seed=1))
    polys = pt.node_polynomials(b)
    for w in range(len(b.nodes)):
        for v, want in chain_rule_table(b, polys, w).items():
            assert pt.poly_equal(pt.partial_derivative(b, v, w), want, 1e-12), (v, w)


def test_derivative_degree_and_variable_set(small_corpus):
    for c, b in small_corpus[:6]:
        polys = pt.node_polynomials(b)
        for w in range(len(b.nodes)):
            table = chain_rule_table(b, polys, w)
            for v, d in table.items():
                if not d.terms:
                    continue
                assert d.is_homogeneous()
                assert d.degree == b.degrees[v] - b.degrees[w]
                assert d.variables() <= scope(b, v) - scope(b, w)


def test_derivative_of_product_factors_through_heavy_child():
    for b in map(pt.binarize, _small_circuits()):
        polys = pt.node_polynomials(b)
        deg = b.degrees
        for v, node in enumerate(b.nodes):
            if not isinstance(node, Product) or len(node.children) != 2:
                continue
            v1, v2 = node.children
            if deg[v1] < deg[v2]:
                v1, v2 = v2, v1
            for w in range(len(b.nodes)):
                if w == v or deg[v] >= 2 * deg[w]:
                    continue
                lhs = pt.partial_derivative(b, v, w)
                rhs = polys[v2].mul(pt.partial_derivative(b, v1, w))
                assert pt.poly_equal(lhs, rhs, 1e-9)


# -- degree frontier -----------------------------------------------------------

def test_frontier_examples():
    c = build_circuit(2, [Leaf(0), Leaf(1), Product((0, 1))], 2)
    assert pt.degree_frontier(c, 1).members == frozenset({2})
    assert pt.degree_frontier(c, 2).members == frozenset()
    with pytest.raises(ValueError):
        pt.degree_frontier(c, 0)
    wide = build_circuit(3, [Leaf(0), Leaf(1), Leaf(2), Product((0, 1, 2))], 3)
    with pytest.raises(NotBinary, match="node 3 has 3 children"):
        pt.degree_frontier(wide, 1)


def test_frontier_members_match_the_scan_definition(small_corpus):
    circuits = [b for _, b in small_corpus]
    circuits += [pt.binarize(pt.build_hard_instance(k)) for k in (2, 3)]
    for b in circuits:
        for m in range(1, b.degrees[b.root] + 1):
            want = {t for t, _, _ in frontier_triples(b, m)}
            assert pt.degree_frontier(b, m).members == want, m


def test_frontier_nonempty_below_banded_nodes(small_corpus):
    for _, b in small_corpus:
        desc = descendants(b)
        for m in range(1, b.degrees[b.root]):
            members = pt.degree_frontier(b, m).members
            for v in range(len(b.nodes)):
                if m < b.degrees[v] <= 2 * m:
                    assert not members.isdisjoint(desc[v])


# -- frontier expansion identities ----------------------------------------------

def test_value_expansion_identity(small_corpus):
    for _, b in small_corpus[:6]:
        polys = pt.node_polynomials(b)
        tables = {}
        for m in range(1, b.degrees[b.root]):
            front = frontier_triples(b, m)
            for v in range(len(b.nodes)):
                if not m < b.degrees[v] <= 2 * m:
                    continue
                rhs = SparsePolynomial(b.num_vars)
                for t, _, _ in front:
                    if t not in tables:
                        tables[t] = chain_rule_table(b, polys, t)
                    d = tables[t].get(v)
                    if d is not None:
                        rhs = rhs.add(polys[t].mul(d))
                assert pt.poly_equal(polys[v], rhs, 1e-9), (v, m)


def test_derivative_expansion_identity(small_corpus):
    for _, b in small_corpus[:6]:
        polys = pt.node_polynomials(b)
        deg = b.degrees
        desc = descendants(b)
        tables = {}

        def table(w):
            if w not in tables:
                tables[w] = chain_rule_table(b, polys, w)
            return tables[w]

        for v in range(len(b.nodes)):
            for w in range(len(b.nodes)):
                if v == w or w not in desc[v] or deg[v] >= 2 * deg[w]:
                    continue
                lhs = table(w)[v]
                for m in range(deg[w], deg[v]):
                    rhs = SparsePolynomial(b.num_vars)
                    for t, _, _ in frontier_triples(b, m):
                        d_tw = table(w).get(t)
                        d_vt = table(t).get(v)
                        if d_tw is not None and d_vt is not None:
                            rhs = rhs.add(d_tw.mul(d_vt))
                    assert pt.poly_equal(lhs, rhs, 1e-9), (v, w, m)


# -- reduce_depth ---------------------------------------------------------------

def test_reduce_depth_single_band():
    c = build_circuit(2, [Leaf(0), Leaf(1), Leaf(0, True), Leaf(1, True),
                          Product((0, 1)), Product((2, 3)),
                          Sum((4, 5), (0.6, 0.4))], 6)
    out = pt.reduce_depth(c)
    assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(out), 1e-9)
    assert out.stats().depth <= 3


def _pass_throughs(c: Circuit) -> list[int]:
    """The one-child products and one-child sums of weight 1.0 of ``c``."""
    return [v for v, node in enumerate(c.nodes) if len(node.children) == 1
            and (isinstance(node, Product) or node.weights == (1.0,))]


def test_reduce_depth_preserves_polynomial_and_validity(small_corpus):
    """The reduced circuit is valid, has the input's polynomial and no
    pass-through node; hard-k reduces to depth 2k."""
    inputs = [b for _, b in small_corpus] + [pt.binarize(layered_dag(8, 4, seed=1))]
    inputs += [pt.binarize(pt.build_hard_instance(k)) for k in (1, 2, 3)]
    depths = []
    for b in inputs:
        out = pt.reduce_depth(b)
        assert pt.poly_equal(pt.extract_polynomial(b), pt.extract_polynomial(out), 1e-9)
        report = out.validity()
        assert report.decomposable and report.smooth and report.homogeneous
        assert _pass_throughs(out) == []
        depths.append(out.stats().depth)
    assert depths[-3:] == [2, 4, 6]


def test_reduced_products_have_no_product_child(small_corpus):
    """The reducer splices a product factor's children into the summand
    product that uses it, so no product of the output has a product
    child and the polynomial is the input's; hard-k's tree then has the
    input tree's node count and its depth 2k."""
    hard3 = pt.build_hard_instance(3)
    rng = random.Random(5)
    reweighted = build_circuit(hard3.num_vars, [
        Sum(node.children, [rng.uniform(0.2, 0.9) for _ in node.children])
        if isinstance(node, Sum) else node for node in hard3.nodes], hard3.root)
    inputs = [c for c, _ in small_corpus] + [layered_dag(8, 4, seed=1), reweighted]
    for k in (1, 2, 3, 4):
        c = pt.build_hard_instance(k)
        tree, _ = pt.treeify(c)
        assert (len(tree.nodes), tree.stats().depth) == (len(c.nodes), 2 * k)
        inputs.append(c)
    for c in inputs:
        out = pt.reduce_depth(pt.binarize(c))
        nested = [(v, ch) for v, node in enumerate(out.nodes) if isinstance(node, Product)
                  for ch in node.children if isinstance(out.nodes[ch], Product)]
        assert nested == []
        assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(out), 1e-9)


def test_reduce_depth_is_logarithmic(small_corpus):
    for c, b in small_corpus:
        out = pt.reduce_depth(b)
        bound = 2 * max(1, (c.num_vars - 1).bit_length()) + 1
        assert out.stats().depth <= bound


@pytest.mark.parametrize("n", [16, 32])
def test_reduce_depth_equivalent_beyond_expansion_scale(n):
    # exact extraction is infeasible here; randomized identity testing
    # still pins the rebuilt circuit to the original
    c = pt.random_valid_pc(pt.GenParams(n=n, seed=5, reuse_prob=0.35))
    reduced = pt.reduce_depth(pt.binarize(c))
    assert pt.random_equivalence(c, reduced, trials=24, seed=1)


def test_reduce_depth_requires_binary_valid_input():
    wide = build_circuit(3, [Leaf(0), Leaf(1), Leaf(2), Product((0, 1, 2))], 3)
    with pytest.raises(NotBinary, match="node 3 has 3 children"):
        pt.reduce_depth(wide)
    lopsided = build_circuit(2, [Leaf(0), Leaf(1), Product((0, 1)),
                                 Sum((0, 2), (1.0, 1.0))], 3)
    with pytest.raises(NotHomogeneous, match="node 3: children with different scopes"):
        pt.reduce_depth(lopsided)


def test_reduce_depth_rejects_overflowing_weights():
    # the three stacked weights fold into one constant of 1e600
    c = build_circuit(4, [Leaf(0), Leaf(1), Leaf(2), Leaf(3),
                          Product((0, 1)), Product((2, 3)), Product((4, 5)),
                          Sum((6,), (1e200,)), Sum((7,), (1e200,)), Sum((8,), (1e200,))], 9)
    with pytest.raises(NonFiniteValue, match=r"\(9, None\)"):
        pt.reduce_depth(c)
    with pytest.raises(NonFiniteValue, match=r"\(9, None\)"):
        pt.treeify(c)


def test_reduce_depth_rejects_underflowing_weights():
    # the three stacked weights fold into one constant of 1e-600, which is 0.0
    c = build_circuit(4, [Leaf(0), Leaf(1), Leaf(2), Leaf(3),
                          Product((0, 1)), Product((2, 3)), Product((4, 5)),
                          Sum((6,), (1e-200,)), Sum((7,), (1e-200,)), Sum((8,), (1e-200,))], 9)
    with pytest.raises(ZeroWeightSum, match=r"root 9: .* underflows"):
        pt.reduce_depth(c)
    with pytest.raises(ZeroWeightSum, match=r"root 9: .* underflows"):
        pt.treeify(c)
    with pytest.raises(ZeroWeightSum, match="sum 8"):
        pt.normalize(c)


def test_an_underflowed_degree_one_value_is_the_zero_gate():
    """Node 2's value, x0 at 1e-400, underflows to the empty term map: its
    gate is the constant 0.0, so the summand through it drops and the
    output keeps the other one, x0 * x1."""
    c = build_circuit(2, [Leaf(0), Sum((0,), (1e-200,)), Sum((1,), (1e-200,)), Leaf(1),
                          Product((2, 3)), Leaf(0), Leaf(1), Product((5, 6)),
                          Sum((4, 7), (1.0, 1.0))], 8)
    want = pt.extract_polynomial(c)
    assert want.terms == {0b101: 1.0}
    assert pt.extract_polynomial(pt.reduce_depth(c)) == want
    assert pt.extract_polynomial(pt.treeify(c)[0]) == want


def test_affine_gate_takes_only_degree_one_terms():
    """A degree-one gate is a sum over the leaves of its terms' slots, in
    mask order; a constant or a degree-two term fails homogeneity, and the
    error names the gate."""
    from pctree.transforms import _Arena

    arena = _Arena()
    for terms in ({0: 1.0}, {0b11: 1.0}):
        with pytest.raises(NotHomogeneous, match=r"gate \(node, wrt\) = \(5, 2\) has a term of degree"):
            arena.affine_gate((5, 2), terms)
    assert arena.affine_gate((5, 2), {}) == (None, 0.0)
    assert arena.entries == []
    assert arena.affine_gate((5, None), {0b1000: 0.25, 0b1: 0.75}) == (2, 1.0)
    assert arena.entries == [Leaf(0), Leaf(1, True), Sum((0, 1), (0.75, 0.25))]


def test_reduce_depth_deterministic():
    c = pt.binarize(pt.random_valid_pc(pt.GenParams(n=8, seed=1, reuse_prob=0.4)))
    a = pt.reduce_depth(c)
    b = pt.reduce_depth(c)
    assert a.nodes == b.nodes and a.root == b.root


@pytest.mark.parametrize("n, w", [(6, 2), (6, 4), (5, 8)])
def test_reduce_depth_is_exact_and_logarithmic_on_wide_dags(n, w):
    # nearly every gate the reducer builds here is a derivative gate
    c = layered_dag(n, w, seed=1)
    reduced = pt.reduce_depth(pt.binarize(c))
    assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(reduced), 1e-9)
    assert reduced.stats().depth <= 2 * (n - 1).bit_length() + 1


@pytest.mark.parametrize("name", ["hard-4", "dag-48"])
def test_reduce_depth_recursion_follows_bands_not_input_depth(name):
    """The gate recursion nests O(log^2 d) calls for root degree d, so 60
    frames above the caller reduce root degree 256 and a 48-variable DAG:
    a recursion on input depth (130 for hard-4 binarized) or on gate
    count (6 746 for dag-48) runs out of frames."""
    c = (pt.build_hard_instance(4) if name == "hard-4"
         else pt.random_valid_pc(pt.GenParams(n=48, seed=1, reuse_prob=0.5)))
    b = pt.binarize(c)
    frames, f = 0, sys._getframe()
    while f is not None:
        frames, f = frames + 1, f.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 60)
    try:
        reduced = pt.reduce_depth(b)
    finally:
        sys.setrecursionlimit(limit)
    assert len(reduced.nodes) == {"hard-4": 767, "dag-48": 6746}[name]


def test_reduce_depth_leaves_no_reference_cycle():
    """Everything the reducer builds but does not return is freed when it
    returns or raises; a cycle would keep its arena and caches, about
    2 MB on hard-4, alive until the next full collection."""
    overflow = build_circuit(4, [Leaf(0), Leaf(1), Leaf(2), Leaf(3),
                                 Product((0, 1)), Product((2, 3)), Product((4, 5)),
                                 Sum((6,), (1e200,)), Sum((7,), (1e200,)), Sum((8,), (1e200,))], 9)
    for c in (pt.build_hard_instance(3), pt.random_valid_pc(pt.GenParams(n=16, seed=1, reuse_prob=0.5)),
              overflow):
        b = pt.binarize(c)
        gc.collect()
        gc.disable()
        try:
            try:
                pt.reduce_depth(b)
            except NonFiniteValue:
                assert c is overflow
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("n", [6, 8, 12, 16])
def test_reduce_depth_ignores_topological_order(n):
    """The reducer builds gates in a walk from the root, so another
    valid topological order of the same table gives the same output."""
    for seed in range(1, 6):
        c = pt.random_valid_pc(pt.GenParams(n=n, seed=seed, reuse_prob=0.5, max_fanout=2))
        assert c.is_binary()
        assert all(ch < v for v in range(len(c.nodes)) for ch in c.nodes[v].children)
        by_id = Circuit(c.num_vars, c.nodes, c.root)
        by_id.topo_order = tuple(range(len(c.nodes)))
        assert by_id.topo_order != c.topo_order
        a, b = pt.reduce_depth(c), pt.reduce_depth(by_id)
        assert a.nodes == b.nodes and a.root == b.root


# -- duplicate_to_tree ------------------------------------------------------------

def test_duplicate_tree_input_is_isomorphic_copy():
    c = pt.build_hard_instance(1)
    out = pt.duplicate_to_tree(c)
    assert out.stats() == c.stats()
    assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(out), 0.0)


def test_duplicate_diamond():
    diamond = build_circuit(2, [
        Leaf(0), Leaf(0, True), Leaf(1),
        Sum((0, 1), (0.5, 0.5)),          # shared
        Product((3, 2)), Product((3, 2)),
        Sum((4, 5), (0.3, 0.7)),
    ], 6)
    out = pt.duplicate_to_tree(diamond)
    assert out.stats().is_tree
    # the shared sum and everything below it appears once per parent
    assert len(out.nodes) == 11
    assert pt.poly_equal(pt.extract_polynomial(diamond), pt.extract_polynomial(out), 1e-9)


def test_duplicate_preserves_depth_and_polynomial(small_corpus):
    for c, _ in small_corpus[:8]:
        out = pt.duplicate_to_tree(c)
        assert out.stats().is_tree
        assert out.stats().depth == c.stats().depth
        assert out.validity().ok
        assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(out), 1e-9)


def test_duplicate_budget(monkeypatch):
    c = pt.random_valid_pc(pt.GenParams(n=8, seed=3, reuse_prob=0.6))
    monkeypatch.setattr(pt.transforms, "DEFAULT_TREE_BUDGET", 10)
    with pytest.raises(SizeBudgetExceeded):
        pt.duplicate_to_tree(c)
    with pytest.raises(SizeBudgetExceeded):
        pt.treeify(c)


def test_duplicate_budget_is_inclusive(monkeypatch):
    c = pt.random_valid_pc(pt.GenParams(n=8, seed=3, reuse_prob=0.6))
    size = len(pt.duplicate_to_tree(c).nodes)
    assert size > len(c.nodes)
    monkeypatch.setattr(pt.transforms, "DEFAULT_TREE_BUDGET", size)
    assert len(pt.duplicate_to_tree(c).nodes) == size
    monkeypatch.setattr(pt.transforms, "DEFAULT_TREE_BUDGET", size - 1)
    with pytest.raises(SizeBudgetExceeded, match=f"would have {size} nodes \\(budget {size - 1}\\)"):
        pt.duplicate_to_tree(c)


def test_duplicate_budget_at_the_default():
    # 23 stacked two-edge sums over one leaf: 2**24 - 1 root-to-node paths,
    # counted and refused before any copy is made
    nodes = [Leaf(0)] + [Sum((v - 1, v - 1), (0.5, 0.5)) for v in range(1, 24)]
    c = build_circuit(1, nodes, 23)
    with pytest.raises(SizeBudgetExceeded, match="would have 16777215 nodes \\(budget 10000000\\)"):
        pt.duplicate_to_tree(c)


# -- treeify ----------------------------------------------------------------------

def test_treeify_end_to_end():
    c = pt.random_valid_pc(pt.GenParams(n=4, seed=11, reuse_prob=0.5))
    tree, report = pt.treeify(c)
    assert tree.stats().is_tree
    assert tree.validity().ok
    assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(tree), 1e-9)
    assert [s.stage for s in report.stages] == ["input", "binarize", "reduce_depth", "duplicate"]


def test_treeify_single_variable_circuit():
    c = build_circuit(1, [Leaf(0), Leaf(0, True), Sum((0, 1), (0.7, 0.3)),
                          Sum((0, 1), (0.5, 0.5)), Sum((2, 3), (1.0, 2.0))], 4)
    tree, _ = pt.treeify(c)
    assert tree.stats().is_tree
    assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(tree), 1e-9)


def test_treeify_processes_shallow_trees():
    c = pt.build_hard_instance(1)
    tree, _ = pt.treeify(c)
    assert tree.stats().is_tree
    assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(tree), 1e-9)


def test_treeify_normalized_output():
    c = pt.random_valid_pc(pt.GenParams(n=6, seed=9, reuse_prob=0.3))
    tree, report = pt.treeify(c, normalize_output=True)
    assert report.stages[-1].stage == "normalize"
    assert tree.validity().normalized
    assert report.root_constant is not None
    rng = random.Random(2)
    for _ in range(5):
        a = [rng.uniform(0.0, 2.0) for _ in range(2 * c.num_vars)]
        assert math.isclose(c.evaluate(a), report.root_constant * tree.evaluate(a), rel_tol=1e-9)


def test_treeify_hard_instance_deep_fanin():
    # heavy fan-in products: binarize stretches depth to 34 before the
    # reducer pulls it back under the logarithmic bound
    c = pt.build_hard_instance(3)
    tree, report = pt.treeify(c)
    assert tree.stats().is_tree
    reduced = report.stages[2]
    assert reduced.stage == "reduce_depth"
    assert reduced.depth <= 2 * 6 + 1  # root degree 64
    assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(tree), 1e-9)


def test_exact_expansion_of_deep_and_wide_inputs():
    # a chain of single-child sums deeper than the recursion limit: every
    # exact expansion must walk it iteratively
    depth = 3000
    nodes = [Leaf(0), Leaf(0, True), Sum((0, 1), (0.25, 0.75))]
    for _ in range(depth):
        nodes.append(Sum((len(nodes) - 1,), (1.0,)))
    chain = build_circuit(1, nodes, len(nodes) - 1)
    assert depth > sys.getrecursionlimit()
    p = pt.extract_polynomial(chain)
    assert p.terms == {0b01: 0.25, 0b10: 0.75}
    assert pt.node_polynomials(chain)[2:] == [p] * (depth + 1)
    assert pt.partial_derivative(chain, chain.root, 2) == SparsePolynomial(1, {0: 1.0})
    assert pt.poly_equal(pt.extract_polynomial(pt.reduce_depth(chain)), p)
    copy = pt.duplicate_to_tree(chain)
    assert copy.nodes == chain.nodes and copy.root == chain.root
    tree, report = pt.treeify(chain, normalize_output=True)
    assert pt.extract_polynomial(tree).terms == p.terms
    assert report.root_constant == 1.0
    # a wide sum of one variable's mixtures per variable: binarize turns
    # each into a long chain of degree-one nodes
    n, k = 8, 200
    nodes, wide = [], []
    for var in range(n):
        nodes += [Leaf(var), Leaf(var, True)]
        pos = len(nodes) - 2
        for j in range(k):
            w = (j + 1) / (k + 1)
            nodes.append(Sum((pos, pos + 1), (w, 1.0 - w)))
        nodes.append(Sum(tuple(range(len(nodes) - k, len(nodes))), (1.0 / k,) * k))
        wide.append(len(nodes) - 1)
    root = wide[0]
    for w in wide[1:]:
        nodes.append(Product((root, w)))
        root = len(nodes) - 1
    mixtures = build_circuit(n, nodes, root)
    tree, _ = pt.treeify(mixtures)
    assert tree.stats().depth <= 2 * (n - 1).bit_length() + 1
    got = pt.extract_polynomial(tree)
    # exact against the binarized input; binarize regroups each wide sum,
    # so the flat input's coefficients differ in the last bits
    assert pt.poly_equal(pt.extract_polynomial(pt.binarize(mixtures)), got)
    assert pt.poly_equal(pt.extract_polynomial(mixtures), got, 1e-12)


def test_pipeline_handles_zero_weights_wires_and_repeated_children():
    nodes = [
        Leaf(0), Leaf(0, True),
        Sum((0, 1), (1.0, 0.0)),       # zero-weight edge
        Leaf(1), Leaf(1, True),
        Sum((3, 4), (0.5, 0.5)),
        Product((2, 5)),
        Product((6,)),                 # product wire
        Sum((7, 7), (0.3, 0.7)),       # repeated child
        Sum((8,), (2.0,)),             # weighted sum wire
    ]
    c = build_circuit(2, nodes, 9)
    reference = pt.extract_polynomial(c)
    reduced = pt.reduce_depth(pt.binarize(c))
    assert pt.poly_equal(reference, pt.extract_polynomial(reduced), 1e-9)
    tree, _ = pt.treeify(c)
    assert tree.stats().is_tree
    assert pt.poly_equal(reference, pt.extract_polynomial(tree), 1e-9)
    # zero-weight edges in shared DAGs make constant-zero gates, which the
    # reducer folds away rather than multiplying into a summand's weight
    for seed in range(6):
        dag = pt.random_valid_pc(pt.GenParams(n=8, seed=seed, reuse_prob=0.5))
        rng = random.Random(seed)
        nodes = list(dag.nodes)
        for v, node in enumerate(nodes):
            if isinstance(node, Sum) and len(node.children) > 1 and rng.random() < 0.4:
                weights = list(node.weights)
                weights[rng.randrange(len(weights))] = 0.0
                nodes[v] = Sum(node.children, tuple(weights))
        zeroed = build_circuit(dag.num_vars, nodes, dag.root)
        reduced = pt.reduce_depth(pt.binarize(zeroed))
        assert pt.poly_equal(pt.extract_polynomial(zeroed), pt.extract_polynomial(reduced))
        assert all(0.0 not in node.weights for node in reduced.nodes if isinstance(node, Sum))
        assert _pass_throughs(reduced) == []


def _hex_terms(terms: dict[int, float]) -> dict[int, str]:
    return {m: x.hex() for m, x in terms.items()}


def test_reducer_base_cases_match_the_polynomial_expansions(monkeypatch):
    """The reducer's two base cases skip polynomial objects: a degree-one
    node's value is a term map (``_Expander.get``), a derivative at
    degree gap zero a float (``_Expander.adjoints``).  Both equal, bit for
    bit, the textbook left folds and the reverse pass in polynomial
    arithmetic over them, on one-child product wires inside gap-zero
    regions, repeated children, zero weights, parts that cancel to 0.0,
    and an infinite weight under a zero one (a zero adjoint passes 0.0:
    inf * 0.0 would be NaN).  Below the top degree, a product of three
    non-leaf factors multiplies the adjoint first, as the oracle does."""
    from pctree.poly import _Expander

    wires = build_circuit(2, [Leaf(0), Leaf(0, True), Sum((0, 1), (1.0, 0.0)),
                              Leaf(1), Leaf(1, True), Sum((3, 4), (0.5, 0.5)),
                              Product((2, 5)), Product((6,)), Sum((7, 7), (0.3, 0.7)),
                              Sum((8,), (2.0,))], 9)
    cancel = Circuit(1, [Leaf(0), Leaf(0, True), Sum((0, 1), (0.5, 0.5)),
                         Sum((2,), (1.0,)), Sum((2,), (1.0,)), Sum((3, 4), (1.0, -1.0)),
                         Sum((2,), (math.inf,)), Sum((6,), (0.0,)), Product((5,)),
                         Sum((8, 7, 2, 2), (1.0, 1.0, 2.5, -2.5))], 9)
    # three two-leaf sums under one product, under a sum of weight 1.7
    three = build_circuit(3, [Leaf(0), Leaf(0, True), Sum((0, 1), (0.3, 0.7)),
                              Leaf(1), Leaf(1, True), Sum((3, 4), (0.1, 0.9)),
                              Leaf(2), Leaf(2, True), Sum((6, 7), (0.7, 0.3)),
                              Product((2, 5, 8)), Sum((9,), (1.7,))], 10)
    corpus = [wires, pt.binarize(wires), cancel, pt.binarize(pt.build_hard_instance(2)), three]
    for seed in range(6):  # shared DAGs with zero weights, as the pipeline test makes them
        dag = pt.random_valid_pc(pt.GenParams(n=8, seed=seed, reuse_prob=0.5))
        rng = random.Random(seed)
        nodes = list(dag.nodes)
        for v, node in enumerate(nodes):
            if isinstance(node, Sum) and len(node.children) > 1 and rng.random() < 0.4:
                weights = list(node.weights)
                weights[rng.randrange(len(weights))] = 0.0
                nodes[v] = Sum(node.children, weights)
        corpus.append(pt.binarize(build_circuit(dag.num_vars, nodes, dag.root)))
    seen_wire = seen_zero = False
    for c in corpus:
        # the expander's memoized walk, without node_polynomials' finiteness check
        deg, polys = c.degrees, _Expander(c)
        folds = left_fold_polynomials(c)
        for u, node in enumerate(c.nodes):
            if deg[u] == 1:
                assert _hex_terms(polys.get(u)) == _hex_terms(folds[u].terms)
            adjoints = polys.adjoints(u, deg[u])
            want = reverse_pass_adjoints(c, u, deg[u], folds)
            assert adjoints.keys() == want.keys()
            for w, a in adjoints.items():
                assert a.hex() == want[w].terms.get(0, 0.0).hex()
                if math.isfinite(a):  # partial_derivative refuses the others
                    d = pt.partial_derivative(c, u, w).terms
                    assert d.keys() <= {0} and a.hex() == d.get(0, 0.0).hex()
                seen_zero |= a == 0.0
            seen_wire |= isinstance(node, Product) and len(node.children) == 1 and len(adjoints) > 1
    assert seen_wire and seen_zero
    # each sum's co-factor is (1.7 * one other sum) * the last one; 1.7 times
    # the product of the other two differs in the last bit in 6 of 12 terms
    want = reverse_pass_adjoints(three, three.root, 1, left_fold_polynomials(three))
    for w in range(len(three.nodes)):
        assert (_hex_terms(pt.partial_derivative(three, three.root, w).terms)
                == _hex_terms(want[w].terms)), w
    linear = _Expander(cancel).get
    assert linear(5) == {} and _hex_terms(linear(9)) == {0b01: "nan", 0b10: "nan"}
    # a degree-one term map past the cap names its node, as every expansion does
    monkeypatch.setenv("PC_TERM_BUDGET", "1")
    mixture = build_circuit(2, [Leaf(0), Leaf(0, True), Sum((0, 1), (0.5, 0.5)), Leaf(1),
                                Product((2, 3))], 4)
    with pytest.raises(TermBudgetExceeded, match="^node 2 expands past 1 monomials$"):
        pt.reduce_depth(mixture)


def _zero_some_weights(c: Circuit, seed: int) -> Circuit:
    """``c`` with one weight of about 40 % of its multi-child sums set to 0.0."""
    rng, nodes = random.Random(seed), list(c.nodes)
    for v, node in enumerate(nodes):
        if isinstance(node, Sum) and len(node.children) > 1 and rng.random() < 0.4:
            weights = list(node.weights)
            weights[rng.randrange(len(weights))] = 0.0
            nodes[v] = Sum(node.children, weights)
    return build_circuit(c.num_vars, nodes, c.root)


def test_gap_one_derivatives_from_numbers_match_partial_derivative():
    """The reducer's derivatives at degree gap one come from the reverse
    pass over floats and term maps (``_Expander.adjoints``) that
    ``partial_derivative`` also reads.  Each equals, bit for bit, the
    reverse pass in polynomial arithmetic over the textbook left folds,
    and a sample of pairs equals ``partial_derivative`` itself, also where
    zero weights make zero adjoints, through one-child product wires at
    either degree, and where a zero adjoint meets an infinite co-factor
    (it passes nothing: inf * 0.0 would be NaN)."""
    from pctree.poly import _Expander

    def wires(weights: tuple[float, float], top: tuple[float, float]) -> Circuit:
        return Circuit(3, [n for v in range(3) for n in (Leaf(v), Leaf(v, True))] + [
            Sum((0, 1), (0.25, 0.75)), Sum((2, 3), (0.5, 0.0)), Sum((4, 5), weights),  # 6-8
            Product((6,)), Product((9, 7)), Product((10,)), Product((11, 8)),  # 9-12
            Sum((12, 12), top), Sum((13,), (2.0,))], 14)

    hard3, layered = pt.build_hard_instance(3), layered_dag(6, 4, seed=1)
    corpus = [wires((1.0, 2.5), (0.3, 0.7)), wires((1.0, math.inf), (0.0, 0.0)), hard3,
              pt.build_hard_instance(4), layered_dag(6, 2, seed=1), layered, layered_dag(5, 8, seed=1),
              _zero_some_weights(hard3, 1), _zero_some_weights(layered, 2)]
    pairs = maps = zeros = 0
    for c in map(pt.binarize, corpus):
        deg, numbers, folds = c.degrees, _Expander(c), left_fold_polynomials(c)
        for u in range(len(c.nodes)):
            if deg[u] < 2:
                continue
            got = numbers.adjoints(u, deg[u] - 1)
            want = reverse_pass_adjoints(c, u, deg[u] - 1, folds)
            assert got.keys() == want.keys()
            for w, a in got.items():
                if deg[w] == deg[u]:
                    assert a.hex() == want[w].terms.get(0, 0.0).hex()
                    continue
                assert _hex_terms(a) == _hex_terms(want[w].terms)
                maps, zeros = maps + 1, zeros + (not a)
                if pairs < 2000 and (u + w) % 7 == 0 and all(map(math.isfinite, a.values())):
                    pairs += 1
                    assert _hex_terms(a) == _hex_terms(pt.partial_derivative(c, u, w).terms)
    assert maps > 10000 and pairs > 500 and zeros > 0


def test_gap_one_budget_error_names_the_pair(monkeypatch):
    """A derivative at gap one past the cap names its pair, also when the
    term map that fails is a co-factor's."""
    monkeypatch.setenv("PC_TERM_BUDGET", "1")
    with pytest.raises(TermBudgetExceeded,
                       match="^derivative of node 86 by node 76 expands past 1 monomials$"):
        pt.reduce_depth(pt.binarize(layered_dag(6, 2, 1)))


@pytest.mark.parametrize("n, node", [(16, 520), (32, 1776)])
def test_degree_one_budget_error_names_the_node_the_walk_meets(monkeypatch, n, node):
    """Every degree-one term map is filled by one forward pass before the
    gate walk, which stops at the first node that raises (node 439 on
    dag-16, 69 on dag-32) and leaves it to the walk: the error names the
    node the walk meets first, as it did when each map was expanded on
    demand."""
    monkeypatch.setenv("PC_TERM_BUDGET", "1")
    b = pt.binarize(pt.random_valid_pc(pt.GenParams(n=n, seed=1, reuse_prob=0.5)))
    with pytest.raises(TermBudgetExceeded, match=f"^node {node} expands past 1 monomials$"):
        pt.reduce_depth(b)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_treeify_depth_bound(n):
    c = pt.random_valid_pc(pt.GenParams(n=n, seed=0, reuse_prob=0.35))
    tree, _ = pt.treeify(c)
    assert tree.stats().is_tree
    assert tree.stats().depth <= 2 * (n - 1).bit_length() + 1


GOLDEN_HASHES = {  # input: (reduce_depth output, treeify output before normalizing)
    "dag-16": ("9da8872f28837987a4c06d70e6cdcb749966bd36fd050246e8431e6b4797766f",
               "6b349a142252917ff803cfb84ec01ed95b6ee80a72430feeb6d5e3e021963670"),
    "dag-32": ("6fdf8d22dc0a6a59028519882bf28d413c8e83198d850806fd15347a33284d77",
               "9dfe40e94c083b31c6b5879e1a9460e82c0c397cdc9cbe0123466aec2cb57d9c"),
    "dag-48": ("e521bb27d16a4c04003fc74e72ff13051ab4dce84a4d599cfe437aae77c6c720",
               "718d75809504645641e3b7807d1414fbeac7140d3415c2f336fced0025ebe2d4"),
    "hard-3": ("fe48347f22f9066490bc98cefcba1016097cbb32f7fcb9dd89fad37879752498",
               "dabc576891ebcfc9d845d612b1fa7b7d16f641a7bd69bc5bfa6cbdf6654aa431"),
    "hard-4": ("a64f712c52e12ed9fb6582f5ea6e258a22ae37fb8c963de245de66f859384b3b",
               "a2cb10e27a5138a5b908ec192f3a8c99b57cab1101491bf55d9fb8a34c9ddb59"),
    "layered-8-4": ("d965019270af3001df0f0ac1c1eaf55e38282f1504392fa7a1d4953487e843d1",
                    "c7c5f98b781d810f81713eb4184f859f45702742462fa62d7f4f9df0138710c0"),
}
GOLDEN_SIZES = {  # input: (reduce_depth output's node count, its depth)
    "dag-16": (557, 9), "dag-32": (2148, 11), "dag-48": (6746, 13), "hard-3": (191, 6),
    "hard-4": (767, 8), "layered-8-4": (721, 7),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
def test_treeify_output_is_node_for_node_pinned(name):
    """Pins the exact node tables of the reduced circuit and of its tree
    copy, so performance work on the pipeline must keep its output
    identical.  The tree alone would not do: it is a depth-first copy,
    blind to the order in which the reducer builds its gates.  The
    normalized tree is not pinned, because ``normalize`` totals weights
    with the builtin ``sum``, whose float rounding changed in Python 3.12.
    A deliberate change of output must update these hashes.  One that only
    renumbers the reduced table, such as a new gate build order, changes
    the first hash alone and keeps the node count and depth pinned in
    ``GOLDEN_SIZES``."""
    kind, *sizes = name.split("-")
    n, *w = map(int, sizes)
    if kind == "dag":
        c = pt.random_valid_pc(pt.GenParams(n=n, seed=1, reuse_prob=0.5))
    elif kind == "hard":
        c = pt.build_hard_instance(n)
    else:  # layered-<n>-<w>, the derivative-heavy regime
        c = layered_dag(n, *w, seed=1)
    reduced = pt.reduce_depth(pt.binarize(c))
    tree = pt.duplicate_to_tree(reduced)
    assert (table_hash(reduced), table_hash(tree)) == GOLDEN_HASHES[name]
    assert (len(reduced.nodes), reduced.stats().depth) == GOLDEN_SIZES[name]
    # indicator leaves and affine gates share one leaf per slot
    slots = [pt.circuit.slot(n.var, n.negated) for n in reduced.nodes if isinstance(n, Leaf)]
    assert len(slots) == len(set(slots))


def _reorder_corpus():
    corpus = {f"dag-{n}-{seed}": pt.random_valid_pc(pt.GenParams(n=n, seed=seed, reuse_prob=0.5))
              for n in (6, 12) for seed in (1, 2, 3)}
    corpus.update({f"hard-{k}": pt.build_hard_instance(k) for k in (2, 3)})
    return corpus


@pytest.mark.parametrize("name", sorted(_reorder_corpus()))
def test_treeify_normalizes_before_the_copy_without_changing_output(name):
    """treeify normalizes the reduced circuit and then copies it; the
    result equals, bit for bit, the copy normalized afterwards.  No
    pinned hash, so it holds whatever rounding ``sum`` uses."""
    c = _reorder_corpus()[name]
    tree, report = pt.treeify(c, normalize_output=True)
    expected, constant = pt.normalize(pt.duplicate_to_tree(pt.reduce_depth(pt.binarize(c))))
    assert tree.nodes == expected.nodes
    assert tree.root == expected.root
    assert report.root_constant == constant


@pytest.mark.parametrize("name", ["dag-12-1", "hard-3"])
def test_report_rows_match_each_stage(name):
    c = _reorder_corpus()[name]
    _, report = pt.treeify(c, normalize_output=True)
    b = pt.binarize(c)
    r = pt.reduce_depth(b)
    d = pt.duplicate_to_tree(r)
    normed, _ = pt.normalize(d)
    assert report.stages == (stage_metrics("input", c), stage_metrics("binarize", b),
                             stage_metrics("reduce_depth", r), stage_metrics("duplicate", d),
                             stage_metrics("normalize", normed))


def test_report_serialization():
    c = pt.build_hard_instance(1)
    _, report = pt.treeify(c)
    text = report.to_text()
    assert "input.nodes=11" in text and "duplicate.depth=" in text
    csv = report.to_csv().splitlines()
    assert csv[0] == "stage,nodes,edges,depth"
    assert csv[1].startswith("input,11,10,2")
    assert len(csv) == 1 + len(report.stages)


def test_treeify_checks_its_input_once(small_corpus, monkeypatch):
    """``treeify`` runs ``validity()`` once, in ``binarize``: its output is
    binary, decomposable and smooth, and such a circuit is homogeneous,
    since every node's structural degree is the size of its scope.  So the
    reducer runs without a check of its own, and an invalid input raises
    what ``binarize`` raises."""
    from oracles import grow_nonsmooth_child

    rng = random.Random(7)
    for c, _ in small_corpus:
        for variant in (c, grow_nonsmooth_child(c, rng)):
            report = variant.validity()
            assert report.homogeneous == report.ok
            if report.ok:
                assert all(d == len(scope(variant, v)) for v, d in enumerate(variant.degrees))
    calls = []
    validity = Circuit.validity
    monkeypatch.setattr(Circuit, "validity", lambda self: calls.append(self) or validity(self))
    for c in (pt.build_hard_instance(3), small_corpus[0][0], small_corpus[0][1]):
        calls.clear()
        pt.treeify(c)
        assert calls == [c]
    lopsided = build_circuit(2, [Leaf(0), Leaf(1), Product((0, 1)), Sum((0, 2), (1.0, 1.0))], 3)
    squared = build_circuit(1, [Leaf(0), Leaf(0, True), Sum((0, 1), (0.5, 0.5)),
                                Product((2, 2))], 3)
    for c, why in ((lopsided, "node 3: children with different scopes"),
                   (squared, "node 3: children with overlapping scopes")):
        with pytest.raises(InvalidInput, match=rf"^binarize requires a decomposable, smooth "
                                               rf"circuit \({why}\)$"):
            pt.treeify(c)
