import math
import random

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
    ZeroWeightSum,
)

from oracles import chain_rule_table, frontier_triples, substitute_atom_derivative, table_hash


# -- binarize ---------------------------------------------------------------

def test_binarize_chains_wide_nodes():
    wide = build_circuit(1, [Leaf(0), Leaf(0, True), Leaf(0),
                             Sum((0, 1, 2), (0.2, 0.3, 0.5))], 3)
    out = pt.binarize(wide)
    assert len(out.nodes) == len(wide.nodes) + 4  # 2*(k-1) for k=3
    assert out.is_binary()
    assert pt.poly_equal(pt.extract_polynomial(wide), pt.extract_polynomial(out), 1e-9)


def test_binarize_alternates_intermediate_kinds():
    wide = build_circuit(4, [Leaf(0), Leaf(1), Leaf(2), Leaf(3),
                             Product((0, 1, 2, 3))], 4)
    out = pt.binarize(wide)
    for v in range(len(wide.nodes), len(out.nodes)):
        node = out.nodes[v]
        for ch in node.children:
            if ch >= len(wide.nodes):
                assert type(out.nodes[ch]) is not type(node)


def test_binarize_keeps_binary_circuits():
    c = pt.random_valid_pc(pt.GenParams(n=4, seed=0, max_fanout=2))
    assert pt.binarize(c) is c


def test_binarize_requires_validity():
    bad = build_circuit(2, [Leaf(0), Leaf(0, True), Leaf(1), Product((0, 1, 2))], 3)
    with pytest.raises(InvalidInput):
        pt.binarize(bad)


def test_binarize_bounds_and_polynomials(small_corpus):
    for c, b in small_corpus:
        assert b.is_binary()
        assert len(b.nodes) - len(c.nodes) <= 2 * c.stats().num_edges
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
    assert pt.partial_derivative(c, 0, 1).is_zero()
    with pytest.raises(DanglingChild):
        pt.partial_derivative(c, 0, 9)


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


def test_derivative_degree_and_variable_set(small_corpus):
    for c, b in small_corpus[:6]:
        polys = pt.node_polynomials(b)
        for w in range(len(b.nodes)):
            table = chain_rule_table(b, polys, w)
            for v, d in table.items():
                if d.is_zero():
                    continue
                assert d.is_homogeneous()
                assert d.degree == b.degree(v) - b.degree(w)
                assert d.variables() <= b.scope(v) - b.scope(w)


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
    with pytest.raises(NotBinary):
        pt.degree_frontier(wide, 1)


def test_frontier_nonempty_below_banded_nodes(small_corpus):
    for _, b in small_corpus:
        desc = b.descendant_masks
        for m in range(1, b.degree(b.root)):
            members = pt.degree_frontier(b, m).members
            for v in range(len(b.nodes)):
                if m < b.degree(v) <= 2 * m:
                    assert any(desc[v] >> t & 1 for t in members)


# -- frontier expansion identities ----------------------------------------------

def test_value_expansion_identity(small_corpus):
    for _, b in small_corpus[:6]:
        polys = pt.node_polynomials(b)
        tables = {}
        for m in range(1, b.degree(b.root)):
            front = frontier_triples(b, m)
            for v in range(len(b.nodes)):
                if not m < b.degree(v) <= 2 * m:
                    continue
                rhs = SparsePolynomial.zero(b.num_vars)
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
        desc = b.descendant_masks
        tables = {}

        def table(w):
            if w not in tables:
                tables[w] = chain_rule_table(b, polys, w)
            return tables[w]

        for v in range(len(b.nodes)):
            for w in range(len(b.nodes)):
                if v == w or not desc[v] >> w & 1 or deg[v] >= 2 * deg[w]:
                    continue
                lhs = table(w)[v]
                for m in range(deg[w], deg[v]):
                    rhs = SparsePolynomial.zero(b.num_vars)
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


def test_reduce_depth_preserves_polynomial_and_validity(small_corpus):
    for c, b in small_corpus:
        out = pt.reduce_depth(b)
        assert pt.poly_equal(pt.extract_polynomial(b), pt.extract_polynomial(out), 1e-9)
        report = out.validity()
        assert report.decomposable and report.smooth and report.homogeneous


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
    with pytest.raises(NotBinary):
        pt.reduce_depth(wide)
    lopsided = build_circuit(2, [Leaf(0), Leaf(1), Product((0, 1)),
                                 Sum((0, 2), (1.0, 1.0))], 3)
    with pytest.raises(NotHomogeneous):
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


def test_reduce_depth_deterministic():
    c = pt.binarize(pt.random_valid_pc(pt.GenParams(n=8, seed=1, reuse_prob=0.4)))
    a = pt.reduce_depth(c)
    b = pt.reduce_depth(c)
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


def test_duplicate_budget():
    c = pt.random_valid_pc(pt.GenParams(n=8, seed=3, reuse_prob=0.6))
    with pytest.raises(SizeBudgetExceeded):
        pt.duplicate_to_tree(c, node_budget=10)


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
    # heavy fan-in products: binarize stretches depth to 68 before the
    # reducer pulls it back under the logarithmic bound
    c = pt.build_hard_instance(3)
    tree, report = pt.treeify(c)
    assert tree.stats().is_tree
    reduced = report.stages[2]
    assert reduced.stage == "reduce_depth"
    assert reduced.depth <= 2 * 6 + 1  # root degree 64
    assert pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(tree), 1e-9)


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


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_treeify_depth_bound(n):
    c = pt.random_valid_pc(pt.GenParams(n=n, seed=0, reuse_prob=0.35))
    tree, _ = pt.treeify(c)
    assert tree.stats().is_tree
    assert tree.stats().depth <= 2 * (n - 1).bit_length() + 1


GOLDEN_HASHES = {  # input: (reduce_depth output, treeify output before normalizing)
    "dag-16": ("787d32d0bb0387bcaa90ce1d74b2a9e226b3b931f8fe6d99ccf73c4a3776c349",
               "6b349a142252917ff803cfb84ec01ed95b6ee80a72430feeb6d5e3e021963670"),
    "dag-32": ("6044319e012182ec1895829cce01750a221923746c36e5c01b580b0ef885a518",
               "9dfe40e94c083b31c6b5879e1a9460e82c0c397cdc9cbe0123466aec2cb57d9c"),
    "hard-3": ("61438fac4ca2535c1f1f81d79166c77626762624e721c40333ff7ac43712f532",
               "0c350ae938428aae10b5ec4b62cc67b165b3099d653f6193e3ceb820fb33c10e"),
    "hard-4": ("43fa81fc53dfb4f82dc6dca254673933db8a7e3b9e45da1ca2ddd35c0aa1922e",
               "793df2c1f6097ded608e86ab082c681c9f6426f28152ac8e63f50d78766948e4"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
def test_treeify_output_is_node_for_node_pinned(name):
    """Pins the exact node tables of the reduced circuit and of its tree
    copy, so performance work on the pipeline must keep its output
    identical.  The tree alone would not do: it is a depth-first copy,
    blind to the order in which the reducer builds its gates.  The
    normalized tree is not pinned, because ``normalize`` totals weights
    with the builtin ``sum``, whose float rounding changed in Python 3.12.
    A deliberate change of output, such as interning structurally equal
    gates in the depth reducer's arena (the hash-consed arena item on the
    ROADMAP), changes these hashes and must update them."""
    kind, size = name.split("-")
    if kind == "dag":
        c = pt.random_valid_pc(pt.GenParams(n=int(size), seed=1, reuse_prob=0.5))
    else:
        c = pt.build_hard_instance(int(size))
    reduced = pt.reduce_depth(pt.binarize(c))
    tree = pt.duplicate_to_tree(reduced)
    assert (table_hash(reduced), table_hash(tree)) == GOLDEN_HASHES[name]


def test_report_serialization():
    c = pt.build_hard_instance(1)
    _, report = pt.treeify(c)
    text = report.to_text()
    assert "input.nodes=11" in text and "duplicate.depth=" in text
    csv = report.to_csv().splitlines()
    assert csv[0] == "stage,nodes,edges,depth"
    assert csv[1].startswith("input,11,10,2")
    assert len(csv) == 1 + len(report.stages)
