from collections import Counter

import pytest

import pctree as pt
from pctree import SparsePolynomial, build_circuit
from pctree.circuit import Leaf, Product, Sum
from pctree.errors import EmptyProductNode, KTooLarge


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hard_instance_shape(k):
    n = 4 ** k
    c = pt.build_hard_instance(k)
    s = c.stats()
    assert s.num_nodes == 2 * n - 1 + k * n
    assert s.depth == 2 * k
    assert s.is_tree
    report = c.validity()
    assert report.decomposable and report.smooth
    assert report.homogeneous and report.monotone


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hard_instance_polynomial(k):
    p = pt.extract_polynomial(pt.build_hard_instance(k))
    assert len(p.terms) == 2 ** (2 ** k - 1)
    assert p.degree == 4 ** k and p.is_homogeneous()
    assert all(coeff == 1.0 for coeff in p.terms.values())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_negation_leaves_appear_exactly_k_times(k):
    c = pt.build_hard_instance(k)
    counts = Counter(node.var for node in c.nodes
                     if isinstance(node, Leaf) and node.negated)
    assert set(counts) == set(range(4 ** k))
    assert set(counts.values()) == {k}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hard_instance_negation_placement(k):
    # negation leaves hang only off products, and never make up all of a
    # product's children
    c = pt.build_hard_instance(k)
    negs = {v for v, node in enumerate(c.nodes)
            if isinstance(node, Leaf) and node.negated}
    for node in c.nodes:
        if isinstance(node, Sum):
            assert not negs.intersection(node.children)
        elif isinstance(node, Product):
            assert not negs.issuperset(node.children)


def test_hard_instance_layout():
    c = pt.build_hard_instance(2)
    assert c.num_vars == 16

    # layer 0 holds the positive leaves; layer L >= 1 holds products (odd
    # L) or sums (even L) of degree 4**ceil(L/2)
    def kind(node):
        return "negation" if isinstance(node, Leaf) and node.negated else type(node).__name__

    widths = Counter((kind(node), c.degrees[v]) for v, node in enumerate(c.nodes))
    layers = [("Leaf", 1)] + [("Product" if layer % 2 else "Sum", 4 ** ((layer + 1) // 2))
                              for layer in range(1, 5)]
    assert [widths[cls] for cls in layers] == [16, 8, 4, 2, 1]
    assert (kind(c.nodes[c.root]), c.degrees[c.root]) == layers[4]
    first = c.nodes[next(v for v, node in enumerate(c.nodes) if isinstance(node, Product)
                         and c.degrees[v] == 4 and 0 in c.scope(v))]
    assert {(c.nodes[ch].var, c.nodes[ch].negated) for ch in first.children} == \
        {(0, False), (1, False), (2, True), (3, True)}


def test_hard_instance_upper_boundary():
    c = pt.build_hard_instance(4)
    s = c.stats()
    assert s.num_nodes == 2 * 256 - 1 + 4 * 256
    assert s.depth == 8
    assert c.validity().ok
    assert pt.poly_equal(pt.extract_polynomial(pt.strip_negations(c)),
                         pt.pairing_polynomial(4), 0.0)


def test_hard_instance_range():
    with pytest.raises(ValueError):
        pt.build_hard_instance(0)
    with pytest.raises(KTooLarge):
        pt.build_hard_instance(5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_strip_negations_yields_pairing_polynomial(k):
    c = pt.build_hard_instance(k)
    stripped = pt.strip_negations(c)
    assert len(c.nodes) - len(stripped.nodes) == k * 4 ** k
    assert stripped.stats().depth == c.stats().depth
    assert pt.poly_equal(pt.extract_polynomial(stripped), pt.pairing_polynomial(k), 0.0)


def test_strip_negations_without_negations_is_identity():
    c = build_circuit(2, [Leaf(0), Leaf(1), Product((0, 1))], 2)
    assert pt.strip_negations(c) is c


def test_strip_negations_renumbers_a_parent_first_table():
    # the root and a sum are listed before their kept children, with
    # negation leaves between them
    nodes = [
        Product((2, 1, 5)),
        Leaf(1, True),
        Sum((6, 3, 4), (0.25, 0.5, 0.75)),
        Leaf(0, True),
        Leaf(0),
        Leaf(1),
        Product((4,)),
    ]
    stripped = pt.strip_negations(build_circuit(2, nodes, 0))
    assert stripped.nodes == (Product((1, 3)), Sum((4, 2), (0.25, 0.75)),
                              Leaf(0), Leaf(1), Product((2,)))
    assert stripped.root == 0
    x0_x1 = SparsePolynomial(2, {1 << 0 | 1 << 2: 1.0})
    assert pt.poly_equal(pt.extract_polynomial(stripped), x0_x1, 0.0)


def test_strip_negations_rejects_emptied_nodes():
    all_neg = build_circuit(2, [Leaf(0, True), Leaf(1, True), Product((0, 1))], 2)
    with pytest.raises(EmptyProductNode, match="product 2 "):
        pt.strip_negations(all_neg)
    mixed = build_circuit(1, [Leaf(0, True), Leaf(0), Sum((0, 1), (0.25, 0.75))], 2)
    stripped = pt.strip_negations(mixed)
    assert stripped.nodes == (Leaf(0), Sum((0,), (0.75,)))
    assert stripped.root == 1
    lone = build_circuit(1, [Leaf(0, True)], 0)
    with pytest.raises(EmptyProductNode):
        pt.strip_negations(lone)


def test_generator_smallest_case_is_a_tree():
    c = pt.random_valid_pc(pt.GenParams(n=2, seed=0, reuse_prob=0.0))
    assert c.stats().is_tree
    report = c.validity()
    assert report.decomposable and report.smooth
    assert report.homogeneous and report.monotone


def test_generator_reuse_produces_a_dag():
    c = pt.random_valid_pc(pt.GenParams(n=8, seed=7, reuse_prob=0.5))
    assert not c.stats().is_tree
    report = c.validity()
    assert report.decomposable and report.smooth
    assert report.homogeneous and report.monotone


def test_generator_determinism_and_root_degree(small_corpus):
    for c, _ in small_corpus:
        assert c.degrees[c.root] == c.num_vars
    params = pt.GenParams(n=6, seed=42, reuse_prob=0.4)
    a = pt.random_valid_pc(params)
    b = pt.random_valid_pc(params)
    assert a.nodes == b.nodes and a.root == b.root


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        pt.GenParams(n=1)
    with pytest.raises(ValueError):
        pt.GenParams(n=4, reuse_prob=1.5)
    with pytest.raises(ValueError):
        pt.GenParams(n=4, max_fanout=1)
    # sizes that are not ints, bools included, fail here, not inside the generator
    for bad in (4.5, True, 4.0):
        with pytest.raises(ValueError, match="^n must be an integer >= 2"):
            pt.GenParams(n=bad)
        with pytest.raises(ValueError, match="^max_fanout must be an integer >= 2"):
            pt.GenParams(n=4, max_fanout=bad)
    with pytest.raises(ValueError, match="^k must be an integer >= 1"):
        pt.build_hard_instance(2.5)
