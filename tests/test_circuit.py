import math
import random

import pytest

import pctree as pt
from pctree import Circuit, Leaf, Product, Sum, build_circuit
from pctree.errors import (
    AssignmentLengthMismatch,
    BadWeights,
    CycleDetected,
    DanglingChild,
    EmptyProductNode,
    MultipleRoots,
)


def test_single_leaf_circuit():
    c = build_circuit(1, [Leaf(0)], 0)
    assert len(c.nodes) == 1
    s = c.stats()
    assert (s.num_nodes, s.num_edges, s.depth, s.is_tree) == (1, 0, 0, True)
    assert c.scope(0) == frozenset({0})
    assert c.degree(0) == 1


def test_self_loop_is_a_cycle():
    with pytest.raises(CycleDetected):
        build_circuit(1, [Leaf(0), Leaf(0), Sum((0, 1, 2), (1.0, 1.0, 1.0))], 2)


def test_mutual_cycle_detected():
    # 1 and 2 reference each other, so no node is parentless besides... none
    with pytest.raises(CycleDetected):
        build_circuit(1, [Leaf(0), Sum((0, 2), (1.0, 1.0)), Sum((1,), (1.0,)), Sum((1,), (1.0,))], 3)


def test_multiple_roots_rejected():
    with pytest.raises(MultipleRoots):
        build_circuit(1, [Leaf(0), Leaf(0)], 0)
    # a designated root that itself has a parent is just as broken
    with pytest.raises(MultipleRoots):
        build_circuit(1, [Leaf(0), Sum((0,), (1.0,))], 0)


def test_dangling_child_rejected():
    with pytest.raises(DanglingChild):
        build_circuit(1, [Leaf(0), Sum((0, 5), (1.0, 1.0))], 1)
    with pytest.raises(DanglingChild):
        build_circuit(1, [Leaf(3)], 0)  # variable out of range


def test_bad_weights_rejected():
    with pytest.raises(BadWeights):
        build_circuit(1, [Leaf(0), Sum((0,), (1.0, 2.0))], 1)  # arity mismatch
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(BadWeights, match="sum 1"):
            build_circuit(1, [Leaf(0), Sum((0,), (bad,))], 1)
    with pytest.raises(BadWeights):
        build_circuit(1, [Leaf(0), Leaf(0, True), Sum((0, 1), (0.0, 0.0))], 2)
    with pytest.raises(EmptyProductNode):
        build_circuit(1, [Product(())], 0)


def test_negative_weights_representable_but_not_monotone():
    # direct construction bypasses the builder's sign check on purpose
    c = Circuit(1, [Leaf(0), Leaf(0, True), Sum((0, 1), (2.0, -1.0))], 2)
    report = c.validity()
    assert not report.monotone
    assert report.witnesses["monotone"][0] == 2
    nan = Circuit(1, [Leaf(0), Sum((0,), (math.nan,))], 1).validity()
    assert not nan.monotone
    assert nan.witnesses["monotone"] == (1, "negative or NaN edge weight")


def test_hard_instance_builds_with_expected_node_count():
    assert len(pt.build_hard_instance(1).nodes) == 11


def test_scope_of_leaves_and_augmented_products():
    c = build_circuit(4, [Leaf(3, True)], 0)
    assert c.scope(0) == frozenset({3})
    hard = pt.build_hard_instance(1)
    first_product = next(v for v, node in enumerate(hard.nodes) if isinstance(node, Product)
                         and hard.degree(v) == 4 and 0 in hard.scope(v))
    assert hard.scope(first_product) == frozenset({0, 1, 2, 3})


def test_scope_recursion_and_full_scope_roots(small_corpus):
    for c, _ in small_corpus:
        assert c.scope(c.root) == frozenset(range(c.num_vars))
        assert c.degree(c.root) == c.num_vars
        for v, node in enumerate(c.nodes):
            if not isinstance(node, Leaf):
                union = frozenset().union(*(c.scope(ch) for ch in node.children))
                assert c.scope(v) == union


def test_structural_degree():
    two = build_circuit(2, [Leaf(0), Leaf(1), Product((0, 1))], 2)
    assert two.degree(0) == 1
    assert two.degree(2) == 2
    for k in (1, 2, 3):
        hard = pt.build_hard_instance(k)
        assert hard.degree(hard.root) == 4 ** k


def test_structural_degree_law(small_corpus):
    for c, _ in small_corpus:
        for v, node in enumerate(c.nodes):
            if isinstance(node, Product):
                assert c.degree(v) == sum(c.degree(ch) for ch in node.children)
            elif isinstance(node, Sum):
                degs = {c.degree(ch) for ch in node.children}
                assert degs == {c.degree(v)}


def test_evaluate_hard_instance_points():
    c = pt.build_hard_instance(1)
    assert c.evaluate(pt.boolean_assignment([1, 1, 0, 0])) == pytest.approx(1.0)
    assert c.evaluate(pt.marginal_assignment(4)) == pytest.approx(2.0)
    assert c.evaluate([0.0] * 8) == 0.0
    with pytest.raises(AssignmentLengthMismatch):
        c.evaluate([1.0] * 7)


def test_evaluate_affine_per_slot(small_corpus):
    # multilinearity: fixing all but one slot, evaluation is affine in it
    rng = random.Random(7)
    for c, _ in small_corpus[:6]:
        base = [rng.uniform(0.0, 2.0) for _ in range(2 * c.num_vars)]
        for s in range(2 * c.num_vars):
            vals = []
            for x in (0.0, 1.0, 2.0):
                point = list(base)
                point[s] = x
                vals.append(c.evaluate(point))
            assert math.isclose(vals[2] - vals[1], vals[1] - vals[0],
                                rel_tol=1e-9, abs_tol=1e-9)


def test_evaluate_matches_float_loop_exactly():
    from oracles import float_evaluate

    circuits = []
    for n in (8, 16, 32):
        for seed in range(3):
            circuits.append(pt.random_valid_pc(pt.GenParams(n=n, seed=seed, reuse_prob=0.5)))
    circuits += [pt.build_hard_instance(k) for k in (2, 3, 4)]
    circuits += [pt.treeify(c, normalize_output=True)[0] for c in circuits]
    # at the int point, x_i = 0 and ~x_i = -1 make these products -0.0,
    # which sum() totals to +0.0 over one child and over two
    neg_zero = [Leaf(0), Leaf(1, True), Leaf(2, True), Product((0, 1)), Product((0, 2))]
    circuits.append(build_circuit(3, neg_zero + [Sum((3, 4), (0.5, 0.5))], 5))
    circuits.append(build_circuit(2, neg_zero[:2] + [Product((0, 1)), Sum((2,), (1.0,))], 3))

    shapes = set()
    for c in circuits:
        for node in c.nodes:
            if not isinstance(node, Leaf):
                shapes.add((type(node).__name__, min(len(node.children), 3)))
    assert shapes >= {("Sum", 1), ("Sum", 2), ("Sum", 3), ("Product", 2), ("Product", 3)}
    assert circuits[11].stats().max_fanout == 130  # hard k=4

    rng = random.Random(11)
    for c in circuits:
        width = 2 * c.num_vars
        points = [[rng.uniform(-2.0, 2.0) for _ in range(width)] for _ in range(2)]
        points.append(pt.boolean_assignment([rng.randint(0, 1) for _ in range(c.num_vars)]))
        points.append([0, -1] * c.num_vars)  # Python ints
        for a in points:
            got, want = c.evaluate(a), float_evaluate(c, a)
            # equal to the last bit, the sign of a zero included
            assert got == want and repr(got) == repr(want)


def test_marginal_slots_sum_out_a_variable(small_corpus):
    # setting x and ~x both to one sums the polynomial over that variable
    rng = random.Random(1)
    for c, _ in small_corpus[:4]:
        bits = [rng.randint(0, 1) for _ in range(c.num_vars)]
        for var in range(c.num_vars):
            a = pt.boolean_assignment(bits)
            a[2 * var] = a[2 * var + 1] = 1.0
            total = 0.0
            for b in (0, 1):
                flipped = list(bits)
                flipped[var] = b
                total += c.evaluate(pt.boolean_assignment(flipped))
            assert math.isclose(c.evaluate(a), total, rel_tol=1e-9, abs_tol=1e-12)


def test_validity_of_hard_instance():
    report = pt.build_hard_instance(2).validity()
    assert report.decomposable and report.smooth
    assert report.homogeneous and report.monotone
    assert not report.normalized


def test_validity_witnesses():
    overlap = build_circuit(2, [Leaf(0), Leaf(0), Product((0, 1))], 2)
    report = overlap.validity()
    assert not report.decomposable
    assert report.witnesses["decomposable"][0] == 2

    mixed = build_circuit(2, [Leaf(0), Leaf(1), Product((0, 1)),
                              Sum((0, 2), (1.0, 1.0))], 3)
    report = mixed.validity()
    assert not report.smooth and not report.homogeneous
    assert "smooth" in report.witnesses and "homogeneous" in report.witnesses

    rep = pt.build_hard_instance(1).validity()
    for flag in ("decomposable", "smooth", "homogeneous", "normalized", "monotone"):
        assert (flag in rep.witnesses) == (not getattr(rep, flag))


def test_stats():
    hard = pt.build_hard_instance(2)
    s = hard.stats()
    assert s.num_nodes == 63 and s.depth == 4
    # diamond: two parents sharing one child is not a tree
    diamond = build_circuit(2, [
        Leaf(0), Leaf(1),
        Sum((0,), (0.5,)), Sum((0,), (0.25,)),
        Product((2, 1)), Product((3, 1)),
        Sum((4, 5), (1.0, 1.0)),
    ], 6)
    assert not diamond.stats().is_tree
    assert diamond.stats().max_fanout == 2


def test_smooth_iff_homogeneous_at_full_degree(small_corpus):
    from oracles import grow_nonsmooth_child

    rng = random.Random(3)
    for c, _ in small_corpus:
        rep = c.validity()
        assert rep.smooth == rep.homogeneous is True
        broken = grow_nonsmooth_child(c, rng)
        rep = broken.validity()
        assert rep.decomposable
        assert broken.degree(broken.root) == broken.num_vars
        assert rep.smooth == rep.homogeneous is False
