import dataclasses
import enum
import math
import random
import re

import pytest

import pctree as pt
from pctree import Circuit, Leaf, Product, Sum, build_circuit
from pctree.errors import (
    AssignmentLengthMismatch,
    BadWeights,
    CycleDetected,
    DanglingChild,
    EmptyProductNode,
    InvalidNode,
    MultipleRoots,
)

from oracles import scope


def test_single_leaf_circuit():
    c = build_circuit(1, [Leaf(0)], 0)
    assert len(c.nodes) == 1
    s = c.stats()
    assert (s.num_nodes, s.num_edges, s.depth, s.is_tree) == (1, 0, 0, True)
    assert scope(c, 0) == frozenset({0})
    assert c.degrees[0] == 1


def test_every_node_kind_has_children():
    # a leaf's empty children are a class constant, not a field, so
    # equality, hashing and the document format see only var and negated
    assert Leaf(0).children == () and Leaf(3, True).children == ()
    assert [f.name for f in dataclasses.fields(Leaf)] == ["var", "negated"]
    assert Leaf(1, True) == Leaf(1, True) and hash(Leaf(1, True)) == hash(Leaf(1, True))


def test_adopting_constructors_make_the_same_frozen_nodes():
    """``Sum._of`` sets the slots directly, but its nodes equal, hash like
    and are as frozen as constructor-made ones."""
    adopted, made = Sum._of((0, 1), (0.25, 0.75)), Sum([0, 1], [0.25, 0.75])
    assert adopted == made and hash(adopted) == hash(made) and repr(adopted) == repr(made)
    assert type(adopted) is type(made)
    assert dataclasses.fields(adopted) == dataclasses.fields(made)
    for f in dataclasses.fields(made):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(adopted, f.name, ())
    assert adopted == made
    assert Sum._of((0,), (1.0,)) != Product((0,))


def test_nodes_refuse_every_name_set_or_deleted():
    """Setting or deleting a field or any other name is a
    FrozenInstanceError, not the TypeError of frozen slots classes on 3.11."""
    for node in (Leaf(0), Sum((0,), (1.0,)), Sum._of((0,), (1.0,)), Product((0,))):
        for name in ("children", "foo"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(node, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(node, name)
    assert Sum((0,), (1.0,)).children == (0,)


def test_product_keeps_a_tuple_of_children_as_it_is():
    kids = (2, 3)
    assert Product(kids).children is kids
    assert Product([2, 3]).children == kids


def test_node_ids_must_be_ints():
    """A child or root id that is not a plain int, bools and other int
    subclasses included, is an :class:`InvalidNode` naming the node, not a
    bare ``TypeError``; a bool would be written as ``false``, which the
    reader rejects."""
    for bad in (0.0, "0", None, False, 1.5, math.nan, 1e300):
        with pytest.raises(InvalidNode, match=f"^node 2: child id {re.escape(repr(bad))} is not an int$"):
            Circuit(1, [Leaf(0), Leaf(0, True), Product((0, bad))], 2)
    for bad in (2.0, True, "2"):
        with pytest.raises(InvalidNode, match="^root id .* is not an int$"):
            Circuit(1, [Leaf(0), Leaf(0, True), Product((0, 1))], bad)
    # an out-of-range int is still a dangling child; an int subclass is no id
    with pytest.raises(DanglingChild, match="^node 1: child 2 out of range$"):
        Circuit(1, [Leaf(0), Product((0, 2))], 1)
    a = enum.IntEnum("Id", "A", start=0).A
    with pytest.raises(InvalidNode, match=f"^node 1: child id {re.escape(repr(a))} is not an int$"):
        Circuit(1, [Leaf(0), Product((a,))], 1)
    with pytest.raises(InvalidNode, match="^root id .* is not an int$"):
        Circuit(1, [Leaf(0)], a)
    with pytest.raises(InvalidNode, match="^leaf 0: var must be an int and negated a bool$"):
        Circuit(1, [Leaf(a)], 0)
    with pytest.raises(ValueError, match="^num_vars must be an integer >= 1"):
        Circuit(enum.IntEnum("Size", "ONE").ONE, [Leaf(0)], 0)


def test_sizes_must_be_ints():
    """A size that is not a plain int, bools included, is a ValueError up front,
    not a TypeError from deep inside evaluation or generation."""
    for bad in (2.5, True, 1.0, "2"):
        with pytest.raises(ValueError, match="^num_vars must be an integer >= 1"):
            Circuit(bad, [Leaf(0)], 0)


def test_table_entries_must_be_nodes():
    for bad in ((0,), None, 0, [Leaf(0)]):
        with pytest.raises(InvalidNode, match="^table entry 1 is a "):
            Circuit(1, [Leaf(0), bad], 1)
    # a leaf's slot is 2 * var + negated: Leaf(0, 2) would read x_1's slot
    for bad in (Leaf(0.0), Leaf(True), Leaf(0, 2), Leaf(0, 1), Leaf(0, None)):
        with pytest.raises(InvalidNode, match="^leaf 0: var must be an int and negated a bool$"):
            Circuit(2, [bad], 0)


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
    for root in (-1, 1):
        with pytest.raises(DanglingChild, match="root id"):
            build_circuit(1, [Leaf(0)], root)
    with pytest.raises(ValueError, match="num_vars"):
        build_circuit(0, [Leaf(0)], 0)
    with pytest.raises(ValueError, match="non-empty"):
        build_circuit(1, [], 0)


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
    with pytest.raises(BadWeights, match="sum 1 has no children"):
        build_circuit(1, [Leaf(0), Sum((), ()), Product((0, 1))], 2)


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
    assert scope(c, 0) == frozenset({3})
    hard = pt.build_hard_instance(1)
    first_product = next(v for v, node in enumerate(hard.nodes) if isinstance(node, Product)
                         and hard.degrees[v] == 4 and 0 in scope(hard, v))
    assert scope(hard, first_product) == frozenset({0, 1, 2, 3})


def test_scope_recursion_and_full_scope_roots(small_corpus):
    for c, _ in small_corpus:
        assert scope(c, c.root) == frozenset(range(c.num_vars))
        assert c.degrees[c.root] == c.num_vars
        for v, node in enumerate(c.nodes):
            if not isinstance(node, Leaf):
                union = frozenset().union(*(scope(c, ch) for ch in node.children))
                assert scope(c, v) == union


def test_structural_degree():
    two = build_circuit(2, [Leaf(0), Leaf(1), Product((0, 1))], 2)
    assert two.degrees[0] == 1
    assert two.degrees[2] == 2
    for k in (1, 2, 3):
        hard = pt.build_hard_instance(k)
        assert hard.degrees[hard.root] == 4 ** k


def test_structural_degree_law(small_corpus):
    for c, _ in small_corpus:
        for v, node in enumerate(c.nodes):
            if isinstance(node, Product):
                assert c.degrees[v] == sum(c.degrees[ch] for ch in node.children)
            elif isinstance(node, Sum):
                degs = {c.degrees[ch] for ch in node.children}
                assert degs == {c.degrees[v]}


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
    # twin sums whose weights differ only in the sign of a zero share one
    # plan step; at negative points their zero terms differ in sign
    twins = [Leaf(0), Leaf(1), Leaf(2), Sum((0, 1), (0.0, 0.5)), Sum((0, 1), (-0.0, 0.5)),
             Sum((0, 1, 2), (0.25, -0.0, 0.5)), Sum((0, 1, 2), (0.25, 0.0, 0.5))]
    circuits.append(build_circuit(3, twins + [Product((3, 4, 5, 6))], 7))
    assert circuits[-1]._evaluation_plan[1] == 3
    # n-ary sums: twins of four children that differ in the sign of a zero
    # weight, and one of five children
    wide = [Leaf(0), Leaf(1, True), Leaf(2), Leaf(3, True), Leaf(4),
            Sum((0, 1, 2, 3), (0.25, -0.0, 0.5, 0.125)), Sum((0, 1, 2, 3), (0.25, 0.0, 0.5, 0.125)),
            Sum((0, 1, 2, 3, 4), (0.5, 0.25, 0.125, 0.0625, 0.0625))]
    circuits.append(build_circuit(5, wide + [Product((5, 6, 7))], 8))
    assert circuits[-1]._evaluation_plan[1] == 3
    # one leaf reading slot 2 of 6: the root is not the last value
    circuits.append(build_circuit(3, [Leaf(1)], 0))
    # every copy duplicate_to_tree makes of a node keys to the same step
    dag = pt.random_valid_pc(pt.GenParams(n=6, seed=0, reuse_prob=0.5))
    reduced = pt.reduce_depth(pt.binarize(dag))
    assert len(set(reduced.nodes)) == len(reduced.nodes)  # no equal nodes
    circuits.append(pt.duplicate_to_tree(reduced))
    assert len(circuits[-1].nodes) > 2 * len(reduced.nodes)
    internal = sum(not isinstance(node, Leaf) for node in reduced.nodes)
    assert circuits[-1]._evaluation_plan[1] <= internal

    shapes = set()
    for c in circuits:
        for node in c.nodes:
            if not isinstance(node, Leaf):
                shapes.add((type(node).__name__, min(len(node.children), 4)))
    assert shapes >= {("Sum", 1), ("Sum", 2), ("Sum", 3), ("Sum", 4),
                      ("Product", 2), ("Product", 3), ("Product", 4)}
    assert circuits[11].stats().max_fanout == 130  # hard k=4

    rng = random.Random(11)
    by_id_count = 0
    for c in circuits:
        width = 2 * c.num_vars
        points = [[rng.uniform(-2.0, 2.0) for _ in range(width)] for _ in range(2)]
        points.append(pt.boolean_assignment([rng.randint(0, 1) for _ in range(c.num_vars)]))
        points.append([0, -1] * c.num_vars)  # Python ints
        for a in points:
            got, want = c.evaluate(a), float_evaluate(c, a)
            # equal to the last bit, the sign of a zero included
            assert got == want and repr(got) == repr(want)
        negative = [-rng.uniform(0.5, 2.0) for _ in range(width)]
        assert repr(c.evaluate(negative)) == repr(float_evaluate(c, negative))
        points.append(negative)
        # the plan does not depend on topo_order: id order plans the same steps
        if all(ch < v for v, node in enumerate(c.nodes) for ch in node.children):
            by_id = Circuit(c.num_vars, c.nodes, c.root)
            by_id.topo_order = tuple(range(len(c.nodes)))
            by_id_count += 1
            assert by_id._evaluation_plan[1] == c._evaluation_plan[1]
            assert [repr(by_id.evaluate(a)) for a in points] == [repr(c.evaluate(a)) for a in points]
    assert by_id_count == len(circuits) - 3  # all but the hard inputs, which list parents first


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
        assert broken.degrees[broken.root] == broken.num_vars
        assert rep.smooth == rep.homogeneous is False


def _flag_breakers() -> list[Circuit]:
    """Circuits that break every validity flag, most at several nodes,
    through sums and products of two and of three children."""
    nan = float("nan")
    leaves = [Leaf(0), Leaf(1), Leaf(2), Leaf(0, True)]
    many = Circuit(3, leaves + [
        Product((0, 1, 2)),                     # 4: fine
        Product((0, 1, 3)),                     # 5: x0 twice
        Product((1, 3)),                        # 6: fine
        Product((3, 0)),                        # 7: x0 twice
        Sum((4, 5, 7), (0.5, 0.25, -0.25)),     # 8: every sum flag fails
        Sum((6, 7), (nan, 1.0)),                # 9: NaN weight, scopes differ
        Sum((1, 2), (0.5, 0.5)),                # 10: scopes differ, degrees agree
        Product((0, 0)),                        # 11: x0 twice
        Sum((0, 11), (0.5, 0.5)),               # 12: smooth, degrees differ
        Sum((8, 9, 10, 12), (1.0, 1.0, 1.0, 1.0)),
    ], 13)
    # the same nodes listed in another order, so other ids come first
    perm = list(range(len(many.nodes)))
    random.Random(5).shuffle(perm)
    new_id = {old: new for new, old in enumerate(perm)}
    table = [None] * len(perm)
    for old, node in enumerate(many.nodes):
        if not isinstance(node, Leaf):
            kids = tuple(new_id[ch] for ch in node.children)
            node = Sum(kids, node.weights) if isinstance(node, Sum) else Product(kids)
        table[new_id[old]] = node
    shuffled = Circuit(3, table, new_id[many.root])
    wide = Circuit(2, [Leaf(0), Leaf(1), Leaf(0, True), Leaf(1, True),
                       Product((0, 1, 2, 3)), Sum((0, 2, 1), (0.2, 0.3, 0.5)),
                       Product((4, 5)), Sum((6, 6, 4), (2.0, 0.0, -0.0))], 7)
    return [many, shuffled, wide]


def test_analyses_match_reference_loops():
    from oracles import (layered_dag, reference_scopes_and_degrees, reference_stats,
                         reference_topo_order, reference_validity)
    from pctree.transforms import StageMetrics, stage_metrics

    inputs = [pt.random_valid_pc(pt.GenParams(n=n, seed=seed, reuse_prob=reuse))
              for n in (4, 9, 16) for seed in (1, 2) for reuse in (0.0, 0.5, 0.9)]
    inputs += [pt.build_hard_instance(k) for k in (1, 2, 3, 4)] + [layered_dag(6, 4, 1)]
    inputs += [pt.treeify(c)[0] for c in inputs]
    inputs += _flag_breakers()
    failed = set()
    for c in inputs:
        assert c.topo_order == reference_topo_order(c.num_vars, c.nodes, c.root)
        report = c.validity()
        assert report == reference_validity(c)  # flags, witness nodes and texts
        failed.update(report.witnesses)
        s = c.stats()
        assert s == reference_stats(c)
        assert stage_metrics("x", c) == StageMetrics("x", s.num_nodes, s.num_edges, s.depth)
        assert list(c.degrees) == reference_scopes_and_degrees(c)[1]
    assert failed == {"decomposable", "smooth", "homogeneous", "normalized", "monotone"}


def test_construction_errors_match_reference():
    from oracles import reference_topo_order

    one = (1.0,)
    tables = [
        (1, [Leaf(0)], 1),                                          # root out of range
        (2, [Leaf(2)], 0),                                          # variable out of range
        (1, [Leaf(0), Sum((0,), (1.0, 2.0))], 1),                   # weight arity
        (1, [Leaf(0), Sum((), ()), Sum((0, 1), (1.0, 1.0))], 2),    # childless sum
        (1, [Leaf(0), Product(()), Product((0, 1))], 2),            # childless product
        (1, [Leaf(0), Sum((0, 2), (1.0, 1.0))], 1),                 # child past the end
        (1, [Leaf(0), Product((0, -1))], 1),                        # negative child
        (1, [Leaf(0), Leaf(0), Product((-1, 0, 1))], 2),            # ... among three
        (1, [Leaf(0), Sum((0, 1), (1.0, 1.0)), Sum((1,), one)], 2),  # two-child self-loop
        (1, [Leaf(0), Leaf(0), Sum((0, 1, 2), (1.0,) * 3)], 2),     # self-loop at the root
        (1, [Leaf(0), Leaf(0)], 0),                                 # two parentless nodes
        (1, [Leaf(0), Sum((0,), one)], 0),                          # the root has a parent
        (1, [Leaf(0), Sum((0, 2), (1.0, 1.0)), Sum((1,), one)], 2),  # every node has a parent
        (1, [Leaf(0), Sum((0, 2), (1.0, 1.0)), Sum((1,), one), Sum((1,), one)], 3),  # a cycle below
    ]
    for num_vars, nodes, root in tables:
        with pytest.raises(pt.errors.PCError) as expected:
            reference_topo_order(num_vars, nodes, root)
        with pytest.raises(type(expected.value)) as got:
            Circuit(num_vars, nodes, root)
        assert str(got.value) == str(expected.value)
