import math
import random
import tracemalloc

import pytest

import pctree as pt
from pctree import SparsePolynomial, build_circuit
from pctree.circuit import Leaf, Product, Sum
from pctree.errors import (
    AssignmentLengthMismatch,
    KTooLarge,
    NonFiniteValue,
    NotMultilinear,
    TermBudgetExceeded,
    VarCountMismatch,
)
from pctree.poly import slot

from oracles import chain_dag, left_fold_polynomials, mobius_terms


def mono(*indicators):
    """Monomial bitmask from (var, negated) pairs."""
    m = 0
    for var, negated in indicators:
        m |= 1 << slot(var, negated)
    return m


def test_basic_arithmetic():
    x0 = SparsePolynomial(2, {mono((0, False)): 1.0})
    x1 = SparsePolynomial(2, {mono((1, False)): 1.0})
    p = x0.add(x1, 2.0)
    assert p.terms == {mono((0, False)): 1.0, mono((1, False)): 2.0}
    q = p.mul(SparsePolynomial(2, {0: 3.0}))
    assert q.terms == {mono((0, False)): 3.0, mono((1, False)): 6.0}
    assert not p.add(p.scaled(-1.0)).terms
    with pytest.raises(NotMultilinear):
        x0.mul(x0)
    # a product or scaling whose only term underflows is the zero polynomial
    tiny = SparsePolynomial(2, {0: 1e-200})
    assert not tiny.mul(tiny).terms
    assert not tiny.scaled(1e-200).terms
    # the factors share a slot only through x1: (x0 + x1) * (x2 + x1)
    y0, y1, y2 = (SparsePolynomial(3, {mono((v, False)): 1.0}) for v in range(3))
    with pytest.raises(NotMultilinear):
        y0.add(y1).mul(y2.add(y1))


def test_structure_queries():
    p = SparsePolynomial(2, {mono((0, False), (1, True)): 2.0, mono((0, True)): 1.0})
    assert p.degree == 2
    assert not p.is_homogeneous()
    assert p.variables() == frozenset({0, 1})
    assert SparsePolynomial(2).degree == -1
    assert SparsePolynomial(2, {0: 5.0}).degree == 0
    # zero coefficients are never stored
    assert SparsePolynomial(1, {0: 0.0}).terms == {}


def test_extract_single_leaf():
    c = build_circuit(3, [Leaf(2, True)], 0)
    assert pt.extract_polynomial(c).terms == {mono((2, True)): 1.0}


def test_extract_hard_instance():
    p = pt.extract_polynomial(pt.build_hard_instance(1))
    assert p.terms == {
        mono((0, False), (1, False), (2, True), (3, True)): 1.0,
        mono((2, False), (3, False), (0, True), (1, True)): 1.0,
    }
    stripped = pt.extract_polynomial(pt.strip_negations(pt.build_hard_instance(1)))
    assert stripped.terms == {
        mono((0, False), (1, False)): 1.0,
        mono((2, False), (3, False)): 1.0,
    }


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 5), (3, 1), (3, 5), (4, 2), (4, 9)])
def test_extract_matches_evaluation_inversion(n, seed):
    c = pt.random_valid_pc(pt.GenParams(n=n, seed=seed, reuse_prob=0.3))
    got = pt.extract_polynomial(c).terms
    expected = mobius_terms(c)
    assert got.keys() == expected.keys()
    for m, coeff in expected.items():
        assert math.isclose(got[m], float(coeff), rel_tol=1e-9)


def test_extract_multilinear_shape(small_corpus):
    for c, _ in small_corpus:
        for m in pt.extract_polynomial(c).terms:
            for var in range(c.num_vars):
                both = (m >> slot(var, False) & 1) and (m >> slot(var, True) & 1)
                assert not both


def test_extract_then_evaluate_consistency(small_corpus):
    rng = random.Random(11)
    for c, _ in small_corpus[:6]:
        p = pt.extract_polynomial(c)
        for _ in range(5):
            a = [rng.uniform(0.0, 3.0) for _ in range(2 * c.num_vars)]
            assert math.isclose(p.evaluate(a), c.evaluate(a), rel_tol=1e-9)
        with pytest.raises(AssignmentLengthMismatch):
            p.evaluate([1.0] * (2 * c.num_vars - 1))


def test_product_fold_matches_the_left_fold_bit_for_bit():
    circuits = [pt.build_hard_instance(k) for k in (1, 2, 3)]
    circuits += [pt.random_valid_pc(pt.GenParams(n=n, seed=seed, reuse_prob=0.5))
                 for n, seed in ((4, 0), (6, 1), (8, 2))]
    # one product over unit leaves (0, 1), single-monomial children of
    # weight 0.3, 0.5 and 0.1 (8, 3, 13) and multi-term mixtures (6, 11):
    # multiplying the single-monomial weights first changes 3 of the 4
    # coefficients in the last bit
    circuits.append(build_circuit(7, [
        Leaf(0), Leaf(1, True), Leaf(2), Sum((2,), (0.5,)), Leaf(3), Leaf(3, True),
        Sum((4, 5), (0.3, 0.7)), Leaf(4), Sum((7,), (0.3,)), Leaf(5), Leaf(5, True),
        Sum((9, 10), (0.6, 0.4)), Leaf(6), Sum((12,), (0.1,)),
        Product((6, 0, 8, 3, 1, 11, 13))], 14))
    circuits += [pt.treeify(c)[0] for c in circuits]
    for c in circuits:
        got = [p.terms for p in pt.node_polynomials(c)]
        assert got == [p.terms for p in left_fold_polynomials(c)]
    hard4 = pt.extract_polynomial(pt.build_hard_instance(4))
    assert len(hard4.terms) == 2 ** 15
    assert {m.bit_count() for m in hard4.terms} == {256}


def hex_terms(p):
    return [(m, x.hex()) for m, x in p.terms.items()]


def test_extract_polynomial_matches_the_keeping_walk_bit_for_bit():
    circuits = [pt.build_hard_instance(k) for k in (1, 2, 3, 4)]
    for n in (8, 12, 16):
        c = pt.random_valid_pc(pt.GenParams(n=n, seed=1, reuse_prob=0.5))
        b = pt.binarize(c)
        r = pt.reduce_depth(b)
        circuits += [c, b, r, pt.duplicate_to_tree(r)]
    for c in circuits:
        assert hex_terms(pt.extract_polynomial(c)) == hex_terms(pt.node_polynomials(c)[c.root])


def test_extract_polynomial_never_sums_into_a_polynomial_still_held():
    x, nx = Leaf(0), Leaf(0, True)
    circuits = [
        # the one-child product 3 holds node 2's own polynomial and is the
        # first child of sum 5; node 2 has another parent, sum 6
        build_circuit(1, [x, nx, Sum((0, 1), (0.3, 0.7)), Product((2,)),
                          Sum((0, 1), (0.6, 0.4)), Sum((3, 4), (0.25, 0.75)),
                          Sum((2,), (2.0,)), Sum((5, 6), (0.5, 0.5))], 7),
        build_circuit(1, [x, nx, Sum((0, 1), (0.3, 0.7)), Product((2,)),
                          Sum((0, 1), (0.6, 0.4)), Sum((3, 4), (0.25, 0.75)),
                          Sum((2,), (2.0,)), Sum((6, 5), (0.5, 0.5))], 7),
        # node 2 is sum 4's first child on its last use while the product
        # over it, node 3, still holds its polynomial
        build_circuit(1, [x, nx, Sum((0, 1), (0.3, 0.7)), Product((2,)),
                          Sum((2, 0), (0.25, 0.75)), Sum((4, 3), (0.5, 0.5))], 5),
        # a sum that lists the same child twice
        build_circuit(1, [x, nx, Sum((0, 1), (0.3, 0.7)), Sum((2, 2), (0.25, 0.5))], 3),
    ]
    for c in circuits:
        want = left_fold_polynomials(c)[c.root]
        assert hex_terms(pt.extract_polynomial(c)) == hex_terms(want)
        assert hex_terms(pt.node_polynomials(c)[c.root]) == hex_terms(want)


def test_extract_polynomial_multiplies_lone_products_into_their_sums_bit_for_bit(monkeypatch):
    # a lone product has one parent edge, from a sum, which multiplies the
    # product's last two factors straight into its own terms
    x0, nx0, x1, nx1, x2, nx2 = (Leaf(v, neg) for v in range(3) for neg in (False, True))
    mix0, mix1 = Sum((0, 1), (0.3, 0.7)), Sum((2, 3), (0.6, 0.4))
    tiny0, tiny1 = Sum((0, 1), (1e-200, 0.5)), Sum((2, 3), (1e-200, 0.5))
    hazard = build_circuit(2, [x0, nx0, x1, nx1, mix0, mix1, Product((4, 5)),
                               Sum((6,), (0.5,)), Sum((7,), (1.0,)), Sum((4,), (2.0,)),
                               Product((9, 5)), Sum((8, 10), (0.25, 0.75))], 11)
    # the walk meets product 6, then sum 9, whose first child is product 6's
    # first factor, node 4, then product 6's parent, sum 7
    order = hazard.topo_order
    assert order.index(6) < order.index(9) < order.index(7)
    circuits = [
        # every factor a unit leaf
        build_circuit(2, [x0, x1, Product((0, 1)), Sum((2,), (0.5,))], 3),
        # one factor that is not a unit leaf
        build_circuit(2, [x0, nx0, x1, mix0, Product((2, 3)), Sum((4,), (0.5,))], 5),
        hazard,
        # a sum that lists the product twice
        build_circuit(2, [x0, nx0, x1, nx1, mix0, mix1, Product((4, 5)),
                          Sum((6, 6), (0.25, 0.5))], 7),
        # a product with two parents, a product and a sum
        build_circuit(3, [x0, nx0, x1, nx1, x2, nx2, mix0, mix1, Sum((4, 5), (0.2, 0.8)),
                          Sum((4, 5), (0.9, 0.1)), Product((6, 7)), Product((10, 8)),
                          Sum((10,), (0.5,)), Product((12, 9)), Sum((11, 13), (0.5, 0.5))], 14),
        # x0 * x1 underflows to 0.0
        build_circuit(2, [x0, nx0, x1, nx1, tiny0, tiny1, Product((4, 5)),
                          Sum((6,), (0.5,))], 7),
        # the two products cancel: only Circuit() takes a negative weight
        pt.Circuit(2, [x0, nx0, x1, nx1, mix0, mix1, Product((4, 5)), Product((4, 5)),
                       Sum((6, 7), (1.0, -1.0))], 8),
    ]
    for c in circuits:
        want = hex_terms(left_fold_polynomials(c)[c.root])
        assert hex_terms(pt.extract_polynomial(c)) == want
        assert hex_terms(pt.node_polynomials(c)[c.root]) == want
    assert pt.extract_polynomial(circuits[-1]).terms == {}
    # the last multiply repeats slot x0
    c = build_circuit(2, [x0, nx0, x1, nx1, mix0, mix1, Sum((0, 1), (0.5, 0.5)),
                          Product((4, 5, 6)), Sum((7,), (1.0,))], 8)
    for expand in (pt.extract_polynomial, pt.node_polynomials):
        with pytest.raises(NotMultilinear, match=r"^node 7: product would raise"):
            expand(c)
    # 2 * 2 monomial pairs are past the cap, but one product underflows
    monkeypatch.setenv("PC_TERM_BUDGET", "3")
    c = circuits[5]
    p = pt.extract_polynomial(c)
    assert len(p.terms) == 3
    assert hex_terms(p) == hex_terms(left_fold_polynomials(c)[c.root])
    assert hex_terms(p) == hex_terms(pt.node_polynomials(c)[c.root])
    # four nonzero monomial products are past it: the product is named, not its sum
    c = build_circuit(2, [x0, nx0, x1, nx1, mix0, mix1, Product((4, 5)), Sum((6,), (0.5,))], 7)
    for expand in (pt.extract_polynomial, pt.node_polynomials):
        with pytest.raises(TermBudgetExceeded, match=r"^node 6 expands past 3 monomials$"):
            expand(c)
    # a one-monomial product fits a cap of one
    monkeypatch.setenv("PC_TERM_BUDGET", "1")
    c = build_circuit(2, [x0, x1, Sum((0,), (0.5,)), Sum((1,), (0.25,)), Product((2, 3)),
                          Sum((4,), (0.5,))], 5)
    assert pt.extract_polynomial(c).terms == {mono((0, False), (1, False)): 0.0625}


def test_extract_polynomial_peak_memory_stays_near_its_result():
    c = pt.random_valid_pc(pt.GenParams(n=16, seed=1, reuse_prob=0.5))
    tree, _ = pt.treeify(c, normalize_output=True)
    tracemalloc.start()
    try:
        p = pt.extract_polynomial(tree)
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(p.terms) == 2 ** 16
    # keeping every node's polynomial until the end peaks at 3.5 times the
    # result, and building each product a sum reads at 2 times
    assert peak <= 1.5 * result


def test_non_multilinear_product_names_the_node():
    leaf_leaf = build_circuit(1, [Leaf(0), Leaf(0), Product((0, 1))], 2)
    leaf_sum = build_circuit(1, [Leaf(0), Sum((0, 3), (0.5, 0.5)), Product((0, 1)),
                                 Leaf(0, True)], 2)
    for c in (leaf_leaf, leaf_sum):
        with pytest.raises(NotMultilinear, match=r"node 2"):
            pt.extract_polynomial(c)
        with pytest.raises(NotMultilinear, match=r"node 2"):
            pt.node_polynomials(c)
    # d f(3) / d x0 = x1 * x1; in the second circuit the co-factor x1 * x1
    # is node 3 itself, named inside the derivative's message
    c = build_circuit(2, [Leaf(0), Leaf(1), Leaf(1), Product((0, 1, 2))], 3)
    with pytest.raises(NotMultilinear, match=r"^derivative of node 3 by node 0: product"):
        pt.partial_derivative(c, 3, 0)
    # d f(3) / d x1 = x0 * x1 never multiplies x1 by x1, but the reverse
    # pass from node 3 forms every co-factor below it, node 0's included
    with pytest.raises(NotMultilinear, match=r"^derivative of node 3 by node 1: product"):
        pt.partial_derivative(c, 3, 1)
    c = build_circuit(2, [Leaf(0), Leaf(1), Leaf(1), Product((1, 2)), Product((0, 3))], 4)
    with pytest.raises(NotMultilinear, match=r"^derivative of node 4 by node 0: node 3: "):
        pt.partial_derivative(c, 4, 0)


def test_term_budget(monkeypatch):
    hard = pt.build_hard_instance(2)
    monkeypatch.setenv("PC_TERM_BUDGET", "3")
    with pytest.raises(TermBudgetExceeded, match=r"node \d+"):
        pt.extract_polynomial(hard)
    monkeypatch.setenv("PC_TERM_BUDGET", "8")
    assert len(pt.extract_polynomial(hard).terms) == 8
    # the lazy co-factor expansion inside partial_derivative honours it too
    b = pt.binarize(hard)
    monkeypatch.setenv("PC_TERM_BUDGET", "1")
    with pytest.raises(TermBudgetExceeded, match="expands past 1 monomials"):
        pt.partial_derivative(b, b.root, 0)
    # so does a derivative that outgrows it while every co-factor fits:
    # d f(5) / d x1 = x0 + ~x0
    c = build_circuit(2, [Leaf(0), Leaf(0, True), Leaf(1), Product((0, 2)), Product((1, 2)),
                          Sum((3, 4), (1.0, 1.0))], 5)
    with pytest.raises(TermBudgetExceeded, match="derivative of node 5 by node 2"):
        pt.partial_derivative(c, 5, 2)


def test_term_budget_env_override(monkeypatch):
    monkeypatch.setenv("PC_TERM_BUDGET", "3")
    with pytest.raises(TermBudgetExceeded):
        pt.extract_polynomial(pt.build_hard_instance(2))
    for text in ("lots", "0"):
        monkeypatch.setenv("PC_TERM_BUDGET", text)
        with pytest.raises(ValueError, match="PC_TERM_BUDGET"):
            pt.extract_polynomial(pt.build_hard_instance(2))


def test_overflowed_coefficients_raise_naming_the_node():
    # x0 * x1 with coefficient 1e600 against 1e601: both overflow to inf,
    # so comparing them would call b, ten times a, equal to a
    def overflowing(scale):
        return build_circuit(2, [Leaf(0), Sum((0,), (1e300,)), Leaf(1), Sum((2,), (scale,)),
                                 Product((1, 3))], 4)

    for c in (overflowing(1e300), overflowing(1e301)):
        with pytest.raises(NonFiniteValue, match=r"^node 4: a coefficient is not finite"):
            pt.extract_polynomial(c)
        with pytest.raises(NonFiniteValue, match=r"^node 4: "):
            pt.node_polynomials(c)
        # every value polynomial of d f(4) / d x0 = 1e300 * (1e300 * x1) is finite
        with pytest.raises(NonFiniteValue, match=r"^derivative of node 4 by node 0: a coeff"):
            pt.partial_derivative(c, 4, 0)


def test_poly_equal():
    a = SparsePolynomial(2, {mono((0, False), (1, False)): 1.0})
    b = SparsePolynomial(2, {mono((0, False), (1, False)): 1.0, mono((0, True)): 2.0})
    assert pt.poly_equal(a, a)
    assert not pt.poly_equal(a, b)
    close = SparsePolynomial(2, {mono((0, False), (1, False)): 1.0 + 1e-12})
    assert not pt.poly_equal(a, close, 0.0)
    assert pt.poly_equal(a, close, 1e-9)
    with pytest.raises(VarCountMismatch):
        pt.poly_equal(a, SparsePolynomial(3))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_tolerance_must_be_finite_and_non_negative(tol):
    a = SparsePolynomial(2, {mono((0, False)): 1.0})
    b = SparsePolynomial(2, {mono((1, False)): 2.0})
    for p, q in ((a, a), (a, b)):
        with pytest.raises(ValueError, match="tol"):
            pt.poly_equal(p, q, tol)
    c = pt.random_valid_pc(pt.GenParams(n=6, seed=1))
    d = pt.random_valid_pc(pt.GenParams(n=6, seed=2))
    for x, y in ((c, c), (c, d)):
        with pytest.raises(ValueError, match="tol"):
            pt.random_equivalence(x, y, trials=4, tol=tol)


def test_poly_equal_takes_no_nan_as_equal():
    """Dict equality calls one NaN object equal to itself, so maps that
    share it are still compared term by term, and unequal."""
    nan = math.nan
    p = SparsePolynomial(1, {mono((0, False)): nan})
    q = SparsePolynomial(1, {mono((0, False)): nan})
    assert p.terms == q.terms
    for tol in (0.0, 1e-9):
        assert not pt.poly_equal(p, q, tol) and not pt.poly_equal(p, p, tol)
    inf = SparsePolynomial(1, {mono((0, False)): math.inf})
    assert pt.poly_equal(inf, SparsePolynomial(1, {mono((0, False)): math.inf}))


def test_poly_equal_term_by_term_verdicts():
    """The tolerance path compares lengths, then looks each term up: a
    missing or extra term, or a NaN coefficient, is unequal at every
    tolerance, and ``tol=0`` asks for equal coefficients."""
    x, y, nx = mono((0, False)), mono((1, False)), mono((0, True))
    p = SparsePolynomial(2, {x: 1.0, y: 2.0})
    close = SparsePolynomial(2, {x: 1.0 + 1e-12, y: 2.0})
    missing = SparsePolynomial(2, {x: 1.0 + 1e-12})
    swapped = SparsePolynomial(2, {x: 1.0 + 1e-12, nx: 2.0})
    extra = SparsePolynomial(2, {x: 1.0 + 1e-12, y: 2.0, nx: 3.0})
    nan = SparsePolynomial(2, {x: math.nan, y: 2.0})
    for tol in (0.0, 1e-9, 0.5):
        for q in (missing, swapped, extra, nan):
            assert not pt.poly_equal(p, q, tol) and not pt.poly_equal(q, p, tol)
    assert pt.poly_equal(p, close, 1e-9) and pt.poly_equal(close, p, 1e-9)
    assert not pt.poly_equal(p, close, 0.0) and not pt.poly_equal(close, p, 0.0)
    assert pt.poly_equal(p, SparsePolynomial(2, {y: 2.0, x: 1.0}), 0.0)


def test_poly_equal_is_an_equivalence_at_zero_tolerance():
    polys = [
        SparsePolynomial(2, {mono((0, False)): 0.5}),
        SparsePolynomial(2, {mono((0, False)): 0.5}),
        SparsePolynomial(2, {mono((1, True)): 0.5}),
    ]
    for p in polys:
        assert pt.poly_equal(p, p)
    assert pt.poly_equal(polys[0], polys[1]) == pt.poly_equal(polys[1], polys[0])
    if pt.poly_equal(polys[0], polys[1]) and pt.poly_equal(polys[1], polys[2]):
        assert pt.poly_equal(polys[0], polys[2])


def test_random_equivalence():
    c = pt.random_valid_pc(pt.GenParams(n=6, seed=4, reuse_prob=0.4))
    assert pt.random_equivalence(c, c, trials=8, seed=1)
    # nudge one sum weight: detected within a handful of trials
    nodes = list(c.nodes)
    v = next(i for i, node in enumerate(nodes) if isinstance(node, Sum))
    nodes[v] = Sum(nodes[v].children, (nodes[v].weights[0] + 0.1,) + nodes[v].weights[1:])
    mutated = build_circuit(c.num_vars, nodes, c.root)
    assert not pt.random_equivalence(c, mutated, trials=8, seed=1)
    with pytest.raises(VarCountMismatch):
        pt.random_equivalence(c, pt.random_valid_pc(pt.GenParams(n=4, seed=0)), trials=4, seed=0)
    for trials in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="^trials must be an integer >= 1"):
            pt.random_equivalence(c, mutated, trials=trials)


def test_random_equivalence_at_the_largest_sizes():
    hard = pt.build_hard_instance(4)
    assert pt.random_equivalence(hard, hard)
    nodes = list(hard.nodes)
    nodes[hard.root] = Sum(nodes[hard.root].children, (1.0, 1.5))
    assert not pt.random_equivalence(hard, build_circuit(hard.num_vars, nodes, hard.root))
    # degree 256: the perturbation shows only while both values stay finite
    assert not pt.random_equivalence(chain_dag(256, (0.4, 0.6)), chain_dag(256, (0.9, 0.1)))
    # a value past the float range raises instead of comparing inf with inf
    huge = build_circuit(2, [Leaf(0), Leaf(1), Product((0, 1)), Sum((2,), (1e308,))], 3)
    with pytest.raises(NonFiniteValue):
        pt.random_equivalence(huge, huge)


def test_random_equivalence_accepts_treeified_circuit():
    c = pt.random_valid_pc(pt.GenParams(n=10, seed=2, reuse_prob=0.5))
    tree, _ = pt.treeify(c)
    assert pt.random_equivalence(c, tree, trials=32, seed=0)


def test_pairing_polynomial_small():
    p = pt.pairing_polynomial(1)
    assert p.terms == {mono((0, False), (1, False)): 1.0,
                       mono((2, False), (3, False)): 1.0}
    q = pt.pairing_polynomial(2)
    assert len(q.terms) == 8
    assert q.degree == 4 and q.is_homogeneous()
    r = pt.pairing_polynomial(3)
    assert r.num_vars == 64 and len(r.terms) == 128
    assert r.degree == 8 and r.is_homogeneous()
    assert all(coeff == 1.0 for coeff in r.terms.values())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pairing_polynomial_uses_one_variable_per_block(k):
    # viewing flat indices as 2k-bit strings, the odd positions (from the
    # most significant bit) name 2**k blocks; every monomial picks exactly
    # one variable from each block
    p = pt.pairing_polynomial(k)
    bits = 2 * k

    def block(var: int) -> int:
        return int("".join(format(var, f"0{bits}b")[1::2]), 2)

    for m in p.terms:
        variables = [s // 2 for s in range(2 * p.num_vars) if m >> s & 1]
        assert sorted(block(v) for v in variables) == list(range(2 ** k))


def test_pairing_polynomial_range():
    with pytest.raises(ValueError):
        pt.pairing_polynomial(0)
    with pytest.raises(KTooLarge):
        pt.pairing_polynomial(5)


def test_to_text_format():
    p = SparsePolynomial(4, {mono((3, False), (1, True)): 0.5,
                             mono((0, False)): 1.0 / 3.0})
    assert p.to_text() == "0.333333333333 * x0\n0.5 * ~x1 * x3\n"
    assert SparsePolynomial(1).to_text() == "0\n"
