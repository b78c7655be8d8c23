import math
import random

import pytest

import pctree as pt
from pctree import SparsePolynomial, build_circuit
from pctree.circuit import Leaf, Sum
from pctree.errors import KTooLarge, NotMultilinear, TermBudgetExceeded, VarCountMismatch
from pctree.poly import slot

from oracles import mobius_terms


def mono(*indicators):
    """Monomial bitmask from (var, negated) pairs."""
    m = 0
    for var, negated in indicators:
        m |= 1 << slot(var, negated)
    return m


def test_basic_arithmetic():
    x0 = SparsePolynomial.indicator(2, 0)
    x1 = SparsePolynomial.indicator(2, 1)
    p = x0.add(x1, 2.0)
    assert p.terms == {mono((0, False)): 1.0, mono((1, False)): 2.0}
    q = p.mul(SparsePolynomial.constant(2, 3.0))
    assert q.terms == {mono((0, False)): 3.0, mono((1, False)): 6.0}
    assert p.add(p.scaled(-1.0)).is_zero()
    with pytest.raises(NotMultilinear):
        x0.mul(x0)


def test_structure_queries():
    p = SparsePolynomial(2, {mono((0, False), (1, True)): 2.0, mono((0, True)): 1.0})
    assert p.degree == 2
    assert not p.is_homogeneous()
    assert p.variables() == frozenset({0, 1})
    assert SparsePolynomial.zero(2).degree == -1
    assert SparsePolynomial.constant(2, 5.0).degree == 0
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


def test_term_budget():
    hard = pt.build_hard_instance(2)
    with pytest.raises(TermBudgetExceeded):
        pt.extract_polynomial(hard, budget=3)
    assert len(pt.extract_polynomial(hard, budget=8).terms) == 8
    # the lazy co-factor expansion inside partial_derivative honours it too
    b = pt.binarize(hard)
    with pytest.raises(TermBudgetExceeded, match="expands past 1 monomials"):
        pt.partial_derivative(b, b.root, 0, budget=1)


def test_term_budget_env_override(monkeypatch):
    monkeypatch.setenv("PC_TERM_BUDGET", "3")
    with pytest.raises(TermBudgetExceeded):
        pt.extract_polynomial(pt.build_hard_instance(2))


def test_poly_equal():
    a = SparsePolynomial(2, {mono((0, False), (1, False)): 1.0})
    b = SparsePolynomial(2, {mono((0, False), (1, False)): 1.0, mono((0, True)): 2.0})
    assert pt.poly_equal(a, a)
    assert not pt.poly_equal(a, b)
    close = SparsePolynomial(2, {mono((0, False), (1, False)): 1.0 + 1e-12})
    assert not pt.poly_equal(a, close, 0.0)
    assert pt.poly_equal(a, close, 1e-9)
    with pytest.raises(VarCountMismatch):
        pt.poly_equal(a, SparsePolynomial.zero(3))


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
    assert SparsePolynomial.zero(1).to_text() == "0\n"
