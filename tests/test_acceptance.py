"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them live).

Depth calibration, recorded here and in the README: the depth-reduced
circuit satisfies depth <= DEPTH_C1 * ceil(log2(n)) + DEPTH_C2 with
DEPTH_C1 = 2 and DEPTH_C2 = 1 across the whole measured corpus.
"""

import math
import random
import time
from statistics import linear_regression

import pytest

import pctree as pt
from pctree import SparsePolynomial
from pctree.circuit import Product, Sum

from conftest import corpus_params
from oracles import chain_rule_table, descendants, frontier_triples, grow_nonsmooth_child, scope

DEPTH_C1 = 2
DEPTH_C2 = 1


def _criterion(num: int, name: str, violations: list, elapsed: float,
               budget: float | None = None) -> None:
    ok = not violations and (budget is None or elapsed <= budget)
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({elapsed:.1f}s)"
    print(line)
    assert ok, (line, violations[:5])


@pytest.fixture(scope="module")
def corpus50():
    return [pt.random_valid_pc(p) for p in corpus_params(50)]


def test_criterion_1_hard_instance_exactness():
    start = time.perf_counter()
    violations = []
    for k, expected_nodes in ((1, 11), (2, 63), (3, 319)):
        c = pt.build_hard_instance(k)
        s = c.stats()
        if s.num_nodes != expected_nodes:
            violations.append((k, "nodes", s.num_nodes))
        if s.depth != 2 * k:
            violations.append((k, "depth", s.depth))
        report = c.validity()
        for flag in ("decomposable", "smooth", "homogeneous", "monotone"):
            if not getattr(report, flag):
                violations.append((k, flag))
    _criterion(1, "hard-instance exactness", violations,
               time.perf_counter() - start, budget=1.0)


def test_criterion_2_negation_stripping_reduction():
    start = time.perf_counter()
    violations = []
    for k, count in ((1, 2), (2, 8), (3, 128)):
        stripped = pt.extract_polynomial(pt.strip_negations(pt.build_hard_instance(k)))
        target = pt.pairing_polynomial(k)
        if len(target.terms) != count:
            violations.append((k, "count", len(target.terms)))
        if not pt.poly_equal(stripped, target, 0.0):
            violations.append((k, "mismatch"))
    _criterion(2, "negation stripping computes the pairing polynomial",
               violations, time.perf_counter() - start, budget=5.0)


def test_criterion_3_pipeline_correctness(corpus50):
    start = time.perf_counter()
    violations = []
    for i, c in enumerate(corpus50):
        tree, _ = pt.treeify(c)
        if not tree.stats().is_tree:
            violations.append((i, "not a tree"))
        report = tree.validity()
        if not (report.decomposable and report.smooth):
            violations.append((i, "invalid output"))
        if not pt.poly_equal(pt.extract_polynomial(c), pt.extract_polynomial(tree), 1e-9):
            violations.append((i, "polynomial changed"))
    _criterion(3, "treeify is exact on 50 random DAG PCs", violations,
               time.perf_counter() - start, budget=60.0)


def test_criterion_4_expansion_identity_suites(corpus50):
    start = time.perf_counter()
    violations = []
    for i, c in enumerate(corpus50):
        b = pt.binarize(c)
        n = b.num_vars
        deg = b.degrees
        desc = descendants(b)
        polys = pt.node_polynomials(b)
        zero = SparsePolynomial(n)
        tables: dict[int, dict[int, SparsePolynomial]] = {}

        def table(w):
            if w not in tables:
                tables[w] = chain_rule_table(b, polys, w)
            return tables[w]

        # derivative degree/variable-set properties, every nonzero pair
        for w in range(len(b.nodes)):
            for v, d in table(w).items():
                if v == w or not d.terms:
                    continue
                if not d.is_homogeneous() or d.degree != deg[v] - deg[w]:
                    violations.append((i, "derivative degree", v, w))
                if not d.variables() <= scope(b, v) - scope(b, w):
                    violations.append((i, "derivative variables", v, w))

        # product factorization through the heavier child
        for v, node in enumerate(b.nodes):
            if not isinstance(node, Product) or len(node.children) != 2:
                continue
            v1, v2 = node.children
            if deg[v1] < deg[v2]:
                v1, v2 = v2, v1
            for w in range(len(b.nodes)):
                if w == v or deg[v] >= 2 * deg[w]:
                    continue
                lhs = table(w).get(v, zero)
                rhs = polys[v2].mul(table(w).get(v1, zero))
                if not pt.poly_equal(lhs, rhs, 1e-9):
                    violations.append((i, "factorization", v, w))

        # value expansion for every (v, m) with m < deg(v) <= 2m
        for m in range(1, deg[b.root]):
            front = frontier_triples(b, m)
            for v in range(len(b.nodes)):
                if not m < deg[v] <= 2 * m:
                    continue
                rhs = zero
                for t, _, _ in front:
                    d = table(t).get(v)
                    if d is not None:
                        rhs = rhs.add(polys[t].mul(d))
                if not pt.poly_equal(polys[v], rhs, 1e-9):
                    violations.append((i, "value expansion", v, m))

        # derivative expansion for every (v, w, m) with
        # deg(w) <= m < deg(v) < 2 deg(w)
        for v in range(len(b.nodes)):
            dv = deg[v]
            for w in range(len(b.nodes)):
                if v == w or w not in desc[v] or dv >= 2 * deg[w]:
                    continue
                lhs = table(w)[v]
                for m in range(deg[w], dv):
                    rhs = zero
                    for t, _, _ in frontier_triples(b, m):
                        d_tw = table(w).get(t)
                        d_vt = table(t).get(v)
                        if d_tw is not None and d_vt is not None:
                            rhs = rhs.add(d_tw.mul(d_vt))
                    if not pt.poly_equal(lhs, rhs, 1e-9):
                        violations.append((i, "derivative expansion", v, w, m))
    _criterion(4, "frontier expansion identities, zero violations",
               violations, time.perf_counter() - start)


def test_criterion_5_depth_scaling():
    start = time.perf_counter()
    violations = []
    sizes = []
    for n in (4, 8, 16, 32):
        bound = DEPTH_C1 * (n - 1).bit_length() + DEPTH_C2
        for seed in (0, 1, 2):
            c = pt.random_valid_pc(pt.GenParams(n=n, seed=seed, reuse_prob=0.35))
            reduced = pt.reduce_depth(pt.binarize(c))
            depth = reduced.stats().depth
            if depth > bound:
                violations.append((n, seed, "depth", depth, bound))
            sizes.append((n, len(reduced.nodes)))
    slope = linear_regression([math.log(n) for n, _ in sizes],
                              [math.log(s) for _, s in sizes]).slope
    if slope > 3.5:
        violations.append(("slope", slope))
    _criterion(5, f"depth <= {DEPTH_C1}*ceil(log2 n) + {DEPTH_C2}, size slope "
                  f"{slope:.2f} <= 3.5", violations,
               time.perf_counter() - start, budget=120.0)


def test_criterion_6_transform_unit_properties(corpus50):
    start = time.perf_counter()
    violations = []
    rng = random.Random(99)
    for i, c in enumerate(corpus50[:20]):
        reference = pt.extract_polynomial(c)
        b = pt.binarize(c)
        if b.stats().max_fanout > 2:
            violations.append((i, "fanout"))
        if len(b.nodes) - len(c.nodes) > 2 * c.stats().num_edges:
            violations.append((i, "growth"))
        if not pt.poly_equal(reference, pt.extract_polynomial(b), 1e-9):
            violations.append((i, "binarize polynomial"))

        t = pt.duplicate_to_tree(c)
        if not t.stats().is_tree:
            violations.append((i, "duplicate tree"))
        if t.stats().depth != c.stats().depth:
            violations.append((i, "duplicate depth"))
        if not pt.poly_equal(reference, pt.extract_polynomial(t), 1e-9):
            violations.append((i, "duplicate polynomial"))

        normed, constant = pt.normalize(c)
        for node in normed.nodes:
            if isinstance(node, Sum) and abs(sum(node.weights) - 1.0) > 1e-12:
                violations.append((i, "weight sum"))
                break
        for _ in range(5):
            a = [rng.uniform(0.0, 2.0) for _ in range(2 * c.num_vars)]
            if not math.isclose(c.evaluate(a), constant * normed.evaluate(a), rel_tol=1e-9):
                violations.append((i, "proportionality"))
                break
    _criterion(6, "binarize/duplicate/normalize unit properties", violations,
               time.perf_counter() - start)


def test_criterion_7_oracle_consistency():
    start = time.perf_counter()
    violations = []
    rng = random.Random(4242)
    circuits = []
    for i in range(100):
        params = pt.GenParams(n=2 + i % 7, seed=1000 + i, reuse_prob=(0.0, 0.4)[i % 2])
        circuits.append(pt.random_valid_pc(params))
    for i, c in enumerate(circuits):
        p = pt.extract_polynomial(c)
        for _ in range(20):
            a = [rng.uniform(0.0, 2.0) for _ in range(2 * c.num_vars)]
            if not math.isclose(p.evaluate(a), c.evaluate(a), rel_tol=1e-9):
                violations.append((i, "extract/evaluate"))
                break
    for i, c in enumerate(circuits[:50]):
        nodes = list(c.nodes)
        sums = [v for v, node in enumerate(nodes) if isinstance(node, Sum)]
        v = sums[rng.randrange(len(sums))]
        j = rng.randrange(len(nodes[v].weights))
        weights = list(nodes[v].weights)
        weights[j] = weights[j] * 1.2 + 0.05
        nodes[v] = Sum(nodes[v].children, tuple(weights))
        mutated = pt.build_circuit(c.num_vars, nodes, c.root)
        if pt.random_equivalence(c, mutated, trials=32, seed=i):
            violations.append((i, "mutation undetected"))
    _criterion(7, "extract/evaluate agree; weight mutations detected",
               violations, time.perf_counter() - start)


def test_criterion_8_smooth_iff_homogeneous(corpus50):
    start = time.perf_counter()
    violations = []
    rng = random.Random(5)
    cases = []
    for c in corpus50:
        cases.append(c)
        cases.append(grow_nonsmooth_child(c, rng))
        cases.append(grow_nonsmooth_child(grow_nonsmooth_child(c, rng), rng))
    for i, c in enumerate(cases):
        report = c.validity()
        if not report.decomposable:
            violations.append((i, "corpus circuit not decomposable"))
        if c.degrees[c.root] != c.num_vars:
            violations.append((i, "corpus circuit degree"))
        if report.smooth != report.homogeneous:
            violations.append((i, "flag disagreement"))
    _criterion(8, "smooth and homogeneous flags agree on the full-degree corpus",
               violations, time.perf_counter() - start)
