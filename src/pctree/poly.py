"""Exact sparse multilinear polynomials over indicator slots.

A monomial is a bitmask over the ``2 * num_vars`` slots (``x_i`` at bit
``2*i``, ``~x_i`` at bit ``2*i + 1``); a polynomial maps monomials to
real coefficients, never storing zeros.  This representation is the
ground-truth oracle for every circuit transform in the package: the
polynomial of a circuit is expanded once, symbolically, and compared
coefficient by coefficient.

Only multilinear polynomials are representable, matching what
decomposable circuits can compute; multiplying two monomials that share
a slot raises :class:`~pctree.errors.NotMultilinear`.
"""

from __future__ import annotations

import math
import os
import random
from typing import Iterable, Iterator, Sequence

from .circuit import Circuit, Leaf, Sum, _bits, slot
from .errors import (
    KTooLarge,
    NotMultilinear,
    TermBudgetExceeded,
    VarCountMismatch,
)

#: Monomial cap for exact expansion, overridable via the PC_TERM_BUDGET
#: environment variable or a per-call argument.
DEFAULT_TERM_BUDGET = 10 ** 6


def term_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    return int(os.environ.get("PC_TERM_BUDGET", DEFAULT_TERM_BUDGET))


class SparsePolynomial:
    """Canonical map from monomial bitmasks to nonzero coefficients."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict[int, float] | None = None):
        self.num_vars = num_vars
        self.terms = {m: float(c) for m, c in (terms or {}).items() if c != 0.0}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "SparsePolynomial":
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, value: float) -> "SparsePolynomial":
        return cls(num_vars, {0: value})

    @classmethod
    def indicator(cls, num_vars: int, var: int, negated: bool = False) -> "SparsePolynomial":
        return cls(num_vars, {1 << slot(var, negated): 1.0})

    # -- structure ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SparsePolynomial)
                and self.num_vars == other.num_vars and self.terms == other.terms)

    __hash__ = None  # mutable term maps; not usable as dict keys

    def __repr__(self) -> str:
        return f"SparsePolynomial(num_vars={self.num_vars}, terms={len(self.terms)})"

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def constant_value(self) -> float:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(0, 0.0)

    @property
    def degree(self) -> int:
        """Highest monomial degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.bit_count() for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {m.bit_count() for m in self.terms}
        return len(degs) <= 1

    def variables(self) -> frozenset[int]:
        used = 0
        for m in self.terms:
            used |= m
        return frozenset(s // 2 for s in _bits(used))

    # -- arithmetic -----------------------------------------------------------

    def add(self, other: "SparsePolynomial", scale: float = 1.0) -> "SparsePolynomial":
        """self + scale * other."""
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m, 0.0) + scale * c
            if acc == 0.0:
                out.pop(m, None)
            else:
                out[m] = acc
        return SparsePolynomial(self.num_vars, out)

    def scaled(self, factor: float) -> "SparsePolynomial":
        return SparsePolynomial(self.num_vars, {m: factor * c for m, c in self.terms.items()})

    def mul(self, other: "SparsePolynomial", max_terms: int | None = None) -> "SparsePolynomial":
        out: dict[int, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    raise NotMultilinear(
                        "product would raise an indicator slot to a power above one")
                m = m1 | m2
                acc = out.get(m, 0.0) + c1 * c2
                if acc == 0.0:
                    out.pop(m, None)
                else:
                    out[m] = acc
            if max_terms is not None and len(out) > max_terms:
                raise TermBudgetExceeded(f"product exceeds {max_terms} monomials")
        return SparsePolynomial(self.num_vars, out)

    __add__ = add
    __mul__ = mul

    # -- queries --------------------------------------------------------------

    def evaluate(self, assignment: Sequence[float]) -> float:
        if len(assignment) != 2 * self.num_vars:
            raise VarCountMismatch(
                f"expected {2 * self.num_vars} slot values, got {len(assignment)}")
        total = 0.0
        for m, c in self.terms.items():
            acc = c
            for s in _bits(m):
                acc *= assignment[s]
            total += acc
        return total

    def sorted_terms(self) -> Iterator[tuple[int, float]]:
        """Terms ordered by ascending monomial bitmask."""
        return iter(sorted(self.terms.items()))

    def to_text(self) -> str:
        """One term per line: ``coeff * x3 * ~x7``, 12 significant digits,
        sorted by monomial bitmask.  The zero polynomial prints as ``0``."""
        if not self.terms:
            return "0\n"
        lines = []
        for m, c in self.sorted_terms():
            parts = [f"{c:.12g}"]
            for s in _bits(m):
                parts.append(f"~x{s // 2}" if s % 2 else f"x{s // 2}")
            lines.append(" * ".join(parts))
        return "\n".join(lines) + "\n"


def poly_equal(p: SparsePolynomial, q: SparsePolynomial, tol: float = 0.0) -> bool:
    """True when the term sets coincide and coefficients agree within a
    relative tolerance (exact equality at ``tol=0``)."""
    if p.num_vars != q.num_vars:
        raise VarCountMismatch(f"{p.num_vars} vs {q.num_vars} variables")
    if p.terms.keys() != q.terms.keys():
        return False
    if tol == 0.0:
        return all(q.terms[m] == c for m, c in p.terms.items())
    return all(math.isclose(q.terms[m], c, rel_tol=tol) for m, c in p.terms.items())


def extract_polynomial(c: Circuit, budget: int | None = None) -> SparsePolynomial:
    """Symbolic bottom-up expansion of the polynomial computed by the root.

    Raises :class:`TermBudgetExceeded` as soon as any intermediate result
    outgrows the monomial budget, so infeasible circuits fail loudly
    instead of exhausting memory.
    """
    return node_polynomials(c, budget)[c.root]


def random_equivalence(c1: Circuit, c2: Circuit, trials: int = 64, seed: int = 0,
                       tol: float = 1e-9) -> bool:
    """Randomized identity test for circuits too large to expand.

    Evaluates both circuits at ``trials`` assignments whose slots are
    drawn uniformly from the integers ``0 .. 2n+1``; distinct multilinear
    polynomials then disagree with high probability per trial.  The
    answer is one-sided: ``False`` is definitive, ``True`` probabilistic.
    """
    if c1.num_vars != c2.num_vars:
        raise VarCountMismatch(f"{c1.num_vars} vs {c2.num_vars} variables")
    rng = random.Random(seed)
    hi = 2 * c1.num_vars + 1
    for _ in range(trials):
        a = [float(rng.randint(0, hi)) for _ in range(2 * c1.num_vars)]
        if not math.isclose(c1.evaluate(a), c2.evaluate(a), rel_tol=tol):
            return False
    return True


def pairing_polynomial(k: int) -> SparsePolynomial:
    """The hard monotone polynomial over ``4**k`` variables, built by
    alternately summing and multiplying consecutive blocks.

    Level zero holds the ``2**(2k-1)`` quadratic monomials
    ``x0*x1, x2*x3, ...``; each later level pairs consecutive entries,
    first with sums, then products, alternating until one polynomial of
    degree ``2**k`` with ``2**(2**k - 1)`` unit-coefficient monomials
    remains.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 4:
        raise KTooLarge(f"k={k} would produce 2**{2 ** k - 1} monomials")
    n = 4 ** k
    level = [SparsePolynomial(n, {(1 << slot(2 * q)) | (1 << slot(2 * q + 1)): 1.0})
             for q in range(n // 2)]
    add_level = True
    while len(level) > 1:
        paired = []
        for i in range(0, len(level), 2):
            a, b = level[i], level[i + 1]
            paired.append(a.add(b) if add_level else a.mul(b))
        level = paired
        add_level = not add_level
    return level[0]


def node_polynomials(c: Circuit, budget: int | None = None) -> list[SparsePolynomial]:
    """Exact polynomial of every node, in id order (same budget rules as
    :func:`extract_polynomial`)."""
    polys: list[SparsePolynomial | None] = [None] * len(c.nodes)
    _expand(c, c.topo_order, polys, term_budget(budget))
    return polys  # type: ignore[return-value]


def _expand(c: Circuit, order: Iterable[int],
            memo: list[SparsePolynomial | None] | dict[int, SparsePolynomial], cap: int) -> None:
    """Store in ``memo`` (a list or dict indexed by node id) the polynomial
    of every node in ``order``, which lists children before parents; every
    child outside ``order`` must already be in ``memo``."""
    for v in order:
        node = c.nodes[v]
        if isinstance(node, Leaf):
            p = SparsePolynomial.indicator(c.num_vars, node.var, node.negated)
        elif isinstance(node, Sum):
            p = SparsePolynomial.zero(c.num_vars)
            for ch, w in zip(node.children, node.weights):
                p = p.add(memo[ch], w)
        else:
            p = SparsePolynomial.constant(c.num_vars, 1.0)
            for ch in node.children:
                p = p.mul(memo[ch], max_terms=cap)
        if len(p.terms) > cap:
            raise TermBudgetExceeded(f"node {v} expands past {cap} monomials")
        memo[v] = p
