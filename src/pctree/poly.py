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
from typing import Callable, Iterator, Sequence

from .circuit import Circuit, Leaf, Product, Sum, _bits, slot
from .errors import (
    AssignmentLengthMismatch,
    KTooLarge,
    NonFiniteValue,
    NotMultilinear,
    TermBudgetExceeded,
    VarCountMismatch,
)

#: Monomial cap for exact expansion; the PC_TERM_BUDGET environment
#: variable, a positive integer, overrides it.
DEFAULT_TERM_BUDGET = 10 ** 6


def term_budget() -> int:
    text = os.environ.get("PC_TERM_BUDGET")
    if text is None:
        return DEFAULT_TERM_BUDGET
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"PC_TERM_BUDGET must be a positive integer, got {text!r}")
    return cap


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

    @classmethod
    def _of(cls, num_vars: int, terms: dict[int, float]) -> "SparsePolynomial":
        """Adopt ``terms`` as is: the caller guarantees float coefficients
        and no zeros."""
        p = cls.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        return p

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

    def _slots(self) -> int:
        """Bitmask of every indicator slot some monomial uses."""
        used = 0
        for m in self.terms:
            used |= m
        return used

    def variables(self) -> frozenset[int]:
        return frozenset(s // 2 for s in _bits(self._slots()))

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
        return SparsePolynomial._of(self.num_vars, out)

    def scaled(self, factor: float) -> "SparsePolynomial":
        return SparsePolynomial._of(self.num_vars, {
            m: p for m, c in self.terms.items() if (p := factor * c) != 0.0})

    def mul(self, other: "SparsePolynomial", max_terms: int | None = None) -> "SparsePolynomial":
        # disjoint slots make every monomial product distinct: nothing
        # accumulates, and only products that underflow to zero are dropped
        if self._slots() & other._slots():
            raise NotMultilinear("product would raise an indicator slot to a power above one")
        out: dict[int, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                if c != 0.0:
                    out[m1 | m2] = c
            if max_terms is not None and len(out) > max_terms:
                raise TermBudgetExceeded(f"product exceeds {max_terms} monomials")
        return SparsePolynomial._of(self.num_vars, out)

    __add__ = add
    __mul__ = mul

    # -- queries --------------------------------------------------------------

    def evaluate(self, assignment: Sequence[float]) -> float:
        if len(assignment) != 2 * self.num_vars:
            raise AssignmentLengthMismatch(
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
    return all(math.isclose(q.terms[m], c, rel_tol=tol) for m, c in p.terms.items())


def extract_polynomial(c: Circuit) -> SparsePolynomial:
    """Symbolic bottom-up expansion of the polynomial computed by the root.

    Raises :class:`TermBudgetExceeded` as soon as any intermediate result
    outgrows the monomial budget (:func:`term_budget`), so infeasible
    circuits fail loudly instead of exhausting memory.
    """
    return _Expander(c).get(c.root)


def random_equivalence(c1: Circuit, c2: Circuit, trials: int = 64, seed: int = 0,
                       tol: float = 1e-9) -> bool:
    """Randomized identity test for circuits too large to expand.

    Evaluates both circuits at ``trials`` assignments whose slots are
    drawn uniformly from the ``2n+2`` points ``1 + j/(2n+2)``; distinct
    multilinear polynomials then disagree with high probability per
    trial.  The points lie in ``[1, 2)``, so a monomial of degree ``d``
    grows like ``2**d`` rather than ``(2n+1)**d`` and values stay finite
    at every supported size; a value that is not finite raises
    :class:`NonFiniteValue` rather than being compared.  The answer is
    one-sided: ``False`` is definitive, ``True`` probabilistic.
    """
    if c1.num_vars != c2.num_vars:
        raise VarCountMismatch(f"{c1.num_vars} vs {c2.num_vars} variables")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    points = 2 * c1.num_vars + 2
    for _ in range(trials):
        a = [1.0 + rng.randrange(points) / points for _ in range(2 * c1.num_vars)]
        x, y = c1.evaluate(a), c2.evaluate(a)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteValue(f"circuit values {x!r} and {y!r} at a random point")
        if not math.isclose(x, y, rel_tol=tol):
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


def node_polynomials(c: Circuit) -> list[SparsePolynomial]:
    """Exact polynomial of every node, in id order (same budget rule as
    :func:`extract_polynomial`)."""
    polys = _Expander(c)
    polys.get(c.root)  # every node lies below the root
    return [polys.memo[v] for v in range(len(c.nodes))]


class _Expander:
    """Memoized exact node polynomials of one circuit, and their partial
    derivatives, expanded on demand under the :func:`term_budget` cap.
    Every product, of a node's children or of the chain rule's co-factors,
    folds its unit monomial factors into one mask, then multiplies the
    rest in child order (:meth:`_product`)."""

    def __init__(self, c: Circuit):
        self.c = c
        self.cap = term_budget()
        self.memo: dict[int, SparsePolynomial] = {}

    def _walk(self, v: int, done: dict[int, SparsePolynomial], rule: Callable,
              w: int | None = None) -> SparsePolynomial:
        """``done[v]``, after an iterative post-order walk has set ``done[u] =
        rule(u)`` for each node ``u`` below ``v`` missing there; deriving by
        ``w``, it enters no child of degree below ``deg(w)``, as degrees
        never grow downward.  A result past the cap, or a product that is not
        multilinear, names ``u`` or ``(u, w)``."""
        c, cap, deg = self.c, self.cap, self.c.degrees
        low = 0 if w is None else deg[w]

        def where(u: int) -> str:
            return f"node {u}" if w is None else f"derivative of node {u} by node {w}"

        stack = [v]
        while stack:
            u = stack[-1]
            if u in done:
                stack.pop()
                continue
            missing = [ch for ch in c.children(u) if ch not in done and deg[ch] >= low]
            if missing:
                stack.extend(missing)
                continue
            try:
                p = rule(u)
            except TermBudgetExceeded:
                p = None  # a product inside the rule outgrew the cap
            except NotMultilinear as e:
                raise NotMultilinear(f"{where(u)}: {e}") from e
            if p is None or len(p.terms) > cap:
                raise TermBudgetExceeded(f"{where(u)} expands past {cap} monomials")
            done[u] = p
        return done[v]

    def get(self, v: int) -> SparsePolynomial:
        """``v``'s polynomial, expanding the part not memoized yet."""
        return self._walk(v, self.memo, self._value)

    def _value(self, u: int) -> SparsePolynomial:
        node, n = self.c.nodes[u], self.c.num_vars
        if isinstance(node, Leaf):
            return SparsePolynomial.indicator(n, node.var, node.negated)
        if isinstance(node, Sum):
            p = SparsePolynomial.zero(n)
            for ch, w in zip(node.children, node.weights):
                p = p.add(self.memo[ch], w)
            return p
        return self._product([self.memo[ch] for ch in node.children])

    def _product(self, factors: list[SparsePolynomial]) -> SparsePolynomial:
        """Product of ``factors`` in their given order, except that each one
        that is a single monomial with coefficient exactly 1.0 (a leaf, say)
        is ORed into one mask first: multiplying by 1.0 is exact, so every
        coefficient is the left fold's, while a large factor is copied once
        instead of once per leaf."""
        mask, rest = 0, []
        for f in factors:
            if len(f.terms) == 1:
                (m, coeff), = f.terms.items()
                if coeff == 1.0:
                    if mask & m:
                        raise NotMultilinear(
                            "product would raise an indicator slot to a power above one")
                    mask |= m
                    continue
            rest.append(f)
        # an empty mask would only copy the first other factor
        p = rest.pop(0) if rest and not mask else SparsePolynomial._of(self.c.num_vars, {mask: 1.0})
        for f in rest:
            p = p.mul(f, max_terms=self.cap)
        return p

    def derivative(self, w: int, u: int) -> SparsePolynomial:
        """``d_w f(u)`` by the chain rule, memoized for this call; nodes that
        do not reach ``w`` give zero, and the product rule's co-factors come
        from :meth:`get`."""
        c, n = self.c, self.c.num_vars
        d = {w: SparsePolynomial.constant(n, 1.0)}

        def chain_rule(u: int) -> SparsePolynomial:
            node = c.nodes[u]
            p = SparsePolynomial.zero(n)
            if isinstance(node, Sum):
                for ch, wt in zip(node.children, node.weights):
                    if ch in d:
                        p = p.add(d[ch], wt)
            elif isinstance(node, Product):
                # decomposability means at most one child can reach w,
                # but the sum over children stays correct without it
                for j, ch in enumerate(node.children):
                    term = d.get(ch)
                    if term is None or term.is_zero():
                        continue
                    p = p.add(self._product([term] + [self.get(other) for i, other
                                                      in enumerate(node.children) if i != j]))
            return p

        return self._walk(u, d, chain_rule, w)
