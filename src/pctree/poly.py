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

Every expansion works on plain ``{mask: coeff}`` term maps, with one
multiply (:func:`_mul_terms`), one sum (:func:`_sum_terms`), one memo of
node term maps and one reverse pass for partial derivatives
(:class:`_Expander`); a :class:`SparsePolynomial` wraps a map only at
the public boundary.  :func:`extract_polynomial` keeps only what the
root still needs: one walk over ``topo_order`` counts each node's parent
edges and drops a node's term map once its last parent is built, and a
product whose one parent edge comes from a sum never builds its map: the
sum multiplies the product's last two factors straight into its own
terms.  Every sum copies its first child's map, adds its further
children in place and drops zeros once, so the coefficients are the
textbook left fold's, bit for bit.
"""

from __future__ import annotations

import math
import os
import random
from functools import cache
from typing import Iterable, Sequence

from .circuit import Circuit, Leaf, Product, Sum, _require_count, slot
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

#: Most variables :func:`random_equivalence` draws points over, 256 times the largest
#: supported instance: a point has ``2 * num_vars`` slots, read or not (0.1 s, 5 MB).
_MAX_POINT_VARS = 2 ** 16


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
    """Canonical map from monomial bitmasks to nonzero coefficients:
    ``SparsePolynomial(num_vars, {mask: coeff})`` makes one (the zero
    polynomial has no terms, a constant ``c`` is ``{0: c}``) and ``terms``
    reads it."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict[int, float] | None = None):
        self.num_vars = num_vars
        self.terms = {m: float(c) for m, c in (terms or {}).items() if c != 0.0}

    @classmethod
    def _of(cls, num_vars: int, terms: dict[int, float]) -> "SparsePolynomial":
        """Adopt ``terms`` as is: the caller guarantees float coefficients
        and no zeros."""
        p = cls.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        return p

    # -- structure ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SparsePolynomial)
                and self.num_vars == other.num_vars and self.terms == other.terms)

    __hash__ = None  # mutable term maps; not usable as dict keys

    def __repr__(self) -> str:
        return f"SparsePolynomial(num_vars={self.num_vars}, terms={len(self.terms)})"

    @property
    def degree(self) -> int:
        """Highest monomial degree; -1 for the zero polynomial."""
        return max(map(int.bit_count, self.terms), default=-1)

    def is_finite(self) -> bool:
        return all(map(math.isfinite, self.terms.values()))

    def is_homogeneous(self) -> bool:
        degs = {m.bit_count() for m in self.terms}
        return len(degs) <= 1

    def variables(self) -> frozenset[int]:
        return frozenset(s // 2 for s in _bits(_slots(self.terms)))

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
        out = dict(self.terms)  # keeps the stored hashes and needs no regrowth
        for m, c in out.items():
            out[m] = factor * c
        return SparsePolynomial._of(self.num_vars, _drop_zeros(out))

    def mul(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return SparsePolynomial._of(self.num_vars, _mul_terms(self.terms, other.terms))

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

    def to_text(self) -> str:
        """One term per line: ``coeff * x3 * ~x7``, 12 significant digits,
        sorted by monomial bitmask.  The zero polynomial prints as ``0``."""
        if not self.terms:
            return "0\n"
        lines = []
        for m, c in sorted(self.terms.items()):
            parts = [f"{c:.12g}"]
            for s in _bits(m):
                parts.append(f"~x{s // 2}" if s % 2 else f"x{s // 2}")
            lines.append(" * ".join(parts))
        return "\n".join(lines) + "\n"


#: The :class:`NotMultilinear` message of a product whose factors share a slot.
_SHARED_SLOT = "product would raise an indicator slot to a power above one"


def _slots(terms: dict[int, float]) -> int:
    """Bitmask of every indicator slot some monomial uses."""
    used = 0
    for m in terms:
        used |= m
    return used


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mul_terms(p: dict[int, float], q: dict[int, float], max_terms: int | None = None,
               pending: bool = False) -> dict[int, float] | tuple:
    """The term map of ``p`` times ``q``, past ``max_terms`` monomials a
    :class:`TermBudgetExceeded`.  Disjoint slots make every monomial
    product distinct: nothing accumulates, and only products that
    underflow to zero are dropped.  With ``pending``, a product of at most
    ``max_terms`` monomial pairs stays ``(p, q)`` for :func:`_sum_terms`."""
    if _slots(p) & _slots(q):
        raise NotMultilinear(_SHARED_SLOT)
    if pending and len(p) * len(q) <= max_terms:
        return p, q
    out: dict[int, float] = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            c = c1 * c2
            if c != 0.0:
                out[m1 | m2] = c
        if max_terms is not None and len(out) > max_terms:
            raise TermBudgetExceeded(f"product exceeds {max_terms} monomials")
    return out


def _check_tol(tol: float) -> None:
    # math.isclose takes an infinite tolerance as "any two finite values
    # agree" and a NaN one silently as exact equality
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def poly_equal(p: SparsePolynomial, q: SparsePolynomial, tol: float = 0.0) -> bool:
    """True when the term sets coincide and coefficients agree within a
    relative tolerance (exact equality at ``tol=0``); ``tol`` must be
    finite and non-negative.  Equal finite term maps answer at once (dict
    equality reuses stored hashes, but calls a NaN object equal to itself)."""
    _check_tol(tol)
    if p.num_vars != q.num_vars:
        raise VarCountMismatch(f"{p.num_vars} vs {q.num_vars} variables")
    if p.terms == q.terms and p.is_finite():
        return True
    other = q.terms
    if len(p.terms) != len(other):
        return False
    for m, c in p.terms.items():
        d = other.get(m)
        if d is None or not math.isclose(d, c, rel_tol=tol):
            return False
    return True


def extract_polynomial(c: Circuit) -> SparsePolynomial:
    """Symbolic bottom-up expansion of the polynomial computed by the root.

    Raises :class:`TermBudgetExceeded` as soon as any intermediate result
    outgrows the monomial budget (:func:`term_budget`), so infeasible
    circuits fail loudly instead of exhausting memory; an overflowed
    coefficient raises :class:`NonFiniteValue` naming a node.  Each node's
    term map is freed after its last parent, and a product that only a
    sum reads is multiplied straight into that sum (:meth:`_Expander.root`)."""
    p = SparsePolynomial._of(c.num_vars, _Expander(c).root())
    if p.is_finite():
        return p
    # naming the first bad node takes every node's term map: expand again, keeping them
    polys = _Expander(c)
    return polys.finite(polys.get(c.root), f"node {c.root}")


def random_equivalence(c1: Circuit, c2: Circuit, trials: int = 64, seed: int = 0,
                       tol: float = 1e-9) -> bool:
    """Randomized identity test for circuits too large to expand.

    Evaluates both circuits at ``trials`` assignments whose slots are
    drawn uniformly from the ``2n+2`` points ``1 + j/(2n+2)``; distinct
    multilinear polynomials then disagree with high probability per
    trial.  The points lie in ``[1, 2)``, so a monomial of degree ``d``
    grows like ``2**d`` rather than ``(2n+1)**d`` and values stay finite
    at every supported size; a value that is not finite raises
    :class:`NonFiniteValue` rather than being compared; ``tol`` must be
    finite and non-negative, ``num_vars`` at most :data:`_MAX_POINT_VARS`.
    The answer is one-sided: ``False`` is definitive, ``True`` probabilistic.
    """
    if c1.num_vars != c2.num_vars:
        raise VarCountMismatch(f"{c1.num_vars} vs {c2.num_vars} variables")
    _require_count("trials", trials, 1)
    if c1.num_vars > _MAX_POINT_VARS:
        raise ValueError(f"{c1.num_vars} variables: points are drawn over at most {_MAX_POINT_VARS}")
    _check_tol(tol)
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
    _require_count("k", k, 1)
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
    """Exact polynomial of every node, in id order (same budget and
    finiteness rules as :func:`extract_polynomial`)."""
    polys = _Expander(c)
    polys.get(c.root)  # every node lies below the root
    return [polys.finite(polys.memo[v], f"node {v}") for v in range(len(c.nodes))]


def _below(c: Circuit, v: int, floor: int) -> set[int]:
    """``v`` and the nodes reachable from it through nodes of degree at
    least ``floor``: as degrees never grow downward, every descendant of
    that degree, found without entering a node below the floor."""
    nodes, deg = c.nodes, c.degrees
    seen, stack = {v}, [v]
    while stack:
        for ch in nodes[stack.pop()].children:
            if ch not in seen and deg[ch] >= floor:
                seen.add(ch)
                stack.append(ch)
    return seen


def _sum_terms(parts: list, weights: Sequence[float]) -> dict[int, float]:
    """The term map of ``sum(w * m for m, w in zip(parts, weights))``:
    the first part scaled into a new map, then each further one added into
    it, with zeros dropped once, at the end.  ``w * c`` and the textbook left
    fold's ``0.0 + w * c`` differ only in a zero's sign, and adding a zero
    to a nonzero ``x`` gives ``x``, so every coefficient is the fold's.
    A part may be a pending product ``(p, q)`` (:func:`_mul_terms`), whose
    ``w * (c1 * c2)`` for each nonzero ``c1 * c2`` are the roundings of
    scaling the product's map."""
    terms, w = parts[0], weights[0]
    if type(terms) is tuple:  # a comprehension: the shared loop's get() is slower
        p, q = terms
        terms = {m1 | m2: w * c for m1, c1 in p.items() for m2, c2 in q.items()
                 if (c := c1 * c2)}
    else:  # a copy keeps the stored hashes and needs no regrowth
        terms = dict(terms)
        if w != 1.0:
            for m, x in terms.items():
                terms[m] = w * x
    get = terms.get
    for part, w in zip(parts[1:], weights[1:]):
        if type(part) is tuple:
            p, q = part
            for m1, c1 in p.items():
                for m2, c2 in q.items():
                    if c := c1 * c2:
                        m = m1 | m2
                        terms[m] = get(m, 0.0) + w * c
        else:
            for m, x in part.items():
                terms[m] = get(m, 0.0) + w * x
    return _drop_zeros(terms)


def _drop_zeros(terms: dict[int, float]) -> dict[int, float]:
    """``terms`` without its zero coefficients, deleted in place."""
    if not all(terms.values()):
        for m in [m for m, x in terms.items() if not x]:
            del terms[m]
    return terms


class _Expander:
    """Memoized exact term maps of one circuit's nodes, and the partial
    derivatives of a node, expanded on demand under the :func:`term_budget`
    cap.  There is one memo and one forward rule (:meth:`_value`): every
    product folds its unit monomial factors into one mask, then multiplies
    the rest in order (:meth:`_product`); every sum adds into one term map
    (:func:`_sum_terms`).  :meth:`get` keeps each term map it expands,
    :meth:`degree_one` fills those of all degree-one nodes in one forward
    pass, and :meth:`root` keeps only those some node still needs, leaving
    a product that only a sum reads as its last two factors.  There
    is one reverse pass (:meth:`adjoints`), whose derivatives are floats
    at the top node's degree and term maps below it.  The oracle, the partial
    derivatives and the reducer all read these; none makes a polynomial
    object except through :meth:`finite`."""

    def __init__(self, c: Circuit):
        self.c = c
        self.cap = term_budget()
        self.memo: dict[int, dict[int, float]] = {}
        #: ``_below(c, v, floor)``, memoized: the reducer's adjoint passes,
        #: pivots and reach often ask for the same region
        self.below = cache(lambda v, floor: _below(c, v, floor))

    def finite(self, terms: dict[int, float], name: str) -> SparsePolynomial:
        """The polynomial of ``terms``, unless a coefficient is not finite:
        then :class:`NonFiniteValue` names the first node in topological
        order whose memoized term map has one, or else ``name``.  Inf and
        NaN carry through every later sum and product, so results suffice."""
        p = SparsePolynomial._of(self.c.num_vars, terms)
        if p.is_finite():
            return p
        bad = (f"node {v}" for v in self.c.topo_order
               if v in self.memo and not all(map(math.isfinite, self.memo[v].values())))
        raise NonFiniteValue(f"{next(bad, name)}: a coefficient is not finite")

    def get(self, v: int) -> dict[int, float]:
        """``v``'s term map, after an iterative post-order walk has
        memoized :meth:`_value` of each node below it not memoized yet,
        its children first."""
        nodes, memo = self.c.nodes, self.memo
        stack = [v]
        while stack:
            u = stack.pop()
            if u < 0:  # every child of ~u is memoized
                u = ~u
                memo[u] = self._value(u)
            elif u not in memo:  # a copy of u above ~u would close a cycle
                stack.append(~u)
                stack.extend([ch for ch in nodes[u].children if ch not in memo])
        return memo[v]

    def degree_one(self) -> None:
        """Memoize every degree-one node's term map by one pass over
        ``topo_order`` up to the first that raises: :meth:`get` meets that
        node, and raises, where a caller first needs its map."""
        deg, memo, value = self.c.degrees, self.memo, self._value
        try:
            for u in self.c.topo_order:
                if deg[u] == 1:
                    memo[u] = value(u)
        except (TermBudgetExceeded, NotMultilinear):
            pass

    def root(self) -> dict[int, float]:
        """The root's term map by one walk over ``topo_order`` that drops a
        node's map from the memo once its last parent edge is used.  A lone
        product, whose one parent edge is a sum's, is left pending for that
        sum; the pair holds its own references to the maps it reads."""
        c, memo = self.c, self.memo
        nodes = c.nodes
        uses = self._waiting(range(len(nodes)))
        lone = {ch for node in nodes if isinstance(node, Sum) for ch in node.children
                if uses[ch] == 1 and isinstance(nodes[ch], Product)}
        for u in c.topo_order:
            memo[u] = self._value(u, u in lone)
            for ch in nodes[u].children:
                uses[ch] -= 1
                if not uses[ch]:
                    del memo[ch]
        return memo[c.root]

    def _value(self, u: int, pending: bool = False) -> dict[int, float] | tuple:
        """``u``'s term map from its children's, held to the cap: a result
        past it, a product that outgrows it, or one that is not
        multilinear, raises an error naming ``u``.  ``pending`` lets a
        product leave its last multiply to its sum (:meth:`root`)."""
        node, memo = self.c.nodes[u], self.memo
        if isinstance(node, Leaf):  # slot() inlined: leaves are most degree-one nodes
            return {1 << (2 * node.var + node.negated): 1.0}
        try:
            if isinstance(node, Sum):
                terms = _sum_terms([memo[ch] for ch in node.children], node.weights)
                if len(terms) > self.cap:
                    terms = None
            else:  # every multiply holds its result to the cap
                terms = self._product([memo[ch] for ch in node.children], pending)
        except TermBudgetExceeded:
            terms = None
        except NotMultilinear as e:
            raise NotMultilinear(f"node {u}: {e}") from e
        if terms is None:
            raise TermBudgetExceeded(f"node {u} expands past {self.cap} monomials")
        return terms

    def _product(self, factors: list[dict[int, float]], pending: bool = False) -> dict[int, float] | tuple:
        """Product of ``factors`` in their given order, except that each one
        that is a single monomial with coefficient exactly 1.0 (a leaf, say)
        is ORed into one mask first: multiplying by 1.0 is exact, so every
        coefficient is the left fold's, while a large factor is copied once
        instead of once per leaf.  With ``pending``, the last multiply may
        be left to the sum that reads the product (:func:`_mul_terms`)."""
        mask, rest = 0, []
        for f in factors:
            if len(f) == 1:
                (m, coeff), = f.items()
                if coeff == 1.0:
                    if mask & m:
                        raise NotMultilinear(_SHARED_SLOT)
                    mask |= m
                    continue
            rest.append(f)
        # never a given map: a lone other factor is multiplied by {mask: 1.0}
        p = rest.pop(0) if len(rest) > 1 and not mask else {mask: 1.0}
        for i, f in enumerate(rest, 1):
            p = _mul_terms(p, f, self.cap, pending and i == len(rest))
        return p

    def adjoints(self, u: int, floor: int) -> dict[int, float | dict[int, float]]:
        """``d_w f(u)`` for every ``w`` in ``_below(c, u, floor)`` by one
        reverse pass (Baur and Strassen): from ``adj[u] = 1``, each node,
        once all of its parents there have passed theirs to it, passes
        ``weight * adj`` to each child there if a sum, and ``adj`` times the
        other children's term maps, ``adj`` first (:meth:`_product`), if a
        product.  Below ``u`` only sums and one-child products keep the
        degree, so an adjoint is a float at ``u``'s degree; below it, a term
        map whose ``(map, factor)`` parts are summed (:func:`_sum_terms`) and
        held to the cap once all have come.  A zero adjoint passes ``0.0``
        or ``{}``, never ``inf * 0.0``.  Errors name no pair, which is the
        caller's to name."""
        nodes, deg, cap = self.c.nodes, self.c.degrees, self.cap
        top, adj, ready = deg[u], {u: 1.0}, [u]
        waiting = self._waiting(self.below(u, floor))
        while ready:
            v = ready.pop()
            a, node = adj[v], nodes[v]
            if deg[v] < top:
                a = adj[v] = _sum_terms(*zip(*a))
                if len(a) > cap:
                    raise TermBudgetExceeded(f"the adjoint of node {v} expands past {cap} monomials")
            kids = node.children
            weights = node.weights if isinstance(node, Sum) else (1.0,) * len(kids)
            for j, ch in enumerate(kids):
                if ch not in waiting:
                    continue
                if deg[ch] == top:  # and so is v's: floats
                    adj[ch] = adj.get(ch, 0.0) + (weights[j] * a if a else 0.0)
                elif deg[v] == top and a and len(kids) == 2 and isinstance(node, Product):
                    # _sum_terms scales the other child's map by a, each a * c
                    # as _product([{0: a}, map]) would multiply it
                    adj.setdefault(ch, []).append((self.get(kids[1 - j]), a))
                else:  # a term map: a float a is the constant {0: a}
                    am = a if deg[v] < top else {0: a} if a else {}
                    if isinstance(node, Sum) or len(kids) == 1:
                        part = (am, weights[j])
                    else:
                        part = (self._product([am] + [self.get(x) for i, x in enumerate(kids)
                                                      if i != j]), 1.0)
                    adj.setdefault(ch, []).append(part)
                waiting[ch] -= 1
                if not waiting[ch]:
                    ready.append(ch)
        return adj

    def _waiting(self, region: Iterable[int]) -> dict[int, int]:
        """Per node of ``region``, its parent edges from inside it."""
        nodes = self.c.nodes
        waiting = dict.fromkeys(region, 0)
        for v in region:
            for ch in nodes[v].children:
                if ch in waiting:
                    waiting[ch] += 1
        return waiting
