"""Graded symbol calculus with noncommutative coefficients.

A symbol is a finite sum of xi-monomials ``xi^alpha |xi|^(2m)`` with
algebra-valued coefficients.  The pair (alpha, m) is kept free: nothing
identifies ``|xi|^2`` with ``sum_a xi_a^2``, so monomials of equal degree
with different (alpha, m) stay distinct.  Degree is ``|alpha| + 2m`` and
may be negative through m.

The xi-derivative acts formally on both factors,

    d/dxi_a ( xi^alpha |xi|^(2m) )
        = alpha_a xi^(alpha - e_a) |xi|^(2m)
        + 2 m xi^(alpha + e_a) |xi|^(2(m-1)),

dropping total degree by exactly one.  The composition product expands

    P # Q = sum_gamma (1/gamma!) (d_xi^gamma P) . (delta^gamma Q)

with the coefficients of P kept to the left.  ``gamma_pairs`` is its one
expansion: it walks gamma depth first and yields (1/gamma!, m1, c1, m2,
c2) for every monomial pair of d_xi^gamma P and delta^gamma Q whose degree
lies in a band lo..hi, pruning what can no longer reach lo.  ``compose``
multiplies those pairs into one ``ncalg.WordSum`` per monomial, as
``Symbol.pointwise_mul`` does with the plain pairs; the sum reads each
coefficient ``NCPoly``'s integer numerators as they are stored, so no
coefficient is converted.  The residue pass in ``wres`` sums all the
pairs, weighted by their sphere moments, into a single ``WordSum``.

The reference routes, ``parametrix.closed_forms`` and the oracle's
``gamma_sum_evaluation``, share no walk with ``gamma_pairs``: each
derives every gamma from scratch through one walk, ``gamma_terms``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, prod

from .ncalg import Combination, Frozen, NCPoly, WordSum, _accumulate, _bump, format_poly


class XiMonomial(Frozen):
    """xi^alpha |xi|^(2m)."""

    __slots__ = ("alpha", "m")

    def __init__(self, alpha: tuple[int, ...], m: int = 0):
        if any(a < 0 for a in alpha):
            raise ValueError("xi exponents must be nonnegative")
        # the base named directly, as in Scalar: one call per product pair
        Frozen.__init__(self, alpha, m)

    # written out rather than read through _fields: every pair of a
    # symbol product looks its monomial up in a dict
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.alpha == other.alpha and self.m == other.m

    def __hash__(self) -> int:
        return hash((self.alpha, self.m))

    @property
    def degree(self) -> int:
        return sum(self.alpha) + 2 * self.m

    def eval(self, xi) -> float:
        out = 1.0
        for x, a in zip(xi, self.alpha):
            out *= x ** a
        norm_sq = sum(x * x for x in xi)
        return out * norm_sq ** self.m

    def __mul__(self, other: "XiMonomial") -> "XiMonomial":
        return XiMonomial(
            tuple(a + b for a, b in zip(self.alpha, other.alpha)),
            self.m + other.m,
        )


class Symbol(Combination):
    """Finite sum of xi-monomials with NCPoly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, d: int, terms: dict[XiMonomial, NCPoly] | None = None):
        if terms and any(len(mono.alpha) != d for mono in terms):
            raise ValueError("xi exponent tuple has wrong length")
        super().__init__(d, terms)

    @classmethod
    def one(cls, d: int) -> "Symbol":
        return cls(d, {XiMonomial((0,) * d, 0): NCPoly.one(d)})

    @classmethod
    def from_poly(
        cls, coef: NCPoly, alpha: tuple[int, ...] | None = None, m: int = 0
    ) -> "Symbol":
        alpha = alpha if alpha is not None else (0,) * coef.d
        return cls(coef.d, {XiMonomial(alpha, m): coef})

    def derive(self, axis: int) -> "Symbol":
        """Torus derivation applied to every coefficient; xi is untouched."""
        return Symbol(
            self.d, {mono: coef.derive(axis) for mono, coef in self.terms.items()}
        )

    def partial_xi(self, axis: int) -> "Symbol":
        if not 1 <= axis <= self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        out: dict[XiMonomial, NCPoly] = {}
        for mono, coef in self.terms.items():
            a = mono.alpha[axis - 1]
            if a:
                down = XiMonomial(_bump(mono.alpha, axis, -1), mono.m)
                _accumulate(out, down, coef.scale(a))
            if mono.m:
                up = XiMonomial(_bump(mono.alpha, axis), mono.m - 1)
                _accumulate(out, up, coef.scale(2 * mono.m))
        return Symbol._trusted(self.d, out)

    def pointwise_mul(self, other: "Symbol") -> "Symbol":
        """Product at a frozen xi: coefficients multiply in order, xi
        exponents add."""
        self._check(other)
        pairs = product(self.terms.items(), other.terms.items())
        return _sum_pairs(self.d, ((1, m1, c1, m2, c2) for (m1, c1), (m2, c2) in pairs))

    def degrees(self) -> list[int]:
        return sorted({mono.degree for mono in self.terms})

    def max_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero symbol has no degree")
        return max(mono.degree for mono in self.terms)

    def homogeneous_part(self, k: int) -> "Symbol":
        return Symbol._trusted(
            self.d,
            {mono: coef for mono, coef in self.terms.items() if mono.degree == k},
        )

    def truncate_below(self, min_degree: int) -> "Symbol":
        return Symbol._trusted(
            self.d,
            {m: c for m, c in self.terms.items() if m.degree >= min_degree},
        )

    def __repr__(self) -> str:
        return f"Symbol({self.d}, {format_symbol(self)!r})"


def multi_indices(d: int, total: int) -> list[tuple[int, ...]]:
    """All multi-indices of the given total, in sorted order: each
    multiset of ``total`` axes, read as its count per axis, once."""
    combos = combinations_with_replacement(range(d), total)
    return sorted(tuple(combo.count(i) for i in range(d)) for combo in combos)


def _gamma_factorial(gamma: tuple[int, ...]) -> int:
    return prod(factorial(g) for g in gamma)


def gamma_terms(p: Symbol, q: Symbol, orders):
    """Yield (1/gamma!, d_xi^gamma P, delta^gamma Q) for every gamma whose
    order is in ``orders``, order by order and in ``multi_indices`` order
    within one, each derived from scratch: the walk of the reference
    routes, which share nothing with ``gamma_pairs``."""
    for order in orders:
        for gamma in multi_indices(p.d, order):
            dp, dq = p, q
            for axis, reps in enumerate(gamma, start=1):
                for _ in range(reps):
                    dp = dp.partial_xi(axis)
                    dq = dq.derive(axis)
            yield Fraction(1, _gamma_factorial(gamma)), dp, dq


def _sum_pairs(d: int, pairs) -> Symbol:
    """Sum c . c1 c2 at xi^(m1 m2) over (c, m1, c1, m2, c2), multiplying the
    word sums straight into one ``WordSum`` per monomial; a monomial whose
    words all cancel is dropped."""
    acc: dict[XiMonomial, WordSum] = {}
    for c, m1, c1, m2, c2 in pairs:
        mono = m1 * m2
        if mono not in acc:
            acc[mono] = WordSum()
        acc[mono].add_product(c1, c2, c)
    sums = {mono: words.poly(d) for mono, words in acc.items()}
    return Symbol._trusted(d, {mono: coef for mono, coef in sums.items() if coef})


def gamma_pairs(p: Symbol, q: Symbol, lo: int, hi: int | None = None):
    """Yield (1/gamma!, m1, c1, m2, c2) for every monomial pair of
    d_xi^gamma P and delta^gamma Q with degree in lo..hi (no upper cut when
    hi is None), gamma by gamma, then pair by pair in the symbols' order.

    Gamma is walked depth first on one stack: a child steps along an axis
    a no larger than its parent's smallest nonzero one, so each gamma is
    reached once, from gamma - e_a.  At |gamma| = g, p-monomials below
    lo - maxdeg(q) and q-monomials below lo - maxdeg(p) + g can no longer
    reach the band (d_xi lowers the degree by one, delta keeps it), so
    both are dropped before deriving; a child left empty is not walked.
    """
    p._check(q)
    d = p.d
    if p.is_zero() or q.is_zero():
        return
    top_p, top_q = p.max_degree(), q.max_degree()
    p_floor, q_floor = lo - top_q, lo - top_p
    hi = top_p + top_q if hi is None else hi
    stack = [(p.truncate_below(p_floor), q.truncate_below(q_floor), Fraction(1), (0,) * d, d)]
    while stack:
        dp, dq, inv, gamma, top = stack.pop()
        for m1, c1 in dp.terms.items():
            d1 = m1.degree
            for m2, c2 in dq.terms.items():
                if lo <= d1 + m2.degree <= hi:
                    yield inv, m1, c1, m2, c2
        # d_xi lowers every degree by one, so cut before deriving
        dp = dp.truncate_below(p_floor + 1)
        dq = dq.truncate_below(q_floor + sum(gamma) + 1)
        for axis in range(1, top + 1):
            child_q = dq.derive(axis)
            if child_q.is_zero():
                continue
            child_p = dp.partial_xi(axis)
            if child_p.is_zero():
                continue
            k = gamma[axis - 1] + 1
            stack.append((child_p, child_q, inv / k, _bump(gamma, axis), axis))


def compose(p: Symbol, q: Symbol, lo: int, hi: int | None = None) -> Symbol:
    """Degrees lo..hi of the composition P # Q (no upper cut when hi is None)."""
    return _sum_pairs(p.d, gamma_pairs(p, q, lo, hi))


def symbol_product(p: Symbol, q: Symbol, min_degree: int) -> Symbol:
    """Composition product truncated to degrees >= min_degree."""
    return compose(p, q, min_degree)


def expand_norm(s: Symbol) -> Symbol:
    """Rewrite |xi|^(2m) as (sum_a xi_a^2)^m for nonnegative m.

    Useful for comparing symbols built in the free representation with
    symbols assembled from plain xi-polynomials.
    """
    out: dict[XiMonomial, NCPoly] = {}
    for mono, coef in s.terms.items():
        if mono.m < 0:
            raise ValueError("cannot expand a negative norm power")
        if mono.m == 0:
            _accumulate(out, mono, coef)
            continue
        scale = factorial(mono.m)
        for beta in multi_indices(s.d, mono.m):
            c = Fraction(scale, _gamma_factorial(beta))
            key = XiMonomial(
                tuple(a + 2 * b for a, b in zip(mono.alpha, beta)), 0
            )
            _accumulate(out, key, coef.scale(c))
    return Symbol._trusted(s.d, out)


# ---------------------------------------------------------------------------
# rendering


def format_xi_monomial(mono: XiMonomial) -> str:
    parts = []
    for axis, a in enumerate(mono.alpha, start=1):
        if a == 1:
            parts.append(f"xi{axis}")
        elif a > 1:
            parts.append(f"xi{axis}^{a}")
    if mono.m:
        parts.append(f"|xi|^{2 * mono.m}")
    return ".".join(parts) if parts else "1"


def format_symbol(s: Symbol) -> str:
    if s.is_zero():
        return "0"
    lines = []
    for mono in sorted(
        s.terms, key=lambda mo: (-mo.degree, mo.alpha, mo.m)
    ):
        coef = format_poly(s.terms[mono])
        body = format_xi_monomial(mono)
        if coef == "1":
            lines.append(body)
        elif len(s.terms[mono].terms) > 1:
            lines.append(f"( {coef} ) * {body}")
        else:
            lines.append(f"{coef} * {body}")
    return "\n".join(lines)
