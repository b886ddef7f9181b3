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

with the coefficients of P kept to the left.  ``compose`` is its one
implementation: it returns a band of degrees lo..hi, and pruning what can
no longer reach the band also ends the gamma sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from .ncalg import NCPoly, Scalar, as_scalar, format_poly


@dataclass(frozen=True)
class XiMonomial:
    alpha: tuple[int, ...]
    m: int = 0

    def __post_init__(self):
        if any(a < 0 for a in self.alpha):
            raise ValueError("xi exponents must be nonnegative")

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


def _unit(d: int, axis: int) -> tuple[int, ...]:
    return tuple(1 if i == axis - 1 else 0 for i in range(d))


class Symbol:
    """Finite sum of xi-monomials with NCPoly coefficients."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[XiMonomial, NCPoly] | None = None):
        self.d = d
        self.terms: dict[XiMonomial, NCPoly] = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono.alpha) != d:
                    raise ValueError("xi exponent tuple has wrong length")
                if not coef.is_zero():
                    self.terms[mono] = coef

    @classmethod
    def zero(cls, d: int) -> "Symbol":
        return cls(d)

    @classmethod
    def one(cls, d: int) -> "Symbol":
        return cls(d, {XiMonomial((0,) * d, 0): NCPoly.one(d)})

    @classmethod
    def from_poly(
        cls, coef: NCPoly, alpha: tuple[int, ...] | None = None, m: int = 0
    ) -> "Symbol":
        alpha = alpha if alpha is not None else (0,) * coef.d
        return cls(coef.d, {XiMonomial(alpha, m): coef})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Symbol is not hashable")

    def __add__(self, other: "Symbol") -> "Symbol":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            cur = out.get(mono)
            total = coef if cur is None else cur + coef
            if total.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = total
        return Symbol(self.d, out)

    def __neg__(self) -> "Symbol":
        return Symbol(self.d, {mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other: "Symbol") -> "Symbol":
        return self + (-other)

    def scale(self, c) -> "Symbol":
        c = as_scalar(c)
        return Symbol(self.d, {mono: coef.scale(c) for mono, coef in self.terms.items()})

    def derive(self, axis: int) -> "Symbol":
        """Torus derivation applied to every coefficient; xi is untouched."""
        return Symbol(
            self.d, {mono: coef.derive(axis) for mono, coef in self.terms.items()}
        )

    def partial_xi(self, axis: int) -> "Symbol":
        out: dict[XiMonomial, NCPoly] = {}
        e = _unit(self.d, axis)
        for mono, coef in self.terms.items():
            a = mono.alpha[axis - 1]
            if a:
                down = XiMonomial(
                    tuple(x - y for x, y in zip(mono.alpha, e)), mono.m
                )
                _acc(out, down, coef.scale(a))
            if mono.m:
                up = XiMonomial(
                    tuple(x + y for x, y in zip(mono.alpha, e)), mono.m - 1
                )
                _acc(out, up, coef.scale(2 * mono.m))
        return Symbol(self.d, out)

    def pointwise_mul(
        self,
        other: "Symbol",
        min_degree: int | None = None,
        max_degree: int | None = None,
    ) -> "Symbol":
        """Product at a frozen xi: coefficients multiply in order, xi
        exponents add.  Pairs landing below min_degree or above max_degree
        are skipped before their coefficients are multiplied."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        out: dict[XiMonomial, NCPoly] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                deg = m1.degree + m2.degree
                if min_degree is not None and deg < min_degree:
                    continue
                if max_degree is not None and deg > max_degree:
                    continue
                _acc(out, m1 * m2, c1 * c2)
        return Symbol(self.d, out)

    def degrees(self) -> list[int]:
        return sorted({mono.degree for mono in self.terms})

    def max_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero symbol has no degree")
        return max(mono.degree for mono in self.terms)

    def homogeneous_part(self, k: int) -> "Symbol":
        return Symbol(
            self.d,
            {mono: coef for mono, coef in self.terms.items() if mono.degree == k},
        )

    def truncate_below(self, min_degree: int) -> "Symbol":
        return Symbol(
            self.d,
            {m: c for m, c in self.terms.items() if m.degree >= min_degree},
        )

    def __repr__(self) -> str:
        return f"Symbol({self.d}, {format_symbol(self)!r})"


def _acc(terms: dict[XiMonomial, NCPoly], mono: XiMonomial, coef: NCPoly):
    if coef.is_zero():
        return
    cur = terms.get(mono)
    total = coef if cur is None else cur + coef
    if total.is_zero():
        terms.pop(mono, None)
    else:
        terms[mono] = total


def multi_indices(d: int, total: int) -> list[tuple[int, ...]]:
    """All multi-indices of the given total, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(d), total):
        gamma = [0] * d
        for i in combo:
            gamma[i] += 1
        out.append(tuple(gamma))
    return sorted(set(out))


def _gamma_factorial(gamma: tuple[int, ...]) -> int:
    out = 1
    for g in gamma:
        out *= factorial(g)
    return out


def compose(p: Symbol, q: Symbol, lo: int, hi: int | None = None) -> Symbol:
    """Degrees lo..hi of the composition P # Q (no upper cut when hi is None).

    At level |gamma| = g, p-monomials below lo - maxdeg(q) and q-monomials
    below lo - maxdeg(p) + g can no longer reach the band (d_xi lowers the
    degree by one, delta keeps it), so both are dropped before deriving.
    """
    if p.d != q.d:
        raise ValueError("dimension mismatch")
    d = p.d
    if p.is_zero() or q.is_zero():
        return Symbol.zero(d)
    p_floor = lo - q.max_degree()
    q_floor = lo - p.max_degree()
    acc: dict[XiMonomial, NCPoly] = {}
    # (d_xi^gamma p, delta^gamma q) for the live gammas of one level
    level = {(0,) * d: (p.truncate_below(p_floor), q.truncate_below(q_floor))}
    g = 0
    while level:
        for gamma, (dp, dq) in sorted(level.items()):
            inv = Scalar(Fraction(1, _gamma_factorial(gamma)))
            piece = dp.pointwise_mul(dq, lo, hi)
            for mono, coef in piece.terms.items():
                _acc(acc, mono, coef if inv.q == 1 else coef.scale(inv))
        g += 1
        nxt: dict[tuple[int, ...], tuple[Symbol, Symbol]] = {}
        for gamma in multi_indices(d, g):
            axis = next(i + 1 for i, k in enumerate(gamma) if k)
            parent = tuple(k - 1 if i == axis - 1 else k for i, k in enumerate(gamma))
            if parent not in level:
                continue  # nothing of this branch can reach the band
            dp = level[parent][0].partial_xi(axis).truncate_below(p_floor)
            dq = level[parent][1].truncate_below(q_floor + g).derive(axis)
            if not (dp.is_zero() or dq.is_zero()):
                nxt[gamma] = (dp, dq)
        level = nxt
    return Symbol(d, acc)


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
            _acc(out, mono, coef)
            continue
        scale = factorial(mono.m)
        for beta in multi_indices(s.d, mono.m):
            c = Fraction(scale, _gamma_factorial(beta))
            key = XiMonomial(
                tuple(a + 2 * b for a, b in zip(mono.alpha, beta)), 0
            )
            _acc(out, key, coef.scale(c))
    return Symbol(s.d, out)


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
        elif "+" in coef or coef.count(" - ") > 0:
            lines.append(f"( {coef} ) * {body}")
        else:
            lines.append(f"{coef} * {body}")
    return "\n".join(lines)
