"""Wodzicki residue through exact sphere moments.

The residue of a symbol is the trace of its degree ``-d`` homogeneous
component integrated over the unit sphere.  On the sphere every
``|xi|^(2m)`` factor is 1, so each monomial contributes its coefficient
times the moment

    integral_{S^(d-1)} xi^alpha dsigma
        = 2 prod_i Gamma((alpha_i + 1)/2) / Gamma((|alpha| + d)/2),

which vanishes when any exponent is odd and is an exact rational multiple
of pi^(d/2) when all are even (half-integer Gamma values pair up with the
even dimension).  No 2pi normalization is applied.

One function, ``_product_residue``, reads every residue, that of a
product P # Q, without forming the product.  It visits the monomial pairs
of ``symcalc.gamma_pairs`` of degree ``-d``, multiplies a pair only if
the table gives its summed alpha a nonzero moment, a rational times
pi^(d/2), and sums every pair into one ``ncalg.WordSum``, exact integer
numerators over one denominator, whose words are traced once.  The sum
reads each coefficient through the integer form the ``NCPoly`` keeps on
itself, so that form goes with the coefficient once the walk of
``gamma_pairs`` leaves it behind.
``wodzicki_residue`` reads a symbol s as s # 1, ``wres_inverse_power``
reads the product that reaches degree ``-d``, and ``trace_property_probe``
reads P # Q and Q # P.  The table caches every moment and an override
writes into that cache, so an injected fault reaches the result exactly
as it would through the full product.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add

from .parametrix import OperatorSpec, laplace_symbol, parametrix_series
from .ncalg import NCPoly, Scalar, WordSum
from .symcalc import Symbol, XiMonomial, compose, gamma_pairs
from .trace import TraceExpression, trace, trace_equal


def sphere_integral(alpha: tuple[int, ...]) -> Scalar:
    """Moment of xi^alpha over the unit sphere in len(alpha) dimensions."""
    d = len(alpha)
    if d < 2 or d % 2:
        raise ValueError("dimension must be even and at least 2")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if any(a % 2 for a in alpha):
        return Scalar(Fraction(0))
    num = Fraction(2)
    for a in alpha:
        k = a // 2
        num *= Fraction(factorial(2 * k), 4 ** k * factorial(k))
    half = (sum(alpha) + d) // 2
    return Scalar(num / factorial(half - 1), pi=d // 2)


class SphereIntegralTable:
    """Moment cache with an override hook for fault injection.

    Overriding a moment lets the self-check pipeline demonstrate that a
    wrong constant is actually caught by the cross-validations.  An
    override writes into the cache, so every reader sees it; a nonzero
    one must keep the pi^(d/2) that lets the residue sum moments as rationals.
    """

    def __init__(self, d: int):
        self.d = d
        self._moments: dict[tuple[int, ...], Scalar] = {}

    def override(self, alpha: tuple[int, ...], value: Scalar):
        if value and value.pi != self.d // 2:
            raise ValueError(f"moments in d={self.d} are rationals times pi^{self.d // 2}")
        self._moments[tuple(alpha)] = value

    def get(self, alpha: tuple[int, ...]) -> Scalar:
        alpha = tuple(alpha)
        if len(alpha) != self.d:
            raise ValueError("exponent tuple has wrong length")
        m = self._moments.get(alpha)
        if m is None:
            m = self._moments[alpha] = sphere_integral(alpha)
        return m


def _product_residue(
    p: Symbol, q: Symbol, table: SphereIntegralTable | None = None, tail: Symbol | None = None
) -> TraceExpression:
    """Residue of (P # Q) . tail without forming P # Q.

    ``tail`` is one monomial, or None for the identity.  Every moment is
    a rational times pi^(d/2), so each pair with a nonzero moment in the
    table (overrides included) goes into one ``WordSum``, weighted by
    1/gamma! times that rational.  The pair loop multiplies integers
    only; the sum's ``Fraction``s, times the tail's coefficient, are
    traced once.
    """
    d = p.d
    table = SphereIntegralTable(d) if table is None else table
    band, shift, right = -d, (0,) * d, None
    if tail is not None:
        ((mono, right),) = tail.terms.items()
        band, shift = -d - mono.degree, mono.alpha
    moment = table.get
    words = WordSum()
    for inv, m1, c1, m2, c2 in gamma_pairs(p, q, band, band):
        m = moment(tuple(map(add, map(add, m1.alpha, m2.alpha), shift)))
        if m:
            words.add_product(c1, c2, inv * m.q)
    coef = NCPoly._trusted(d, words.terms())
    if right is not None:
        coef = coef * right
    return trace(coef).scale(Scalar(1, d // 2))


def wodzicki_residue(
    s: Symbol, table: SphereIntegralTable | None = None
) -> TraceExpression:
    """Exact residue of a symbol: trace the -d part against the moments.
    It is read as s # 1, whose only pairs are s's own monomials."""
    return _product_residue(s, Symbol.one(s.d), table)


def wres_inverse_power(
    spec: OperatorSpec,
    power: int = 1,
    n: int | None = None,
    table: SphereIntegralTable | None = None,
) -> TraceExpression:
    """Residue of the inverse (power 1) or of higher inverse powers.

    The parametrix is expanded to order n (default d - 2*power, the
    deepest term any factor passes to degree -d) and composed with itself
    power-1 times.  Every factor has top degree -2, so with r factors
    still to come only degrees >= -d + 2r can reach -d; each product
    keeps that band.

    The product that reaches degree -d is never formed: its monomial
    pairs of degree -d run straight into the one residue word sum,
    skipping every pair with a zero moment.  For power >= 2 that product
    is the last composition.  For power 1 it is the last parametrix step,

        b_(d-2) = -band_(2-d)( (b_0 + ... + b_(d-3)) # a ) . b_0,

    so the series is expanded only to b_(d-3), and b_0 (alpha = 0) just
    multiplies the word sum on the right.  No composition defect is
    formed.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    d = spec.d
    depth = max(d - 2 * power, 0) if n is None else n
    a = laplace_symbol(spec)
    if power == 1 and d > 2 and depth >= d - 2:
        terms = parametrix_series(a, d - 3)
        return _product_residue(sum(terms, Symbol.zero(d)), a, table, tail=-terms[0])
    total = sum(parametrix_series(a, depth), Symbol.zero(d))
    if power == 1:
        # b_0 itself at d = 2; no degree -d term at all below depth d - 2
        return wodzicki_residue(total, table)
    s = total
    for rest in range(power - 2, 0, -1):
        s = compose(s, total, -d + 2 * rest)
    return _product_residue(s, total, table)


def trace_property_probe(
    p: Symbol, q: Symbol, table: SphereIntegralTable | None = None
) -> tuple[TraceExpression, TraceExpression, bool]:
    """Residues of p#q and q#p plus whether they agree modulo
    integration by parts; agreement is the trace property of the residue."""
    r_pq = _product_residue(p, q, table)
    r_qp = _product_residue(q, p, table)
    return r_pq, r_qp, trace_equal(r_pq, r_qp)


def sphere_derivative_dichotomy(
    i: int, j: int, rho: int, d: int, table: SphereIntegralTable | None = None
) -> Scalar:
    """Sphere integral of d/dxi_i ( xi_j |xi|^(rho-1) ).

    Evaluates to delta_ij * Vol(S^(d-1)) * (1 + (rho-1)/d): zero exactly
    at the residue-critical homogeneity rho = 1-d and nonzero at every
    other odd rho.  Even rho would need a half-integer norm power, which
    the symbol representation rejects.
    """
    if (rho - 1) % 2:
        raise ValueError("rho - 1 must be even to form |xi|^(rho-1)")
    if table is None:
        table = SphereIntegralTable(d)
    alpha = tuple(1 if k == j - 1 else 0 for k in range(d))
    f = Symbol(d, {XiMonomial(alpha, (rho - 1) // 2): NCPoly.one(d)})
    out = Scalar(Fraction(0))
    for mono, coef in f.partial_xi(i).terms.items():
        moment = table.get(mono.alpha)
        if moment:
            out = out + moment * coef.terms[()]
    return out
