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
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .parametrix import OperatorSpec, laplace_symbol, parametrix_series
from .ncalg import NCPoly, Scalar
from .symcalc import Symbol, XiMonomial, compose, symbol_product
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
    wrong constant is actually caught by the cross-validations.
    """

    def __init__(self, d: int):
        self.d = d
        self._overrides: dict[tuple[int, ...], Scalar] = {}

    def override(self, alpha: tuple[int, ...], value: Scalar):
        self._overrides[tuple(alpha)] = value

    def get(self, alpha: tuple[int, ...]) -> Scalar:
        alpha = tuple(alpha)
        if len(alpha) != self.d:
            raise ValueError("exponent tuple has wrong length")
        hit = self._overrides.get(alpha)
        return hit if hit is not None else sphere_integral(alpha)


def wodzicki_residue(
    s: Symbol, table: SphereIntegralTable | None = None
) -> TraceExpression:
    """Exact residue of a symbol: trace the -d part against the moments."""
    d = s.d
    if table is None:
        table = SphereIntegralTable(d)
    out = TraceExpression.zero(d)
    for mono, coef in s.homogeneous_part(-d).terms.items():
        moment = table.get(mono.alpha)
        if moment:
            out = out + trace(coef).scale(moment)
    return out


def wres_inverse_power(
    spec: OperatorSpec,
    power: int = 1,
    n: int | None = None,
    table: SphereIntegralTable | None = None,
) -> TraceExpression:
    """Residue of the inverse (power 1) or of higher inverse powers.

    The parametrix is expanded to order n (default d - 2*power, the
    deepest term any factor passes to degree -d), composed with itself
    power-1 times, and integrated.  Every factor has top degree -2, so
    with r factors still to come only degrees >= -d + 2r can reach -d;
    each product keeps that band.  The last product (r = 0) keeps degree
    -d alone, the only degree the residue reads; no composition defect is
    formed.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    d = spec.d
    depth = max(d - 2 * power, 0) if n is None else n
    total = sum(parametrix_series(laplace_symbol(spec), depth), Symbol.zero(d))
    s = total
    for k in range(1, power):
        rest = power - 1 - k
        s = compose(s, total, -d + 2 * rest, None if rest else -d)
    return wodzicki_residue(s, table)


def trace_property_probe(
    p: Symbol, q: Symbol, table: SphereIntegralTable | None = None
) -> tuple[TraceExpression, TraceExpression, bool]:
    """Residues of p#q and q#p plus whether they agree modulo
    integration by parts; agreement is the trace property of the residue."""
    d = p.d
    r_pq = wodzicki_residue(symbol_product(p, q, -d), table)
    r_qp = wodzicki_residue(symbol_product(q, p, -d), table)
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
