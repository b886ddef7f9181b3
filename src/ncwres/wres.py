"""Wodzicki residue through exact sphere moments.

The residue of a symbol is the trace of its degree ``-d`` homogeneous
component integrated over the unit sphere.  On the sphere every
``|xi|^(2m)`` factor is 1, so each monomial contributes its coefficient
times the moment

    integral_{S^(d-1)} xi^alpha dsigma
        = 2 prod_i Gamma((alpha_i + 1)/2) / Gamma((|alpha| + d)/2),

which vanishes when any exponent is odd and is an exact rational multiple
of pi^(d/2) when all are even (half-integer Gamma values pair up with the
even dimension).  A moment is stored and returned as that rational alone,
a ``Fraction``; pi^(d/2) enters a computed residue in one place,
``_traced``.  No 2pi normalization is applied.

Every residue is that of a product F_1 # ... # F_k, and one function,
``_residue_coefficient``, reads it; one factor is read as F_1 # 1.  The
products F_1 # ... # F_(k-1) are formed by ``symcalc.compose``, each
cut below at -d minus the top degrees of the factors still to come, the
lowest degree that can still reach -d.  The last product is never
formed.  The reader visits its monomial pairs from
``symcalc.gamma_pairs`` of degree ``-d``, multiplies a pair only if the
table gives its summed alpha a nonzero moment, weights it by that
rational, and sums every pair into one ``ncalg.WordSum``, exact integer
numerators over one denominator, read straight from each coefficient's
own numerators.  The result is a rational polynomial whose trace times
pi^(d/2) is the residue, and it is traced once.
``wodzicki_residue`` reads [s] and ``trace_property_probe`` reads
[P, Q] and [Q, P], so the probe forms no product.
``wres_inverse_power`` never forms the deepest parametrix term
b_(d-2p), for any power p: it reads p copies of b_0 + ... + b_(d-2p-1),
and that sum against the operator symbol with b_0^p on the right, adds
the two coefficients and traces them once.  The table caches every
moment and an override writes into that cache, so an injected fault
reaches the result exactly as it would through the full product.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add

from .parametrix import OperatorSpec, laplace_symbol, parametrix_series
from .ncalg import NCPoly, Scalar, WordSum, _bump
from .symcalc import Symbol, XiMonomial, compose, gamma_pairs
from .trace import TraceExpression, trace, trace_equal


def sphere_integral(alpha: tuple[int, ...]) -> Fraction:
    """Moment of xi^alpha over the unit sphere in len(alpha) dimensions,
    as the rational that multiplies pi^(len(alpha)/2)."""
    d = len(alpha)
    if d < 2 or d % 2:
        raise ValueError("dimension must be even and at least 2")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    num = Fraction(2)
    for a in alpha:
        k = a // 2
        num *= Fraction(factorial(2 * k), 4 ** k * factorial(k))
    half = (sum(alpha) + d) // 2
    return num / factorial(half - 1)


class SphereIntegralTable:
    """Moment cache with an override hook for fault injection.

    Overriding a moment lets the self-check pipeline demonstrate that a
    wrong constant is actually caught by the cross-validations.  Every
    moment, computed or overridden, is the rational of pi^(d/2), so an
    override takes a rational (a ``Scalar`` raises ``TypeError``) and
    writes it into the cache, where every reader sees it.  Its ``alpha``
    is checked as every read checks it: a wrong length or a negative
    exponent raises ``ValueError``, so only a moment that some read can
    meet is ever stored.
    """

    def __init__(self, d: int):
        self.d = d
        self._moments: dict[tuple[int, ...], Fraction] = {}

    def override(self, alpha: tuple[int, ...], value: Fraction | int):
        alpha = tuple(alpha)
        self.get(alpha)  # raises for an alpha no read accepts
        self._moments[alpha] = Fraction(value)

    def get(self, alpha: tuple[int, ...]) -> Fraction:
        alpha = tuple(alpha)
        if len(alpha) != self.d:
            raise ValueError("exponent tuple has wrong length")
        m = self._moments.get(alpha)
        if m is None:
            m = self._moments[alpha] = sphere_integral(alpha)
        return m


def _residue_coefficient(
    factors: list[Symbol],
    table: SphereIntegralTable | None = None,
    tail: Symbol | None = None,
) -> NCPoly:
    """Rational coefficient of the residue of (F_1 # ... # F_k) . tail:
    its trace times pi^(d/2) is the residue.  One factor is read as
    F_1 # 1.

    ``tail`` is one monomial, or None for the identity; the band is -d
    minus its degree.  Each product F_1 # ... # F_j with 1 < j < k is
    formed by ``compose`` and keeps only the degrees that can still
    reach the band beside F_(j+1), ..., F_k: those at or above the band
    minus the sum of their ``max_degree()``, so F_3, ..., F_k must be
    nonzero.  The last product, (F_1 # ... # F_(k-1)) # F_k, is never
    formed: every pair of it with a nonzero moment in the table
    (overrides included) goes into one ``WordSum``, weighted by 1/gamma!
    times that moment.  The pair loop multiplies integers only, and the
    sum becomes one ``NCPoly``, multiplied by the tail's coefficient.
    """
    d = factors[0].d
    table = SphereIntegralTable(d) if table is None else table
    band, shift, right = -d, (0,) * d, None
    if tail is not None:
        ((mono, right),) = tail.terms.items()
        band, shift = -d - mono.degree, mono.alpha
    s, *rest = factors
    rest = rest or [Symbol.one(d)]
    while len(rest) > 1:
        f, *rest = rest
        s = compose(s, f, band - sum(g.max_degree() for g in rest))
    moment = table.get
    words = WordSum()
    for inv, m1, c1, m2, c2 in gamma_pairs(s, rest[0], band, band):
        m = moment(tuple(map(add, map(add, m1.alpha, m2.alpha), shift)))
        if m:
            words.add_product(c1, c2, inv * m)
    coef = words.poly(d)
    return coef if right is None else coef * right


def _traced(coef: NCPoly) -> TraceExpression:
    """The residue whose rational coefficient is ``coef``: the one place
    where a computed residue gets its pi^(d/2)."""
    return trace(coef).scale(Scalar(1, coef.d // 2))


def wodzicki_residue(
    s: Symbol, table: SphereIntegralTable | None = None
) -> TraceExpression:
    """Exact residue of a symbol: trace the -d part against the moments.
    It is read as s # 1, whose only pairs are s's own monomials."""
    return _traced(_residue_coefficient([s], table))


def wres_inverse_power(
    spec: OperatorSpec,
    power: int = 1,
    n: int | None = None,
    table: SphereIntegralTable | None = None,
) -> TraceExpression:
    """Residue of the inverse power Delta^-power, traced once.

    The parametrix B = b_0 + ... + b_D with D = d - 2*power holds every
    term that any factor of B # ... # B passes to degree -d.  The deepest
    term b_D is never formed.  It reaches degree -d only beside p - 1
    copies of b_0 (alpha = 0, a power of h times |xi|^-2) and only at
    gamma = 0, and the last parametrix step gives

        b_D = -band_(-D)( B' # a ) . b_0,    B' = b_0 + ... + b_(D-1).

    The trace is cyclic, so all ``power`` places of b_D give one residue:

        Wres = res(B'^#power) + power . res( (B' # a) . (-b_0^power) ).

    Both terms are read by ``_residue_coefficient``: the first from
    ``power`` copies of B', the second from B' and a with b_0^power,
    taken pointwise, as its tail.  At power 1 the first is zero, since B'
    stops above degree -d, and costs one walk over B''s monomials.  The
    two rational coefficients are added and traced once.  No composition
    defect is formed.

    D <= 0 (the volume at power d/2, and any higher power) reads the
    product of b_0 alone, and an explicit ``n`` below D that of
    b_0 + ... + b_n, with no tail.  Any ``n`` >= D gives the default
    result and builds no deeper term.
    """
    if type(power) is not int or power < 1:
        raise ValueError(f"power must be an int of at least 1, not {power!r}")
    if n is not None and (type(n) is not int or n < 0):
        raise ValueError(f"n must be None or a nonnegative int, not {n!r}")
    d = spec.d
    deep = d - 2 * power
    a = laplace_symbol(spec)
    shallow = n is not None and n < deep
    if deep <= 0 or shallow:
        total = sum(parametrix_series(a, n if shallow else 0), Symbol.zero(d))
        return _traced(_residue_coefficient([total] * power, table))
    terms = parametrix_series(a, deep - 1)
    head = sum(terms, Symbol.zero(d))
    b0_power = terms[0]
    for _ in range(power - 1):
        b0_power = b0_power.pointwise_mul(terms[0])
    coef = _residue_coefficient([head] * power, table) + _residue_coefficient(
        [head, a], table, tail=b0_power.scale(-power)
    )
    return _traced(coef)


def trace_property_probe(
    p: Symbol, q: Symbol, table: SphereIntegralTable | None = None
) -> tuple[TraceExpression, TraceExpression, bool]:
    """Residues of p#q and q#p plus whether they agree modulo
    integration by parts; agreement is the trace property of the residue."""
    r_pq = _traced(_residue_coefficient([p, q], table))
    r_qp = _traced(_residue_coefficient([q, p], table))
    return r_pq, r_qp, trace_equal(r_pq, r_qp)


def sphere_derivative_dichotomy(
    i: int, j: int, rho: int, d: int, table: SphereIntegralTable | None = None
) -> Fraction:
    """Sphere integral of d/dxi_i ( xi_j |xi|^(rho-1) ), as the rational
    of pi^(d/2).

    Evaluates to delta_ij * Vol(S^(d-1)) * (1 + (rho-1)/d): zero exactly
    at the residue-critical homogeneity rho = 1-d and nonzero at every
    other odd rho.  Even rho would need a half-integer norm power, which
    the symbol representation rejects.
    """
    if (rho - 1) % 2:
        raise ValueError("rho - 1 must be even to form |xi|^(rho-1)")
    if table is None:
        table = SphereIntegralTable(d)
    f = Symbol(d, {XiMonomial(_bump((0,) * d, j), (rho - 1) // 2): NCPoly.one(d)})
    out = Fraction(0)
    for mono, coef in f.partial_xi(i).terms.items():
        out += table.get(mono.alpha) * coef.terms[()]
    return out
