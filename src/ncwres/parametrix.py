"""Symbol of the conformally rescaled Laplacian and its parametrix.

The operator acts on the torus algebra as

    sum_a p d_a( q d_a( p . ) )  +  (1/2) sum_a (T_a d_a + d_a T_a)  +  X,

with conformal factors p = h^(-d/2) and q = h^(d-2).  Expanding the outer
derivations by the Leibniz rule gives a polynomial symbol of degree two:

    degree 2:  (p q p) |xi|^2
    degree 1:  sum_a ( 2 p q d_a(p) + p d_a(q) p + T_a ) xi_a
    degree 0:  sum_a ( p d_a(q) d_a(p) + p q d_aa(p) + (1/2) d_a(T_a) ) + X

All three lines come straight from the expansion; in particular the
degree-1 coefficient keeps its factors in operator order, which matters:
its commutative limit must match the classical conformal Laplacian, and
it does (h^(-2) gets -2 h'/h^3 at d=4).

The parametrix recursion inverts the symbol degree by degree from the
top.  The leading coefficient is a power of h, so its pointwise two-sided
inverse is exact and the recursion stays inside the free algebra.
``closed_forms`` builds the same terms a second way, one gamma at a time
with pointwise products only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .ncalg import Algebra, Frozen, Letter, NCPoly, Record
from .symcalc import (
    Symbol,
    XiMonomial,
    _sum_pairs,
    _unit,
    compose,
    gamma_terms,
    symbol_product,
)


class OperatorSpec(Frozen):
    """Configuration of the operator: dimension, torsion, potential,
    and the flat (h = 1) degeneration."""

    __slots__ = ("d", "include_t", "include_x", "flat")

    def __init__(
        self, d: int = 4, include_t: bool = True, include_x: bool = False, flat: bool = False
    ):
        if type(d) is not int:
            raise ValueError(f"dimension must be an int, not {d!r}")
        for name, value in (("include_t", include_t), ("include_x", include_x), ("flat", flat)):
            if type(value) is not bool:
                raise ValueError(f"{name} must be true or false")
        if d < 2 or d % 2:
            raise ValueError("dimension must be even and at least 2")
        super().__init__(d, include_t, include_x, flat)


def laplace_symbol(spec: OperatorSpec) -> Symbol:
    alg = Algebra(spec.d)
    d = spec.d
    zero = (0,) * d
    if spec.flat:
        p = alg.one()
        q = alg.one()
    else:
        p = alg.h_power(-(d // 2))
        q = alg.h_power(d - 2)
    pq = p * q
    terms = {XiMonomial(zero, 1): pq * p}
    phi = alg.zero()
    for a in range(1, d + 1):
        dp = p.derive(a)
        pdq = p * q.derive(a)
        y = pq * dp * 2 + pdq * p
        if spec.include_t:
            y = y + alg.t(a)
        if not y.is_zero():
            terms[XiMonomial(_unit(d, a), 0)] = y
        phi = phi + pdq * dp + pq * dp.derive(a)
        if spec.include_t:
            phi = phi + alg.t(a).derive(a).scale(Fraction(1, 2))
    if spec.include_x:
        phi = phi + alg.x()
    if not phi.is_zero():
        terms[XiMonomial(zero, 0)] = phi
    return Symbol(d, terms)


def invert_leading(a: Symbol) -> Symbol:
    """Two-sided pointwise inverse of the leading term.

    Requires the top part to be a single |xi|^2 monomial whose coefficient
    is a scalar multiple of a power of h.
    """
    d = a.d
    top = a.homogeneous_part(a.max_degree())
    key = XiMonomial((0,) * d, 1)
    if list(top.terms) != [key]:
        raise ValueError("leading term is not a single |xi|^2 monomial")
    coef = top.terms[key]
    if len(coef.terms) != 1:
        raise ValueError("leading coefficient is not a monomial")
    ((word, sc),) = coef.terms.items()
    if any(let.order or let.kind not in ("H", "Hinv") for let in word):
        raise ValueError("leading coefficient is not a power of h")
    flipped = tuple(
        Letter("Hinv" if let.kind == "H" else "H", (0,) * d) for let in reversed(word)
    )
    inv = NCPoly.from_word(d, flipped, 1 / sc)
    return Symbol(d, {XiMonomial((0,) * d, -1): inv})


class ParametrixResult(Record):
    __slots__ = ("terms", "defect")

    def total(self) -> Symbol:
        return sum(self.terms, Symbol.zero(self.terms[0].d))


def parametrix_series(a: Symbol, n: int, side: str = "left") -> list[Symbol]:
    """Terms b_0 .. b_n of the parametrix.

    For the left parametrix, degree -m of B # A vanishing gives

        b_m = -band_{-m}( (b_0 + ... + b_{m-1}) # a ) . b_0,

    with the degree -m band taken by ``compose``; the right parametrix
    mirrors the factors.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if n < 0:
        raise ValueError("need at least the leading term")
    b0 = invert_leading(a)
    neg_b0 = -b0
    bs = [b0]
    total = b0
    for m in range(1, n + 1):
        if side == "left":
            b = compose(total, a, -m, -m).pointwise_mul(neg_b0)
        else:
            b = neg_b0.pointwise_mul(compose(a, total, -m, -m))
        bs.append(b)
        total = total + b
    return bs


def parametrix_terms(a: Symbol, n: int, side: str = "left") -> ParametrixResult:
    """``parametrix_series`` plus the composition defect that certifies it.

    The defect is the composition of the summed terms with the symbol,
    minus 1, truncated at degree -n; it is identically zero there when
    the recursion is correct.
    """
    terms = parametrix_series(a, n, side)
    total = sum(terms, Symbol.zero(a.d))
    if side == "left":
        product = symbol_product(total, a, -n)
    else:
        product = symbol_product(a, total, -n)
    return ParametrixResult(terms, product - Symbol.one(a.d))


def closed_forms(spec: OperatorSpec, n: int) -> list[Symbol]:
    """b_0 .. b_n term by term, a second route to ``parametrix_series``:

        b_m = -( sum (1/gamma!) d_xi^gamma b_j . delta^gamma a_k ) . b_0

    over j < m, k = 0..2 and |gamma| = m - j - 2 + k, with a_k the degree-k
    part of the symbol.  Every monomial pair of d_xi^gamma b_j and
    delta^gamma a_k, weighted by -1/gamma!, goes into one sum, which is
    then multiplied by b_0.  Each gamma is derived from scratch by
    ``gamma_terms`` and the products are pointwise, so no ``compose`` or
    ``gamma_pairs`` is used.
    """
    a = laplace_symbol(spec)
    parts = [a.homogeneous_part(k) for k in range(3)]
    b0 = invert_leading(a)
    bs = [b0]
    for m in range(1, n + 1):
        pairs = []
        for j, b in enumerate(bs):
            for k in range(max(0, j + 2 - m), 3):
                for inv, dp, dq in gamma_terms(b, parts[k], [m - j - 2 + k]):
                    for (m1, c1), (m2, c2) in product(dp.terms.items(), dq.terms.items()):
                        pairs.append((-inv, m1, c1, m2, c2))
        bs.append(_sum_pairs(spec.d, pairs).pointwise_mul(b0))
    return bs


def closed_form_b1(spec: OperatorSpec) -> Symbol:
    """First subleading parametrix term, assembled directly."""
    return closed_forms(spec, 1)[1]


def closed_form_b2(spec: OperatorSpec) -> Symbol:
    """Second subleading parametrix term, assembled directly."""
    return closed_forms(spec, 2)[2]
