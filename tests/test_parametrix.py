from fractions import Fraction

import pytest

from ncwres.ncalg import Algebra, NCPoly
from ncwres.parametrix import (
    OperatorSpec,
    ParametrixResult,
    closed_form_b1,
    closed_form_b2,
    closed_forms,
    invert_leading,
    laplace_symbol,
    parametrix_series,
    parametrix_terms,
)
from ncwres.symcalc import Symbol, XiMonomial, expand_norm, symbol_product

D = 4
ALG = Algebra(D)
U = ALG.h_power(2)
V = ALG.h_power(-2)

SPEC_T = OperatorSpec(d=4, include_t=True, include_x=False)
SPEC_TX = OperatorSpec(d=4, include_t=True, include_x=True)
SPEC_PLAIN = OperatorSpec(d=4, include_t=False, include_x=False)
SPEC_FLAT = OperatorSpec(d=4, include_t=False, include_x=False, flat=True)
SPEC_FLAT_T = OperatorSpec(d=4, include_t=True, include_x=False, flat=True)


def unit(*axes):
    alpha = [0] * D
    for a in axes:
        alpha[a - 1] += 1
    return tuple(alpha)


def w(k):
    return U.derive(k)


def z(j, k):
    return U.derive(k).derive(j)


def test_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(d=3)
    with pytest.raises(ValueError):
        OperatorSpec(d=0)


def test_leading_term_is_conformal():
    a = laplace_symbol(SPEC_T)
    assert a.homogeneous_part(2) == Symbol(D, {XiMonomial(unit(), 1): V})
    flat = laplace_symbol(SPEC_FLAT)
    assert flat == Symbol(D, {XiMonomial(unit(), 1): ALG.one()})


def test_first_order_coefficient():
    # the expansion collapses to -h^-2 d_a(h^2) h^-2 + T_a at d=4
    a = laplace_symbol(SPEC_T)
    for k in range(1, D + 1):
        got = a.terms[XiMonomial(unit(k), 0)]
        assert got == -(V * w(k) * V) + ALG.t(k)


def test_first_order_coefficient_without_torsion():
    a = laplace_symbol(SPEC_PLAIN)
    assert a.terms[XiMonomial(unit(1), 0)] == -(V * w(1) * V)


def test_zero_order_flat_with_torsion():
    a = laplace_symbol(SPEC_FLAT_T)
    phi = a.terms[XiMonomial(unit(), 0)]
    want = ALG.zero()
    for k in range(1, D + 1):
        want = want + ALG.t(k).derive(k).scale(Fraction(1, 2))
    assert phi == want


def test_invert_leading():
    b0 = invert_leading(laplace_symbol(SPEC_T))
    assert b0 == Symbol(D, {XiMonomial(unit(), -1): U})


def test_invert_leading_rejects_spread_leading_term():
    s = Symbol(
        D,
        {
            XiMonomial(unit(1, 1), 0): ALG.one(),
            XiMonomial(unit(), 1): ALG.one(),
        },
    )
    with pytest.raises(ValueError):
        invert_leading(s)


@pytest.mark.parametrize(
    "coef, message",
    [
        (ALG.h() + ALG.hinv(), "not a monomial"),
        (ALG.h() * ALG.t(1), "not a power of h"),
        (ALG.h().derive(1), "not a power of h"),
    ],
    ids=["two-words", "torsion-letter", "derived-h"],
)
def test_invert_leading_rejects_a_coefficient_it_cannot_invert(coef, message):
    s = Symbol(D, {XiMonomial(unit(), 1): coef})
    with pytest.raises(ValueError, match=message):
        invert_leading(s)


def frozen_b1():
    terms = {}
    for k in range(1, D + 1):
        terms[XiMonomial(unit(k), -2)] = -(w(k) + U * ALG.t(k) * U)
    return Symbol(D, terms)


def frozen_b2():
    # second parametrix term with torsion and potential, derived by hand
    # from the recursion and double-checked against the flat degeneration
    sym = Symbol.zero(D)
    coef4 = ALG.zero()
    for k in range(1, D + 1):
        coef4 = coef4 + U * ALG.t(k).derive(k) * U * Fraction(1, 2) + U * ALG.t(
            k
        ) * w(k)
    coef4 = coef4 + U * ALG.x() * U
    sym = sym + Symbol(D, {XiMonomial(unit(), -2): -coef4})
    for j in range(1, D + 1):
        for k in range(1, D + 1):
            c = (
                w(j) * V * w(k)
                - w(k) * V * w(j) * 2
                + z(j, k) * 2
                + w(j) * ALG.t(k) * U
                + U * ALG.t(j) * w(k) * 3
                + U * ALG.t(j) * U * ALG.t(k) * U
                + U * ALG.t(k).derive(j) * U * 2
            )
            sym = sym + Symbol(D, {XiMonomial(unit(j, k), -3): c})
    return sym


def test_b1_recursion_frozen():
    res = parametrix_terms(laplace_symbol(SPEC_T), 1)
    assert res.terms[1] == frozen_b1()


def test_b1_closed_form_matches_recursion():
    for spec in (SPEC_T, SPEC_PLAIN, SPEC_FLAT_T):
        res = parametrix_terms(laplace_symbol(spec), 1)
        assert closed_form_b1(spec) == res.terms[1]


def test_b2_closed_form_frozen():
    assert closed_form_b2(SPEC_TX) == frozen_b2()


def test_b2_recursion_matches_closed_form():
    for spec in (SPEC_TX, SPEC_PLAIN):
        res = parametrix_terms(laplace_symbol(spec), 2)
        assert res.terms[2] == closed_form_b2(spec)


def test_flat_parametrix_collapses():
    res = parametrix_terms(laplace_symbol(SPEC_FLAT), 2)
    assert res.terms[1].is_zero()
    assert res.terms[2].is_zero()
    assert res.defect.is_zero()


def test_flat_torsion_b2():
    res = parametrix_terms(laplace_symbol(SPEC_FLAT_T), 2)
    want1 = Symbol(
        D, {XiMonomial(unit(k), -2): -ALG.t(k) for k in range(1, D + 1)}
    )
    assert res.terms[1] == want1
    want2 = Symbol.zero(D)
    half = Fraction(1, 2)
    for k in range(1, D + 1):
        want2 = want2 + Symbol(
            D, {XiMonomial(unit(), -2): -(ALG.t(k).derive(k).scale(half))}
        )
    for j in range(1, D + 1):
        for k in range(1, D + 1):
            want2 = want2 + Symbol(
                D,
                {
                    XiMonomial(unit(j, k), -3): ALG.t(j) * ALG.t(k)
                    + ALG.t(k).derive(j) * 2
                },
            )
    assert res.terms[2] == want2


def test_right_parametrix_matches_left_termwise():
    # both one-sided identities hold through degree -2, so truncated
    # associativity of the product forces the terms to coincide
    a = laplace_symbol(SPEC_T)
    left = parametrix_terms(a, 2, side="left")
    right = parametrix_terms(a, 2, side="right")
    assert left.terms == right.terms
    assert right.defect.is_zero()


def test_closed_forms_and_right_series_match_through_b3():
    # second routes to every term through b_3, at d=6 and at d=4
    spec6 = OperatorSpec(d=6, include_t=True, include_x=True)
    a = laplace_symbol(spec6)
    want = parametrix_series(a, 3)
    assert closed_forms(spec6, 3) == want
    assert parametrix_series(a, 3, side="right") == want
    assert closed_forms(SPEC_TX, 3) == parametrix_series(laplace_symbol(SPEC_TX), 3)


@pytest.mark.parametrize("side", ["left", "right"])
def test_series_equals_defect_certified_terms(side):
    a = laplace_symbol(SPEC_TX)
    res = parametrix_terms(a, 3, side)
    assert parametrix_series(a, 3, side) == res.terms
    assert res.defect.is_zero()


def test_series_validates_like_terms():
    a = laplace_symbol(SPEC_T)
    with pytest.raises(ValueError):
        parametrix_series(a, 2, side="middle")
    with pytest.raises(ValueError):
        parametrix_series(a, -1)


def test_composition_defect_vanishes():
    res = parametrix_terms(laplace_symbol(SPEC_T), 2)
    assert res.defect.is_zero()


def test_total_sums_terms():
    res = parametrix_terms(laplace_symbol(SPEC_FLAT_T), 1)
    assert res.total() == res.terms[0] + res.terms[1]


def test_symbol_matches_operator_composition():
    # assemble the same operator by composing factor symbols and compare
    spec = SPEC_TX
    p = Symbol.from_poly(ALG.h_power(-2))
    q = Symbol.from_poly(ALG.h_power(2))
    total = Symbol.zero(D)
    low = -4
    for a in range(1, D + 1):
        xi_a = Symbol(D, {XiMonomial(unit(a), 0): ALG.one()})
        inner = symbol_product(xi_a, p, low)
        inner = symbol_product(q, inner, low)
        inner = symbol_product(xi_a, inner, low)
        total = total + symbol_product(p, inner, low)
        t_a = Symbol.from_poly(ALG.t(a))
        mixed = symbol_product(t_a, xi_a, low) + symbol_product(xi_a, t_a, low)
        total = total + mixed.scale(Fraction(1, 2))
    total = total + Symbol.from_poly(ALG.x())
    assert expand_norm(laplace_symbol(spec)) == total
