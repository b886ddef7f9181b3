import gc
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwres import randgen
from ncwres.ncalg import Algebra, NCPoly, Scalar, _bump
from ncwres.parametrix import OperatorSpec, laplace_symbol, parametrix_series, parametrix_terms
from ncwres.symcalc import (
    Symbol,
    XiMonomial,
    _gamma_factorial,
    compose,
    expand_norm,
    format_xi_monomial,
    gamma_pairs,
    gamma_terms,
    multi_indices,
    symbol_product,
)

D = 2
ALG = Algebra(D)


def xi_mono(alpha, m=0):
    return XiMonomial(tuple(alpha), m)


def test_degree_counts_norm_power():
    assert xi_mono((2, 1), -2).degree == -1
    assert xi_mono((0, 0), 3).degree == 6


def test_eval_matches_definition():
    mono = xi_mono((2, 0), -2)
    xi = (0.7, -1.3)
    want = 0.7 ** 2 * (0.7 ** 2 + 1.3 ** 2) ** -2
    assert math.isclose(mono.eval(xi), want, rel_tol=1e-12)


def test_partial_xi_graded_rule():
    s = Symbol(D, {xi_mono((2, 0), -2): ALG.one()})
    got = s.partial_xi(1)
    want = Symbol(
        D,
        {
            xi_mono((1, 0), -2): ALG.scalar(2),
            xi_mono((3, 0), -3): ALG.scalar(-4),
        },
    )
    assert got == want


def test_partial_xi_drops_degree_by_one():
    s = Symbol(D, {xi_mono((1, 2), -3): ALG.h()})
    for mono in s.partial_xi(2).terms:
        assert mono.degree == s.max_degree() - 1


def test_partial_xi_finite_difference():
    # independent numerical check of the formal rule on scalar coefficients
    s = Symbol(
        D,
        {
            xi_mono((2, 1), -2): ALG.scalar(Fraction(3, 4)),
            xi_mono((0, 0), 1): ALG.scalar(-2),
        },
    )

    def evaluate(sym, xi):
        total = 0.0
        for mono, coef in sym.terms.items():
            total += mono.eval(xi) * float(coef.terms[()])
        return total

    xi0 = (0.9, -0.6)
    step = 1e-3
    for axis in (1, 2):
        e = [0.0] * D
        e[axis - 1] = 1.0

        def at(t):
            return evaluate(s, tuple(x + t * u for x, u in zip(xi0, e)))

        # fourth-order central difference
        fd = (8 * (at(step) - at(-step)) - (at(2 * step) - at(-2 * step))) / (
            12 * step
        )
        sym = evaluate(s.partial_xi(axis), xi0)
        assert math.isclose(fd, sym, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("d", [2, 4])
def test_partial_xi_rejects_an_axis_out_of_range(d):
    s = laplace_symbol(OperatorSpec(d=d))
    for axis in (0, -1, d + 1):
        with pytest.raises(ValueError, match=f"axis {axis} out of range for d={d}"):
            s.partial_xi(axis)


def test_pointwise_keeps_coefficient_order():
    p = Symbol(D, {xi_mono((1, 0)): ALG.h()})
    q = Symbol(D, {xi_mono((1, 0)): ALG.t(1)})
    got = p.pointwise_mul(q)
    assert got == Symbol(D, {xi_mono((2, 0)): ALG.h() * ALG.t(1)})


def test_norm_square_stays_free():
    # |xi|^2 . |xi|^2 is the m=2 monomial, not a sum over xi_a^2 terms
    s = Symbol(D, {xi_mono((0, 0), 1): ALG.one()})
    sq = s.pointwise_mul(s)
    assert list(sq.terms) == [xi_mono((0, 0), 2)]


def test_product_first_order_correction():
    p = Symbol(D, {xi_mono((1, 0)): ALG.one()})
    q = Symbol.from_poly(ALG.h())
    got = symbol_product(p, q, min_degree=0)
    want = Symbol(
        D,
        {
            xi_mono((1, 0)): ALG.h(),
            xi_mono((0, 0)): ALG.h().derive(1),
        },
    )
    assert got == want


def test_product_respects_sides():
    # coefficients of the left factor multiply from the left
    p = Symbol.from_poly(ALG.h())
    q = Symbol.from_poly(ALG.t(1))
    got = symbol_product(p, q, min_degree=0)
    assert got == Symbol.from_poly(ALG.h() * ALG.t(1))


def test_product_associative_when_exact():
    p = Symbol(D, {xi_mono((1, 0)): ALG.h()})
    q = Symbol(D, {xi_mono((0, 1)): ALG.t(2)})
    r = Symbol.from_poly(ALG.h() * ALG.h())
    lhs = symbol_product(symbol_product(p, q, -3), r, -3)
    rhs = symbol_product(p, symbol_product(q, r, -3), -3)
    assert lhs == rhs


def test_product_truncates():
    p = Symbol(D, {xi_mono((1, 0)): ALG.h()})
    q = Symbol.from_poly(ALG.h())
    got = symbol_product(p, q, min_degree=1)
    assert got == Symbol(D, {xi_mono((1, 0)): ALG.h() * ALG.h()})


def test_expand_norm_rejects_a_negative_norm_power():
    s = Symbol.from_poly(ALG.h(), alpha=(1, 0), m=-1)
    with pytest.raises(ValueError, match="negative norm power"):
        expand_norm(s)


def test_multi_indices_cover_level():
    idx = multi_indices(3, 2)
    assert len(idx) == 6  # compositions of 2 into 3 slots
    assert all(sum(g) == 2 for g in idx)


def test_homogeneous_part_and_degrees():
    s = Symbol(
        D,
        {
            xi_mono((2, 0)): ALG.one(),
            xi_mono((0, 0), 1): ALG.h(),
            xi_mono((1, 0)): ALG.t(1),
        },
    )
    assert s.degrees() == [1, 2]
    assert s.homogeneous_part(1) == Symbol(D, {xi_mono((1, 0)): ALG.t(1)})
    assert s.truncate_below(2).degrees() == [2]


def test_rejects_wrong_length():
    with pytest.raises(ValueError):
        Symbol(D, {XiMonomial((1,), 0): ALG.one()})


def test_zero_symbol_has_no_degree_and_composes_to_zero():
    zero = Symbol.zero(D)
    with pytest.raises(ValueError, match="no degree"):
        zero.max_degree()
    s = Symbol(D, {xi_mono((1, 0)): ALG.h()})
    for p, q in [(zero, s), (s, zero), (zero, zero)]:
        assert list(gamma_pairs(p, q, -4)) == []
        assert compose(p, q, -4) == zero


# -- hypothesis ------------------------------------------------------------

monos = st.builds(
    XiMonomial,
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-2, 2),
)

polys = st.sampled_from(
    [ALG.one(), ALG.h(), ALG.t(1), ALG.h() * ALG.t(2), ALG.hinv()]
)


@st.composite
def symbols(draw):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n):
        terms[draw(monos)] = draw(polys)
    return Symbol(D, terms)


@given(symbols(), symbols(), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_partial_xi_product_rule(p, q, axis):
    lhs = p.pointwise_mul(q).partial_xi(axis)
    rhs = p.partial_xi(axis).pointwise_mul(q) + p.pointwise_mul(q.partial_xi(axis))
    assert lhs == rhs


@given(symbols(), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_partial_xi_commutes(p, a, b):
    assert p.partial_xi(a).partial_xi(b) == p.partial_xi(b).partial_xi(a)


# -- rendering -------------------------------------------------------------


def test_format_xi_monomial():
    assert format_xi_monomial(xi_mono((2, 1), -3)) == "xi1^2.xi2.|xi|^-6"
    assert format_xi_monomial(xi_mono((0, 0))) == "1"


# -- banded kernel ---------------------------------------------------------


def _mixed_symbol(rng, top):
    return randgen.random_symbol(D, rng, top) + randgen.random_symbol(D, rng, top - 2)


def _at_most(s, hi):
    return Symbol(s.d, {mo: c for mo, c in s.terms.items() if mo.degree <= hi})


@pytest.mark.parametrize("seed", range(4))
def test_compose_band_is_restricted_product(seed):
    rng = np.random.default_rng(seed)
    p, q = _mixed_symbol(rng, 1), _mixed_symbol(rng, 0)
    lo = -3
    for left, right in ((p, q), (q, p)):
        full = symbol_product(left, right, lo)
        assert compose(left, right, lo, lo - 1).is_zero()
        for hi in (lo, lo + 1):
            assert compose(left, right, lo, hi) == _at_most(full, hi)


@pytest.mark.parametrize("seed", range(4))
def test_compose_multiplies_pairs_without_products(seed, monkeypatch):
    # compose sums gamma_pairs straight into word sums: neither the
    # symbol product at frozen xi nor the polynomial product is called
    rng = np.random.default_rng(seed)
    p, q = _mixed_symbol(rng, 1), _mixed_symbol(rng, 0)
    bands = [
        (left, right, lo, hi)
        for left, right in ((p, q), (q, p))
        for lo, hi in ((-3, None), (-3, -2), (-2, -2))
    ]
    want = [compose(*band) for band in bands]

    def refuse(*args, **kwargs):
        raise AssertionError("compose must not build intermediate products")

    monkeypatch.setattr(Symbol, "pointwise_mul", refuse)
    monkeypatch.setattr(NCPoly, "__mul__", refuse)
    assert [compose(*band) for band in bands] == want


def _pair_multiset(pairs) -> Counter:
    return Counter(
        (inv, m1, m2, frozenset(c1.terms.items()), frozenset(c2.terms.items()))
        for inv, m1, c1, m2, c2 in pairs
    )


def _reference_pairs(p, q, lo, hi):
    # every gamma up to the last level that can still reach lo, derived
    # from scratch, with the pairs outside the band dropped afterwards
    hi = p.max_degree() + q.max_degree() if hi is None else hi
    levels = range(p.max_degree() + q.max_degree() - lo + 1)
    for inv, dp, dq in gamma_terms(p, q, levels):
        for m1, c1 in dp.terms.items():
            for m2, c2 in dq.terms.items():
                if lo <= m1.degree + m2.degree <= hi:
                    yield inv, m1, c1, m2, c2


def _depth_first_pairs(p, q, lo, hi, weight=None):
    # every gamma up to the last level that can still reach lo, visited
    # depth first with the top axis first (a child steps along an axis no
    # larger than its parent's last), each derived from scratch from the
    # top axis down; the band and the weight are applied afterwards
    hi = p.max_degree() + q.max_degree() if hi is None else hi
    deepest = p.max_degree() + q.max_degree() - lo

    def visit(gamma, top):
        yield gamma
        if sum(gamma) < deepest:
            for axis in range(top, 0, -1):
                yield from visit(_bump(gamma, axis), axis)

    for gamma in visit((0,) * p.d, p.d):
        dp, dq = p, q
        for axis in range(p.d, 0, -1):
            for _ in range(gamma[axis - 1]):
                dp, dq = dp.partial_xi(axis), dq.derive(axis)
        inv = Fraction(1, _gamma_factorial(gamma))
        for m1, c1 in dp.terms.items():
            for m2, c2 in dq.terms.items():
                if not lo <= m1.degree + m2.degree <= hi:
                    continue
                w = 1 if weight is None else weight(m1, m2)
                if w:
                    yield inv * w, m1, c1, m2, c2


@pytest.mark.parametrize("seed", range(4))
def test_gamma_pairs_match_the_full_gamma_sum(seed):
    # the same pairs as every gamma derived from scratch, and in the order
    # of a depth-first visit of gamma, top axis first: the order fixes
    # every dict order downstream
    rng = np.random.default_rng(seed)
    p, q = _mixed_symbol(rng, 1), _mixed_symbol(rng, 0)
    for left, right in ((p, q), (q, p)):
        for lo, hi in ((-3, None), (-3, -2), (-2, -2)):
            want = _pair_multiset(_reference_pairs(left, right, lo, hi))
            assert want
            yielded = list(gamma_pairs(left, right, lo, hi))
            assert _pair_multiset(yielded) == want
            assert yielded == list(_depth_first_pairs(left, right, lo, hi))


def _even_weight(m1, m2):
    # zero when the summed alpha has an odd entry, as a sphere moment is,
    # and a different nonzero value otherwise
    alpha = [a + b for a, b in zip(m1.alpha, m2.alpha)]
    return Fraction(0) if any(a % 2 for a in alpha) else Fraction(1 + sum(alpha), 3)


@pytest.mark.parametrize("seed", range(4))
def test_weighted_gamma_pairs_are_the_nonzero_weighted_pairs(seed, monkeypatch):
    # a weight scales each pair and drops those it sends to 0, and the leaf
    # cut loses none of the others; a weight that is 0 everywhere yields
    # nothing and derives no leaf
    rng = np.random.default_rng(seed)
    p, q = _mixed_symbol(rng, 1), _mixed_symbol(rng, 0)
    calls, real = [], NCPoly.derive
    derives = Counter()
    for left, right in ((p, q), (q, p)):
        for lo, hi in ((-3, None), (-3, -2), (-2, -2)):
            pairs = _reference_pairs(left, right, lo, hi)
            want = _pair_multiset(
                (inv * _even_weight(m1, m2), m1, c1, m2, c2)
                for inv, m1, c1, m2, c2 in pairs
                if _even_weight(m1, m2)
            )
            yielded = list(gamma_pairs(left, right, lo, hi, _even_weight))
            assert want and _pair_multiset(yielded) == want
            assert yielded == list(_depth_first_pairs(left, right, lo, hi, _even_weight))
            monkeypatch.setattr(NCPoly, "derive", lambda s, axis: calls.append(axis) or real(s, axis))
            for weight in (lambda m1, m2: 0, None):
                calls.clear()
                yielded = list(gamma_pairs(left, right, lo, hi, weight))
                assert bool(yielded) == (weight is None)
                derives[weight is None] += len(calls)
            monkeypatch.undo()
    assert derives[False] < derives[True]


def _live_symbols() -> int:
    return list(map(type, gc.get_objects())).count(Symbol)


@pytest.mark.parametrize(
    "d, n, lo, with_head",
    [
        (4, 1, -4, False),
        (6, 1, -6, True),
        (6, 3, -4, False),
    ],
)
def test_gamma_walk_keeps_one_path_alive(d, n, lo, with_head):
    # the head b_0 + ... + b_n walked against a, or against itself as the
    # residue's first read does: at each yielded pair, the walk holds
    # the symbols of the current gamma path only, one pair per order from
    # 0 to the deepest, so no sibling waits on a stack and no node keeps
    # its child's unpruned copy
    a = laplace_symbol(OperatorSpec(d=d, include_t=True))
    head = sum(parametrix_series(a, n), Symbol.zero(d))
    right = head if with_head else a
    deepest = head.max_degree() + right.max_degree() - lo
    before, most, node = _live_symbols(), 0, None
    for c, *_ in gamma_pairs(head, right, lo):
        # no symbol is made or freed while a node yields its pairs, and
        # each node yields its own 1/gamma! object, so the count is read
        # at each node's first pair
        if c is not node:
            node = c
            most = max(most, _live_symbols() - before)
    assert most <= 2 * (deepest + 1)


@pytest.mark.parametrize("side", ["left", "right"])
def test_parametrix_order_three_defect_vanishes(side):
    spec = OperatorSpec(d=4, include_t=True, include_x=True)
    res = parametrix_terms(laplace_symbol(spec), 3, side)
    assert len(res.terms) == 4
    assert res.defect.is_zero()
