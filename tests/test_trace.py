from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwres.ncalg import Algebra, Letter, NCPoly, Scalar, normalize_word
from ncwres.trace import (
    TraceExpression,
    TraceWord,
    canonical_cycle,
    commutative_image_expr,
    express_in_span,
    format_trace_expression,
    ibp_reduce,
    trace,
    trace_equal,
)

D = 2
ALG = Algebra(D)
H = Letter("H", (0, 0))
HI = Letter("Hinv", (0, 0))
DH = Letter("H", (1, 0))
T1 = Letter("T", (0, 0), axis=1)
X = Letter("X", (0, 0))


def test_canonical_cycle_rotation_invariant():
    w = (H, T1, DH)
    for i in range(3):
        assert canonical_cycle(w[i:] + w[:i]) == canonical_cycle(w)


def test_canonical_cycle_wraparound_cancellation():
    # first and last letters are cyclically adjacent
    assert canonical_cycle((HI, X, H)) == (X,)
    assert canonical_cycle((H, DH, HI)) == (DH,)
    assert canonical_cycle((H, HI)) == ()


def test_trace_is_cyclic_on_products():
    a = ALG.h() * ALG.t(1)
    b = ALG.x() * ALG.h().derive(2)
    assert trace(a * b) == trace(b * a)


def test_trace_of_one():
    e = trace(ALG.one())
    assert list(e.terms) == [TraceWord(())]


def test_first_order_pair_reduces_to_zero():
    e = trace(ALG.h().derive(1) * ALG.h())
    assert ibp_reduce(e).is_zero()


def test_second_derivative_of_square_reduces_to_zero():
    p = (ALG.h() * ALG.h()).derive(1).derive(1)
    assert ibp_reduce(trace(p)).is_zero()


def test_second_order_word_rewrites_to_first_order():
    # t(h.d1^2(h)) == -t(d1(h).d1(h))
    lhs = trace(ALG.h() * ALG.h().derive(1).derive(1))
    rhs = -trace(ALG.h().derive(1) * ALG.h().derive(1))
    assert trace_equal(lhs, rhs)
    assert not trace_equal(lhs, -rhs)


def test_inverse_letter_relation():
    # t(d1(h).h^-2) == 0 comes from t(d1(h^-1)) == 0
    e = trace(ALG.h().derive(1) * ALG.h_power(-2))
    assert ibp_reduce(e).is_zero()


def test_some_words_are_irreducible():
    # t(d1(h).h^-1.d1(h).h) admits no integration-by-parts rewrite
    p = ALG.h().derive(1) * ALG.hinv() * ALG.h().derive(1) * ALG.h()
    e = trace(p)
    assert ibp_reduce(e) == e


def test_trace_equal_distinguishes_pi_sectors():
    w = trace(ALG.h())
    assert not trace_equal(w.scale(Scalar(Fraction(1), pi=2)), w.scale(2))


def test_commutative_equality_only():
    a = trace(
        NCPoly.from_word(D, (T1, H, DH, X))
    )
    b = trace(
        NCPoly.from_word(D, (H, T1, X, DH))
    )
    assert not trace_equal(a, b)
    assert trace_equal(a, b, commutative=True)


def test_commutative_image_expr_merges_words():
    a = trace(NCPoly.from_word(D, (T1, H, DH)))
    b = trace(NCPoly.from_word(D, (T1, DH, H)))
    img = commutative_image_expr(a - b)
    assert img.is_zero()


def test_express_in_span_exact():
    target = trace(ALG.h().derive(1) * ALG.h().derive(1)).scale(2)
    shape = trace(ALG.h() * ALG.h().derive(1).derive(1))
    coeffs = express_in_span(target, [shape])
    assert coeffs == [Scalar(Fraction(-2))]


def test_express_in_span_reports_failure():
    target = trace(ALG.t(1) * ALG.t(1))
    shape = trace(ALG.h() * ALG.h())
    assert express_in_span(target, [shape]) is None


def test_express_in_span_rejects_dependent_shapes():
    s = trace(ALG.h() * ALG.h())
    with pytest.raises(ValueError):
        express_in_span(s.scale(3), [s, s.scale(2)])


def test_express_in_span_carries_pi():
    target = trace(ALG.h() * ALG.h()).scale(Scalar(Fraction(2), pi=2))
    shape = trace(ALG.h() * ALG.h())
    assert express_in_span(target, [shape]) == [Scalar(Fraction(2), pi=2)]


S = trace(ALG.h().derive(1) * ALG.h().derive(1))
U = trace(ALG.x())
PI = Scalar(Fraction(1), pi=1)
IBP_ZERO = trace(ALG.h().derive(1) * ALG.h())


@pytest.mark.parametrize(
    "target, shapes, want",
    [
        # None wins over dependence when the target leaves the span
        (U, [S, S.scale(2)], None),
        (S.scale(3), [S, S.scale(2)], ValueError),
        (trace(ALG.h() * ALG.h().derive(1)) - IBP_ZERO, [], []),
        (U, [], None),
        (S, [S, IBP_ZERO], ValueError),
        (
            S.scale(Scalar(Fraction(3), pi=2)) - U.scale(Scalar(Fraction(1, 2), pi=2)),
            [S, U.scale(PI)],
            [Scalar(Fraction(3), pi=2), Scalar(Fraction(-1, 2), pi=1)],
        ),
        (trace(ALG.h() * ALG.h().derive(1).derive(1)), [S], [Scalar(Fraction(-1))]),
    ],
    ids=[
        "dependent-target-outside",
        "dependent-target-inside",
        "no-shapes-zero-target",
        "no-shapes-nonzero-target",
        "shape-zero-modulo-ibp",
        "distinct-pi-powers",
        "ibp-only-match",
    ],
)
def test_express_in_span_contract(target, shapes, want):
    if want is ValueError:
        with pytest.raises(ValueError, match="linearly dependent"):
            express_in_span(target, shapes)
    else:
        assert express_in_span(target, shapes) == want


# -- hypothesis ------------------------------------------------------------

letters = st.one_of(
    st.builds(Letter, st.just("H"), st.tuples(st.integers(0, 1), st.integers(0, 1))),
    st.builds(Letter, st.just("Hinv"), st.just((0, 0))),
    st.builds(
        Letter,
        st.just("T"),
        st.just((0, 0)),
        st.integers(1, 2),
    ),
)

words = st.lists(letters, max_size=3).map(tuple)

coefs = st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(
    lambda q: q != 0
)


@st.composite
def polys(draw):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n):
        terms[normalize_word(draw(words))] = Scalar(draw(coefs))
    return NCPoly(D, terms)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_cyclicity_property(a, b):
    assert trace(a * b) == trace(b * a)


@given(polys(), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_traced_derivation_reduces_to_zero(p, axis):
    e = trace(p.derive(axis))
    assert ibp_reduce(e).is_zero()


@given(polys())
@settings(max_examples=30, deadline=None)
def test_reduction_idempotent(p):
    e = ibp_reduce(trace(p))
    assert ibp_reduce(e) == e


@given(polys(), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_traced_derivation_reduces_to_zero_commutative(p, axis):
    e = trace(p.derive(axis))
    assert ibp_reduce(e, commutative=True).is_zero()


# -- rendering -------------------------------------------------------------


def test_format_single_term_with_pi():
    e = trace(ALG.h_power(4)).scale(Scalar(Fraction(2), pi=2))
    assert format_trace_expression(e) == "2*pi^2 * t[h^4]"


def test_format_factors_gcd():
    e = trace(ALG.h() * ALG.h()).scale(Scalar(Fraction(1, 2), pi=2)) + trace(
        ALG.t(1) * ALG.t(1)
    ).scale(Scalar(Fraction(-1, 2), pi=2))
    assert format_trace_expression(e) == "1/2*pi^2 * ( t[h^2] - t[T1^2] )"


def test_format_zero():
    assert format_trace_expression(TraceExpression.zero(D)) == "0"
