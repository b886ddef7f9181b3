import copy
import gc
import json
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwres.ncalg import (
    Algebra,
    Letter,
    NCPoly,
    Scalar,
    format_poly,
    format_scalar,
    format_word,
    normalize_word,
    Combination,
    Frozen,
    Record,
    WordSum,
    _bump,
    _cancels,
    _join,
    commutative_word,
)
from ncwres.parametrix import OperatorSpec
from ncwres.randgen import random_poly
from ncwres.serialize import poly_from_json, poly_to_json
from ncwres.symcalc import Symbol, XiMonomial, compose
from ncwres.trace import TraceExpression, trace

D = 2
ALG = Algebra(D)


def test_scalar_zero_normalizes_pi():
    assert Scalar(Fraction(0), pi=3) == Scalar(Fraction(0), pi=0)


def test_scalar_add_requires_matching_pi():
    with pytest.raises(ValueError):
        Scalar(Fraction(1), pi=1) + Scalar(Fraction(1), pi=0)
    # zero on either side is fine regardless of pi
    assert Scalar(Fraction(0)) + Scalar(Fraction(1), pi=2) == Scalar(Fraction(1), pi=2)


def test_scalar_mul_div_track_pi():
    a = Scalar(Fraction(3, 4), pi=2)
    b = Scalar(Fraction(2), pi=-1)
    assert a * b == Scalar(Fraction(3, 2), pi=1)
    assert a * Fraction(2, 3) == Fraction(2, 3) * a == Scalar(Fraction(1, 2), pi=2)


def test_axes_and_dimension_are_checked():
    for axis in (0, D + 1):
        with pytest.raises(ValueError, match="out of range"):
            ALG.h().derive(axis)
        with pytest.raises(ValueError, match="out of range"):
            ALG.t(axis)
    for d in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            Algebra(d)


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter("T", (0, 0))  # T needs an axis
    with pytest.raises(ValueError):
        Letter("H", (0, 0), axis=1)  # only T takes one
    with pytest.raises(ValueError):
        Letter("Hinv", (1, 0))  # derived inverse must be expanded
    Letter("T", (0, 0), axis=1)  # interned first, so True would hash onto it
    for axis in (9, 3, 0, -1, 1.5, 1.0, True, False, "1"):
        with pytest.raises(ValueError):
            Letter("T", (0, 0), axis=axis)
    assert Letter("T", (0, 0), axis=2).axis == 2
    assert type(Letter("T", (0, 0), axis=1).axis) is int
    # keys no other test interns, so each call reaches the checks
    for deriv in ((True, 7), (0.5, 0), (1.0, 9), ("1", 0)):
        with pytest.raises(ValueError):
            Letter("H", deriv)
    assert type(Letter("H", (1, 7)).deriv[0]) is int
    # once the int letter is interned, True and 1.0 hash onto its key
    Letter("H", (1, 0))
    for deriv in ((True, 0), (1.0, 0), [0, 0]):
        with pytest.raises(ValueError):
            Letter("H", deriv)
    # a kind or an axis without a hash is refused before the table is read
    for args in ((["H"], (0, 0)), ("T", (0, 0), [1]), (None, (0, 0)), ("T", (0, 0), {})):
        with pytest.raises(ValueError):
            Letter(*args)


def test_normalize_cancels_nested_pairs():
    h = Letter("H", (0, 0))
    hi = Letter("Hinv", (0, 0))
    assert normalize_word((h, h, hi, hi)) == ()
    assert normalize_word((hi, h)) == ()
    assert normalize_word((h, hi, h)) == (h,)


def test_normalize_keeps_derived_letters():
    dh = Letter("H", (1, 0))
    hi = Letter("Hinv", (0, 0))
    assert normalize_word((dh, hi)) == (dh, hi)


def test_h_times_hinv_is_one():
    assert ALG.h() * ALG.hinv() == ALG.one()
    assert ALG.hinv() * ALG.h() == ALG.one()


def test_h_power_combines():
    assert ALG.h_power(3) * ALG.h_power(-2) == ALG.h()
    assert ALG.h_power(-1) == ALG.hinv()
    assert ALG.h_power(0) == ALG.one()


def test_derive_of_inverse_expands():
    got = ALG.hinv().derive(1)
    want = -(ALG.hinv() * ALG.h().derive(1) * ALG.hinv())
    assert got == want


def test_derive_kills_constants():
    assert ALG.scalar(7).derive(1).is_zero()


def test_derive_then_multiply_by_h_restores_nothing():
    # d(h^-1) h = -h^-1 d(h), the trailing inverse cancels
    got = ALG.hinv().derive(1) * ALG.h()
    want = -(ALG.hinv() * ALG.h().derive(1))
    assert got == want


def test_commutative_image_cancels_split_pair():
    # h d(h) h^-1 -> d(h) commutatively
    p = ALG.h() * ALG.h().derive(1) * ALG.hinv()
    assert p.commutative_image() == ALG.h().derive(1)


def test_commutative_image_kills_commutators():
    c = ALG.h() * ALG.t(1) - ALG.t(1) * ALG.h()
    assert c.commutative_image().is_zero()


# -- hypothesis ------------------------------------------------------------

letters = st.one_of(
    st.builds(Letter, st.just("H"), st.tuples(st.integers(0, 2), st.integers(0, 2))),
    st.builds(Letter, st.just("Hinv"), st.just((0, 0))),
    st.builds(
        Letter,
        st.just("T"),
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.integers(1, 2),
    ),
)

words = st.lists(letters, max_size=3).map(tuple)

coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
    lambda q: q != 0
)


@st.composite
def polys(draw):
    n = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n):
        terms[normalize_word(draw(words))] = draw(coefs)
    return NCPoly(D, terms)


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b):
    assert (a * b).derive(1) == a.derive(1) * b + a * b.derive(1)


@given(polys())
@settings(max_examples=60, deadline=None)
def test_derivations_commute(a):
    assert a.derive(1).derive(2) == a.derive(2).derive(1)


@given(polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys())
@settings(max_examples=40, deadline=None)
def test_inverse_still_cancels_after_derivation(a):
    # normal form never contains an adjacent underived pair
    p = a.derive(1)
    for word in p.terms:
        assert normalize_word(word) == word


# -- normal-form kernel ----------------------------------------------------

H0 = Letter("H", (0, 0))
HI = Letter("Hinv", (0, 0))
DH = Letter("H", (1, 0))
T1 = Letter("T", (0, 0), axis=1)

# biased towards underived h and h^-1, so that long cancellation runs occur
hwords = st.lists(st.sampled_from([H0, H0, HI, HI, DH, T1]), max_size=7).map(
    lambda w: normalize_word(w)
)


@st.composite
def hpolys(draw):
    terms = {draw(hwords): draw(coefs) for _ in range(draw(st.integers(0, 3)))}
    return NCPoly(D, terms)


@pytest.mark.parametrize(
    "w1, w2",
    [
        ((H0, H0, H0), (HI, HI)),
        ((H0, H0, H0), (HI, HI, HI)),
        ((DH, HI, HI), (H0, H0, DH)),
        ((T1, HI), (H0, H0, T1)),
        ((H0,), ()),
        ((), (HI,)),
    ],
)
def test_join_cancels_whole_runs(w1, w2):
    assert _join(w1, w2) == normalize_word(w1 + w2)


@given(hwords, hwords)
@settings(max_examples=200, deadline=None)
def test_join_matches_normalize(w1, w2):
    assert _join(w1, w2) == normalize_word(w1 + w2)


@given(hpolys(), hpolys())
@settings(max_examples=100, deadline=None)
def test_products_and_derivatives_stay_normal(a, b):
    for p in (a * b, a.derive(1), a.derive(2), (a * b).derive(1)):
        for word in p.terms:
            assert normalize_word(word) == word


@given(letters, letters)
@settings(max_examples=200, deadline=None)
def test_cached_order_and_cancellation_rule(a, b):
    assert a.order == sum(a.deriv)
    old_rule = not a.order and not b.order and {a.kind, b.kind} == {"H", "Hinv"}
    assert _cancels(a, b) == old_rule


def test_letter_equality_ignores_cached_fields():
    a, b = Letter("H", (1, 1)), Letter("H", (1, 1))
    assert a == b and hash(a) == hash(b) and a.order == 2
    assert {a: 1}[b] == 1


def test_constructor_normalizes_and_merges_keys():
    # h.h^-1 and the empty word are one key after normalization
    p = NCPoly(D, {(H0, HI): 1, (): Fraction(2)})
    assert p.terms == {(): Fraction(3)}
    assert all(type(q) is Fraction for q in p.terms.values())
    q = NCPoly(D, {(H0, HI, T1): Fraction(1), (T1,): Fraction(-1)})
    assert q.is_zero()


def test_poly_coefficients_reject_pi():
    # pi enters only through sphere moments, on the trace side
    pi = Scalar(Fraction(1), pi=1)
    with pytest.raises(TypeError):
        NCPoly(D, {(H0,): pi})
    with pytest.raises(TypeError):
        NCPoly.from_word(D, (H0,), pi)
    with pytest.raises(TypeError):
        ALG.h().scale(pi)


def _poly_pair(d):
    alg = Algebra(d)
    return alg.h() + alg.t(1).scale(3), alg.t(1) * alg.hinv() - alg.h()


def _symbol_pair(d):
    a, b = _poly_pair(d)
    xi = tuple(1 if i == 0 else 0 for i in range(d))
    return Symbol.from_poly(a, xi) + Symbol.from_poly(b), Symbol.from_poly(b, xi, 1)


def _trace_pair(d):
    a, b = _poly_pair(d)
    pi = Scalar(Fraction(1), pi=1)
    return trace(a).scale(pi), trace(b).scale(pi * Fraction(1, 2))


COMBINATIONS = [(NCPoly, _poly_pair), (Symbol, _symbol_pair), (TraceExpression, _trace_pair)]


@pytest.mark.parametrize("cls, pair", COMBINATIONS)
def test_combination_contract(cls, pair):
    a, b = pair(D)
    assert isinstance(a, cls) and isinstance(a, Combination)
    zero = cls.zero(D)
    assert not zero and zero.is_zero()
    assert a and not a.is_zero()
    assert (a + (-a)).is_zero() and a + (-a) == zero
    assert (a - b) + b == a
    assert a.scale(0) == zero
    wider = pair(D + 2)[0]
    with pytest.raises(ValueError):
        a + wider
    with pytest.raises(ValueError):
        a - wider
    with pytest.raises(TypeError):
        hash(a)
    assert a != wider
    # equal keys and coefficients never make two kinds of sum equal
    for other_cls, other_pair in COMBINATIONS:
        if other_cls is not cls:
            assert a != other_pair(D)[0] and cls.zero(D) != other_cls.zero(D)


def test_scale_by_one_returns_self():
    p = ALG.h() + ALG.t(1)
    assert p.scale(1) is p
    assert p.scale(2) == p + p


# -- rendering -------------------------------------------------------------


def test_format_collapses_powers():
    p = ALG.h_power(4)
    assert format_poly(p) == "h^4"
    assert format_poly(ALG.h_power(-2)) == "h^-2"


def test_format_derived_letter():
    p = ALG.h().derive(1)
    assert format_poly(p) == "d1(h)"
    assert format_poly(p.derive(1)) == "d1^2(h)"


def test_format_scalar_with_pi():
    assert format_scalar(Scalar(Fraction(2), pi=2)) == "2*pi^2"
    assert format_scalar(Scalar(Fraction(-1), pi=1)) == "-pi"
    assert format_scalar(Scalar(Fraction(3, 4))) == "3/4"
    assert format_scalar(Scalar(Fraction(1))) == "1"
    assert format_scalar(Scalar(Fraction(-1))) == "-1"
    assert format_scalar(Scalar(Fraction(0))) == "0"
    assert format_scalar(Scalar(Fraction(-3, 2), pi=2)) == "-3/2*pi^2"
    assert format_scalar(Scalar(Fraction(1), pi=-1)) == "pi^-1"


def test_format_word_mixed():
    w = normalize_word(
        (
            Letter("H", (0, 0)),
            Letter("T", (0, 0), axis=1),
            Letter("T", (0, 0), axis=1),
        )
    )
    assert format_word(w) == "h.T1^2"
    x, d1t2 = Letter("X", (0, 0)), Letter("T", (1, 0), axis=2)
    assert format_word((x, x, x, d1t2, d1t2) + w + (x,)) == "X^3.d1(T2)^2.h.T1^2.X"


def test_format_zero():
    assert format_poly(ALG.zero()) == "0"


# -- value classes -------------------------------------------------------


def test_value_classes_keep_their_behaviour():
    assert Scalar(0, 3) == Scalar(0) and hash(Scalar(0, 3)) == hash(Scalar(0))
    assert Scalar(0, 3).pi == 0 and Scalar(q=Fraction(1, 2), pi=2) == Scalar(Fraction(1, 2), 2)
    assert Scalar(2) != Scalar(2, 1) and Scalar(1) != Fraction(1)
    assert type(Scalar(3).q) is Fraction and repr(Scalar(3, 1)) == "Scalar(3, pi=1)"
    mono = XiMonomial((1, 0), m=-1)
    assert mono == XiMonomial(alpha=(1, 0), m=-1) and mono != XiMonomial((1, 0))
    assert hash(mono) == hash(XiMonomial((1, 0), -1))
    assert repr(mono) == "XiMonomial(alpha=(1, 0), m=-1)"
    with pytest.raises(ValueError):
        XiMonomial((-1, 0))
    spec = OperatorSpec(6, include_t=False)
    assert repr(spec) == "OperatorSpec(d=6, include_t=False, include_x=False, flat=False)"
    assert spec == OperatorSpec(d=6, include_t=False) and hash(spec) == hash(OperatorSpec(6, False))
    with pytest.raises(TypeError, match=r"__init__\(\) got an unexpected keyword argument 'k'"):
        OperatorSpec(**{"d": 4, "k": 1})
    for obj, name in ((Scalar(1), "q"), (mono, "m"), (spec, "d")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 2)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert copy.deepcopy(obj) == obj and pickle.loads(pickle.dumps(obj)) == obj


def test_record_constructor_takes_one_value_per_field():
    class Pair(Record):
        __slots__ = ("a", "b")

    class FrozenPair(Frozen):
        __slots__ = ("a", "b")

    for cls in (Pair, FrozenPair):
        assert repr(cls(1, 2)) == f"{cls.__name__}(a=1, b=2)"
        for values in ((), (1,), (1, 2, 3)):
            with pytest.raises(TypeError, match=f"takes 2 fields, not {len(values)}"):
                cls(*values)


def test_scalar_sum_with_zero_is_the_other_operand():
    q = Scalar(Fraction(3, 2), 2)
    assert q + Scalar(0) is q and Scalar(0) + q is q


def test_xi_monomial_is_not_equal_to_its_fields():
    mono = XiMonomial((1, 0), 2)
    assert mono != ((1, 0), 2) and ((1, 0), 2) != mono


def test_combination_reprs_show_the_formatted_body():
    hx = ALG.h() * ALG.x() - ALG.one()
    assert repr(hx) == "NCPoly(2, '-1 + h.X')"
    s = Symbol.from_poly(hx, alpha=(1, 0))
    assert repr(s) == "Symbol(2, '( -1 + h.X ) * xi1')"
    assert repr(trace(ALG.h_power(2))) == "TraceExpression(2, 't[h^2]')"


# -- interned letters ------------------------------------------------------


@given(letters)
@settings(max_examples=100, deadline=None)
def test_letters_are_interned(let):
    again = Letter(let.kind, tuple(let.deriv), let.axis)
    assert again is let
    assert copy.copy(let) is let and copy.deepcopy(let) is let
    assert pickle.loads(pickle.dumps(let)) is let


@pytest.mark.parametrize(
    "args",
    [
        ("T", (0, 0)),
        ("H", (0, 0), 1),
        ("X", (0, 0), 2),
        ("Hinv", (1, 0)),
        ("Hinv", (0, 0), 1),
        ("Y", (0, 0)),
        ("H", (0, -1)),
    ],
)
def test_invalid_letters_raise_every_time(args):
    # a rejected letter is never interned, so a second attempt fails too
    for _ in range(2):
        with pytest.raises(ValueError):
            Letter(*args)


def test_letters_are_immutable():
    let = Letter("H", (1, 0))
    with pytest.raises(AttributeError):
        let.kind = "X"
    with pytest.raises(AttributeError):
        del let.deriv
    assert let.kind == "H" and let.deriv == (1, 0) and let.order == 1


@given(letters.filter(lambda let: let.kind != "Hinv"), st.integers(1, D))
@settings(max_examples=100, deadline=None)
def test_derivative_table_matches_bump(let, axis):
    up = let.derived(axis)
    assert up is Letter(let.kind, _bump(let.deriv, axis), let.axis)
    assert let.derived(axis) is up
    assert up.order == let.order + 1


def test_derivative_table_rejects_inverse_and_bad_axis():
    with pytest.raises(ValueError):
        Letter("Hinv", (0, 0)).derived(1)
    for axis in (0, D + 1):
        with pytest.raises(ValueError):
            Letter("H", (0, 0)).derived(axis)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_lowered_table_gives_the_interned_letter(d):
    rng = random.Random(d)
    zero = (0,) * d
    for _ in range(60):
        kind = rng.choice(["H", "T", "X"])
        deriv = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(d))
        axis = rng.randint(1, d) if kind == "T" else None
        let = Letter(kind, deriv, axis)
        for b in range(1, d + 1):
            if not deriv[b - 1]:
                with pytest.raises(ValueError):
                    let.lowered(b)
                continue
            down = let.lowered(b)
            assert down is Letter(kind, _bump(deriv, b, -1), axis)
            assert let._down[b - 1] is down and let.lowered(b) is down
            assert down.derived(b) is let
    for axis in (0, d + 1):
        with pytest.raises(ValueError, match="out of range"):
            Letter("H", _bump(zero, 1)).lowered(axis)
    # h^-1 is never derived or lowered: its derivative table holds d(h)
    hinv = Letter("Hinv", zero)
    assert hinv._up == [Letter("H", zero).derived(b) for b in range(1, d + 1)]
    with pytest.raises(ValueError):
        hinv.lowered(1)


@given(letters)
@settings(max_examples=100, deadline=None)
def test_sort_key_is_unchanged(let):
    assert let.sort_key() == (
        {"H": 0, "Hinv": 1, "T": 2, "X": 3}[let.kind],
        let.axis or 0,
        let.deriv,
    )


def test_format_word_is_unchanged():
    h, hi, x = Letter("H", (0, 0)), Letter("Hinv", (0, 0)), Letter("X", (0, 0))
    d1h, d12t = Letter("H", (1, 0)), Letter("T", (1, 2), axis=2)
    assert format_word(()) == "1"
    assert format_word((h, h, d1h, hi, hi, hi)) == "h^2.d1(h).h^-3"
    assert format_word((d12t, d12t, x)) == "d1d2^2(T2)^2.X"
    assert repr(d12t) == "Letter(kind='T', deriv=(1, 2), axis=2)"


@given(polys())
@settings(max_examples=60, deadline=None)
def test_word_json_round_trip_is_byte_identical(p):
    text = json.dumps(poly_to_json(p))
    back = poly_from_json(json.loads(text), D)
    assert json.dumps(poly_to_json(back)) == text
    # letters compare by identity, so this holds only if parsing returns
    # the interned letters themselves
    assert back == p


# -- the integer word-sum kernel --------------------------------------------

KERNEL_LETTERS = (
    Letter("H", (0, 0)),
    Letter("Hinv", (0, 0)),
    Letter("H", (1, 0)),
    Letter("T", (0, 0), axis=1),
    Letter("X", (0, 0)),
)


def _random_word_sum(rng: random.Random) -> dict:
    """Normal words to nonzero Fractions with small mixed denominators."""
    out: dict = {}
    for _ in range(rng.randint(1, 6)):
        word = normalize_word(rng.choice(KERNEL_LETTERS) for _ in range(rng.randint(0, 3)))
        q = Fraction(rng.choice((-7, -3, -2, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4, 6, 8, 15)))
        out[word] = out.get(word, 0) + q
    return {w: q for w, q in out.items() if q}


def _kernel_products(seed: int) -> list:
    rng = random.Random(seed)
    products = []
    for c in (1, -1, 3, Fraction(1, 6), 1, Fraction(1, 6)):
        products.append((_random_word_sum(rng), _random_word_sum(rng), c))
    # a second copy of one product, negated, so its words cancel completely
    t1, t2, c = products[1]
    products.append(({w: -q for w, q in t1.items()}, t2, c))
    # h . h^-1 meets 1 . 1 inside one product: 1 - 1 cancels there
    h, hi = (KERNEL_LETTERS[0],), (KERNEL_LETTERS[1],)
    products.append(({h: Fraction(1, 2), (): Fraction(1, 2)}, {hi: 2, (): -2}, 1))
    return products


def _reference_sum(products) -> dict:
    out: dict = {}
    for t1, t2, c in products:
        for w1, q1 in t1.items():
            for w2, q2 in t2.items():
                key = normalize_word(w1 + w2)
                out[key] = out.get(key, 0) + c * q1 * q2
    return {w: q for w, q in out.items() if q}


def _raise(*args):
    raise AssertionError("Fraction arithmetic in the pair loop")


def _polys(products) -> list:
    return [(NCPoly(D, t1), NCPoly(D, t2), c) for t1, t2, c in products]


@pytest.mark.parametrize("seed", range(6))
def test_word_sum_matches_a_fraction_loop(monkeypatch, seed):
    products = _kernel_products(seed)
    want = _reference_sum(products)
    acc = WordSum()
    for p1, p2, c in _polys(products):
        acc.add_product(p1, p2, c)
    assert any(v == 0 for v in acc.num.values())  # cancelled words are dropped only at the end
    got = acc.poly(D).terms
    assert got == want
    assert all(type(q) is Fraction and q for q in got.values())
    # the same products again, summed and handed over as a polynomial with
    # every Fraction sum and product refused: the kernel reads numerators
    acc = WordSum()
    polys = _polys(products)
    with monkeypatch.context() as patch:
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            patch.setattr(Fraction, name, _raise)
        for p1, p2, c in polys:
            acc.add_product(p1, p2, c)
        got = acc.poly(D)
    assert got.terms == want


def test_word_sum_of_nothing_is_empty():
    acc = WordSum()
    acc.add_product(NCPoly(D, {}), NCPoly(D, {(KERNEL_LETTERS[4],): Fraction(1, 3)}))
    assert acc.poly(D).terms == {} and acc.poly(D) == NCPoly.zero(D)
    assert NCPoly.zero(D) * ALG.x() == NCPoly.zero(D)


def _reachable(root) -> set:
    """ids of the objects reachable from ``root``, classes and interned
    letters left out (their tables reach the whole process)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, Letter)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return seen


def test_word_sum_keeps_no_operand_and_a_form_is_built_once():
    p1, p2, c = _polys(_kernel_products(0))[0]
    acc = WordSum()
    for _ in range(3):
        acc.add_product(p1, p2, c)
        acc.add_product(p2, p1, c)
        assert (p1 * p2) * p1 == p1 * (p2 * p1)
    # the sum holds neither the operands nor their numerator dicts
    assert not _reachable(acc) & {id(p1), id(p2), id(p1.num), id(p2.num)}
    # the Fraction view is formed on first read and kept: a second read
    # returns the same dict, and the sum holds that dict neither
    view = p1.terms
    assert p1.terms is view and all(type(q) is Fraction for q in view.values())
    assert id(view) not in _reachable(acc)


# -- the integer storage ---------------------------------------------------


def _assert_canonical(p: NCPoly, want: dict):
    """``p`` stores den > 0 over nonzero numerators that share no factor
    with it, and its Fraction view is ``want`` without its zeros."""
    assert p.den > 0 and gcd(p.den, *p.num.values()) == 1
    assert all(p.num.values())
    assert p.terms == {w: q for w, q in want.items() if q}


def _fraction_sum(pairs) -> dict:
    """Sum (word, Fraction) pairs by normal word: the plain reference."""
    out: dict = {}
    for word, q in pairs:
        key = normalize_word(word)
        out[key] = out.get(key, 0) + q
    return out


def _fraction_derive(p: NCPoly, axis: int) -> dict:
    dh = Letter("H", (0,) * p.d).derived(axis)
    pairs = []
    for w, q in p.terms.items():
        for i, let in enumerate(w):
            if let.kind == "Hinv":
                pairs.append((w[:i] + (let, dh, let) + w[i + 1:], -q))
            else:
                pairs.append((w[:i] + (let.derived(axis),) + w[i + 1:], q))
    return _fraction_sum(pairs)


@pytest.mark.parametrize("seed", range(8))
def test_storage_is_canonical_and_matches_fraction_arithmetic(seed):
    d = 2 + seed % 2
    a = random_poly(d, seed, terms=4, max_len=3)
    b = random_poly(d, seed + 100, terms=4, max_len=3)
    ta, tb = a.terms, b.terms
    for axis in range(1, d + 1):
        _assert_canonical(a.derive(axis), _fraction_derive(a, axis))
    for c in (0, 1, -1, Fraction(3, 7)):
        _assert_canonical(a.scale(c), {w: q * c for w, q in ta.items()})
    _assert_canonical(-a, {w: -q for w, q in ta.items()})
    _assert_canonical(a + b, _fraction_sum([*ta.items(), *tb.items()]))
    _assert_canonical(a - b, _fraction_sum([*ta.items(), *((w, -q) for w, q in tb.items())]))
    # one word cancels, and what is left may need no factor divided out
    first = next(iter(ta))
    rest = {w: q for w, q in ta.items() if w != first}
    _assert_canonical(a - NCPoly(d, {first: ta[first]}), rest)
    product = ((w1 + w2, q1 * q2) for w1, q1 in ta.items() for w2, q2 in tb.items())
    _assert_canonical(a * b, _fraction_sum(product))
    image = ((commutative_word(d, w), q) for w, q in ta.items())
    _assert_canonical(a.commutative_image(), _fraction_sum(image))


def test_storage_divides_out_a_common_factor():
    h, x = (H0,), (Letter("X", (0, 0)),)
    half = NCPoly(D, {h + x: Fraction(1, 2), x + h: Fraction(1, 2)})
    assert (half.den, half.num) == (2, {h + x: 1, x + h: 1})
    # the two words meet in the commutative quotient, so the halves add to 1
    assert (half.commutative_image().den, half.commutative_image().num) == (1, {h + x: 1})
    assert half.scale(2).den == 1 and (half + half) == half.scale(2)
    assert half.scale(Fraction(-4, 6)).num == {h + x: -1, x + h: -1}
    assert NCPoly(D, {x: Fraction(2, 4)}) == NCPoly(D, {x: Fraction(1, 2)})
    # over den 1 the cancelled word goes although no factor is divided out
    assert (NCPoly(D, {h: 1, x: 2}) - ALG.h()).num == {x: 2}
    for p in (half, random_poly(3, 0, terms=4, max_len=3)):
        assert not (p - p) and (p - p).is_zero() and (p - p) == NCPoly.zero(p.d)
        assert ((p - p).den, (p - p).num) == (1, {})


def test_compose_drops_a_monomial_that_cancels():
    # P = xi1 . hX + 1 . hX and Q = 1 - xi1: at xi1 the pairs hX . 1 and
    # hX . (-1) cancel, and no derivative of Q survives
    hx = ALG.h() * ALG.x()
    one, xi1 = XiMonomial((0, 0)), XiMonomial((1, 0))
    p = Symbol(D, {xi1: hx, one: hx})
    q = Symbol(D, {one: ALG.one(), xi1: -ALG.one()})
    out = compose(p, q, 0)
    assert xi1 not in out.terms
    assert out == Symbol(D, {one: hx, XiMonomial((2, 0)): -hx})
    assert all(coef.terms and all(coef.terms.values()) for coef in out.terms.values())
