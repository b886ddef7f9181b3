"""JSON round-trips are bit-exact and deterministically ordered."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwres.fourier_oracle import Assignment, FourierElement, ThetaMatrix
from ncwres.ncalg import Algebra, Letter, NCPoly, Scalar
from ncwres.serialize import (
    assignment_from_json,
    assignment_to_json,
    poly_from_json,
    poly_to_json,
    scalar_from_json,
    scalar_to_json,
    symbol_from_json,
    symbol_to_json,
    trace_expression_from_json,
    trace_expression_to_json,
)
from ncwres.symcalc import Symbol
from ncwres.trace import trace

D = 2

letters = st.one_of(
    st.builds(
        Letter,
        st.just("H"),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    ),
    st.just(Letter("Hinv", (0, 0))),
    st.builds(
        Letter,
        st.just("T"),
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.integers(1, D),
    ),
    st.builds(Letter, st.just("X"), st.tuples(st.integers(0, 1), st.integers(0, 1))),
)

scalars = st.builds(
    Scalar,
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-2, 2),
)

words = st.lists(letters, max_size=4).map(tuple)


def _build_poly(pairs):
    out = NCPoly.zero(D)
    for w, q in pairs:
        out = out + NCPoly.from_word(D, w, q)
    return out


polys = st.builds(
    _build_poly,
    st.lists(
        st.tuples(words, st.fractions(min_value=-5, max_value=5, max_denominator=12)),
        max_size=4,
    ),
)


@settings(max_examples=80, deadline=None)
@given(scalars)
def test_scalar_round_trip(sc):
    assert scalar_from_json(scalar_to_json(sc)) == sc


@settings(max_examples=80, deadline=None)
@given(polys)
def test_poly_round_trip(p):
    obj = poly_to_json(p)
    back = poly_from_json(obj, D)
    assert back == p
    # serialization is deterministic: same value, same bytes
    assert json.dumps(obj) == json.dumps(poly_to_json(back))


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(-2, 2))
def test_trace_expression_round_trip(p, pi):
    # one pi power per expression: adding equal words with mixed pi
    # powers is rejected by design, so the strategy must not produce it
    e = trace(p).scale(Scalar(1, pi))
    obj = trace_expression_to_json(e)
    back = trace_expression_from_json(obj, D)
    assert back == e
    assert all(term["trace"] is True for term in obj["terms"])


pair_lists = st.lists(
    st.tuples(words, st.fractions(min_value=-5, max_value=5, max_denominator=12)),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(pair_lists, pair_lists, st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2))
def test_symbol_round_trip(pairs1, pairs2, m, a1, a2):
    p = _build_poly(pairs1)
    q = _build_poly(pairs2)
    s = Symbol.from_poly(p, alpha=(a1, a2), m=m) + Symbol.from_poly(q, alpha=None)
    obj = symbol_to_json(s)
    assert symbol_from_json(obj, D) == s


def test_symbol_components_are_keyed_by_degree():
    alg = Algebra(2)
    s = Symbol.from_poly(alg.h(), alpha=(1, 0), m=0) + Symbol.from_poly(
        alg.one(), alpha=None, m=-1
    )
    obj = symbol_to_json(s)
    assert set(obj["components"]) == {"1", "-2"}
    term = obj["components"]["1"][0]
    assert term["alpha"] == [1, 0] and term["m"] == 0


def test_poly_json_shape_is_exact():
    alg = Algebra(2)
    p = alg.h() * alg.h()
    obj = poly_to_json(p)
    assert obj == {
        "terms": [
            {
                "coef": {"num": 1, "den": 1, "pi": 0},
                "word": [
                    {"base": "H", "deriv": [0, 0]},
                    {"base": "H", "deriv": [0, 0]},
                ],
            }
        ]
    }
    q = alg.t(1).scale(Fraction(-3, 4))
    tj = poly_to_json(q)["terms"][0]
    assert tj["coef"] == {"num": -3, "den": 4, "pi": 0}
    assert tj["word"] == [{"base": "T", "deriv": [0, 0], "axis": 1}]
    e = trace(alg.t(1)).scale(Scalar(Fraction(-3, 4), 2))
    tj = trace_expression_to_json(e)["terms"][0]
    assert tj["coef"] == {"num": -3, "den": 4, "pi": 2}
    assert tj["word"] == [{"base": "T", "deriv": [0, 0], "axis": 1}]
    assert tj["trace"] is True


def test_poly_from_json_rejects_pi():
    obj = poly_to_json(Algebra(2).h())
    obj["terms"][0]["coef"]["pi"] = 2
    with pytest.raises(ValueError):
        poly_from_json(obj, D)


@pytest.mark.parametrize(
    "coef",
    [
        {"num": 1, "den": 0, "pi": 0},
        {"num": 0.5, "den": 1, "pi": 0},
        {"num": 1, "den": 2.0, "pi": 0},
        {"num": True, "den": 1, "pi": 0},
        {"num": 1, "den": True, "pi": 0},
        {"num": 1, "den": 1, "pi": True},
        {"num": 1, "den": 1, "pi": 1.5},
        {"num": "1", "den": 1, "pi": 0},
    ],
)
def test_scalar_from_json_checks_the_shape(coef):
    with pytest.raises(ValueError):
        scalar_from_json(coef)
    obj = {"terms": [{"coef": coef, "word": [{"base": "H", "deriv": [0, 0]}], "trace": True}]}
    with pytest.raises(ValueError):
        trace_expression_from_json(obj, 2)
    with pytest.raises(ValueError):
        poly_from_json(obj, 2)


@pytest.mark.parametrize(
    "d, deriv",
    [
        (4, [1, 0]),
        (2, [0, 0, 0, 1]),
        (2, []),
        (2, [0.5, 0]),
        (2, [True, 0]),
        # not a list at all: each is a bad shape, not a TypeError
        (2, 5),
        (2, None),
        (2, "ab"),
        (2, [0, True]),
        (2, [0.0, 0]),
    ],
)
def test_parsers_check_the_letter_shape(d, deriv):
    _assert_parsers_refuse({"base": "H", "deriv": deriv}, d)


@pytest.mark.parametrize(
    "letter",
    [
        # fields without a hash: a bad shape, not a TypeError
        {"base": ["H"], "deriv": [0, 0]},
        {"base": "T", "deriv": [0, 0], "axis": [1]},
    ],
)
def test_parsers_check_the_letter_base_and_axis(letter):
    _assert_parsers_refuse(letter, 2)


def _assert_parsers_refuse(letter, d):
    poly = {"terms": [{"coef": {"num": 1, "den": 1, "pi": 0}, "word": [letter]}]}
    with pytest.raises(ValueError):
        poly_from_json(poly, d)
    expr = {"terms": [{"coef": {"num": 1, "den": 1, "pi": 2}, "word": [letter], "trace": True}]}
    with pytest.raises(ValueError):
        trace_expression_from_json(expr, d)
    symbol = {"components": {"0": [{"coef": poly, "alpha": [0] * d, "m": 0}]}}
    with pytest.raises(ValueError):
        symbol_from_json(symbol, d)


@pytest.mark.parametrize(
    "key, alpha, m",
    [
        ("0", [0.0, 0], 0),
        ("0", [0, 0], 0.0),
        ("0", [0, 0], "0"),
        ("0", 5, 0),
        ("1", [True, 0], 0),
        ("2", [0, 0], True),
        ("0", [0], 0),
        # well formed, but filed under another degree than |alpha| + 2m
        ("0", [1, 0], 0),
        ("0", [0, 0], 1),
    ],
)
def test_symbol_parser_checks_the_monomial_shape(key, alpha, m):
    poly = {"terms": [{"coef": {"num": 1, "den": 1, "pi": 0}, "word": []}]}
    symbol = {"components": {key: [{"coef": poly, "alpha": alpha, "m": m}]}}
    with pytest.raises(ValueError):
        symbol_from_json(symbol, 2)
    # the same term with plain ints parses
    symbol["components"] = {"0": [{"coef": poly, "alpha": [0, 0], "m": 0}]}
    assert symbol_from_json(symbol, 2) == Symbol.one(2)


@pytest.mark.parametrize("marker", [{}, {"trace": False}])
def test_trace_expression_parser_requires_the_trace_marker(marker):
    term = {"coef": {"num": 1, "den": 1, "pi": 0}, "word": [{"base": "H", "deriv": [0, 0]}]}
    with pytest.raises(ValueError, match="trace marker"):
        trace_expression_from_json({"terms": [{**term, **marker}]}, 2)


def test_parsers_drop_a_zero_coefficient():
    # a zero term adds nothing and leaves no zero entry behind
    alg = Algebra(2)
    zero, one = {"num": 0, "den": 3, "pi": 0}, {"num": 1, "den": 1, "pi": 0}
    h, x = [{"base": "H", "deriv": [0, 0]}], [{"base": "X", "deriv": [0, 0]}]
    poly = {"terms": [{"coef": zero, "word": h}, {"coef": one, "word": x}]}
    assert poly_from_json(poly, 2).terms == alg.x().terms
    expr = {"terms": [{**term, "trace": True} for term in poly["terms"]]}
    assert trace_expression_from_json(expr, 2).terms == trace(alg.x()).terms
    dead = {"terms": [{"coef": zero, "word": x}]}
    symbol = {
        "components": {
            "0": [{"coef": poly, "alpha": [0, 0], "m": 0}],
            "1": [{"coef": dead, "alpha": [1, 0], "m": 0}],
        }
    }
    assert symbol_from_json(symbol, 2).terms == Symbol.from_poly(alg.x()).terms


def test_assignment_round_trip():
    theta = ThetaMatrix([[0.0, 0.3137], [-0.3137, 0.0]])
    h = FourierElement(theta, {(0, 0): 1.0, (1, 0): 0.05, (-1, 0): 0.05})
    t1 = FourierElement(theta, {(0, 1): 0.02 + 0.01j, (0, -1): 0.02 - 0.01j})
    asg = Assignment(theta, {"h": h, "T1": t1, "T2": t1, "X": t1.scale(0.5)}, tol=1e-10)
    obj = assignment_to_json(asg)
    assert set(obj["atoms"]) == {"h", "T1", "T2", "X"}
    back = assignment_from_json(obj)
    assert back.tol == asg.tol
    assert (back.theta.mat == theta.mat).all()
    for name, el in asg.atoms.items():
        assert (back.atoms[name] - el).norm1() == 0
    # bytes stable through a full cycle
    assert json.dumps(obj) == json.dumps(assignment_to_json(back))


def test_element_json_reads_the_coefficients_once(monkeypatch):
    # coeffs builds a fresh dict per read, so a read per mode would make
    # the serializer quadratic in the number of modes
    theta = ThetaMatrix([[0.0, 0.3137], [-0.3137, 0.0]])
    modes = {(k, 3 - k): k - 0.5j for k in range(-30, 31)}
    asg = Assignment(theta, {"h": FourierElement(theta, modes)})
    reads = []
    view = FourierElement.coeffs.fget
    monkeypatch.setattr(FourierElement, "coeffs", property(lambda el: reads.append(el) or view(el)))
    (atom,) = assignment_to_json(asg)["atoms"].values()
    assert len(reads) <= 1
    assert atom["coeffs"] == [
        {"index": list(k), "re": c.real, "im": c.imag} for k, c in sorted(modes.items())
    ]


def test_normalization_happens_on_parse():
    # an unnormalized adjacent h.h^-1 pair collapses when rebuilt
    obj = {
        "terms": [
            {
                "coef": {"num": 1, "den": 1, "pi": 0},
                "word": [
                    {"base": "H", "deriv": [0, 0]},
                    {"base": "Hinv", "deriv": [0, 0]},
                    {"base": "X", "deriv": [0, 0]},
                ],
            }
        ]
    }
    p = poly_from_json(obj, 2)
    assert p == Algebra(2).x()
    # a repeated word, here once more after normalization, is summed
    obj["terms"].append(
        {"coef": {"num": 2, "den": 3, "pi": 0}, "word": [{"base": "X", "deriv": [0, 0]}]}
    )
    assert poly_from_json(obj, 2) == Algebra(2).x().scale(Fraction(5, 3))
    # two rotations of one trace word are one canonical word
    h, x = {"base": "H", "deriv": [0, 0]}, {"base": "X", "deriv": [0, 0]}
    obj = {
        "terms": [
            {"coef": {"num": 1, "den": 2, "pi": 1}, "word": [h, x], "trace": True},
            {"coef": {"num": 3, "den": 2, "pi": 1}, "word": [x, h], "trace": True},
        ]
    }
    alg = Algebra(2)
    want = trace(alg.h() * alg.x()).scale(Scalar(Fraction(2), 1))
    assert trace_expression_from_json(obj, 2) == want
