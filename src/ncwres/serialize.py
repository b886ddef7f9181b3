"""JSON forms for expressions, symbols, and oracle assignments.

Every emitter sorts its output, so equal values serialize to equal
structures, and every parser rebuilds the exact value: rationals travel
as integer pairs and floats as JSON numbers, which round-trip bit for
bit through Python's json module.  A parser checks the shape it reads: a
letter's ``deriv`` and a symbol term's ``alpha`` are lists of one
integer per dimension, a term's ``m`` is an integer, and a scalar's
``num``, ``den`` and ``pi`` are integers (bool refused everywhere) with
``den`` nonzero.  Anything else raises ``ValueError``.

Within one emitted polynomial or trace expression, equal letters share
one JSON dict, so a large residue allocates a dict per distinct letter
rather than per letter, and the garbage collector has that much less to
walk.

An assignment's atoms travel under the names ``Assignment.atoms`` uses,
"h", "T1".."Td" and "X", sorted by their lower-cased names (h, T1, T10,
T2, ..., X).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .ncalg import Letter, NCPoly, Scalar, Word, _accumulate, word_sort_key
from .symcalc import Symbol, XiMonomial
from .trace import TraceExpression, TraceWord

# the oracle needs numpy and the symbolic forms do not, so its classes
# are imported only where an assignment or an element is parsed
if TYPE_CHECKING:
    from .fourier_oracle import Assignment, FourierElement, ThetaMatrix


def scalar_to_json(sc: Scalar) -> dict:
    return {"num": sc.q.numerator, "den": sc.q.denominator, "pi": sc.pi}


def scalar_from_json(obj: dict) -> Scalar:
    num, den, pi = (_integer(obj, name) for name in ("num", "den", "pi"))
    if not den:
        raise ValueError("den must be nonzero")
    return Scalar(Fraction(num, den), pi)


def _integer(obj: dict, name: str) -> int:
    # bool is an int subclass and is refused like any other non-int
    value = obj[name]
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def _integers(items, d: int, what: str) -> tuple[int, ...]:
    if type(items) is not list or len(items) != d or any(type(i) is not int for i in items):
        raise ValueError(f"{what} must be a list of {d} integers, not {items!r}")
    return tuple(items)


def letter_to_json(let: Letter) -> dict:
    out: dict = {"base": let.kind, "deriv": list(let.deriv)}
    if let.axis is not None:
        out["axis"] = let.axis
    return out


def letter_from_json(obj: dict, d: int) -> Letter:
    return Letter(obj["base"], _integers(obj["deriv"], d, "letter deriv"), obj.get("axis"))


def _word_to_json(word: Word, shared: dict) -> list:
    """The word's letters as JSON dicts, each built once into ``shared``,
    which every word of one emitted value shares."""
    return [shared.get(let) or shared.setdefault(let, letter_to_json(let)) for let in word]


def _word_from_json(items: list, d: int) -> tuple[Letter, ...]:
    return tuple(letter_from_json(it, d) for it in items)


def poly_to_json(p: NCPoly) -> dict:
    """Rational coefficients in the scalar shape, with ``"pi": 0``."""
    terms, shared = [], {}
    for word in sorted(p.terms, key=word_sort_key):
        terms.append(
            {"coef": scalar_to_json(Scalar(p.terms[word])), "word": _word_to_json(word, shared)}
        )
    return {"terms": terms}


def poly_from_json(obj: dict, d: int) -> NCPoly:
    terms: dict[Word, Fraction] = {}
    for term in obj["terms"]:
        coef = scalar_from_json(term["coef"])
        if term["coef"]["pi"]:
            raise ValueError("polynomial coefficients are rational; pi is not allowed")
        _accumulate(terms, _word_from_json(term["word"], d), coef.q)
    # the constructor normalizes each word and merges words that meet
    return NCPoly(d, terms)


def trace_expression_to_json(e: TraceExpression) -> dict:
    terms, shared = [], {}
    for tw in sorted(e.terms, key=word_sort_key):
        terms.append(
            {
                "coef": scalar_to_json(e.terms[tw]),
                "word": _word_to_json(tw, shared),
                "trace": True,
            }
        )
    return {"terms": terms}


def trace_expression_from_json(obj: dict, d: int) -> TraceExpression:
    terms: dict[TraceWord, Scalar] = {}
    for term in obj["terms"]:
        if not term.get("trace"):
            raise ValueError("trace expression term lacks the trace marker")
        tw = TraceWord(_word_from_json(term["word"], d))
        _accumulate(terms, tw, scalar_from_json(term["coef"]))
    return TraceExpression._trusted(d, terms)


def symbol_to_json(s: Symbol) -> dict:
    by_degree: dict[int, list] = {}
    for mono in sorted(s.terms, key=lambda m: (m.degree, m.alpha, m.m)):
        by_degree.setdefault(mono.degree, []).append(
            {"coef": poly_to_json(s.terms[mono]), "alpha": list(mono.alpha), "m": mono.m}
        )
    return {"components": {str(k): by_degree[k] for k in sorted(by_degree)}}


def symbol_from_json(obj: dict, d: int) -> Symbol:
    terms: dict[XiMonomial, NCPoly] = {}
    for key, items in obj["components"].items():
        for it in items:
            mono = XiMonomial(_integers(it["alpha"], d, "alpha"), _integer(it, "m"))
            if mono.degree != int(key):
                raise ValueError(f"term of degree {mono.degree} filed under {key}")
            _accumulate(terms, mono, poly_from_json(it["coef"], d))
    return Symbol(d, terms)


def _element_to_json(el: FourierElement) -> dict:
    # coeffs builds its dict per read, so it is read once; the indices are
    # distinct, so the sort never compares two values
    coeffs = sorted(el.coeffs.items())
    return {"coeffs": [{"index": list(idx), "re": c.real, "im": c.imag} for idx, c in coeffs]}


def _coefficient_part(value, what: str = "coefficient parts") -> float:
    # bool is an int subclass; NaN, infinities and ints beyond the float
    # range all fail the bound
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{what} must be finite numbers, not {value!r}")


def _element_from_json(obj: dict, theta: ThetaMatrix) -> FourierElement:
    from .fourier_oracle import FourierElement

    if type(obj["coeffs"]) is not list:
        raise ValueError(f"coeffs must be a list, not {obj['coeffs']!r}")
    coeffs = {}
    for it in obj["coeffs"]:
        re, im = _coefficient_part(it["re"]), _coefficient_part(it["im"])
        index = _integers(it["index"], theta.d, "mode index")
        if index in coeffs:
            raise ValueError(f"mode index {list(index)} appears twice")
        coeffs[index] = complex(re, im)
    return FourierElement(theta, coeffs)


def assignment_to_json(asg: Assignment) -> dict:
    # lower-cased names sort as h, T1, T10, T2, ..., X
    atoms = {name: _element_to_json(asg.atoms[name]) for name in sorted(asg.atoms, key=str.lower)}
    return {
        "theta": asg.theta.mat.tolist(),
        "atoms": atoms,
        "tol": asg.tol,
    }


def assignment_from_json(obj: dict) -> Assignment:
    from .fourier_oracle import Assignment, ThetaMatrix

    rows = obj["theta"]
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError(f"theta must be a list of rows, not {rows!r}")
    theta = ThetaMatrix([[_coefficient_part(x, "theta entries") for x in row] for row in rows])
    names = {"h", "X", *(f"T{a}" for a in range(1, theta.d + 1))}
    if type(obj["atoms"]) is not dict or set(obj["atoms"]) != names:
        raise ValueError(f"atoms must be an object with exactly the keys {sorted(names)}")
    atoms = {name: _element_from_json(sub, theta) for name, sub in obj["atoms"].items()}
    return Assignment(theta, atoms, tol=obj["tol"])
