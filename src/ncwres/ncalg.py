"""Free polynomial algebra over noncommutative-torus letters.

Elements are finite sums of words in four letter kinds:

* ``H``     the positive invertible element h,
* ``Hinv``  its inverse,
* ``T``     one self-adjoint auxiliary generator per direction,
* ``X``     a single auxiliary generator with no direction.

Every letter except ``Hinv`` may carry a derivative multi-index
(one exponent per torus direction).  ``Hinv`` never does: the derivative
of the inverse is expanded eagerly via

    d_a(h^-1) = -h^-1 d_a(h) h^-1,

so derived inverses cannot appear.  The only rewrite rule is cancellation
of adjacent underived ``H``/``Hinv`` pairs, which makes normal forms
unique without any ordering choices between distinct letters.  Letters
are interned, so words hash and compare letter by letter on identity.

Invariant: every word stored in an ``NCPoly`` is normal.  The public
constructor normalizes its keys, so the arithmetic can rely on it: a
product of two normal words can only cancel at the junction, and a
derivation never creates an adjacent underived pair (it either derives a
letter or replaces h^-1 by h^-1 d(h) h^-1).  Results built inside the
class therefore skip the re-normalization.

An ``NCPoly`` stores integer numerators over one denominator in lowest
terms, so its arithmetic forms no ``Fraction``; ``terms`` gives them on
demand.  Nothing in the algebra involves pi: ``Scalar``, a rational
times a power of pi, is what a ``TraceExpression`` stores per term, and
a residue gets its pi^(d/2) from ``wres._traced``.

``Combination`` is the additive core of ``NCPoly``, ``Symbol`` and
``TraceExpression``.  The last two share its constructor, equality,
sum, negation and scaling, and build their results with the one sparse
merge ``_accumulate``; ``NCPoly``'s integer storage brings its own.

``Record`` and ``Frozen`` give the package's small value classes
(``Scalar`` here, ``XiMonomial``, ``OperatorSpec`` and the result records
elsewhere) the constructor, repr, equality, hashing and pickling of their
slotted fields, written once here rather than generated per class at
start-up.

``WordSum`` is the one kernel that multiplies polynomials (``NCPoly``
products, every symbol product, the residue pass): it reads each
operand's numerators and sums integers over one common denominator, so
its pair loop does no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from typing import Iterable

KIND_RANK = {"H": 0, "Hinv": 1, "T": 2, "X": 3}


class Record:
    """Small slotted value class: the constructor fills its ``__slots__``
    fields in order from its positional arguments, one per field, and
    repr, equality and pickling follow the same fields.  A subclass that
    validates its arguments calls this constructor with the checked
    values.  Records are unhashable unless frozen."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, not {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return (type(self), self._fields())


class Frozen(Record):
    """Immutable ``Record``, hashed by value.  The base constructor fills
    the fields; any later assignment raises."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Scalar(Frozen):
    """Exact coefficient q * pi^k with rational q."""

    __slots__ = ("q", "pi")

    def __init__(self, q: Fraction, pi: int = 0):
        if not isinstance(q, Fraction):
            q = Fraction(q)
        # canonical zero: 0 * pi^k == 0 * pi^0
        if q == 0 and pi != 0:
            pi = 0
        # the base named directly: super() costs more, once per term
        Frozen.__init__(self, q, pi)

    def __bool__(self) -> bool:
        return self.q != 0

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.q == 0:
            return other
        if other.q == 0:
            return self
        if self.pi != other.pi:
            raise ValueError(f"cannot add pi^{self.pi} to pi^{other.pi} exactly")
        return Scalar(self.q + other.q, self.pi)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.q, self.pi)

    def __mul__(self, other: "Scalar | int | Fraction") -> "Scalar":
        if isinstance(other, Scalar):
            return Scalar(self.q * other.q, self.pi + other.pi)
        return Scalar(self.q * other, self.pi)

    __rmul__ = __mul__

    def __float__(self) -> float:
        import math

        return float(self.q) * math.pi ** self.pi

    def __repr__(self) -> str:
        return f"Scalar({self.q}, pi={self.pi})"


class Letter:
    """A single generator, possibly derived.

    ``axis`` is the 1-based direction for ``T`` letters, an int in
    1..len(deriv), and None otherwise.
    ``deriv`` has one nonnegative entry per torus direction.

    Letters are interned: each distinct (kind, deriv, axis) is one object,
    so equality and hashing are identity, which Python runs in C.  Derived
    data is computed once per letter: ``order`` (the total derivative
    order), the cancellation sign, the sort key and, filled in on first
    use, the letter's derivative along each axis.  The intern table lives
    as long as the process and holds one entry per distinct letter made.
    """

    __slots__ = ("kind", "deriv", "axis", "order", "_sign", "_key", "_up")
    _interned: dict = {}

    def __new__(cls, kind: str, deriv: tuple[int, ...], axis: int | None = None):
        # True and 1.0 would hash onto the letter of 1, 0.5 has no order and
        # a list has no hash, so all three types are checked before the lookup
        if type(kind) is not str:
            raise ValueError(f"unknown letter kind {kind!r}")
        if type(deriv) is not tuple or any(type(n) is not int for n in deriv):
            raise ValueError(f"deriv must be a tuple of ints, not {deriv!r}")
        if axis is not None and type(axis) is not int:
            raise ValueError(f"axis must be an int in 1..{len(deriv)}, not {axis!r}")
        key = (kind, deriv, axis)
        let = cls._interned.get(key)
        if let is not None:
            return let
        if kind not in KIND_RANK:
            raise ValueError(f"unknown letter kind {kind!r}")
        if (kind == "T") != (axis is not None):
            raise ValueError("axis is required for T letters and only for them")
        if axis is not None and not 1 <= axis <= len(deriv):
            raise ValueError(f"axis must be an int in 1..{len(deriv)}, not {axis!r}")
        if kind == "Hinv" and any(deriv):
            raise ValueError("derived inverse must be expanded, not stored")
        if any(n < 0 for n in deriv):
            raise ValueError("derivative exponents must be nonnegative")
        order = sum(deriv)
        # +1 for an underived h, -1 for h^-1, 2 otherwise: two adjacent
        # letters cancel exactly when their signs sum to zero
        if kind == "Hinv":
            sign = -1
        elif kind == "H" and not order:
            sign = 1
        else:
            sign = 2
        let = object.__new__(cls)
        for name, value in (
            ("kind", kind),
            ("deriv", deriv),
            ("axis", axis),
            ("order", order),
            ("_sign", sign),
            ("_key", (KIND_RANK[kind], axis or 0, deriv)),
            ("_up", [None] * len(deriv)),
        ):
            object.__setattr__(let, name, value)
        # setdefault is atomic, so racing threads still share one object
        return cls._interned.setdefault(key, let)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned letter")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an interned letter")

    def __reduce__(self):
        # copies and unpickled letters resolve to the interned object
        return (Letter, (self.kind, self.deriv, self.axis))

    def __repr__(self) -> str:
        return f"Letter(kind={self.kind!r}, deriv={self.deriv!r}, axis={self.axis!r})"

    def sort_key(self):
        return self._key

    def derived(self, axis: int) -> "Letter":
        """The letter derived once along the 1-based ``axis``."""
        if not 1 <= axis <= len(self.deriv):
            raise ValueError(f"axis {axis} out of range for d={len(self.deriv)}")
        up = self._up[axis - 1]
        if up is None:
            up = self._up[axis - 1] = Letter(self.kind, _bump(self.deriv, axis), self.axis)
        return up


Word = tuple[Letter, ...]


def _cancels(a: Letter, b: Letter) -> bool:
    return a._sign + b._sign == 0


def normalize_word(letters: Iterable[Letter]) -> Word:
    """Cancel adjacent underived H/Hinv pairs until none remain.

    A single left-to-right stack pass suffices: each cancellation exposes
    at most one new adjacent pair, which the pass catches immediately.
    """
    out: list[Letter] = []
    for let in letters:
        if out and _cancels(out[-1], let):
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def _join(w1: Word, w2: Word) -> Word:
    """normalize_word(w1 + w2) for normal w1 and w2.

    Neither word has an adjacent pair of its own, so cancellation can only
    happen at the junction, and it runs outward from there.
    """
    i, j, n = len(w1), 0, len(w2)
    while i and j < n and w1[i - 1]._sign + w2[j]._sign == 0:
        i -= 1
        j += 1
    if not j:
        return w1 + w2
    return w1[:i] + w2[j:]


def word_sort_key(word: Word):
    return (len(word), tuple(let._key for let in word))


def _bump(index: tuple[int, ...], axis: int, step: int = 1) -> tuple[int, ...]:
    """``index`` with its entry at the 1-based ``axis`` moved by ``step``:
    the one step along an axis of a multi-index, whether a letter's
    derivative, a xi exponent, a gamma or, from zero, a unit vector."""
    return index[: axis - 1] + (index[axis - 1] + step,) + index[axis:]


class WordSum:
    """Exact sum of products of ``NCPoly``s: integer numerators ``num`` over
    one denominator ``den``, holding no reference to the operands."""

    __slots__ = ("num", "den")

    def __init__(self):
        self.num, self.den = {}, 1

    def add_product(self, p1: "NCPoly", p2: "NCPoly", c: int | Fraction = 1):
        """Add c times the product ``p1 p2``: integer multiplies and adds
        only, no gcd and no ``Fraction``."""
        pair_den = p1.den * p2.den * c.denominator
        den, num = self.den, self.num
        if den % pair_den:
            new = lcm(den, pair_den)
            up = new // den
            for key in num:
                num[key] *= up
            self.den = den = new
        f = den // pair_den * c.numerator
        get = num.get
        # end-letter signs, 3 for the empty word: only a cancelling junction calls _join
        heads = [(w2, n2, w2[0]._sign if w2 else 3) for w2, n2 in p2.num.items()]
        for w1, n1 in p1.num.items():
            n1 *= f
            tail = w1[-1]._sign if w1 else 3
            for w2, n2, head in heads:
                key = _join(w1, w2) if tail + head == 0 else w1 + w2
                num[key] = get(key, 0) + n1 * n2

    def poly(self, d: int) -> "NCPoly":
        """The sum as an ``NCPoly``, which may share its dict: add nothing after."""
        return NCPoly._trusted(d, self.num, self.den)


def _accumulate(terms: dict, key, value):
    """Add ``value`` into ``terms[key]``, keeping no falsy entry."""
    if not value:
        return
    cur = terms.get(key)
    if cur is None:
        terms[key] = value
        return
    total = cur + value
    if total:
        terms[key] = total
    else:
        del terms[key]


def commutative_word(d: int, word: Iterable[Letter]) -> Word:
    """The image of ``word`` in the commutative quotient: underived h and
    h^-1 cancel by count, derived letters are opaque commuting symbols,
    and what survives is sorted into the canonical letter order."""
    rest = []
    net = 0
    for let in word:
        if let.order == 0 and let.kind == "H":
            net += 1
        elif let.kind == "Hinv":
            net -= 1
        else:
            rest.append(let)
    pad = Letter("H", (0,) * d) if net > 0 else Letter("Hinv", (0,) * d)
    rest.extend([pad] * abs(net))
    return tuple(sorted(rest, key=Letter.sort_key))


class Combination:
    """Finite sum: ``terms`` maps distinct keys to nonzero coefficients.

    The one additive core of ``NCPoly``, ``Symbol`` and
    ``TraceExpression``.  The constructor keeps the nonzero coefficients
    of ``terms``; a subclass that checks or normalizes its keys wraps it.
    Results built here from valid operands go through ``_trusted`` and
    skip those checks.  A subclass declares the ``terms`` slot."""

    __slots__ = ("d",)
    __hash__ = None

    def __init__(self, d: int, terms: dict | None = None):
        self.d = d
        self.terms = {key: value for key, value in terms.items() if value} if terms else {}

    @classmethod
    def _trusted(cls, d: int, terms: dict):
        """Wrap a dict of valid keys and nonzero coefficients as is."""
        c = cls.__new__(cls)
        c.d = d
        c.terms = terms
        return c

    @classmethod
    def zero(cls, d: int):
        return cls._trusted(d, {})

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def _check(self, other: "Combination"):
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, value in other.terms.items():
            _accumulate(out, key, value)
        return self._trusted(self.d, out)

    def __neg__(self):
        return self._trusted(self.d, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return self.zero(self.d)
        return self._trusted(self.d, {k: v * c for k, v in self.terms.items()})


class NCPoly(Combination):
    """Rational combination of normal words, stored as integer numerators
    ``num`` over ``den`` in lowest terms: den > 0, no zero numerator, and
    no factor common to den and every numerator, so equal polynomials
    store equal fields.  ``terms``, the words to their ``Fraction``s, is
    formed on first read and kept; it is read-only."""

    __slots__ = ("num", "den", "_view")

    def __init__(self, d: int, terms: dict[Word, int | Fraction] | None = None):
        qs: dict[Word, Fraction] = {}
        for word, q in (terms or {}).items():
            _accumulate(qs, normalize_word(word), Fraction(q))
        # over the lcm of reduced fractions, the numerators are in lowest terms
        self.d, self.den = d, lcm(*(q.denominator for q in qs.values()))
        self.num = {w: q.numerator * (self.den // q.denominator) for w, q in qs.items()}

    @classmethod
    def _trusted(cls, d: int, num: dict[Word, int], den: int = 1) -> "NCPoly":
        """Wrap normal words to integer numerators over ``den`` > 0, reduced."""
        vals = num.values()
        g = gcd(den, *vals)
        if g != 1 or 0 in vals:
            num = {w: n // g for w, n in num.items() if n}
        p = cls.__new__(cls)
        p.d, p.num, p.den = d, num, den // g
        return p

    @classmethod
    def one(cls, d: int) -> "NCPoly":
        return cls._trusted(d, {(): 1})

    @classmethod
    def from_word(cls, d: int, word: Iterable[Letter], coef: int | Fraction = 1) -> "NCPoly":
        coef = coef if type(coef) is int else Fraction(coef)
        return cls._trusted(d, {normalize_word(word): coef.numerator}, coef.denominator)

    @property
    def terms(self) -> dict[Word, Fraction]:
        if not hasattr(self, "_view"):
            self._view = {w: Fraction(n, self.den) for w, n in self.num.items()}
        return self._view

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.d, self.den, self.num) == (other.d, other.den, other.num)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        den = lcm(self.den, other.den)
        up, up2 = den // self.den, den // other.den
        out = {w: n * up for w, n in self.num.items()}
        for w, n in other.num.items():
            out[w] = out.get(w, 0) + n * up2
        return NCPoly._trusted(self.d, out, den)

    def __neg__(self) -> "NCPoly":
        return self.scale(-1)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, NCPoly):
            self._check(other)
            out = WordSum()
            out.add_product(self, other)
            return out.poly(self.d)
        return self.scale(other)

    def scale(self, c: int | Fraction) -> "NCPoly":
        if type(c) is not int:
            c = Fraction(c)
        if c == 1:
            return self
        up, den = c.numerator, self.den * c.denominator
        return NCPoly._trusted(self.d, {w: n * up for w, n in self.num.items()}, den)

    def derive(self, axis: int) -> "NCPoly":
        """Apply the direction-``axis`` derivation by the Leibniz rule.  The
        new words are normal: a derived letter cancels with nothing, and
        h^-1 d(h) h^-1 keeps the neighbours h^-1 had.  An axis outside 1..d
        raises from ``Letter.derived``, which forms d(h) first."""
        dh = Letter("H", (0,) * self.d).derived(axis)
        k = axis - 1
        out: dict[Word, int] = {}
        get = out.get
        for word, n in self.num.items():
            for i, let in enumerate(word):
                if let.kind == "Hinv":
                    new = word[:i] + (let, dh, let) + word[i + 1:]
                    out[new] = get(new, 0) - n
                else:
                    new = word[:i] + (let._up[k] or let.derived(axis),) + word[i + 1:]
                    out[new] = get(new, 0) + n
        return NCPoly._trusted(self.d, out, self.den)

    def commutative_image(self) -> "NCPoly":
        """Project onto the commutative quotient, word by word."""
        out: dict[Word, int] = {}
        for word, n in self.num.items():
            key = commutative_word(self.d, word)
            out[key] = out.get(key, 0) + n
        return NCPoly._trusted(self.d, out, self.den)

    def __repr__(self) -> str:
        return f"NCPoly({self.d}, {format_poly(self)!r})"


class Algebra:
    """Factory for the letters of a fixed dimension."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be positive")
        self.d = d
        self._zero_deriv = (0,) * d

    def zero(self) -> NCPoly:
        return NCPoly.zero(self.d)

    def one(self) -> NCPoly:
        return NCPoly.one(self.d)

    def scalar(self, q: int | Fraction) -> NCPoly:
        return NCPoly(self.d, {(): q})

    def h(self) -> NCPoly:
        return NCPoly.from_word(self.d, (Letter("H", self._zero_deriv),))

    def hinv(self) -> NCPoly:
        return NCPoly.from_word(self.d, (Letter("Hinv", self._zero_deriv),))

    def t(self, axis: int) -> NCPoly:
        if not 1 <= axis <= self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        return NCPoly.from_word(self.d, (Letter("T", self._zero_deriv, axis),))

    def x(self) -> NCPoly:
        return NCPoly.from_word(self.d, (Letter("X", self._zero_deriv),))

    def h_power(self, k: int) -> NCPoly:
        """Integer power of h; negative powers use the inverse letter."""
        if k == 0:
            return self.one()
        base = Letter("H", self._zero_deriv) if k > 0 else Letter("Hinv", self._zero_deriv)
        return NCPoly.from_word(self.d, (base,) * abs(k))


# ---------------------------------------------------------------------------
# rendering


def format_scalar(sc: Scalar) -> str:
    if not sc.pi:
        return str(sc.q)
    power = "pi" if sc.pi == 1 else f"pi^{sc.pi}"
    if abs(sc.q) == 1:
        return ("-" if sc.q < 0 else "") + power
    return f"{sc.q}*{power}"


_BASES = {"H": "h", "Hinv": "h^-1", "X": "X"}


def format_letter(let: Letter) -> str:
    base = f"T{let.axis}" if let.kind == "T" else _BASES[let.kind]
    if let.order == 0:
        return base
    dparts = []
    for axis, n in enumerate(let.deriv, start=1):
        if n == 1:
            dparts.append(f"d{axis}")
        elif n > 1:
            dparts.append(f"d{axis}^{n}")
    return "".join(dparts) + f"({base})"


def format_word(word: Word) -> str:
    pieces = []
    for let, run in groupby(word):
        text, n = format_letter(let), len(list(run))
        if n > 1:
            text = f"h^-{n}" if let.kind == "Hinv" else f"{text}^{n}"
        pieces.append(text)
    return ".".join(pieces) or "1"


def _signed_sum(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, text) pairs as ``a - b + c``; the first term takes
    a bare minus sign and no sum gives the empty string."""
    text = "".join((" - " if negative else " + ") + body for negative, body in terms)
    return ("-" if text.startswith(" - ") else "") + text[3:]


def format_poly(p: NCPoly) -> str:
    terms = []
    for word in sorted(p.terms, key=word_sort_key):
        sc = p.terms[word]
        coef = str(abs(sc))
        if not word:
            text = coef
        elif coef == "1":
            text = format_word(word)
        else:
            text = f"{coef}*{format_word(word)}"
        terms.append((sc < 0, text))
    return _signed_sum(terms) or "0"
