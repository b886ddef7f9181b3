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
unique without any ordering choices between distinct letters.

Scalars are exact: a rational times an integer power of pi.  The pi power
is carried separately so that residue outputs stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Union

KIND_RANK = {"H": 0, "Hinv": 1, "T": 2, "X": 3}

ScalarLike = Union["Scalar", int, Fraction]


@dataclass(frozen=True)
class Scalar:
    """Exact coefficient q * pi^k with rational q."""

    q: Fraction
    pi: int = 0

    def __post_init__(self):
        if not isinstance(self.q, Fraction):
            object.__setattr__(self, "q", Fraction(self.q))
        # canonical zero: 0 * pi^k == 0 * pi^0
        if self.q == 0 and self.pi != 0:
            object.__setattr__(self, "pi", 0)

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

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = as_scalar(other)
        return Scalar(self.q * other.q, self.pi + other.pi)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        other = as_scalar(other)
        if other.q == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.q / other.q, self.pi - other.pi)

    def __float__(self) -> float:
        import math

        return float(self.q) * math.pi ** self.pi

    def __repr__(self) -> str:
        return f"Scalar({self.q}, pi={self.pi})"


ONE = Scalar(Fraction(1))


def as_scalar(x: ScalarLike) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar(Fraction(x))


@dataclass(frozen=True, order=False)
class Letter:
    """A single generator, possibly derived.

    ``axis`` is the 1-based direction for ``T`` letters and None otherwise.
    ``deriv`` has one nonnegative entry per torus direction.
    """

    kind: str
    deriv: tuple[int, ...]
    axis: int | None = None

    def __post_init__(self):
        if self.kind not in KIND_RANK:
            raise ValueError(f"unknown letter kind {self.kind!r}")
        if (self.kind == "T") != (self.axis is not None):
            raise ValueError("axis is required for T letters and only for them")
        if self.kind == "Hinv" and any(self.deriv):
            raise ValueError("derived inverse must be expanded, not stored")
        if any(n < 0 for n in self.deriv):
            raise ValueError("derivative exponents must be nonnegative")
        # letters are hashed constantly inside word dicts; cache it
        object.__setattr__(self, "_hash", hash((self.kind, self.deriv, self.axis)))

    def __hash__(self):
        return self._hash

    @property
    def order(self) -> int:
        return sum(self.deriv)

    def sort_key(self):
        return (KIND_RANK[self.kind], self.axis or 0, self.deriv)


Word = tuple[Letter, ...]


def _cancels(a: Letter, b: Letter) -> bool:
    if a.order or b.order:
        return False
    return {a.kind, b.kind} == {"H", "Hinv"}


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


def word_sort_key(word: Word):
    return (len(word), tuple(let.sort_key() for let in word))


def _bump(deriv: tuple[int, ...], axis: int) -> tuple[int, ...]:
    return deriv[: axis - 1] + (deriv[axis - 1] + 1,) + deriv[axis:]


class NCPoly:
    """Finite scalar combination of normalized words."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[Word, Scalar] | None = None):
        self.d = d
        self.terms: dict[Word, Scalar] = {}
        if terms:
            for word, sc in terms.items():
                if sc:
                    self.terms[word] = sc

    @classmethod
    def zero(cls, d: int) -> "NCPoly":
        return cls(d)

    @classmethod
    def one(cls, d: int) -> "NCPoly":
        return cls(d, {(): ONE})

    @classmethod
    def from_word(cls, d: int, word: Iterable[Letter], coef: ScalarLike = 1) -> "NCPoly":
        return cls(d, {normalize_word(word): as_scalar(coef)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        raise TypeError("NCPoly is mutable in spirit; use its terms dict")

    def _check(self, other: "NCPoly"):
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        out = dict(self.terms)
        for word, sc in other.terms.items():
            _accumulate(out, word, sc)
        return NCPoly(self.d, out)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.d, {w: -sc for w, sc in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, NCPoly):
            self._check(other)
            out: dict[Word, Scalar] = {}
            for w1, s1 in self.terms.items():
                for w2, s2 in other.terms.items():
                    _accumulate(out, normalize_word(w1 + w2), s1 * s2)
            return NCPoly(self.d, out)
        return self.scale(other)

    def __rmul__(self, other) -> "NCPoly":
        # scalars commute with everything, so left and right scaling agree
        return self.scale(other)

    def scale(self, c: ScalarLike) -> "NCPoly":
        c = as_scalar(c)
        if not c:
            return NCPoly.zero(self.d)
        return NCPoly(self.d, {w: sc * c for w, sc in self.terms.items()})

    def derive(self, axis: int) -> "NCPoly":
        """Apply the direction-``axis`` derivation by the Leibniz rule."""
        if not 1 <= axis <= self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        out: dict[Word, Scalar] = {}
        for word, sc in self.terms.items():
            for i, let in enumerate(word):
                if let.kind == "Hinv":
                    hinv = let
                    dh = Letter("H", _bump((0,) * self.d, axis))
                    new = word[:i] + (hinv, dh, hinv) + word[i + 1:]
                    _accumulate(out, normalize_word(new), -sc)
                else:
                    bumped = Letter(let.kind, _bump(let.deriv, axis), let.axis)
                    new = word[:i] + (bumped,) + word[i + 1:]
                    _accumulate(out, normalize_word(new), sc)
        return NCPoly(self.d, out)

    def commutative_image(self) -> "NCPoly":
        """Project onto the commutative quotient.

        Underived h / h^-1 letters cancel by count; whatever survives is
        sorted into the canonical letter order.  Derived letters are kept
        as opaque commuting symbols.
        """
        out: dict[Word, Scalar] = {}
        for word, sc in self.terms.items():
            rest = []
            net = 0
            for let in word:
                if let.order == 0 and let.kind == "H":
                    net += 1
                elif let.kind == "Hinv":
                    net -= 1
                else:
                    rest.append(let)
            pad = Letter("H", (0,) * self.d) if net > 0 else Letter("Hinv", (0,) * self.d)
            rest.extend([pad] * abs(net))
            key = tuple(sorted(rest, key=Letter.sort_key))
            _accumulate(out, key, sc)
        return NCPoly(self.d, out)

    def __repr__(self) -> str:
        return f"NCPoly({self.d}, {format_poly(self)!r})"


def _accumulate(terms: dict[Word, Scalar], word: Word, sc: Scalar):
    if not sc:
        return
    cur = terms.get(word)
    if cur is None:
        terms[word] = sc
        return
    total = cur + sc
    if total:
        terms[word] = total
    else:
        del terms[word]


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

    def scalar(self, q, pi: int = 0) -> NCPoly:
        return NCPoly(self.d, {(): Scalar(Fraction(q), pi)})

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
    if sc.q == 0:
        return "0"
    parts = []
    if sc.q == 1 and sc.pi != 0:
        pass
    elif sc.q == -1 and sc.pi != 0:
        parts.append("-1")
    else:
        parts.append(str(sc.q))
    if sc.pi == 1:
        parts.append("pi")
    elif sc.pi != 0:
        parts.append(f"pi^{sc.pi}")
    if sc.q == -1 and sc.pi != 0:
        return "-" + "*".join(parts[1:])
    return "*".join(parts) if parts else "1"


def format_letter(let: Letter) -> str:
    if let.kind == "H":
        base = "h"
    elif let.kind == "Hinv":
        base = "h^-1"
    elif let.kind == "T":
        base = f"T{let.axis}"
    else:
        base = "X"
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
    if not word:
        return "1"
    pieces = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run, let = j - i, word[i]
        text = format_letter(let)
        if run > 1:
            if let.kind == "H" and let.order == 0:
                text = f"h^{run}"
            elif let.kind == "Hinv":
                text = f"h^-{run}"
            else:
                text = f"{text}^{run}"
        pieces.append(text)
        i = j
    return ".".join(pieces)


def format_poly(p: NCPoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for word in sorted(p.terms, key=word_sort_key):
        sc = p.terms[word]
        body = format_word(word)
        coef = format_scalar(sc if sc.q > 0 else -sc)
        if coef == "1" and word:
            text = body
        elif not word:
            text = coef
        else:
            text = f"{coef}*{body}"
        sign = " + " if sc.q > 0 else " - "
        if not chunks:
            chunks.append(("-" if sc.q < 0 else "") + text)
        else:
            chunks.append(sign + text)
    return "".join(chunks)
