"""Canonical trace expressions and integration-by-parts reduction.

The trace is the normalized zero-mode functional: it is cyclic, kills
every derivation (``t(d_a(p)) = 0``), and sends 1 to 1.  Two consequences
drive this module:

* cyclicity lets every trace word be rotated to a canonical representative,
  with wrap-around h/h^-1 cancellation applied first;
* the vanishing of traced derivations generates linear relations among
  trace words (integration by parts), which we put into row echelon form
  and use to rewrite expressions canonically.

A ``TraceWord`` is that canonical representative, a tuple of letters
that compares and hashes as a tuple, so equal cyclic classes give equal
words.  It keeps no table: a word lives as long as the expressions and
systems that hold it.  ``_commutative_cycle`` takes a raw word to the
commutative quotient first, and ``_cycles`` is the one loop that sums
(raw word, value) pairs into trace words.

``canonical_cycle`` normalizes, cancels across the ends, then takes the
least rotation.  That last step reads letter codes: each letter's
``_code`` is its sort key as a string, so a rotation is a slice of the
word's doubled code string and costs one string compare.  Callers whose
words are already normal enter after the normalize step: ``trace``
reads an ``NCPoly``, which stores normal words, so it only unwraps and
rotates; the words of a relation derive a trace word, and a derivation
cancels no letter, so they are only rotated; a lowering cancels only
where a lowered h meets an h^-1, so it is joined at the lowered letter
instead of normalized whole, then unwrapped and rotated.  The commutative
quotient and ``TraceWord(word)`` on a raw word take the whole path.

Relations are generated by need: each explored word with one exponent
along axis b lowered is a generator g of the one relation t(d_b(g)) = 0.
The expression's words are explored first, then new words met inside
relations while they stay within the length cap.  Many explored words
share a lowering, and equal joined words have equal canonical forms, so
a system keeps every lowering it has met, joined but not rotated, and
rotates one only the first time.  Relations are
homogeneous in a word's block (per-axis derivative multidegree, T axes,
net h power, X count), and one that holds a word u is built from u, its
g being u lowered along its b: exploration keeps to the seeds' blocks and,
the cap aside, drops only relations that never meet a seed.
Each relation pivots on its largest word under ``pivot_key``, and a word
reduces to the one combination, equal modulo the relations, that holds
no pivot.  That form depends only on the span of the relations, not on
the order in which they were found or the scale at which they are
stored: ``Echelon`` keeps each row as coprime integers and eliminates on
integer numerators over one denominator, so a reduction forms no
``Fraction`` until its result, one per surviving word.

The reduction works on rational vectors: an expression enters as its one
pi power and the rationals of its words, and an expression whose terms
carry more than one pi power is refused.  The commutative image is
summed on that rational vector.  Every residue is a rational
trace expression times pi^(d/2), the power the sphere moments bring in.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Iterable, Sequence

from .ncalg import (
    Combination,
    Letter,
    NCPoly,
    Scalar,
    Word,
    _accumulate,
    _bump,
    _cancels,
    _join,
    _signed_sum,
    commutative_word,
    format_scalar,
    format_word,
    normalize_word,
    word_sort_key,
)


def _unwrapped(w: Word) -> Word:
    """A normal word with the underived h/h^-1 pairs that meet across its
    ends cancelled: the word is a cycle, so its first and last letters
    are adjacent."""
    while len(w) >= 2 and _cancels(w[-1], w[0]):
        w = w[1:-1]
    return w


def _least_rotation(w: Word) -> "TraceWord":
    """The least rotation of a normal, cyclically reduced word, as a trace
    word.  A rotation is a slice of the doubled code string at a letter
    boundary; codes of one dimension share one length and order as the
    letters' keys, so the slices compare as the rotations' key tuples do,
    one string compare each."""
    n = len(w)
    if n > 1:
        doubled = "".join([let._code for let in w]) * 2
        size = len(doubled) // 2
        rotations = [doubled[k : k + size] for k in range(0, size, size // n)]
        i = rotations.index(min(rotations))
        w = w[i:] + w[:i]
    return tuple.__new__(TraceWord, w)


def canonical_cycle(word: Iterable[Letter]) -> Word:
    """Canonical representative of a word under cyclic equivalence.

    Linear normalization first, then wrap-around cancellation of underived
    h/h^-1 pairs, then the lexicographically minimal rotation.
    """
    return _least_rotation(_unwrapped(normalize_word(word)))


class TraceWord(tuple):
    """A trace word: the canonical representative of a cyclic class.

    ``TraceWord(word)`` takes any word and stores its canonical rotation
    as the tuple itself, so words of one cyclic class are equal, and
    hashing and equality are the tuple's own.  A trace word holds
    nothing else: it is freed with the last expression or relation
    system that uses it.
    """

    __slots__ = ()

    def __new__(cls, word: Iterable[Letter]):
        return canonical_cycle(word)

    @property
    def word(self) -> Word:
        return tuple(self)

    def __repr__(self) -> str:
        return f"TraceWord(word={self.word!r})"


def pivot_key(tw: TraceWord):
    """Elimination order: reduce total order first, then the highest
    single-letter order, then length, then the letters' codes, which
    order as their key tuples do at equal length."""
    order = peak = 0
    for let in tw:
        n = let.order
        order += n
        if n > peak:
            peak = n
    return (order, peak, len(tw), "".join([let._code for let in tw]))


class TraceExpression(Combination):
    """Finite scalar combination of canonical trace words.

    Each word carries a single exact scalar; summing terms whose pi powers
    differ on the same word is rejected rather than approximated, and the
    reductions below take only expressions with one pi power.
    """

    __slots__ = ("terms",)

    def __repr__(self) -> str:
        return f"TraceExpression({self.d}, {format_trace_expression(self)!r})"


def _commutative_cycle(d: int, word: Word) -> TraceWord:
    """The trace word of a raw word's image in the commutative quotient.
    Callers bind ``d`` with ``partial``, positionally: a keyword-bound
    partial builds a keyword dict on every call."""
    return TraceWord(commutative_word(d, word))


def _cycles(items: Iterable[tuple[Word, object]], canon) -> dict:
    """Sum (raw word, value) pairs into {``canon(word)``: value}, keeping
    no zero value."""
    out: dict = {}
    for word, value in items:
        _accumulate(out, canon(word), value)
    return out


def trace(p: NCPoly, pi: int = 0) -> TraceExpression:
    """The trace of ``p`` times pi^``pi``: sum the numerators per trace
    word, then form one ``Scalar`` each.  The words of an ``NCPoly`` are
    normal, so each is only unwrapped and rotated."""
    out = _cycles(p.num.items(), lambda w: _least_rotation(_unwrapped(w)))
    return TraceExpression._trusted(
        p.d, {tw: Scalar(Fraction(n, p.den), pi) for tw, n in out.items()}
    )


def commutative_image_expr(e: TraceExpression) -> TraceExpression:
    image = _cycles(e.terms.items(), partial(_commutative_cycle, e.d))
    return TraceExpression._trusted(e.d, image)


# ---------------------------------------------------------------------------
# relation system


class Echelon:
    """Sparse row echelon form over the rationals, kept in integers.

    ``key`` totally orders the columns; each column's key is computed
    once per system and kept in ``_keys``.  Each row is stored under its
    pivot, its largest column, as coprime integers with a positive
    pivot entry; every other column of the row sorts below the pivot and
    may be another row's pivot.  A stored row is never rewritten.
    """

    def __init__(self, key):
        self.key = key
        # pivot -> row
        self.rows: dict = {}
        self._keys: dict = {}

    def _eliminate(self, vec: dict) -> tuple[dict, int]:
        """``vec`` reduced modulo the rows, as integer numerators over one
        denominator.  Pivots go from the largest key down: eliminating one
        brings in only columns below it, so none comes back.  At a pivot
        of entry p whose column holds a, a/p is a'/p' in lowest terms: the
        row is taken a' times, and the other entries and the denominator
        are scaled by p' only when p' is not 1."""
        rows = self.rows
        den = lcm(*(q.denominator for q in vec.values()))
        out = {u: q.numerator * (den // q.denominator) for u, q in vec.items() if q}
        # every pivot the elimination can meet, each queued once
        todo = [u for u in out if u in rows]
        queued = set(todo)
        for u in todo:
            for w in rows[u]:
                if w in rows and w not in queued:
                    queued.add(w)
                    todo.append(w)
        for u in sorted(todo, key=self._keys.__getitem__, reverse=True):
            a = out.pop(u, None)
            if a is None:
                continue
            row = rows[u]
            p = row[u]
            g = gcd(a, p)
            if g != p:
                p //= g
                den *= p
                for w in out:
                    out[w] *= p
            a //= g
            for w, c in row.items():
                if w != u:
                    _accumulate(out, w, -a * c)
        return out, den

    def reduce_vector(self, vec: dict) -> dict:
        """The one vector equal to ``vec`` modulo the rows with no pivot
        column, one ``Fraction`` per column."""
        out, den = self._eliminate(vec)
        return {u: Fraction(n, den) for u, n in out.items()}

    def insert(self, row: dict):
        """Add a row; return its pivot, or None if it reduced to zero."""
        row, _ = self._eliminate(row)
        if not row:
            return None
        keys = self._keys
        for u in row:
            if u not in keys:
                keys[u] = self.key(u)
        pivot = max(row, key=keys.__getitem__)
        g = gcd(*row.values())
        if row[pivot] < 0:
            g = -g
        self.rows[pivot] = {u: n // g for u, n in row.items()}
        return pivot


class ReductionSystem(Echelon):
    """Row echelon form of the integration-by-parts relations reachable
    from a set of seed words: a lowering is derived back along its own
    axis only, which keeps every row in a seed's block.  ``_met`` holds
    every lowering met, joined but not rotated, and ``_seen_gens`` every
    canonical generator: a lowering is rotated only the first time it is
    met, and a relation is built only for a new generator."""

    def __init__(self, d: int, seeds: Iterable[TraceWord], commutative: bool = False):
        super().__init__(pivot_key)
        self.d = d
        seed_list = list(dict.fromkeys(seeds))
        self.cap_len = max((len(tw) for tw in seed_list), default=0) + 1
        self._seen_words = set(seed_list)
        self._met: set[tuple[Word, int]] = set()
        self._seen_gens: set[tuple[TraceWord, int]] = set()
        # the words of a relation and of a lowering are normal and
        # cyclically reduced, so they only need their least rotation
        self._canon = partial(_commutative_cycle, d) if commutative else _least_rotation
        queue = deque(seed_list)
        while queue:
            self._explore(queue.popleft(), queue)

    def _relation(self, gen: TraceWord, axis: int) -> dict[TraceWord, int]:
        """Row for t(d_axis(gen)) = 0, read off the numerators: a
        relation holds at any nonzero scale.  A derivation cancels no
        letter, even across the ends, so the derived words of a trace word
        are only rotated."""
        dp = NCPoly.from_word(self.d, gen).derive(axis)
        return _cycles(dp.num.items(), self._canon)

    def _lowerings(self, tw: TraceWord):
        """Pairs (word, b): ``tw`` with one axis-b exponent lowered, normal
        and cyclically reduced but not rotated.  The lowered letter comes
        from the letter's ``_down`` table.  Only a lowering to an
        underived h can cancel, with an h^-1 beside it or across the
        ends: the lowered letter is joined to its two normal sides, which
        cancels outward from a junction only, and the word is unwrapped.
        In commutative mode ``_canon`` is the whole commutative map, and
        dropping h/h^-1 pairs first leaves the image as it is."""
        for i, let in enumerate(tw):
            if let.order == 0:
                continue
            for b in range(1, self.d + 1):
                if let.deriv[b - 1] == 0:
                    continue
                lowered = let._down[b - 1] or let.lowered(b)
                yield _unwrapped(_join(_join(tw[:i], (lowered,)), tw[i + 1:])), b

    def _explore(self, tw: TraceWord, queue: deque):
        """Build the relation of each new generator among the lowerings of
        ``tw``.  Equal joined words have equal canonical forms, so a
        lowering met before is skipped before it is rotated."""
        met, seen = self._met, self._seen_gens
        for word, b in self._lowerings(tw):
            if (word, b) in met:
                continue
            met.add((word, b))
            pair = self._canon(word), b
            if pair in seen:
                continue
            seen.add(pair)
            row = self._relation(*pair)
            for u in row:
                if u not in self._seen_words and len(u) <= self.cap_len:
                    self._seen_words.add(u)
                    queue.append(u)
            self.insert(row)


Vector = dict[TraceWord, Fraction]


def _vector(e: TraceExpression, commutative: bool) -> tuple[int, Vector]:
    """``e`` as its one pi power and a rational vector, taken to the
    commutative quotient first when asked.  The zero expression has pi
    power 0."""
    pis = {sc.pi for sc in e.terms.values()}
    if len(pis) > 1:
        raise ValueError(f"expression mixes pi powers {sorted(pis)}")
    vec = {tw: sc.q for tw, sc in e.terms.items()}
    if commutative:
        vec = _cycles(vec.items(), partial(_commutative_cycle, e.d))
    return (pis.pop() if pis else 0), vec


def _reduced(d: int, vectors: Sequence[Vector], commutative: bool) -> list[Vector]:
    """Canonical form of each vector.

    One relation system, seeded with the words of every vector, reduces
    them all.  Reduction is linear and returns the one representative
    that holds no pivot, so two vectors agree modulo the relations exactly
    when their reduced forms are equal.
    """
    system = ReductionSystem(d, (tw for vec in vectors for tw in vec), commutative)
    return [system.reduce_vector(vec) for vec in vectors]


def ibp_reduce(e: TraceExpression, commutative: bool = False) -> TraceExpression:
    """Canonical form of ``e`` modulo cyclicity and integration by parts."""
    pi, vec = _vector(e, commutative)
    (form,) = _reduced(e.d, [vec], commutative)
    return TraceExpression._trusted(e.d, {tw: Scalar(q, pi) for tw, q in form.items()})


def trace_equal(a: TraceExpression, b: TraceExpression, commutative: bool = False) -> bool:
    """Whether a and b agree modulo cyclicity and integration by parts.

    With one pi power on both sides only a - b is reduced, so words that
    cancel seed no relations; with two, both sides must reduce to zero.
    """
    if a.d != b.d:
        return False
    (pi_a, vec_a), (pi_b, vec_b) = _vector(a, commutative), _vector(b, commutative)
    if pi_a != pi_b:
        return not any(_reduced(a.d, [vec_a, vec_b], commutative))
    for tw, q in vec_b.items():
        _accumulate(vec_a, tw, -q)
    (form,) = _reduced(a.d, [vec_a], commutative)
    return not form


def express_in_span(
    target: TraceExpression,
    shapes: Sequence[TraceExpression],
    commutative: bool = False,
) -> list[Scalar] | None:
    """Exact coefficients writing ``target`` as a combination of ``shapes``
    modulo integration by parts, or None if no combination exists.

    Raises if a combination exists but is not unique (the shapes are
    dependent over the reduced basis), or if an expression mixes pi
    powers.
    """
    pis, vectors = zip(*(_vector(e, commutative) for e in (target, *shapes)))
    target_vec, *shape_vecs = _reduced(target.d, vectors, commutative)
    # shape i enters as v_i - e_i with an integer tag i that sorts below
    # every word, so a row pivots on a tag only when the shapes are
    # dependent; the target then reduces to sum x_i e_i when it is in span
    span = Echelon(lambda u: (0, u) if isinstance(u, int) else (1, pivot_key(u)))
    for i, vec in enumerate(shape_vecs):
        span.insert({**vec, i: Fraction(-1)})
    rest = span.reduce_vector(target_vec)
    if any(isinstance(u, TraceWord) for u in rest):
        return None  # inconsistent: target leaves the span
    if any(isinstance(u, int) for u in span.rows):
        raise ValueError("shapes are linearly dependent modulo the relations")
    pi_t, *pi_shapes = pis
    return [Scalar(rest.get(i, Fraction(0)), pi_t - pi_s) for i, pi_s in enumerate(pi_shapes)]


# ---------------------------------------------------------------------------
# rendering


def format_trace_word(tw: TraceWord) -> str:
    return f"t[{format_word(tw.word)}]"


def format_trace_expression(e: TraceExpression) -> str:
    """Render with a common pi factor pulled out when one exists.

    A uniform nonzero pi power (with the rational gcd) is shown as a
    prefix, e.g. ``2*pi^2 * t[h^4]``; otherwise terms are joined plainly.
    """
    coeffs = e.terms
    pis = {sc.pi for sc in coeffs.values()}
    g = None
    if len(pis) == 1 and pis != {0}:
        qs = [sc.q for sc in coeffs.values()]
        g = Fraction(gcd(*(q.numerator for q in qs)), lcm(*(q.denominator for q in qs)))
        if all(q < 0 for q in qs):
            g = -g
        coeffs = {tw: Scalar(sc.q / g) for tw, sc in coeffs.items()}
    terms = []
    for tw in sorted(coeffs, key=lambda tw: word_sort_key(tw.word)):
        sc = coeffs[tw]
        mag = format_scalar(sc if sc.q > 0 else -sc)
        body = format_trace_word(tw)
        terms.append((sc.q < 0, body if mag == "1" else f"{mag}*{body}"))
    joined = _signed_sum(terms) or "0"
    if g is None:
        return joined
    prefix = format_scalar(Scalar(g, pis.pop()))
    return f"{prefix} * {joined}" if len(terms) == 1 else f"{prefix} * ( {joined} )"
