import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncwres.trace as trace_module
from ncwres.ncalg import Algebra, Letter, NCPoly, Scalar, _accumulate, normalize_word
from ncwres.trace import (
    Echelon,
    ReductionSystem,
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


def _random_word(d: int, rng: random.Random) -> tuple:
    """A word over h, h^-1, derived h, T_a (derived or not) and X, made
    to be periodic, to cancel to (), or to cancel across its ends."""
    zero = (0,) * d

    def derived():
        return tuple(rng.choice((0, 0, 1, 2)) for _ in range(d))

    h, hinv = Letter("H", zero), Letter("Hinv", zero)
    pool = [h, h, hinv, hinv, Letter("X", zero), Letter("X", derived())]
    pool += [Letter("H", derived()), h.derived(rng.randint(1, d)), h.derived(rng.randint(1, d))]
    pool += [Letter("T", derived(), rng.randint(1, d)) for _ in range(2)]
    core = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
    shape = rng.randrange(4)
    if shape == 1:  # periodic
        core = core[:3] * rng.randint(2, 3)
    elif shape == 2:  # h^k h^-k, rotated: cancels to ()
        k = rng.randint(1, 3)
        core = (h,) * k + (hinv,) * k
    elif shape == 3:  # h^-k ... h^k: cancels across the ends
        k = rng.randint(1, 2)
        core = (hinv,) * k + core + (h,) * k
    i = rng.randrange(len(core) + 1)
    return core[i:] + core[:i]


def _reference_cycle(word) -> tuple:
    """Brute force: normalize, cancel across the ends, then the least of
    all rotations compared as tuples of letter keys."""
    w = list(normalize_word(tuple(word)))
    cancel = lambda a, b: {a.kind, b.kind} == {"H", "Hinv"} and a.order == b.order == 0
    while len(w) >= 2 and cancel(w[-1], w[0]):
        w = w[1:-1]
    rotations = [tuple(w[i:] + w[:i]) for i in range(len(w))] or [()]
    return min(rotations, key=lambda r: tuple(let._key for let in r))


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_canonical_cycle_matches_a_brute_force_reference(d):
    rng = random.Random(d)
    seen = {"periodic": 0, "empty": 0, "wrap": 0}
    for _ in range(400):
        word = _random_word(d, rng)
        want = _reference_cycle(word)
        assert canonical_cycle(word) == want
        assert type(TraceWord(word)) is TraceWord and TraceWord(word) == want
        n = len(want)
        seen["periodic"] += any(n % k == 0 and want == want[k:] + want[:k] for k in range(1, n))
        seen["empty"] += bool(word) and not want
        seen["wrap"] += len(want) < len(normalize_word(word))
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_reduction_canonicalizes_lowerings_and_relations_in_full(d):
    # _lowerings joins the lowered letter to its sides instead of
    # normalizing the word and leaves it unrotated, and _relation only
    # rotates: each lowering, once rotated, and each relation and trace
    # must give the brute-force trace words
    rng = random.Random(100 + d)
    system = ReductionSystem(d, [])
    met = {"inside": 0, "across": 0}
    for _ in range(300):
        tw = TraceWord(_random_word(d, rng))
        want = []
        for i, let in enumerate(tw):
            for b in range(1, d + 1):
                if not let.deriv[b - 1]:
                    continue
                deriv = tuple(n - (k == b - 1) for k, n in enumerate(let.deriv))
                lowered = Letter(let.kind, deriv, let.axis)
                want.append((_reference_cycle(tw[:i] + (lowered,) + tw[i + 1:]), b))
                if lowered.kind == "H" and not lowered.order:
                    ends = (i == 0 and tw[-1].kind == "Hinv") or (
                        i == len(tw) - 1 and tw[0].kind == "Hinv"
                    )
                    met["across"] += ends
                    met["inside"] += "Hinv" in (tw[i - 1].kind, tw[(i + 1) % len(tw)].kind)
        got = [(trace_module._least_rotation(w), b) for w, b in system._lowerings(tw)]
        assert got == want
        for gen, b in got:
            ref: dict = {}
            for w, n in NCPoly.from_word(d, gen).derive(b).num.items():
                _accumulate(ref, _reference_cycle(w), n)
            assert system._relation(gen, b) == ref
        p = NCPoly.from_word(d, tw) + NCPoly.from_word(d, _random_word(d, rng), 3)
        ref = {}
        for w, q in p.terms.items():
            _accumulate(ref, _reference_cycle(w), Scalar(q))
        assert trace(p).terms == ref
    assert min(met.values()) >= 10, met


@pytest.mark.parametrize(
    "d, power, torsion, lowerings, relations",
    [(4, 1, True, 20, 8), (6, 2, False, 18, 6), (6, 2, True, 42, 12)],
)
def test_reduction_rotates_each_lowering_once(monkeypatch, d, power, torsion, lowerings, relations):
    # a lowering met before is skipped before it is rotated, so the counts
    # are the distinct joined lowerings, and the distinct generators, of
    # the explored closure, whatever the order of exploration
    from ncwres.parametrix import OperatorSpec
    from ncwres.wres import wres_inverse_power

    raw = wres_inverse_power(OperatorSpec(d=d, include_t=torsion), power)
    want = ibp_reduce(raw)
    rotate, relation = trace_module._least_rotation, ReductionSystem._relation
    count = {"lowerings": 0, "relations": 0}
    inside = []

    def counting_rotate(w):
        count["lowerings"] += not inside
        return rotate(w)

    def counting_relation(self, gen, axis):
        count["relations"] += 1
        inside.append(gen)
        row = relation(self, gen, axis)
        inside.pop()
        return row

    monkeypatch.setattr(trace_module, "_least_rotation", counting_rotate)
    monkeypatch.setattr(ReductionSystem, "_relation", counting_relation)
    assert ibp_reduce(raw) == want
    assert count == {"lowerings": lowerings, "relations": relations}


def test_letter_codes_order_as_keys():
    entries = {1: (0, 1, 2, 0xD800, 0xFFFF, 0x10FFFF), 2: (0, 1, 2, 0x10FFFF), 3: (0, 1)}
    sample = []
    for d, values in entries.items():
        for deriv in product(values, repeat=d):
            sample += [Letter("H", deriv), Letter("X", deriv)]
            sample += [Letter("T", deriv, axis) for axis in range(1, d + 1)]
        sample.append(Letter("Hinv", (0,) * d))
    for a in sample:
        assert len(a._code) == 2 + len(a.deriv)
        for b in sample:
            assert (a._code < b._code, a._code == b._code) == (a._key < b._key, a._key == b._key)


def test_an_exponent_past_chr_is_refused():
    # a letter code holds one character per exponent, so an exponent of
    # 0x110000 or more is refused when the letter is built
    with pytest.raises(ValueError, match="below 0x110000"):
        Letter("H", (0x110000, 0))
    assert ("H", (0x110000, 0), None) not in Letter._interned
    assert Letter("T", (0x10FFFF, 0), 2)._code == "\x02\x02\U0010ffff\x00"


def test_trace_words_are_interned():
    w = (H, T1, DH, X)
    tw = TraceWord(w)
    for i in range(len(w)):
        assert TraceWord(w[i:] + w[:i]) == tw
        assert hash(TraceWord(list(w[i:] + w[:i]))) == hash(tw)
    assert tw.word == canonical_cycle(w)
    assert len(tw) == 4
    assert TraceWord((H, HI)) == TraceWord(())
    for twin in (copy.copy(tw), copy.deepcopy(tw), pickle.loads(pickle.dumps(tw))):
        assert type(twin) is TraceWord and twin == tw
    assert repr(TraceWord((X,))) == f"TraceWord(word=({X!r},))"
    with pytest.raises(AttributeError):
        tw.word = ()


def test_reduced_results_leave_no_trace_word_behind():
    # a fresh interpreter, so no word made by another test is counted
    src = str(Path(trace_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import gc\n"
        "from ncwres.parametrix import OperatorSpec\n"
        "from ncwres.trace import TraceWord, ibp_reduce\n"
        "from ncwres.wres import wres_inverse_power\n"
        "raw = wres_inverse_power(OperatorSpec(d=4), 1)\n"
        "reduced = ibp_reduce(raw)\n"
        "held = len(raw.terms) + len(reduced.terms)\n"
        "del raw, reduced\n"
        "gc.collect()\n"
        "print(held, sum(type(o) is TraceWord for o in gc.get_objects()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    held, alive = map(int, proc.stdout.split())
    assert held and not alive


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


def test_trace_equal_ibp_zeros_across_pi_powers():
    # both sides reduce to zero, so their pi powers never meet
    z = trace(ALG.h().derive(1) * ALG.h())
    assert trace_equal(z.scale(Scalar(Fraction(1), pi=1)), z.scale(Scalar(Fraction(3), pi=2)))


def test_trace_equal_across_dimensions_is_false():
    # even two zero expressions differ when their dimensions do
    assert not trace_equal(trace(ALG.h()), trace(Algebra(4).h()))
    assert not trace_equal(TraceExpression.zero(D), TraceExpression.zero(4))


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


def _record_seeds(monkeypatch) -> list:
    seeded = []

    class Recording(ReductionSystem):
        def __init__(self, d, seeds, commutative=False):
            seeds = list(seeds)
            seeded.extend(seeds)
            super().__init__(d, seeds, commutative)

    monkeypatch.setattr(trace_module, "ReductionSystem", Recording)
    return seeded


def test_trace_equal_seeds_only_the_difference(monkeypatch):
    seeded = _record_seeds(monkeypatch)
    e = trace(NCPoly.from_word(D, (DH, T1, X, H))) + trace(ALG.h() * ALG.h()).scale(
        Fraction(1, 2)
    )
    assert trace_equal(e, e) and trace_equal(e, e, commutative=True)
    assert seeded == []
    zero = trace(ALG.h().derive(1) * ALG.h())
    assert trace_equal(e + zero, e)
    assert set(seeded) == set(zero.terms)
    seeded.clear()
    assert not trace_equal(e + trace(ALG.t(1)), e + trace(ALG.x()))
    assert set(seeded) == set(trace(ALG.t(1) + ALG.x()).terms)


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


MIXED = S.scale(PI) + U


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize(
    "reduce",
    [
        lambda e, c: ibp_reduce(e, c),
        lambda e, c: trace_equal(e, U, c),
        lambda e, c: trace_equal(U, e, c),
        lambda e, c: express_in_span(e, [S, U], c),
        lambda e, c: express_in_span(S, [e], c),
    ],
    ids=["ibp_reduce", "trace_equal-left", "trace_equal-right", "span-target", "span-shape"],
)
def test_reductions_refuse_mixed_pi_powers(reduce, commutative):
    # a reduction works on one rational vector, which has one pi power
    with pytest.raises(ValueError, match="mixes pi powers"):
        reduce(MIXED, commutative)


def _order(tw: TraceWord) -> int:
    return sum(let.order for let in tw)


def _block(d: int, tw: TraceWord) -> tuple:
    """What every relation t(d_b(g)) = 0 keeps equal across its words: the
    per-axis multidegree, the T axes, the net h power and the X count."""
    multidegree = tuple(sum(let.deriv[k] for let in tw) for k in range(d))
    t_axes = tuple(sorted(let.axis for let in tw if let.kind == "T"))
    kinds = [let.kind for let in tw]
    return multidegree, t_axes, kinds.count("H") - kinds.count("Hinv"), kinds.count("X")


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_explored_words_keep_a_seed_order(seed, commutative):
    # d_b raises a lowering of w back to the order of w, so exploration
    # never leaves the seeds' orders: no order cap is needed; and since a
    # lowering is derived back only along the axis it lowered, it never
    # leaves the seeds' blocks either
    from ncwres.randgen import random_poly

    d = 2 + seed % 2
    e = trace(random_poly(d, seed, terms=4, max_len=3, max_order=2))
    if commutative:
        e = commutative_image_expr(e)
    system = ReductionSystem(d, e.terms, commutative)
    seed_orders = {_order(tw) for tw in e.terms}
    assert len(system._seen_words) > len(e.terms)
    assert {_order(u) for u in system._seen_words} <= seed_orders
    seed_blocks = {_block(d, tw) for tw in e.terms}
    assert {_block(d, u) for u in system._seen_words} <= seed_blocks


class AllAxesSystem(ReductionSystem):
    """Reference rule: every lowering of an explored word is derived
    along every axis, not only along the one it was lowered on.  It
    builds a superset of the relations, most in blocks no seed holds."""

    def _explore(self, tw, queue):
        for gen, _ in self._lowerings(tw):
            if gen in self._seen_gens:
                continue
            self._seen_gens.add(gen)
            for axis in range(1, self.d + 1):
                row = self._relation(gen, axis)
                for u in row:
                    if u not in self._seen_words and len(u) <= self.cap_len:
                        self._seen_words.add(u)
                        queue.append(u)
                self.insert(row)


def _assert_same_reduction_as_all_axes(e: TraceExpression, commutative: bool):
    if commutative:
        e = commutative_image_expr(e)
    vec = {tw: sc.q for tw, sc in e.terms.items()}
    want = AllAxesSystem(e.d, vec, commutative).reduce_vector(vec)
    assert ReductionSystem(e.d, vec, commutative).reduce_vector(vec) == want


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize("d, n_seeds", [(2, 32), (3, 16), (4, 10)])
def test_lowered_axis_rule_reduces_like_all_axes(d, n_seeds, commutative):
    # the length cap is what keeps this a test rather than a theorem: a
    # word over it could join two components of the reference's relations
    from ncwres.randgen import random_poly

    for seed in range(n_seeds):
        e = trace(random_poly(d, seed, terms=4, max_len=3, max_order=2))
        _assert_same_reduction_as_all_axes(e, commutative)


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize("include_t", [False, True])
@pytest.mark.parametrize("d, power", [(4, 1), (6, 2)])
def test_residues_reduce_like_all_axes(d, power, include_t, commutative):
    from ncwres.parametrix import OperatorSpec
    from ncwres.wres import wres_inverse_power

    raw = wres_inverse_power(OperatorSpec(d=d, include_t=include_t), power)
    _assert_same_reduction_as_all_axes(raw, commutative)


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
        terms[normalize_word(draw(words))] = draw(coefs)
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


# -- row echelon form ------------------------------------------------------


def test_echelon_insert_leaves_stored_rows_alone():
    ech = Echelon(lambda u: u)
    assert ech.insert({2: Fraction(2), 1: Fraction(1)}) == 2
    assert ech.insert({1: Fraction(1), 0: Fraction(3)}) == 1
    # column 1 is now a pivot, yet the earlier row still holds it
    assert ech.rows[2] == {2: 2, 1: 1}
    assert ech.reduce_vector({2: Fraction(1)}) == {0: Fraction(3, 2)}


def _sparse(rng, n_cols, rational=False):
    cols = rng.sample(range(n_cols), rng.randint(1, 4))
    if rational:  # mixed denominators, entries other than +-1
        nums, dens = [-9, -4, -3, 2, 5, 6], [1, 2, 3, 4, 7]
        return {c: Fraction(rng.choice(nums), rng.choice(dens)) for c in cols}
    return {c: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for c in cols}


def _dense_reference(rows, vectors, n_cols):
    """Pivot set and reduced vectors from a dense reduced row echelon
    form with the largest column leftmost."""
    order = list(range(n_cols - 1, -1, -1))
    mat = [[row.get(c, Fraction(0)) for c in order] for row in rows]
    pivots = []
    for j in range(n_cols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][j]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [x / mat[r][j] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][j]:
                f = mat[i][j]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(j)
    reduced = []
    for vec in vectors:
        v = [vec.get(c, Fraction(0)) for c in order]
        for r, j in enumerate(pivots):
            f = v[j]
            v = [x - f * y for x, y in zip(v, mat[r])]
        reduced.append({order[j]: x for j, x in enumerate(v) if x})
    return {order[j] for j in pivots}, reduced


@pytest.mark.parametrize("seed", range(16))
def test_echelon_matches_dense_reference_in_any_order(seed):
    # seeds 8 and up draw rational entries
    rng = random.Random(seed)
    n_cols = 14
    rows = [_sparse(rng, n_cols, seed >= 8) for _ in range(9)]
    # one dependent row, so some insert reduces to zero
    rows.append({c: rows[0].get(c, 0) + 2 * rows[1].get(c, 0) for c in range(n_cols)})
    vectors = rows + [_sparse(rng, n_cols, seed >= 8) for _ in range(6)]
    want_pivots, want = _dense_reference(rows, vectors, n_cols)
    assert all(not v for v in want[: len(rows)])
    for _ in range(4):
        rng.shuffle(rows)
        ech = Echelon(lambda u: u)
        for row in rows:
            ech.insert(row)
        assert set(ech.rows) == want_pivots
        assert [ech.reduce_vector(v) for v in vectors] == want
        # each stored row: coprime integers with a positive pivot entry
        for pivot, row in ech.rows.items():
            assert all(type(c) is int for c in row.values())
            assert gcd(*row.values()) == 1 and row[pivot] > 0


@pytest.mark.parametrize("include_t", [False, True])
def test_reduction_ignores_seed_order(include_t):
    from ncwres.parametrix import OperatorSpec
    from ncwres.wres import wres_inverse_power

    raw = wres_inverse_power(OperatorSpec(d=4, include_t=include_t), 1)
    want = ibp_reduce(raw)
    assert not want.is_zero()
    pivots = set(ReductionSystem(raw.d, raw.terms).rows)
    rng = random.Random(7)
    items = list(raw.terms.items())
    for _ in range(3):
        rng.shuffle(items)
        shuffled = TraceExpression(raw.d, dict(items))
        assert set(ReductionSystem(raw.d, shuffled.terms).rows) == pivots
        assert ibp_reduce(shuffled) == want
        assert trace_equal(shuffled, want) and trace_equal(want, shuffled)
        assert not trace_equal(shuffled, raw.scale(2))


# -- rendering -------------------------------------------------------------


def test_format_single_term_with_pi():
    e = trace(ALG.h_power(4)).scale(Scalar(Fraction(2), pi=2))
    assert format_trace_expression(e) == "2*pi^2 * t[h^4]"


def test_format_factors_gcd():
    e = trace(ALG.h() * ALG.h()).scale(Scalar(Fraction(1, 2), pi=2)) + trace(
        ALG.t(1) * ALG.t(1)
    ).scale(Scalar(Fraction(-1, 2), pi=2))
    assert format_trace_expression(e) == "1/2*pi^2 * ( t[h^2] - t[T1^2] )"
    # every coefficient negative: the sign joins the prefix
    h2, t2 = trace(ALG.h() * ALG.h()), trace(ALG.t(1) * ALG.t(1))
    e = h2.scale(Scalar(Fraction(-1, 2), pi=2)) + t2.scale(Scalar(Fraction(-1), pi=2))
    assert format_trace_expression(e) == "-1/2*pi^2 * ( t[h^2] + 2*t[T1^2] )"
    single = trace(ALG.x()).scale(Scalar(Fraction(-3, 4), pi=2))
    assert format_trace_expression(single) == "-3/4*pi^2 * t[X]"
    # mixed pi powers take no prefix
    e = h2.scale(Scalar(Fraction(1), pi=2)) + t2.scale(Scalar(Fraction(-3), pi=1))
    assert format_trace_expression(e) == "pi^2*t[h^2] - 3*pi*t[T1^2]"


def test_format_zero():
    assert format_trace_expression(TraceExpression.zero(D)) == "0"
