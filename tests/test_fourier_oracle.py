"""Numerical oracle: phase convention, inversion, letter evaluation."""

import cmath
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwres.fourier_oracle import (
    BLOCK_PAIRS,
    PRUNE_FACTOR,
    Assignment,
    FourierElement,
    ThetaMatrix,
    _merge,
    _sum_by_key,
    gamma_sum_evaluation,
    nc_invert_neumann,
)
from ncwres.ncalg import Algebra, Letter, NCPoly
from ncwres.randgen import (
    THETA_MODES,
    random_assignment,
    random_letter,
    random_poly,
    random_symbol,
    random_theta,
)
from ncwres.serialize import assignment_to_json
from ncwres.symcalc import Symbol, gamma_terms, multi_indices, symbol_product
from ncwres.trace import ibp_reduce, trace
from ncwres.verify import _identities

THETA3 = ThetaMatrix(
    [
        [0.0, 0.3137, -0.271],
        [-0.3137, 0.0, 0.1414],
        [0.271, -0.1414, 0.0],
    ]
)


def normal_order_phase(theta: ThetaMatrix, factors: list[tuple[int, int]]) -> complex:
    """Sort single-generator factors by axis, tracking swap phases.

    Uses only the pairwise exchange rule: swapping adjacent factors on
    axes j > k with exponents s, t picks up exp(2 pi i theta_jk s t).
    Independent of the closed-form phase used by FourierElement.
    """
    seq = list(factors)
    total = 0.0
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            (j, s), (k, t) = seq[i], seq[i + 1]
            if j > k:
                total += theta.mat[j - 1, k - 1] * s * t
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                changed = True
    return cmath.exp(2j * cmath.pi * total)


def as_factors(alpha: tuple[int, ...]) -> list[tuple[int, int]]:
    out = []
    for axis, n in enumerate(alpha, start=1):
        sign = 1 if n > 0 else -1
        out.extend([(axis, sign)] * abs(n))
    return out


small_index = st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3)


@settings(max_examples=150, deadline=None)
@given(small_index, small_index)
def test_product_phase_matches_bubble_sort(alpha, beta):
    got = THETA3.phase(alpha, beta)
    want = normal_order_phase(THETA3, as_factors(alpha) + as_factors(beta))
    assert abs(got - want) < 1e-12


def test_theta_validation():
    with pytest.raises(ValueError):
        ThetaMatrix([[0.0, 0.2], [0.3, 0.0]])
    with pytest.raises(ValueError):
        ThetaMatrix(np.zeros((2, 3)))
    # antisymmetric only modulo 1 is acceptable
    ThetaMatrix([[0.0, 0.7], [0.3, 0.0]])
    assert ThetaMatrix.zero(4).d == 4


def rand_element(theta: ThetaMatrix, rng: np.random.Generator, modes: int = 4) -> FourierElement:
    coeffs = {}
    for _ in range(modes):
        idx = tuple(int(v) for v in rng.integers(-2, 3, size=theta.d))
        coeffs[idx] = complex(rng.normal(), rng.normal())
    return FourierElement(theta, coeffs)


def pairwise_product(a: FourierElement, b: FourierElement) -> FourierElement:
    """The twisted convolution summed pair by pair with the scalar phase,
    which test_product_phase_matches_bubble_sort checks independently."""
    out: dict = {}
    for alpha, ca in a.coeffs.items():
        for beta, cb in b.coeffs.items():
            idx = tuple(x + y for x, y in zip(alpha, beta))
            out[idx] = out.get(idx, 0.0) + ca * cb * a.theta.phase(alpha, beta)
    return FourierElement(a.theta, out)


# a full grid of this radius has enough modes that its product with a
# three-mode element spans several blocks of the product kernel
GRID_RADIUS = {2: 19, 3: 6, 4: 3}


def grid_element(theta: ThetaMatrix, rng: np.random.Generator) -> FourierElement:
    r = GRID_RADIUS[theta.d]
    axes = np.meshgrid(*[np.arange(-r, r + 1)] * theta.d, indexing="ij")
    idx = np.stack([ax.ravel() for ax in axes], axis=1)
    vals = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    return FourierElement(theta, dict(zip(map(tuple, idx.tolist()), vals.tolist())))


@pytest.mark.parametrize("mode", THETA_MODES)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_product_matches_pairwise_sum(d, mode):
    rng = np.random.default_rng(100 * d + THETA_MODES.index(mode))
    theta = random_theta(d, rng, mode)
    empty = FourierElement(theta)
    single = rand_element(theta, rng, modes=1)
    small = rand_element(theta, rng, modes=6)
    few = rand_element(theta, rng, modes=3)
    grid = grid_element(theta, rng)
    assert len(few.coeffs) * len(grid.coeffs) > BLOCK_PAIRS
    cases = [
        (small, rand_element(theta, rng, modes=5)),
        (empty, small),
        (small, empty),
        (single, small),
        (small, single),
        (few, grid),
        (grid, few),
    ]
    for a, b in cases:
        want = pairwise_product(a, b)
        assert ((a * b) - want).norm1() <= 1e-12 * want.norm1()
    assert (empty * small).coeffs == {} and (small * empty).coeffs == {}
    assert (small - small).coeffs == {}


def assert_well_formed(el: FourierElement, d: int):
    """Distinct int64 mode rows, one nonzero complex value each."""
    assert el.idx.dtype == np.int64 and el.idx.shape == (len(el.val), d)
    assert el.val.dtype == complex and el.val.shape == (len(el.val),)
    assert len(np.unique(el.idx, axis=0)) == len(el.idx)
    assert np.all(el.val != 0)


def coefficient_pairs(d: int):
    # values that cancel exactly in sums and, at theta = 0, in products
    coeffs = st.dictionaries(
        st.tuples(*[st.integers(min_value=-3, max_value=3)] * d),
        st.sampled_from([1.0, -1.0, 0.5j, -0.5j, 1e-14]),
        max_size=6,
    )
    return st.tuples(st.just(d), coeffs, coeffs)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(coefficient_pairs), st.sampled_from(THETA_MODES))
def test_every_result_holds_distinct_modes_and_nonzero_values(case, mode):
    d, ca, cb = case
    theta = random_theta(d, np.random.default_rng(d), mode)
    a, b = FourierElement(theta, ca), FourierElement(theta, cb)
    results = [a + b, a - b, a - a, a * b, b * a, a.scale(0), a.scale(2j)]
    results += [a.adjoint(), a.prune(1e-12)] + [a.derive(axis) for axis in range(1, d + 1)]
    for el in results + [a, b]:
        assert_well_formed(el, d)
    assert len((a - a).val) == len(a.scale(0).val) == 0
    asg = Assignment(theta, {})
    for empty in (asg.evaluate_poly(NCPoly(d)), asg.evaluate_symbol(Symbol(d), (0.5,) * d)):
        assert_well_formed(empty, d)
        assert len(empty.val) == 0


def dict_sum(keys: np.ndarray, vals: np.ndarray) -> dict:
    out: dict = {}
    for k, v in zip(keys.tolist(), vals.tolist()):
        out[k] = out.get(k, 0) + v
    return out


def test_sum_by_key_matches_a_dict_sum():
    rng = np.random.default_rng(12)
    # heavy duplication; small integer parts sum exactly, and many cancel
    keys = rng.integers(0, 64, size=3000)
    vals = rng.integers(-3, 4, size=3000) + 1j * rng.integers(-3, 4, size=3000)
    k, v = _sum_by_key(keys, vals)
    want = dict_sum(keys, vals)
    assert k.tolist() == sorted(want)
    assert v.tolist() == [want[key] for key in k.tolist()]
    # one key 5 000 times among a few others
    keys = np.concatenate([np.full(5000, 7), rng.integers(-5, 5, size=20)])
    vals = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    rng.shuffle(keys)
    k, v = _sum_by_key(keys, vals)
    want = dict_sum(keys, vals)
    assert k.tolist() == sorted(want)
    assert np.allclose(v, [want[key] for key in k.tolist()], rtol=1e-12, atol=1e-12)
    k, v = _sum_by_key(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
    assert len(k) == len(v) == 0


def test_merge_drops_sums_that_cancel_exactly():
    keys = np.array([5, 0, 5, 3, 0, 3, 8])
    vals = np.array([1.5, 2j, -1.5, 0.25, -2j, 0.25, 1e-300 + 1j])
    el = _merge(THETA3, keys, vals, [-1, 0, 2], [1, 3, 3])
    assert_well_formed(el, 3)
    # key 3 is (0, 1, 0) in the box of widths (1, 3, 3), shifted by lo
    assert el.coeffs == {(-1, 1, 2): 0.5, (-1, 2, 4): 1e-300 + 1j}


def product_cases(d: int, mode: str):
    rng = np.random.default_rng(200 * d + THETA_MODES.index(mode))
    theta = random_theta(d, rng, mode)
    few, grid = rand_element(theta, rng, modes=3), grid_element(theta, rng)
    small, other = rand_element(theta, rng, modes=6), rand_element(theta, rng, modes=5)
    # the first two span several blocks of the kernel, the last one block
    assert len(few.val) * len(grid.val) > BLOCK_PAIRS >= len(small.val) * len(other.val)
    return [(few, grid), (grid, few), (small, other)]


@pytest.mark.parametrize("mode", THETA_MODES)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_product_modes_come_out_in_ascending_order(d, mode):
    for a, b in product_cases(d, mode):
        rows = list(map(tuple, (a * b).idx.tolist()))
        assert rows == sorted(set(rows))


@pytest.mark.parametrize("mode", THETA_MODES)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_same_product_twice_is_bitwise_equal(d, mode):
    for (a, b), (a2, b2) in zip(product_cases(d, mode), product_cases(d, mode)):
        first, second = a * b, a2 * b2
        assert first.idx.tobytes() == second.idx.tobytes()
        assert first.val.tobytes() == second.val.tobytes()


def test_adjoint_is_involutive_and_antimultiplicative():
    rng = np.random.default_rng(7)
    a = rand_element(THETA3, rng)
    b = rand_element(THETA3, rng)
    assert ((a.adjoint().adjoint()) - a).norm1() < 1e-12
    assert ((a * b).adjoint() - b.adjoint() * a.adjoint()).norm1() < 1e-12


def test_product_is_associative():
    rng = np.random.default_rng(8)
    a, b, c = (rand_element(THETA3, rng) for _ in range(3))
    assert (((a * b) * c) - (a * (b * c))).norm1() < 1e-10


def test_derivation_leibniz_and_trace_kills_it():
    rng = np.random.default_rng(9)
    a = rand_element(THETA3, rng)
    b = rand_element(THETA3, rng)
    ab = a * b
    for axis in (1, 2, 3):
        lhs = ab.derive(axis)
        rhs = a.derive(axis) * b + a * b.derive(axis)
        assert (lhs - rhs).norm1() < 1e-10
        assert a.derive(axis).trace() == 0


def test_trace_is_cyclic():
    rng = np.random.default_rng(10)
    a = rand_element(THETA3, rng)
    b = rand_element(THETA3, rng)
    assert abs((a * b).trace() - (b * a).trace()) < 1e-12


def one_mode_h(theta: ThetaMatrix, eps: float) -> FourierElement:
    e1 = (1,) + (0,) * (theta.d - 1)
    u = FourierElement.monomial(theta, e1, eps)
    return FourierElement.one(theta) + u + u.adjoint()


def test_worked_example_trace_of_h_squared():
    # h = 1 + eps (U1 + U1*) gives t(h^2) = 1 + 2 eps^2 exactly
    eps = 1.0 / 16.0
    h = one_mode_h(THETA3, eps)
    assert (h * h).trace() == 1 + 2 * eps**2
    assert h.is_self_adjoint()


def test_worked_example_trace_of_dh_h():
    eps = 1.0 / 16.0
    h = one_mode_h(THETA3, eps)
    assert (h.derive(1) * h).trace() == 0


def test_neumann_inverse_within_certified_tail():
    eps = 0.05
    h = one_mode_h(THETA3, eps)
    res = nc_invert_neumann(h, tol=1e-10)
    assert res.tail_bound <= 1e-10
    assert res.terms >= 2
    left = h * res.element - FourierElement.one(THETA3)
    right = res.element * h - FourierElement.one(THETA3)
    assert left.norm1() < 5e-10
    assert right.norm1() < 5e-10


def test_neumann_rejects_non_dominant_zero_mode():
    theta = ThetaMatrix.zero(2)
    with pytest.raises(ValueError):
        nc_invert_neumann(FourierElement.monomial(theta, (1, 0)))
    big = FourierElement.one(theta) + FourierElement.monomial(theta, (1, 0), 2.0)
    with pytest.raises(ValueError):
        nc_invert_neumann(big)


def test_neumann_on_scalar_is_exact():
    theta = ThetaMatrix.zero(2)
    res = nc_invert_neumann(FourierElement.one(theta).scale(4.0))
    assert res.tail_bound == 0
    assert res.terms == 1
    assert (res.element - FourierElement.one(theta).scale(0.25)).norm1() == 0


def horner_inverse(x: FourierElement, tol: float) -> tuple[FourierElement, float, int]:
    """The Neumann partial sum in Horner form, s = 1 - u (1 - u (...)),
    pruned after each step: the reference for the summed powers."""
    lam = x.trace()
    u = x.scale(1.0 / lam) - FourierElement.one(x.theta)
    r = u.norm1()
    k, tail = 0, r / (1.0 - r)
    while tail > tol * abs(lam) and r > 0:
        k += 1
        tail *= r
    s = FourierElement.one(x.theta)
    for _ in range(k):
        s = (FourierElement.one(x.theta) - u * s).prune(tol * PRUNE_FACTOR)
    return s.scale(1.0 / lam), tail / abs(lam), k + 1


# the two forms prune different entries (powers against partial sums), so
# they differ by some multiples of tol * PRUNE_FACTOR: up to 1.3e-13 at the
# assignment tolerance 1e-10, 2.6e-15 at the default 1e-12
@pytest.mark.parametrize("tol, agree", [(1e-12, 1e-13), (1e-10, 1e-12)])
@pytest.mark.parametrize("mode", THETA_MODES)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_neumann_powers_match_the_horner_form(d, mode, tol, agree):
    for seed in (0, 1):
        h = random_assignment(d, seed, theta_mode=mode).atoms["h"]
        res = nc_invert_neumann(h, tol)
        want, tail, terms = horner_inverse(h, tol)
        assert (res.element - want).norm1() <= agree
        assert res.terms == terms and res.tail_bound == tail
        assert (h * res.element - FourierElement.one(h.theta)).norm1() <= res.tail_bound + 1e-12


def example_assignment(d: int = 3, eps: float = 0.05, seed: int = 11) -> Assignment:
    theta = THETA3 if d == 3 else ThetaMatrix.zero(d)
    rng = np.random.default_rng(seed)
    h = one_mode_h(theta, eps)
    e2 = (0, 1) + (0,) * (d - 2)
    m = FourierElement.monomial(theta, e2, complex(rng.normal(), rng.normal())).scale(eps)
    h = h + m + m.adjoint()
    atoms = {"h": h}
    for axis in range(1, d + 1):
        w = rand_element(theta, rng, modes=2).scale(eps)
        atoms[f"T{axis}"] = w + w.adjoint()
    w = rand_element(theta, rng, modes=2).scale(eps)
    atoms["X"] = w + w.adjoint()
    return Assignment(theta, atoms, tol=1e-10)


def test_letter_images_and_word_evaluation():
    asg = example_assignment()
    d = asg.d
    zero = (0,) * d
    h_let = Letter("H", zero)
    hinv_let = Letter("Hinv", zero)
    # h^-1 next to h collapses numerically to the identity
    prod = asg.evaluate_word((h_let, hinv_let))
    assert (prod - FourierElement.one(asg.theta)).norm1() < 5e-10
    # derived letter image equals the derivative of the atom
    dh = asg.evaluate_word((Letter("H", (1, 0, 0)),))
    assert (dh - asg.atoms["h"].derive(1)).norm1() == 0


def test_evaluate_poly_matches_manual():
    asg = example_assignment()
    alg = Algebra(asg.d)
    p = alg.h() * alg.t(2) - alg.x().scale(3)
    manual = asg.atoms["h"] * asg.atoms["T2"] - asg.atoms["X"].scale(3.0)
    assert (asg.evaluate_poly(p) - manual).norm1() < 1e-12


def test_symbolic_reduction_certified_by_oracle():
    # t(h d1 d1 h) reduces to -t(d1 h d1 h); the oracle must agree
    asg = example_assignment()
    alg = Algebra(asg.d)
    e = trace(alg.h() * alg.h().derive(1).derive(1))
    red = ibp_reduce(e)
    assert red.terms  # nontrivial canonical form
    diff = abs(asg.evaluate_trace_expression(e) - asg.evaluate_trace_expression(red))
    assert diff < 1e-8
    # and the defining zero: the trace of any derivative vanishes
    zero_e = trace((alg.h() * alg.t(1) * alg.h()).derive(2))
    assert abs(asg.evaluate_trace_expression(zero_e)) < 1e-8


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_oracle_identities_bite(d):
    # an identity whose terms all evaluate to 0, or that ibp_reduce
    # leaves as it is, would certify nothing
    for e in _identities(d):
        reduced = ibp_reduce(e)
        assert {tw.word for tw in reduced.terms} != {tw.word for tw in e.terms}
        for seed in (0, 1):
            asg = random_assignment(d, seed)
            values = [abs(float(sc) * asg.evaluate_word(tw.word).trace()) for tw, sc in e.terms.items()]
            assert max(values, default=0.0) > 1e-6, (seed, e)
            gap = asg.evaluate_trace_expression(e) - asg.evaluate_trace_expression(reduced)
            assert abs(gap) < 1e-8


def test_evaluate_symbol_at_point():
    asg = example_assignment()
    alg = Algebra(asg.d)
    s = Symbol.from_poly(alg.h(), alpha=(1, 0, 0)) + Symbol.from_poly(
        alg.h().derive(1), alpha=None
    )
    xi = (0.3, -1.2, 0.7)
    got = asg.evaluate_symbol(s, xi)
    want = asg.atoms["h"].scale(0.3) + asg.atoms["h"].derive(1)
    assert (got - want).norm1() < 1e-12


def test_evaluate_symbol_with_norm_power():
    asg = example_assignment()
    alg = Algebra(asg.d)
    s = Symbol.from_poly(alg.one(), alpha=None, m=-1)
    xi = (1.0, 2.0, 2.0)
    got = asg.evaluate_symbol(s, xi)
    assert (got - FourierElement.one(asg.theta).scale(1.0 / 9.0)).norm1() < 1e-12


def test_self_adjointness_of_constructed_atoms():
    asg = example_assignment()
    for el in asg.atoms.values():
        assert el.is_self_adjoint(tol=1e-12)


def derived_atom(asg: Assignment, let: Letter) -> FourierElement:
    """A letter's element by repeated FourierElement.derive, the reference
    for the word table's one-step read."""
    if let.kind == "Hinv":
        return asg.h_inverse().element
    el = asg.atoms[{"H": "h", "X": "X"}.get(let.kind, f"T{let.axis}")]
    for axis, reps in enumerate(let.deriv, start=1):
        for _ in range(reps):
            el = el.derive(axis)
    return el


def every_letter(d: int, max_order: int = 3) -> list[Letter]:
    out = [Letter("Hinv", (0,) * d)]
    for order in range(max_order + 1):
        for deriv in multi_indices(d, order):
            out += [Letter("H", deriv), Letter("X", deriv)]
            out += [Letter("T", deriv, axis) for axis in range(1, d + 1)]
    return out


def counting_mode_pairs(monkeypatch) -> list[int]:
    """[products, mode pairs] made by FourierElement.__mul__ from now on."""
    counts = [0, 0]
    real_mul = FourierElement.__mul__

    def counting_mul(a, b):
        counts[0] += 1
        counts[1] += len(a.val) * len(b.val)
        return real_mul(a, b)

    monkeypatch.setattr(FourierElement, "__mul__", counting_mul)
    return counts


def test_one_letter_word_makes_no_product(monkeypatch):
    asg = random_assignment(3, 0)
    asg.h_inverse()
    counts = counting_mode_pairs(monkeypatch)
    for let in every_letter(3, max_order=2):
        asg.evaluate_word((let,))
    assert counts[0] == 0
    # a two-letter word is one product of two table reads
    asg.evaluate_word((Letter("H", (0, 0, 0)), Letter("X", (1, 0, 0))))
    assert counts[0] == 1


@pytest.mark.parametrize("d", [2, 3])
def test_every_letter_matches_its_derived_atom(d):
    asg = random_assignment(d, 5)
    for let in every_letter(d):
        got, want = asg.evaluate_word((let,)), derived_atom(asg, let)
        assert np.array_equal(got.idx, want.idx), let
        # one product of the exact integer factors against one rounding
        # per derivative
        assert np.allclose(got.val, want.val, rtol=1e-14, atol=0), let


def test_third_derivative_of_a_wide_mode_does_not_wrap():
    # (2^30)^3 overflows int64, so the factor is taken in floating point
    theta = ThetaMatrix.zero(2)
    wide = FourierElement(theta, {(2**30, 2**30): 1e-3, (0, 1): 0.5})
    asg = Assignment(theta, {"h": FourierElement.one(theta), "T1": wide, "T2": wide, "X": wide})
    got = asg.evaluate_word((Letter("T", (3, 0), 1),))
    assert got.coeffs == {(2**30, 2**30): 1e-3 * 2.0**90}


@pytest.mark.parametrize("mode", THETA_MODES)
@pytest.mark.parametrize("d", [2, 3])
def test_poly_derive_matches_the_fourier_derivative(d, mode):
    # NCPoly.derive's h^-1 expansion checked against the oracle's own
    # derivation, so that a sign fault there cannot cancel on both sides
    asg = random_assignment(d, 7, theta_mode=mode)
    alg = Algebra(d)
    rng = np.random.default_rng(d)
    polys = [random_poly(d, rng, terms=4, max_len=4, max_order=1) for _ in range(4)]
    hinv = alg.hinv()
    polys += [hinv, hinv * alg.t(1) * hinv, alg.h() * hinv.derive(1) * alg.x()]
    for p in polys:
        for axis in range(1, d + 1):
            got = asg.evaluate_poly(p.derive(axis))
            want = asg.evaluate_poly(p).derive(axis)
            assert (got - want).norm1() < 1e-7, (p, axis)


@pytest.mark.parametrize("d", [2, 3])
def test_random_words_match_the_left_to_right_product(d):
    asg = random_assignment(d, 7)
    rng = np.random.default_rng(d)
    for _ in range(40):
        word = tuple(random_letter(d, rng, max_order=2) for _ in range(rng.integers(0, 6)))
        want = FourierElement.one(asg.theta)
        for let in word:
            # pruned after each product, as the table prunes
            want = (want * derived_atom(asg, let)).prune(asg.tol * PRUNE_FACTOR)
        assert (asg.evaluate_word(word) - want).norm1() <= 1e-14 * want.norm1()


@pytest.mark.parametrize(
    "d, digest",
    [
        (2, "5773208d02559277"),
        (3, "721249534f43edff"),
        (4, "e47057d1904935e3"),
        # T10 sorts between T1 and T2
        (10, "049490c2f5c91533"),
    ],
)
def test_assignment_json_bytes_are_pinned(d, digest):
    text = json.dumps(assignment_to_json(random_assignment(d, 0)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def pair_loop_gamma_sum(asg: Assignment, p: Symbol, q: Symbol, min_degree: int, xi) -> FourierElement:
    """The gamma sum one monomial pair at a time, with one product per pair
    that reaches min_degree: the reference for the grouped products."""
    total = FourierElement(asg.theta)
    gamma_max = p.max_degree() + q.max_degree() - min_degree
    for inv, dp, dq in gamma_terms(p, q, range(gamma_max + 1)):
        weight = float(inv)
        for mono1, coef1 in dp.terms.items():
            for mono2, coef2 in dq.terms.items():
                if mono1.degree + mono2.degree >= min_degree:
                    piece = asg.evaluate_poly(coef1) * asg.evaluate_poly(coef2)
                    total = total + piece.scale(weight * mono1.eval(xi) * mono2.eval(xi))
    return total


def gamma_left_degrees(p: Symbol, q: Symbol, min_degree: int) -> int:
    """Number of (gamma, degree of a monomial of d_xi^gamma P) pairs."""
    gamma_max = p.max_degree() + q.max_degree() - min_degree
    return sum(
        len({mono.degree for mono in dp.terms})
        for _, dp, _ in gamma_terms(p, q, range(gamma_max + 1))
    )


def gamma_sum_cases():
    """The oracle benchmark's ten d=2 pairs (seed 816), then three seeded
    d=3 pairs at each theta mode, each with its assignment, cut and xi."""
    rng = np.random.default_rng(816)
    asg = random_assignment(2, 816, theta_mode="irrational", eps=0.08)
    for _ in range(10):
        deg_p, deg_q = int(rng.integers(0, 3)), int(rng.integers(-2, 2))
        p, q = random_symbol(2, rng, deg_p), random_symbol(2, rng, deg_q)
        yield asg, p, q, deg_p + deg_q - 2, (0.7, -1.3)
    for k, mode in enumerate(THETA_MODES):
        rng = np.random.default_rng(30 + k)
        asg = random_assignment(3, 30 + k, theta_mode=mode, eps=0.08)
        for _ in range(3):
            deg_p, deg_q = int(rng.integers(0, 3)), int(rng.integers(-2, 2))
            p, q = random_symbol(3, rng, deg_p), random_symbol(3, rng, deg_q)
            yield asg, p, q, deg_p + deg_q - 2, (0.7, -1.3, 0.4)


def test_gamma_sum_matches_the_pair_loop_with_one_product_per_left_degree(monkeypatch):
    depth, products = [0], [0]
    real_mul, real_word = FourierElement.__mul__, Assignment.evaluate_word

    def counting_mul(a, b):
        products[0] += depth[0] == 0
        return real_mul(a, b)

    def word_depth(asg, word):
        depth[0] += 1
        try:
            return real_word(asg, word)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(FourierElement, "__mul__", counting_mul)
    monkeypatch.setattr(Assignment, "evaluate_word", word_depth)
    for asg, p, q, cut, xi in gamma_sum_cases():
        want = pair_loop_gamma_sum(asg, p, q, cut, xi)
        products[0] = 0
        got = gamma_sum_evaluation(asg, p, q, cut, xi)
        # the piece products, not the word table's
        assert products[0] <= gamma_left_degrees(p, q, cut)
        assert (got - want).norm1() <= 1e-12
        # and the sum is a nonzero composition, as symbol_product gives it
        lhs = asg.evaluate_symbol(symbol_product(p, q, cut), xi)
        assert lhs.norm1() > 1e-6 and (lhs - got).norm1() < 1e-8


def test_evaluate_symbol_matches_the_word_by_word_sum():
    for asg, p, q, cut, xi in gamma_sum_cases():
        s = symbol_product(p, q, cut)
        got = asg.evaluate_symbol(s, xi)
        want = FourierElement(asg.theta)
        for mono, coef in s.terms.items():
            want = want + asg.evaluate_poly(coef).scale(mono.eval(xi))
        assert (got - want).norm1() < 1e-10
        assert (got - gamma_sum_evaluation(asg, p, q, cut, xi)).norm1() < 1e-10


def test_evaluate_symbol_shares_the_leading_letters_of_its_words(monkeypatch):
    # pool pair 7 is the oracle benchmark's largest composition; one
    # product per word, prefix times last letter, makes 1 047 406 mode pairs
    asg, p, q, cut, xi = next(itertools.islice(gamma_sum_cases(), 7, None))
    asg.h_inverse()
    s = symbol_product(p, q, cut)
    counts = counting_mode_pairs(monkeypatch)
    asg.evaluate_symbol(s, xi)
    assert 0 < counts[1] < 300_000


def test_cancelled_word_and_constant_word_make_no_product(monkeypatch):
    asg = random_assignment(2, 0)
    alg = Algebra(2)
    hx = alg.h() * alg.x()
    s = (
        Symbol.from_poly(hx, alpha=(1, 0))
        - Symbol.from_poly(hx, alpha=(0, 1))
        + Symbol.from_poly(alg.one().scale(3), alpha=(0, 1))
    )
    counts = counting_mode_pairs(monkeypatch)
    # xi_1 = xi_2, so the coefficients of hX cancel
    got = asg.evaluate_symbol(s, (2.0, 2.0))
    assert counts == [0, 0]
    assert got.coeffs == {(0, 0): 6.0}


def test_a_lone_word_of_a_symbol_is_read_from_the_table(monkeypatch):
    asg = random_assignment(2, 0)
    alg = Algebra(2)
    hxh = alg.h() * alg.x() * alg.h()
    counts = counting_mode_pairs(monkeypatch)
    got = asg.evaluate_symbol(Symbol.from_poly(hxh, alpha=(1, 0)), (2.0, 3.0))
    # prefix times last letter: h X, then (h X) h, both left in the table
    assert counts[0] == 2
    want = asg.evaluate_poly(hxh)
    assert counts[0] == 2
    assert (got - want.scale(2.0)).norm1() < 1e-12
