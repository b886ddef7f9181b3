"""Numerical oracle: phase convention, inversion, letter evaluation."""

import cmath
import hashlib
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
    nc_invert_neumann,
)
from ncwres.ncalg import Algebra, Letter, NCPoly
from ncwres.randgen import THETA_MODES, random_assignment, random_letter, random_theta
from ncwres.serialize import assignment_to_json
from ncwres.symcalc import Symbol, multi_indices
from ncwres.trace import ibp_reduce, trace

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


def test_one_letter_word_makes_no_product(monkeypatch):
    asg = random_assignment(3, 0)
    asg.h_inverse()
    calls = []
    real_mul = FourierElement.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(FourierElement, "__mul__", counting_mul)
    for let in every_letter(3, max_order=2):
        asg.evaluate_word((let,))
    assert calls == []
    # a two-letter word is one product of two table reads
    asg.evaluate_word((Letter("H", (0, 0, 0)), Letter("X", (1, 0, 0))))
    assert len(calls) == 1


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
