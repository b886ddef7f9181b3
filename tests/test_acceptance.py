"""Acceptance gate: the nine headline guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion, or add ``-s`` to see the printed verdict details.
"""

from fractions import Fraction

import numpy as np
import pytest

from ncwres.fourier_oracle import gamma_sum_evaluation
from ncwres.ncalg import Algebra, Scalar
from ncwres.parametrix import (
    OperatorSpec,
    closed_form_b1,
    closed_form_b2,
    laplace_symbol,
    parametrix_terms,
)
from ncwres.randgen import random_assignment, random_probe_pair, random_symbol
from ncwres.symcalc import multi_indices, symbol_product
from ncwres.trace import (
    TraceExpression,
    express_in_span,
    ibp_reduce,
    trace,
    trace_equal,
)
from ncwres.wres import (
    sphere_derivative_dichotomy,
    sphere_integral,
    trace_property_probe,
    wres_inverse_power,
)

D = 4
SEED = 20260816
ALG = Algebra(D)


@pytest.fixture(scope="module")
def residue_with_torsion():
    return wres_inverse_power(OperatorSpec(d=D, include_t=True), power=1)


@pytest.fixture(scope="module")
def three_shapes():
    """The candidate basis: u = h^2 against torsion and its gradient."""
    u = ALG.h_power(2)
    v = ALG.h_power(-2)
    s1 = TraceExpression.zero(D)
    s2 = TraceExpression.zero(D)
    s3 = TraceExpression.zero(D)
    for a in range(1, D + 1):
        t_a = ALG.t(a)
        du = u.derive(a)
        s1 = s1 + trace(u * t_a * u * t_a * u)
        s2 = s2 + trace(u * (t_a * du - du * t_a))
        s3 = s3 + trace(du * v * du)
    return s1, s2, s3


@pytest.fixture(scope="module")
def shape_combination(three_shapes):
    s1, s2, s3 = three_shapes
    return (
        s1.scale(Scalar(Fraction(1, 2), 2))
        + s2.scale(Scalar(Fraction(-1, 2), 2))
        + s3.scale(Scalar(Fraction(-1, 2), 2))
    )


def test_criterion_1_squared_inverse_depends_only_on_h():
    want = trace(ALG.h_power(4)).scale(Scalar(Fraction(2), 2))
    for spec in (
        OperatorSpec(d=D, include_t=True, include_x=True),
        OperatorSpec(d=D, include_t=True),
        OperatorSpec(d=D, include_t=False),
    ):
        got = wres_inverse_power(spec, power=2)
        assert got == want, f"failed for {spec}"
    print(
        "criterion 1 PASS: residue of the squared inverse is exactly "
        "2*pi^2 * t[h^4], independent of torsion and potential"
    )


def test_criterion_2_composition_defect_vanishes():
    spec = OperatorSpec(d=D, include_t=True, include_x=False)
    res = parametrix_terms(laplace_symbol(spec), 2)
    assert res.defect.is_zero(), f"surviving degrees {res.defect.degrees()}"
    print(
        "criterion 2 PASS: b0+b1+b2 composed against the full symbol "
        "leaves nothing at homogeneity degrees 0, -1, -2"
    )


def test_criterion_3_closed_forms_equal_recursion():
    for spec in (
        OperatorSpec(d=D, include_t=True),
        OperatorSpec(d=D, include_t=False),
    ):
        res = parametrix_terms(laplace_symbol(spec), 2)
        assert res.terms[1] == closed_form_b1(spec)
        assert res.terms[2] == closed_form_b2(spec)
    print(
        "criterion 3 PASS: closed forms for the first and second "
        "corrections equal the recursion output, with and without torsion"
    )


def test_criterion_4_residue_is_three_shapes(residue_with_torsion, three_shapes):
    reduced = ibp_reduce(residue_with_torsion)
    coeffs = express_in_span(reduced, list(three_shapes))
    assert coeffs is not None, "residue left the span of the three shapes"
    half = Fraction(1, 2)
    assert coeffs == [Scalar(half, 2), Scalar(-half, 2), Scalar(-half, 2)]
    print(
        "criterion 4 PASS: first-order residue reduces to exactly three "
        "trace shapes with coefficients (1/4, -1/4, -1/4) in units of 2*pi^2; "
        "note: quoted closed forms for the leading shape circulate with "
        "coefficient 1 as well as 1/4, which cannot both hold, and the "
        "recursion pins it to 1/4"
    )


def test_criterion_5_residue_trace_property():
    rng = np.random.default_rng(SEED)
    nontrivial = 0
    for _ in range(20):
        p, q = random_probe_pair(D, rng)
        r_pq, r_qp, symmetric = trace_property_probe(p, q)
        assert symmetric
        if r_pq.terms or r_qp.terms:
            nontrivial += 1
    assert nontrivial >= 12, "too many probes degenerated to zero"
    print(
        f"criterion 5 PASS: 20 seeded probes, {nontrivial} nontrivial, "
        "residue of a product is symmetric in its factors every time"
    )


def test_criterion_6_gradient_dichotomy():
    # the rationals of pi^2
    expected = {-5: Fraction(-1), -3: Fraction(0), -1: Fraction(1), 1: Fraction(2), 3: Fraction(3)}
    for rho, want in expected.items():
        got = sphere_derivative_dichotomy(1, 1, rho, D)
        assert type(got) is Fraction and got == want
    got = sphere_derivative_dichotomy(1, 2, 3, D)
    assert type(got) is Fraction and got == 0
    with pytest.raises(ValueError):
        sphere_derivative_dichotomy(1, 1, 2, D)
    print(
        "criterion 6 PASS: sphere integral of the gradient term vanishes "
        "exactly at homogeneity 1-d and takes the closed nonzero values "
        "elsewhere (3*pi^2 at rho=3)"
    )


def test_criterion_7_commutative_limits(residue_with_torsion, shape_combination):
    res_plain = wres_inverse_power(OperatorSpec(d=D, include_t=False), power=1)
    first_form = TraceExpression.zero(D)
    second_form = TraceExpression.zero(D)
    for a in range(1, D + 1):
        dh = ALG.h().derive(a)
        first_form = first_form + trace(dh * dh)
        second_form = second_form + trace(ALG.h() * ALG.h().derive(a).derive(a))
    first_form = first_form.scale(Scalar(Fraction(-2), 2))
    second_form = second_form.scale(Scalar(Fraction(2), 2))
    assert trace_equal(res_plain, first_form, commutative=True)
    assert trace_equal(res_plain, second_form, commutative=True)
    assert not trace_equal(res_plain, first_form.scale(2), commutative=True)
    assert trace_equal(residue_with_torsion, shape_combination, commutative=True)
    print(
        "criterion 7 PASS: commutative specialization matches the classical "
        "first-derivative and second-derivative renderings, and the torsion "
        "case matches the commutative image of the three-shape form"
    )


def test_criterion_8_oracle_soundness(residue_with_torsion, shape_combination):
    h, hinv, t1, t2, x = ALG.h(), ALG.hinv(), ALG.t(1), ALG.t(2), ALG.x()
    certified = [residue_with_torsion - shape_combination]
    for e in (
        trace(hinv * h.derive(1).derive(1)),
        trace(hinv * h.derive(1) * t1 * h),
        trace((h * t2 * hinv).derive(3)),
        trace(x * h.derive(2) * hinv * h.derive(2)),
        trace(h * h.derive(1) * h.derive(1) * hinv),
    ):
        certified.append(e - ibp_reduce(e))
    for z in certified:
        assert trace_equal(z, TraceExpression.zero(D))

    worst = 0.0
    largest_input = 0.0
    cases = [("zero", 0), ("rational", 1), ("irrational", 2), ("irrational", 3), ("rational", 4)]
    for mode, seed in cases:
        asg = random_assignment(D, seed, theta_mode=mode, eps=0.08, radius=3, tol=1e-10)
        for z in certified:
            worst = max(worst, abs(asg.evaluate_trace_expression(z)))
        for tw, sc in certified[1].terms.items():
            largest_input = max(
                largest_input, abs(float(sc) * asg.evaluate_word(tw.word).trace())
            )
    assert worst < 1e-8
    assert largest_input > 1e-6, "oracle inputs degenerated to zero"

    rng = np.random.default_rng(816)
    asg = random_assignment(2, 816, theta_mode="irrational", eps=0.08)
    xi = (0.7, -1.3)
    worst_prod = 0.0
    for _ in range(10):
        deg_p = int(rng.integers(0, 3))
        deg_q = int(rng.integers(-2, 2))
        p = random_symbol(2, rng, deg_p)
        q = random_symbol(2, rng, deg_q)
        cut = deg_p + deg_q - 2
        lhs = asg.evaluate_symbol(symbol_product(p, q, cut), xi)
        rhs = gamma_sum_evaluation(asg, p, q, cut, xi)
        assert lhs.norm1() > 1e-6
        worst_prod = max(worst_prod, (lhs - rhs).norm1())
    assert worst_prod < 1e-8
    print(
        f"criterion 8 PASS: certified zeros stay below {worst:.1e} across "
        f"5 assignments over all theta modes, and 10 composed symbols match "
        f"the direct gamma-sum evaluation to {worst_prod:.1e}"
    )


def test_criterion_9_sphere_moments_vs_monte_carlo():
    rng = np.random.default_rng(SEED)
    pts = rng.normal(size=(1_000_000, D))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    # sphere_integral is the rational of pi^(D/2); the samples see the moment
    vol = float(Scalar(sphere_integral((0,) * D), D // 2))
    worst_rel = 0.0
    for total in range(5):
        for alpha in multi_indices(D, total):
            prod = np.ones(len(pts))
            for axis, a in enumerate(alpha):
                if a:
                    prod *= pts[:, axis] ** a
            est = vol * prod.mean()
            exact = float(Scalar(sphere_integral(alpha), D // 2))
            if exact:
                worst_rel = max(worst_rel, abs(est - exact) / abs(exact))
            else:
                assert abs(est) < 0.05
    assert worst_rel < 5e-3

    whole = sphere_integral((0,) * D)
    split_once = Fraction(0)
    split_twice = Fraction(0)
    for a in range(D):
        alpha = [0] * D
        alpha[a] = 2
        split_once = split_once + sphere_integral(tuple(alpha))
        for b in range(D):
            beta = list(alpha)
            beta[b] += 2
            split_twice = split_twice + sphere_integral(tuple(beta))
    assert split_once == whole
    assert split_twice == whole
    print(
        f"criterion 9 PASS: all 70 moments with |alpha| <= 4 match a seeded "
        f"million-sample Monte Carlo (worst relative error {worst_rel:.1e}), "
        "and the norm-splitting identities hold exactly"
    )