import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from ncwres import parametrix, serialize, symcalc, verify, wres
from ncwres.ncalg import Algebra, Letter, NCPoly, Scalar, _accumulate
from ncwres.parametrix import (
    OperatorSpec,
    laplace_symbol,
    parametrix_series,
    parametrix_terms,
)
from ncwres.randgen import random_probe_pair, random_symbol
from ncwres.symcalc import Symbol, XiMonomial, compose, symbol_product
from ncwres.trace import TraceExpression, TraceWord, ibp_reduce, trace, trace_equal
from ncwres.verify import _dichotomy, _moment_partition, poisoned_table
from ncwres.wres import (
    SphereIntegralTable,
    sphere_derivative_dichotomy,
    sphere_integral,
    trace_property_probe,
    wodzicki_residue,
    wres_inverse_power,
)

D = 4
ALG = Algebra(D)
U = ALG.h_power(2)
V = ALG.h_power(-2)
PI2 = lambda q: Scalar(Fraction(q), pi=2)

SPEC_T = OperatorSpec(d=4, include_t=True)
SPEC_PLAIN = OperatorSpec(d=4, include_t=False)
SPEC_FLAT = OperatorSpec(d=4, include_t=False, flat=True)
SPEC_FLAT_T = OperatorSpec(d=4, include_t=True, flat=True)


def unit(*axes):
    alpha = [0] * D
    for a in axes:
        alpha[a - 1] += 1
    return tuple(alpha)


def _is_rational(got, want):
    return type(got) is Fraction and got == want


def test_sphere_moments_low_degree():
    # the rationals of pi^2
    assert _is_rational(sphere_integral((0, 0, 0, 0)), 2)
    assert _is_rational(sphere_integral((2, 0, 0, 0)), Fraction(1, 2))
    assert _is_rational(sphere_integral((4, 0, 0, 0)), Fraction(1, 4))
    assert _is_rational(sphere_integral((2, 2, 0, 0)), Fraction(1, 12))
    assert _is_rational(sphere_integral((1, 0, 0, 0)), 0)
    assert _is_rational(sphere_integral((1, 1, 2, 0)), 0)


def test_sphere_moments_two_dimensions():
    # the rationals of pi
    assert _is_rational(sphere_integral((0, 0)), 2)
    assert _is_rational(sphere_integral((2, 0)), 1)


@pytest.mark.parametrize(
    "alpha, message",
    [
        ((0, 0, 0), "even"),
        ((0,), "even"),
        ((), "even"),
        ((2, -2, 0, 0), "nonnegative"),
    ],
    ids=["odd", "one", "empty", "negative"],
)
def test_sphere_integral_rejects_bad_exponents(alpha, message):
    with pytest.raises(ValueError, match=message):
        sphere_integral(alpha)


def test_table_rejects_a_wrong_length_alpha():
    table = SphereIntegralTable(D)
    for alpha in [(0, 0), (0,) * (D + 1)]:
        with pytest.raises(ValueError, match="wrong length"):
            table.get(alpha)


def test_sphere_moment_partition_identity():
    # sum_a xi_a^2 = 1 on the sphere
    for alpha in [(0, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0)]:
        total = Fraction(0)
        for a in range(D):
            bumped = tuple(x + 2 * (i == a) for i, x in enumerate(alpha))
            total = total + sphere_integral(bumped)
        assert total == sphere_integral(alpha)


def test_dichotomy_values():
    # the rationals of pi^2
    assert _is_rational(sphere_derivative_dichotomy(1, 1, -3, 4), 0)
    assert _is_rational(sphere_derivative_dichotomy(1, 1, 3, 4), 3)
    assert _is_rational(sphere_derivative_dichotomy(1, 1, -5, 4), -1)
    assert _is_rational(sphere_derivative_dichotomy(1, 1, -1, 4), 1)
    assert _is_rational(sphere_derivative_dichotomy(1, 2, 3, 4), 0)
    with pytest.raises(ValueError):
        sphere_derivative_dichotomy(1, 1, 2, 4)


def test_table_override_changes_result():
    table = SphereIntegralTable(D)
    table.override((0, 0, 0, 0), Fraction(3))
    s = Symbol(D, {XiMonomial(unit(), -2): ALG.h()})
    assert wodzicki_residue(s) == trace(ALG.h()).scale(PI2(2))
    assert wodzicki_residue(s, table) == trace(ALG.h()).scale(PI2(3))


def test_table_override_keeps_the_pi_power():
    # an override is the rational of pi^(d/2), so a Scalar, which could
    # carry another power of pi, is refused
    table = SphereIntegralTable(D)
    for value in [Scalar(Fraction(1), pi=1), PI2(3), Scalar(Fraction(0))]:
        with pytest.raises(TypeError):
            table.override((0, 0, 0, 0), value)
    table.override((2, 0, 0, 0), 0)
    table.override((0, 0, 0, 0), 3)
    assert _is_rational(table.get((2, 0, 0, 0)), 0)
    assert _is_rational(table.get((0, 0, 0, 0)), 3)


@pytest.mark.parametrize("alpha", [(2, 0, 0), (2, 0, 0, 0, 0), (-2, 0, 0, 0), (0, 0, 4, -1)])
def test_table_override_checks_alpha_like_a_read(alpha):
    # a wrong length would be stored and never read; a negative entry
    # would make get return a moment that sphere_integral refuses
    table = SphereIntegralTable(D)
    with pytest.raises(ValueError):
        table.override(alpha, 5)
    with pytest.raises(ValueError):
        table.get(alpha)
    assert table._moments == {}


def test_residue_ignores_other_degrees():
    s = Symbol(
        D,
        {
            XiMonomial(unit(), -1): ALG.h(),
            XiMonomial(unit(1), -2): ALG.t(1),  # degree -3
        },
    )
    assert wodzicki_residue(s).is_zero()


def test_squared_inverse_residue_exact():
    got = wres_inverse_power(SPEC_T, power=2)
    assert got == trace(ALG.h_power(4)).scale(PI2(2))


def test_flat_inverse_residue_vanishes():
    assert wres_inverse_power(SPEC_FLAT, power=1).is_zero()


def test_flat_torsion_inverse_residue():
    got = wres_inverse_power(SPEC_FLAT_T, power=1)
    want = None
    for a in range(1, D + 1):
        piece = trace(ALG.t(a) * ALG.t(a)).scale(PI2(Fraction(1, 2)))
        want = piece if want is None else want + piece
    assert got == want


def frozen_inverse_residue():
    # 2 pi^2 [ 1/4 t(u T u T u) - 1/4 t(u [T, d(u)]) - 1/4 t(d(u) v d(u)) ]
    out = None
    for a in range(1, D + 1):
        w = U.derive(a)
        t_a = ALG.t(a)
        piece = (
            trace(U * t_a * U * t_a * U).scale(PI2(Fraction(1, 2)))
            + trace(U * t_a * w - U * w * t_a).scale(PI2(Fraction(-1, 2)))
            + trace(w * V * w).scale(PI2(Fraction(-1, 2)))
        )
        out = piece if out is None else out + piece
    return out


def test_inverse_residue_matches_frozen_form():
    got = wres_inverse_power(SPEC_T, power=1)
    assert trace_equal(got, frozen_inverse_residue())
    # and not raw-equal: the raw residue still carries reducible words
    assert got != frozen_inverse_residue()


def test_inverse_residue_commutative_limit():
    # without torsion the commutative limit is the classical one:
    # -2 pi^2 sum_a integral( d_a(h) d_a(h) ), equivalently
    # +2 pi^2 sum_a integral( h d_aa(h) )
    got = wres_inverse_power(SPEC_PLAIN, power=1)
    grad = None
    lap = None
    for a in range(1, D + 1):
        dh = ALG.h().derive(a)
        g = trace(dh * dh).scale(PI2(-2))
        l = trace(ALG.h() * ALG.h().derive(a).derive(a)).scale(PI2(2))
        grad = g if grad is None else grad + g
        lap = l if lap is None else lap + l
    assert trace_equal(got, grad, commutative=True)
    assert trace_equal(got, lap, commutative=True)
    assert not trace_equal(got, grad.scale(2), commutative=True)


def test_trace_property_fixed_instances():
    p = Symbol(D, {XiMonomial(unit(1), 0): ALG.h()})
    q = Symbol(D, {XiMonomial(unit(1), -3): ALG.t(1)})
    r_pq, r_qp, ok = trace_property_probe(p, q)
    assert ok
    want = trace(ALG.h() * ALG.t(1)).scale(PI2(Fraction(1, 2)))
    assert r_pq == want
    assert r_qp == want

    q2 = Symbol(D, {XiMonomial(unit(), -2): ALG.t(2)})
    r_pq, r_qp, ok = trace_property_probe(p, q2)
    assert ok
    assert r_pq == trace(ALG.h() * ALG.t(2).derive(1)).scale(PI2(2))
    assert r_qp == trace(ALG.t(2) * ALG.h().derive(1)).scale(PI2(-2))


def test_probe_detects_corrupted_moments():
    p = Symbol(D, {XiMonomial(unit(1), 0): ALG.h()})
    q = Symbol(D, {XiMonomial(unit(), -2): ALG.t(2)})
    table = SphereIntegralTable(D)
    table.override((2, 0, 0, 0), Fraction(1))
    _, _, ok = trace_property_probe(p, q, table)
    assert not ok


@pytest.mark.parametrize("d", [2, 4])
def test_probe_forms_no_product(monkeypatch, d):
    # the probe reads both residues off the pair loop: no composition,
    # no pointwise product and no polynomial product is formed
    pairs = [random_probe_pair(d, seed) for seed in range(4)]
    want = [trace_property_probe(p, q) for p, q in pairs]

    def forbidden(*args, **kwargs):
        raise AssertionError("the probe formed a product")

    monkeypatch.setattr(wres, "symbol_product", forbidden, raising=False)
    monkeypatch.setattr(symcalc, "compose", forbidden)
    monkeypatch.setattr(Symbol, "pointwise_mul", forbidden)
    monkeypatch.setattr(NCPoly, "__mul__", forbidden)
    assert [trace_property_probe(p, q) for p, q in pairs] == want


def random_chain(d, seed):
    """Three nonzero symbols, each of two degrees, whose top degrees lie
    in -3..2 and sum to -d .. -d + 2."""
    rng = np.random.default_rng(seed)
    tops = rng.integers(-3, 3, size=3)
    while not -d <= tops.sum() <= -d + 2:
        tops = rng.integers(-3, 3, size=3)
    chain = [random_symbol(d, rng, int(t)) + random_symbol(d, rng, int(t) - 1) for t in tops]
    assert [f.max_degree() for f in chain] == tops.tolist()
    return chain


@pytest.mark.parametrize("d", [2, 4])
def test_reader_reads_any_chain_of_three(d):
    # the reader cuts F1 # F2 at -d minus F3's top degree; the reference
    # keeps two spare degrees at each step and reads the full product
    nonzero = 0
    for seed in range(8):
        f1, f2, f3 = random_chain(d, seed)
        product = compose(compose(f1, f2, -d - f3.max_degree() - 2), f3, -d - 2)
        got = wres._traced(wres._residue_coefficient([f1, f2, f3]))
        assert got == wodzicki_residue(product), seed
        nonzero += not got.is_zero()
    # the check is only as good as its nonzero cases
    assert nonzero >= 7


@pytest.mark.parametrize("d, power", [(4, 1), (4, 2), (6, 2), (6, 3), (8, 3)])
def test_default_depth_reaches_degree_minus_d(d, power):
    # each factor of the inverse power only needs terms down to degree
    # -2-(d-2*power); that depth, or one more term, gives the default
    spec = OperatorSpec(d=d, include_t=True)
    got = wres_inverse_power(spec, power=power)
    assert not got.is_zero()
    assert got == wres_inverse_power(spec, power=power, n=d - 2 * power)
    assert got == wres_inverse_power(spec, power=power, n=d - 2 * power + 1)


def test_residue_path_forms_no_defect(monkeypatch):
    # the residue of the unpatched defect-certified parametrix, computed
    # first; the residue path must reach it without any symbol_product
    want = wodzicki_residue(parametrix_terms(laplace_symbol(SPEC_T), 2).total())

    def forbidden(*args, **kwargs):
        raise AssertionError("the residue path formed a composition defect")

    monkeypatch.setattr(parametrix, "symbol_product", forbidden)
    monkeypatch.setattr(wres, "symbol_product", forbidden, raising=False)
    got = wres_inverse_power(SPEC_T, power=1)
    assert got == want
    assert trace_equal(got, frozen_inverse_residue())


@pytest.mark.parametrize("d, power", [(4, 2), (6, 2), (6, 3)])
def test_last_product_band_is_the_residue_degree(d, power):
    spec = OperatorSpec(d=d, include_t=True)
    terms = parametrix_series(laplace_symbol(spec), d - 2 * power)
    total = sum(terms, Symbol.zero(d))
    s = total
    for _ in range(power - 2):
        s = compose(s, total, -d)
    band = compose(s, total, -d, -d)
    full = symbol_product(s, total, -d).homogeneous_part(-d)
    assert not band.is_zero()
    assert band == full
    # same monomial order, so residues come out term for term alike
    assert list(band.terms) == list(full.terms)


@pytest.mark.parametrize(
    "d, power, torsion", [(6, 3, True), (8, 4, False), (8, 4, True)]
)
def test_tight_power_band_keeps_the_residue(d, power, torsion):
    # reference: every intermediate product keeps all degrees >= -d
    spec = OperatorSpec(d=d, include_t=torsion)
    total = sum(parametrix_series(laplace_symbol(spec), d - 2 * power), Symbol.zero(d))
    s = total
    for _ in range(power - 1):
        s = compose(s, total, -d)
    want = wodzicki_residue(s)
    assert not want.is_zero()
    assert wres_inverse_power(spec, power) == want


@pytest.mark.parametrize("torsion", [False, True])
@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_volume_residue(d, torsion):
    # Wres(Delta^(-d/2)) = Vol(S^(d-1)) t[h^d], exactly and before any reduction
    got = wres_inverse_power(OperatorSpec(d=d, include_t=torsion), d // 2)
    vol = sphere_integral((0,) * d)
    assert got == trace(Algebra(d).h_power(d)).scale(Scalar(vol, d // 2))


# -- the fused residue pass ------------------------------------------------


def unfused_residue(spec, power, table=None):
    """Wres(Delta^-power) with b_(d-2p) and every product formed and read
    by ``wodzicki_residue``: the route the fused pass must reproduce.

    A product with r factors still to come keeps the degrees >= -d + 2r,
    the only ones that can reach -d (``test_tight_power_band_keeps_the_residue``
    checks this against products kept down to -d); the full chain at
    (8,3) does not fit in a few GB."""
    d = spec.d
    a = laplace_symbol(spec)
    total = sum(parametrix_series(a, max(d - 2 * power, 0)), Symbol.zero(d))
    s = total
    for rest in range(power - 2, -1, -1):
        s = compose(s, total, -d + 2 * rest)
    return wodzicki_residue(s, table)


@pytest.mark.parametrize(
    "d, power, torsion, potential",
    [
        (2, 1, True, True),
        (4, 1, True, True),
        (4, 2, True, True),
        (6, 2, True, False),
        (6, 2, False, False),
        (6, 3, True, False),
        (8, 4, False, False),
    ],
)
def test_fused_residue_is_exact(d, power, torsion, potential):
    spec = OperatorSpec(d=d, include_t=torsion, include_x=potential)
    want = unfused_residue(spec, power)
    assert not want.is_zero()
    assert wres_inverse_power(spec, power) == want


def _odd_moment_table(d):
    # a nonzero moment on an odd alpha that the degree -d parts do contain
    table = SphereIntegralTable(d)
    table.override((1, 1) + (0,) * (d - 2), Fraction(1, 3))
    return table


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_poisoned_table_fails_both_moment_checks(d):
    # called directly: run_verification at d = 6 forms b_4
    alpha = (2,) + (0,) * (d - 1)
    poisoned = poisoned_table(d)
    assert poisoned.get(alpha) == 2 * sphere_integral(alpha)
    for check in (_moment_partition, _dichotomy):
        assert check(d, SphereIntegralTable(d))["passed"]
        assert not check(d, poisoned)["passed"]


def test_trace_property_check_fails_on_asymmetric_probes(monkeypatch):
    real = verify.trace_property_probe

    def asymmetric(p, q, table=None):
        r_pq, r_qp, _ = real(p, q, table)
        return r_pq, r_qp, False

    monkeypatch.setattr(verify, "trace_property_probe", asymmetric)
    check = verify._trace_property(4, 0, SphereIntegralTable(4))
    assert not check["passed"]
    assert check["detail"] == "5 of 5 probes broke the trace property"


@pytest.mark.parametrize("make_table", [_odd_moment_table, poisoned_table])
@pytest.mark.parametrize("d, power", [(4, 1), (6, 2)])
def test_fused_residue_reads_the_callers_table(make_table, d, power):
    # the pass must not assume that odd moments vanish: it asks the table
    spec = OperatorSpec(d=d, include_t=True)
    table = make_table(d)
    got = wres_inverse_power(spec, power, table=table)
    assert got == unfused_residue(spec, power, table)
    assert got != wres_inverse_power(spec, power)


def test_residue_walk_derives_no_leaf_without_a_moment(monkeypatch):
    # at the deepest gamma order of the last product, a child whose pairs
    # all have a zero moment is not derived: the gammas e_a + e_b with a
    # != b at (6,2); the walk derived 150 and 156 polynomials before
    calls = []
    real = NCPoly.derive
    monkeypatch.setattr(NCPoly, "derive", lambda s, axis: calls.append(axis) or real(s, axis))
    counts = []
    for torsion in (False, True):
        calls.clear()
        wres_inverse_power(OperatorSpec(d=6, include_t=torsion), 2)
        counts.append(len(calls))
    assert counts == [120, 126]


@pytest.mark.parametrize(
    "spec, power",
    [
        (SPEC_T, 1),
        (OperatorSpec(d=6, include_t=True, flat=True), 1),
        (OperatorSpec(d=6, include_t=False), 2),
        (OperatorSpec(d=6, include_t=True), 2),
        (OperatorSpec(d=8, include_t=True), 3),
    ],
    ids=["d4", "d6-flat", "d6-p2", "d6-p2-torsion", "d8-p3"],
)
def test_no_power_forms_the_deepest_parametrix_term(monkeypatch, spec, power):
    want = unfused_residue(spec, power)
    depths = []

    def recording(a, n, side="left"):
        depths.append(n)
        return parametrix_series(a, n, side)

    monkeypatch.setattr(wres, "parametrix_series", recording)
    got = wres_inverse_power(spec, power=power)
    assert depths == [spec.d - 2 * power - 1]
    # b_(d-2p) itself was never built, yet the residue is the unfused one
    assert got == want


@pytest.mark.parametrize("n", [None, 0, 2])
def test_volume_reads_b0_alone(monkeypatch, n):
    # at D = 0 every depth n >= D is the default: b_1, b_2 are not built
    spec = OperatorSpec(d=6, include_t=True)
    depths = []

    def recording(a, depth, side="left"):
        depths.append(depth)
        return parametrix_series(a, depth, side)

    monkeypatch.setattr(wres, "parametrix_series", recording)
    got = wres_inverse_power(spec, 3, n=n)
    assert depths == [0]
    assert got == trace(Algebra(6).h_power(6)).scale(Scalar(sphere_integral((0,) * 6), 3))


@pytest.mark.parametrize("torsion", [False, True])
@pytest.mark.parametrize("n", [0, 1])
def test_explicit_shallow_depth_reads_the_truncated_product(n, torsion):
    # n below D = 2 at (6,2): the residue of the square of b_0 + ... + b_n
    spec = OperatorSpec(d=6, include_t=torsion)
    total = sum(parametrix_series(laplace_symbol(spec), n), Symbol.zero(6))
    want = wodzicki_residue(compose(total, total, -6))
    assert not want.is_zero()
    assert wres_inverse_power(spec, 2, n=n) == want
    assert want != wres_inverse_power(spec, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"power": 0},
        {"power": -1},
        {"power": True},
        {"power": "2"},
        {"power": 2.0},
        {"power": None},
        {"n": -1},
        {"n": True},
        {"n": False},
        {"n": 1.5},
        {"n": "2"},
    ],
    ids=repr,
)
def test_power_and_depth_must_be_plain_ints(kwargs):
    with pytest.raises(ValueError):
        wres_inverse_power(SPEC_T, **kwargs)


def test_depth_zero_is_accepted():
    # b_0 alone stops above degree -4, so the inverse has no residue there
    assert wres_inverse_power(SPEC_T, 1, n=0).is_zero()


@pytest.mark.parametrize(
    "d, power, torsion", [(4, 1, True), (4, 2, True), (6, 2, False), (6, 2, True)]
)
def test_residue_is_traced_once(monkeypatch, d, power, torsion):
    # every pair of every alpha goes into one word sum, traced once
    traced = []

    def counting(p, *pi):
        traced.append(p)
        return trace(p, *pi)

    monkeypatch.setattr(wres, "trace", counting)
    assert not wres_inverse_power(OperatorSpec(d=d, include_t=torsion), power).is_zero()
    assert len(traced) == 1


# sha256 of the sorted JSON of ibp_reduce(Wres(Delta^-2)) at d=6, with its
# term count; the same residues perfbench/reference.json records for eh-d6
EH_D6 = {
    False: ("bc295e08efdf6773a50f8936198622f76dfbd508737c661825a4fa927b440ced", 36),
    True: ("faea6763e9f8f781c0ee06b618aacde8e8d57d83da86553a8f36df5fb4fb627c", 90),
}


def _pin(expr):
    text = json.dumps(serialize.trace_expression_to_json(expr), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest(), len(expr.terms)


@pytest.mark.parametrize("torsion", [False, True])
def test_eh_d6_residue_is_pinned(torsion):
    reduced = ibp_reduce(wres_inverse_power(OperatorSpec(d=6, include_t=torsion), 2))
    assert _pin(reduced) == EH_D6[torsion]


# sha256 and term count of the commutative ibp_reduce form of Wres(Delta^-power)
COMMUTATIVE = {
    (6, 2, False): ("fd47bb56915d05e4d7da310d07ae3edb51b771a9cbc2edc1d2508be78fadaa80", 6),
    (6, 2, True): ("d8e4da6360382bc17e61db35584bb4a6c202da445aea32ccb12ab6601d18bd83", 12),
    (4, 1, True): ("2aaf9878f819e9300eea2b22164578ba20ba290fb443daf6f52c6441dd17504a", 8),
}


@pytest.mark.parametrize("d, power, torsion", list(COMMUTATIVE))
def test_commutative_residue_is_pinned(d, power, torsion):
    raw = wres_inverse_power(OperatorSpec(d=d, include_t=torsion), power)
    assert _pin(ibp_reduce(raw, commutative=True)) == COMMUTATIVE[d, power, torsion]


def test_d6_inverse_residue_is_pinned():
    # Wres(Delta^-1) at d=6 without torsion forms b_0..b_3 and takes b_4
    # through its tail; pinned raw and in its ibp_reduce form
    raw = wres_inverse_power(OperatorSpec(d=6, include_t=False), 1)
    assert _pin(raw) == (
        "d227f395569e5968c11eada48335d4286bf853b4d21f5afb9e325659e572cf31",
        12984,
    )
    assert _pin(ibp_reduce(raw)) == (
        "bbb3ba0091bf50876d6225156763ec77512f1df568392415477c33f11f35b114",
        9828,
    )


@pytest.mark.slow
def test_d6_torsion_inverse_residue_is_pinned():
    # Wres(Delta^-1) at d=6 with torsion, the largest d=6 residue: pinned
    # raw and in its ibp_reduce form (about 12 s, half of it serializing)
    raw = wres_inverse_power(OperatorSpec(d=6, include_t=True), 1)
    assert _pin(raw) == (
        "71f24afd2681dd4404b7f4cfcd2320eb06c9dfb0f4ceab79c234e2c58c9fb62e",
        43578,
    )
    assert _pin(ibp_reduce(raw)) == (
        "320e366a8e92bb4aa48c774984454b3eb0222b3720181c02a41802fe09d4decd",
        38631,
    )


def test_d8_cubed_inverse_raw_residue_is_pinned():
    # Wres(Delta^-3) at d=8 with torsion, before integration by parts: its
    # first term reads a chain of three parametrix sums
    raw = wres_inverse_power(OperatorSpec(d=8, include_t=True), 3)
    assert _pin(raw) == (
        "30d9c07e9c4e104fd50298fc8cf613aabd1e6fb4523ab866aa39b6368d39e266",
        192,
    )


def _reversal(e):
    # t[w] -> (-1)^(ord w) t[reversed w], T keeping its sign
    order = lambda tw: sum(let.order for let in tw)
    terms = {TraceWord(tw[::-1]): sc * (-1) ** order(tw) for tw, sc in e.terms.items()}
    return TraceExpression(e.d, terms)


def _reflection(e):
    # x -> -x flips every derivative and every T_a
    flips = lambda tw: sum(let.order + (let.kind == "T") for let in tw)
    return TraceExpression(e.d, {tw: sc * (-1) ** flips(tw) for tw, sc in e.terms.items()})


SYMMETRIC = [
    (4, 1, True, False),
    (4, 1, True, True),
    (6, 2, True, True),
    (4, 1, False, False),
    (6, 2, False, False),
]


@pytest.mark.parametrize("d, power, torsion, potential", SYMMETRIC)
def test_raw_residue_is_reversal_and_reflection_symmetric(d, power, torsion, potential):
    # both maps fix the raw residue term by term, with no integration by parts
    raw = wres_inverse_power(OperatorSpec(d=d, include_t=torsion, include_x=potential), power)
    assert not raw.is_zero()
    assert raw == _reversal(raw)
    assert raw == _reflection(raw)


def _derive_with_flipped_inverse(self, axis):
    """``NCPoly.derive`` with d(h^-1) = +h^-1 d(h) h^-1, the wrong sign."""
    dh = Letter("H", (0,) * self.d).derived(axis)
    out = {}
    for word, sc in self.terms.items():
        for i, let in enumerate(word):
            if let.kind == "Hinv":
                _accumulate(out, word[:i] + (let, dh, let) + word[i + 1:], sc)
            else:
                _accumulate(out, word[:i] + (let.derived(axis),) + word[i + 1:], sc)
    return NCPoly(self.d, out)


@pytest.mark.parametrize("d, power, torsion, potential", [c for c in SYMMETRIC if c[2]])
def test_flipped_inverse_derivative_breaks_reversal_only(monkeypatch, d, power, torsion, potential):
    monkeypatch.setattr(NCPoly, "derive", _derive_with_flipped_inverse)
    raw = wres_inverse_power(OperatorSpec(d=d, include_t=torsion, include_x=potential), power)
    assert raw != _reversal(raw)
    assert raw == _reflection(raw)
