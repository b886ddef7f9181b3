"""Check batteries: symbolic invariants cross-checked two ways.

Each check pits two independent routes to the same quantity against
each other, so a corrupted ingredient (for instance a sphere moment
poisoned through the fault-injection hook) surfaces as a failed check
rather than a silently wrong answer.  ``run_verification`` is the
self-check battery behind ``verify``; ``oracle_battery`` replays the
shared identities on one concrete representation for ``oracle-check``.
Reports are plain dicts that serialize byte-identically for a fixed
seed: no timestamps, no wall times, nothing environment-dependent.
"""

from __future__ import annotations

from fractions import Fraction

from .fourier_oracle import Assignment, FourierElement, ThetaMatrix, gamma_sum_evaluation
from .ncalg import Algebra, Scalar
from .parametrix import (
    OperatorSpec,
    ParametrixResult,
    closed_forms,
    laplace_symbol,
    parametrix_terms,
)
from .randgen import random_assignment, random_probe_pair
from .symcalc import Symbol, multi_indices, symbol_product
from .trace import format_trace_expression, ibp_reduce, trace, TraceExpression
from .wres import (
    SphereIntegralTable,
    sphere_derivative_dichotomy,
    sphere_integral,
    trace_property_probe,
    wres_inverse_power,
)

PROBES = 5


def poisoned_table(d: int) -> SphereIntegralTable:
    """Table with the moment of xi_1^2 doubled.

    ``sphere-moment-partition`` and ``derivative-dichotomy`` read that
    moment and fail.  The residue checks pass: the squared inverse reads
    only the moment of xi^0, and a probe pair's degrees sum to -d, so only
    its pointwise product reaches the residue, where both orders weight
    each trace word by the same moment.
    """
    table = SphereIntegralTable(d)
    alpha = (2,) + (0,) * (d - 1)
    table.override(alpha, 2 * sphere_integral(alpha))
    return table


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _moment_partition(d: int, table: SphereIntegralTable) -> dict:
    bad = []
    for total in (0, 1, 2):
        for alpha in multi_indices(d, total):
            parts = Fraction(0)
            for a in range(d):
                bumped = list(alpha)
                bumped[a] += 2
                parts += table.get(tuple(bumped))
            if table.get(alpha) != parts:
                bad.append(alpha)
    return _check(
        "sphere-moment-partition",
        not bad,
        "splitting |xi|^2 = sum xi_a^2 preserves every moment"
        if not bad
        else f"violated at {bad}",
    )


def _dichotomy(d: int, table: SphereIntegralTable) -> dict:
    vol = sphere_integral((0,) * d)
    bad = []
    for rho in (1 - d, 3, 1, -1 - d):
        got = sphere_derivative_dichotomy(1, 1, rho, d, table)
        if got != vol * (1 + Fraction(rho - 1, d)):
            bad.append(rho)
    if sphere_derivative_dichotomy(1, 1, 1 - d, d, table):
        bad.append("critical")
    return _check(
        "derivative-dichotomy",
        not bad,
        "sphere integral of a gradient vanishes exactly at homogeneity 1-d"
        if not bad
        else f"mismatch at rho={bad}",
    )


def _defect(res: ParametrixResult) -> dict:
    ok = res.defect.is_zero()
    return _check(
        "composition-defect",
        ok,
        f"b0..b{len(res.terms) - 1} cancel the symbol product to the computed depth"
        if ok
        else f"surviving degrees {res.defect.degrees()}",
    )


def _closed_forms(spec: OperatorSpec, res: ParametrixResult) -> dict:
    b = closed_forms(spec, 2)
    ok1, ok2 = res.terms[1] == b[1], res.terms[2] == b[2]
    return _check(
        "closed-form-vs-recursion",
        ok1 and ok2,
        "first and second correction terms match their closed forms"
        if ok1 and ok2
        else f"b1 match={ok1}, b2 match={ok2}",
    )


def _trace_property(d: int, seed: int, table: SphereIntegralTable) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    failures = 0
    nontrivial = 0
    for _ in range(PROBES):
        p, q = random_probe_pair(d, rng)
        r_pq, r_qp, ok = trace_property_probe(p, q, table)
        if r_pq.terms or r_qp.terms:
            nontrivial += 1
        if not ok:
            failures += 1
    return _check(
        "residue-trace-property",
        failures == 0 and nontrivial > 0,
        f"{PROBES} probes, {nontrivial} nontrivial, all symmetric"
        if failures == 0
        else f"{failures} of {PROBES} probes broke the trace property",
    )


def _squared_power(table: SphereIntegralTable) -> dict:
    spec = OperatorSpec(d=4)
    alg = Algebra(4)
    got = wres_inverse_power(spec, power=2, table=table)
    want = trace(alg.h_power(4)).scale(Scalar(Fraction(2), 2))
    ok = got == want
    return _check(
        "squared-inverse-residue",
        ok,
        "residue of the squared inverse is 2*pi^2 * t[h^4]"
        if ok
        else f"got {format_trace_expression(got)}",
    )


def worst_reduction_gap(asg: Assignment, exprs: list[TraceExpression]) -> float:
    """Largest oracle deviation between an expression and its ibp_reduce form."""
    return max(
        abs(asg.evaluate_trace_expression(e) - asg.evaluate_trace_expression(ibp_reduce(e)))
        for e in exprs
    )


def _identities(d: int) -> list[TraceExpression]:
    """Trace identities whose ibp_reduce form the oracle must reproduce.

    Each holds two copies of one atom, so a term survives the trace
    through modes that cancel against their own conjugates, whatever the
    random modes of the other atoms; a trace of three distinct atoms
    vanishes unless their modes happen to sum to zero.
    """
    alg = Algebra(d)
    h, t, x = alg.h(), alg.t(1), alg.x()
    axis = min(2, d)
    return [
        trace(h * h.derive(1).derive(1)),
        trace(h * t * t.derive(axis).derive(axis)),
        trace(alg.hinv() * x * (x * h).derive(axis).derive(axis)),
    ]


def _oracle_zero(d: int, seed: int) -> dict:
    exprs = _identities(d)
    worst = worst_reduction_gap(random_assignment(d, seed), exprs)
    return _check(
        "oracle-zero-certification",
        worst < 1e-8,
        f"worst deviation {worst:.3e} across {len(exprs)} reduced identities",
    )


def _oracle_worked_example(d: int) -> dict:
    theta = ThetaMatrix.zero(d)
    eps = 1.0 / 16.0
    e1 = (1,) + (0,) * (d - 1)
    u = FourierElement.monomial(theta, e1, eps)
    h = FourierElement.one(theta) + u + u.adjoint()
    ok = (h * h).trace() == 1 + 2 * eps**2 and (h.derive(1) * h).trace() == 0
    return _check(
        "oracle-worked-example",
        ok,
        "one-mode conformal factor: t(h^2) and t(dh.h) come out exact",
    )


def minimality_report(d: int = 4) -> dict:
    """Split the first-order residue into torsion-bound and torsion-free parts.

    The torsion part survives reduction, so adding the antisymmetric
    first-order term changes the residue: the operator family is not
    residue-minimal once torsion is switched on.
    """
    spec = OperatorSpec(d=d, include_t=True)
    res = ibp_reduce(wres_inverse_power(spec, power=1))
    with_t: dict = {}
    without_t: dict = {}
    for tw, sc in res.terms.items():
        target = with_t if any(let.kind == "T" for let in tw.word) else without_t
        target[tw] = sc
    dep = TraceExpression(d, with_t)
    free = TraceExpression(d, without_t)
    return {
        "minimal": not dep.terms,
        "torsion_dependent": format_trace_expression(dep),
        "torsion_free": format_trace_expression(free),
    }


def run_verification(d: int = 4, seed: int = 0, inject_sphere_fault: bool = False) -> dict:
    table = poisoned_table(d) if inject_sphere_fault else SphereIntegralTable(d)
    spec = OperatorSpec(d=d, include_t=True, include_x=True)
    # one recursion serves both the defect (depth d - 2) and the closed
    # forms (b1 and b2)
    res = parametrix_terms(laplace_symbol(spec), max(d - 2, 2))
    checks = [
        _moment_partition(d, table),
        _dichotomy(d, table),
        _defect(res),
        _closed_forms(spec, res),
        _trace_property(d, seed, table),
    ]
    if d == 4:
        checks.append(_squared_power(table))
    checks.append(_oracle_zero(d, seed))
    checks.append(_oracle_worked_example(d))
    report = {
        "d": d,
        "seed": seed,
        "fault_injected": inject_sphere_fault,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    if d == 4:
        report["minimality"] = minimality_report(d)
    return report


def oracle_battery(asg: Assignment) -> list[dict]:
    """Symbolic identities replayed on one concrete representation."""
    d = asg.d
    alg = Algebra(d)
    inv = asg.h_inverse()
    unit_gap = (asg.atoms["h"] * inv.element - FourierElement.one(asg.theta)).norm1()
    # cyclicity is exact in the reduction, so its oracle gap must vanish too
    exprs = _identities(d) + [
        trace(alg.h().derive(1) * alg.h()) - trace(alg.h() * alg.h().derive(1))
    ]
    worst = worst_reduction_gap(asg, exprs)
    p = Symbol.from_poly(alg.h(), alpha=(1,) + (0,) * (d - 1))
    q = Symbol.from_poly(alg.t(1), alpha=(0, 1) + (0,) * (d - 2))
    xi = tuple(0.5 + 0.25 * i for i in range(d))
    gap = (
        asg.evaluate_symbol(symbol_product(p, q, min_degree=0), xi)
        - gamma_sum_evaluation(asg, p, q, 0, xi)
    ).norm1()
    return [
        _check(
            "neumann-inverse",
            unit_gap < 10 * asg.tol,
            f"|h h^-1 - 1| = {unit_gap:.3e}, certified tail {inv.tail_bound:.3e}",
        ),
        _check(
            "reduced-identities",
            worst < 1e-8,
            f"worst deviation {worst:.3e} across {len(exprs)} identities",
        ),
        _check(
            "symbol-product",
            gap < 1e-8,
            f"symbolic composition vs direct gamma sum differ by {gap:.3e}",
        ),
    ]
