"""Record the expected output of every benchmark operation.

    PYTHONPATH=src python3 perfbench/record.py

Writes ``perfbench/reference.json``.  Run it only on a commit whose
results are trusted; before writing, every recorded output is checked
against a route that does not share its code path:

* ``wres --power 2`` against 2*pi^2 * t[h^4] (acceptance criterion 1);
* the commutative d=4 residue against the classical -2*pi^2 sum t[(d_a h)^2];
* the d=4 torsion residue, parsed back from the recorded JSON bytes,
  against the three-shape combination of acceptance criterion 4;
* the d=6 residue without torsion against the Kalau-Walze form
  -20/3*pi^3 sum t[h^2 (d_a h)^2] in the commutative limit, and against
  it numerically at theta = 0 with the Fourier oracle;
* the d=6 residue with torsion, with every torsion word dropped, against
  the residue without torsion (setting T = 0 commutes with the calculus);
* every oracle operation against the 1e-8 bound.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import run
import worker
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from ncwres import ncalg, parametrix, serialize, trace, wres  # noqa: E402
from ncwres.randgen import random_assignment  # noqa: E402


def expect(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"record: cross-check failed: {what}")
    print(f"ok  {what}")


def grad_sum(d: int, left) -> trace.TraceExpression:
    """sum_a t[left . (d_a h)^2]"""
    alg = ncalg.Algebra(d)
    out = trace.TraceExpression.zero(d)
    for a in range(1, d + 1):
        dh = alg.h().derive(a)
        out = out + trace.trace(left * dh * dh)
    return out


def record_cli(deadline: float) -> dict:
    refs = {}
    for op in workloads.base_ops("cli-d4"):
        child = run.run_child([*run.NCWRES, *op["argv"]], deadline)
        masked, values = workloads.mask_floats(child.stdout)
        expect(child.code == 0, f"{op['name']} exits 0")
        expect(all(abs(v) < workloads.ORACLE_BOUND for v in values),
               f"{op['name']} prints deviations below the oracle bound")
        refs[op["name"]] = {"code": child.code, "masked": masked}
    alg = ncalg.Algebra(4)
    expect(
        refs["wres-p2"]["masked"] == "2*pi^2 * t[h^4]\n"
        and all(
            wres.wres_inverse_power(parametrix.OperatorSpec(d=4, include_t=t), power=2)
            == trace.trace(alg.h_power(4)).scale(ncalg.Scalar(2, 2))
            for t in (True, False)
        ),
        "Wres(Delta^-2) at d=4 is 2*pi^2 * t[h^4]",
    )
    plain = wres.wres_inverse_power(parametrix.OperatorSpec(d=4, include_t=False), power=1)
    expect(
        refs["wres-p1-comm"]["masked"].endswith("classical scalar-curvature form: match\n")
        and trace.trace_equal(
            plain, grad_sum(4, alg.one()).scale(ncalg.Scalar(-2, 2)), commutative=True
        ),
        "commutative d=4 residue is -2*pi^2 sum t[(d_a h)^2]",
    )
    printed = serialize.trace_expression_from_json(
        json.loads(refs["wres-p1-json"]["masked"])["expression"], 4
    )
    expect(
        trace.express_in_span(printed, worker.three_shapes()) == worker.shape_weights(),
        "recorded d=4 torsion residue is the criterion-4 three-shape combination",
    )
    return refs


def record_eh() -> dict:
    refs, exprs = {}, {}
    for name, torsion in workloads.EH_CASES:
        t0 = time.perf_counter()
        reduced = worker.eh_residue(torsion)
        print(f"    {name} computed in {time.perf_counter() - t0:.1f}s")
        refs[name] = serialize.trace_expression_to_json(reduced)
        exprs[name] = reduced
    plain, torsion = exprs["eh-notorsion"], exprs["eh-torsion"]
    alg = ncalg.Algebra(6)
    kalau_walze = grad_sum(6, alg.h_power(2)).scale(ncalg.Scalar(Fraction(-20, 3), 3))
    expect(
        trace.trace_equal(plain, kalau_walze, commutative=True),
        "commutative d=6 residue is -20/3*pi^3 sum t[h^2 (d_a h)^2] (Kalau-Walze)",
    )
    asg = random_assignment(6, 0, theta_mode="zero", eps=0.08)
    got = asg.evaluate_trace_expression(plain)
    gap = abs(got - asg.evaluate_trace_expression(kalau_walze))
    expect(
        gap < workloads.ORACLE_BOUND and abs(got) > workloads.SCALE_FLOOR,
        f"oracle at theta=0 agrees with Kalau-Walze at d=6 ({gap:.1e} on {abs(got):.1f})",
    )
    without_t = trace.TraceExpression(
        6,
        {tw: sc for tw, sc in torsion.terms.items() if all(let.kind != "T" for let in tw.word)},
    )
    expect(
        len(without_t.terms) < len(torsion.terms) and trace.trace_equal(without_t, plain),
        "d=6 residue with torsion at T=0 is the residue without torsion",
    )
    return refs


def record_oracle() -> dict:
    residue, zeros, certified, pool = worker.oracle_setup()
    expect(certified, "oracle zeros are zero modulo cyclicity and IBP")
    worst = 0.0
    for op in workloads.base_ops("oracle"):
        res = worker.oracle_op(op, zeros, pool)
        expect(workloads.check_oracle(res) is None, f"{op['name']} within the oracle bound")
        worst = max(worst, res["worst"], res["gap"])
    print(f"    worst oracle deviation {worst:.1e}")
    return {"residue": serialize.trace_expression_to_json(residue)}


def main() -> int:
    deadline = time.perf_counter() + 3600
    out = {
        "recorded_with": {"commit": run.commit(), "src_sha256": run.source_digest()},
        "cli-d4": record_cli(deadline),
        "eh-d6": record_eh(),
        "oracle": record_oracle(),
    }
    # one line per operation keeps the file reviewable as a diff
    sections = []
    for key in sorted(out):
        entries = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(value, sort_keys=True)}"
            for name, value in sorted(out[key].items())
        )
        sections.append(f"{json.dumps(key)}: {{\n{entries}\n}}")
    with open(run.HERE / "reference.json", "w") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {run.HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
