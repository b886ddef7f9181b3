"""Command line front end.

Subcommands: ``wres`` prints the residue of an inverse power, both as a
canonical rendering and as JSON; ``parametrix`` emits the correction
terms and the composition defect; ``verify`` runs the self-check battery
and exits 3 when a check fails; ``oracle-check`` replays symbolic
identities on a concrete representation.  Exit codes: 0 success, 1 closed
stdout, 2 bad usage or a request that runs out of memory, 3 failed
checks.  Timing always goes to stderr, never into the JSON, so output
bytes depend only on the arguments and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .ncalg import Algebra, Scalar
from .parametrix import OperatorSpec, laplace_symbol, parametrix_terms
from .trace import format_trace_expression, ibp_reduce, trace, trace_equal
from .wres import sphere_integral, wres_inverse_power

# start-up is a large share of a short command, so modules that only
# some branches use are imported inside them: the numeric modules
# (fourier_oracle, randgen, verify), which pull in numpy and would more
# than double the start-up of the symbolic subcommands, and serialize,
# which only --format json and --oracle-assignment need


def resolve_seed(args) -> int:
    """``--seed``, else NCWRES_SEED, else 0; anything but ASCII digits
    exits 2 (``int`` alone would take "1_0", " 7 " and non-ASCII digits),
    and so do more digits than Python's limit on integer strings."""
    name = "NCWRES_SEED" if args.seed is None else "--seed"
    raw = os.environ.get(name, "0") if args.seed is None else args.seed
    if raw.isascii() and raw.isdigit():
        try:
            return int(raw)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            message = f"{name} has {len(raw)} digits, more than the {limit} Python reads"
            raise SystemExit(_bad_input(message))
    raise SystemExit(_bad_input(f"{name} must be a nonnegative integer, not {raw!r}"))


def _bad_input(message: str) -> int:
    print(f"ncwres: {message}", file=sys.stderr)
    return 2


def build_spec(args) -> OperatorSpec:
    try:
        if args.spec:
            with open(args.spec) as fh:
                data = json.load(fh)
            return OperatorSpec(**data)
        # --flat means the plain flat operator; torsion stays reachable
        # through a spec file for anyone who wants the combination
        return OperatorSpec(
            d=args.d,
            include_t=not (args.no_torsion or args.flat),
            include_x=args.include_x,
            flat=args.flat,
        )
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_bad_input(f"invalid operator configuration: {exc}"))


def _add_operator_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--d", type=int, default=4, help="torus dimension (even)")
    sub.add_argument("--flat", action="store_true", help="freeze the conformal factor at 1")
    sub.add_argument("--no-torsion", action="store_true", help="drop the first-order terms")
    sub.add_argument("--include-x", action="store_true", help="add the order-zero potential")
    sub.add_argument("--spec", help="operator configuration as a JSON file")


def _add_common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    # a string, so that resolve_seed checks it as it checks NCWRES_SEED
    sub.add_argument("--seed", default=None, help="override NCWRES_SEED")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncwres",
        description="Exact residue calculus for conformally rescaled torus operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("wres", help="residue of an inverse power of the operator")
    _add_operator_flags(w)
    _add_common_flags(w)
    w.add_argument("--power", type=int, choices=(1, 2), default=1)
    w.add_argument("--mode", choices=("noncommutative", "commutative"), default="noncommutative")

    p = sub.add_parser("parametrix", help="correction terms and composition defect")
    _add_operator_flags(p)
    _add_common_flags(p)
    p.add_argument("--order", type=int, default=None, help="depth of the recursion")

    v = sub.add_parser("verify", help="run the self-check battery")
    _add_common_flags(v)
    v.add_argument("--d", type=int, default=4)
    # deliberately undocumented: poisons one sphere moment so the
    # battery can demonstrate that it catches a corrupted ingredient
    v.add_argument("--inject-sphere-fault", action="store_true", help=argparse.SUPPRESS)

    o = sub.add_parser("oracle-check", help="replay symbolic identities numerically")
    _add_common_flags(o)
    o.add_argument("--d", type=int, default=3)
    o.add_argument("--oracle-assignment", help="assignment JSON file instead of a seeded one")
    return parser


def _classical_residue(d: int):
    # the Kalau-Walze form of the commutative Einstein-Hilbert residue
    # Wres(Delta^-(d-2)/2) for the metric h^2 delta:
    # -(d-2)^2 (d-1)/12 Vol(S^(d-1)) sum_a t[h^(d-4) (d_a h)^2]
    from .trace import TraceExpression

    alg = Algebra(d)
    out = TraceExpression.zero(d)
    for a in range(1, d + 1):
        dh = alg.h().derive(a)
        out = out + trace(alg.h_power(d - 4) * dh * dh)
    vol = sphere_integral((0,) * d)
    return out.scale(Scalar(vol * Fraction(-((d - 2) ** 2) * (d - 1), 12), d // 2))


def cmd_wres(args) -> int:
    resolve_seed(args)
    spec = build_spec(args)
    raw = wres_inverse_power(spec, power=args.power)
    commutative = args.mode == "commutative"
    reduced = ibp_reduce(raw, commutative=commutative)
    rendering = format_trace_expression(reduced)
    verdict = None
    # only the plain conformal Laplacian at the Einstein-Hilbert power
    plain = not (spec.include_t or spec.include_x or spec.flat)
    if commutative and plain and 2 * args.power == spec.d - 2:
        verdict = trace_equal(reduced, _classical_residue(spec.d), commutative=True)
    if args.format == "json":
        from .serialize import trace_expression_to_json

        payload = {"expression": trace_expression_to_json(reduced), "rendering": rendering}
        if verdict is not None:
            payload["classical_match"] = verdict
        print(json.dumps(payload, indent=2))
    else:
        print(rendering)
        if verdict is not None:
            print(f"classical scalar-curvature form: {'match' if verdict else 'mismatch'}")
    return 0


def cmd_parametrix(args) -> int:
    resolve_seed(args)
    spec = build_spec(args)
    order = spec.d - 2 if args.order is None else args.order
    if order < 0:
        return _bad_input("--order must be nonnegative")
    res = parametrix_terms(laplace_symbol(spec), order)
    if args.format == "json":
        from .serialize import symbol_to_json

        payload = {
            "terms": [symbol_to_json(term) for term in res.terms],
            "defect": symbol_to_json(res.defect),
        }
        print(json.dumps(payload, indent=2))
    else:
        from .symcalc import format_symbol

        for k, term in enumerate(res.terms):
            print(f"# correction term {k}")
            print(format_symbol(term))
        surviving = res.defect.degrees()
        print(f"# defect degrees: {surviving if surviving else 'none'}")
    return 0


def _print_report(report: dict, fmt: str) -> int:
    """Print a check report as JSON or as one line per check; exit code."""
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for check in report["checks"]:
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"{mark} {check['name']}: {check['detail']}")
        if "minimality" in report:
            verdict = "yes" if report["minimality"]["minimal"] else "no"
            print(f"residue-minimal with torsion: {verdict}")
        print("passed" if report["passed"] else "failed")
    return 0 if report["passed"] else 3


def cmd_verify(args) -> int:
    from .verify import run_verification

    seed = resolve_seed(args)
    try:
        OperatorSpec(d=args.d)
    except ValueError as exc:
        return _bad_input(f"invalid --d {args.d}: {exc}")
    t0 = time.perf_counter()
    report = run_verification(
        d=args.d, seed=seed, inject_sphere_fault=args.inject_sphere_fault
    )
    elapsed = time.perf_counter() - t0
    code = _print_report(report, args.format)
    print(f"verification took {elapsed:.2f}s", file=sys.stderr)
    return code


def cmd_oracle_check(args) -> int:
    from .randgen import random_assignment
    from .verify import oracle_battery

    seed = resolve_seed(args)
    source = "oracle assignment" if args.oracle_assignment else f"--d {args.d}"
    try:
        if args.oracle_assignment:
            from .serialize import assignment_from_json

            with open(args.oracle_assignment) as fh:
                asg = assignment_from_json(json.load(fh))
            d = asg.d
        else:
            d = args.d
        if d < 2:
            raise ValueError("dimension must be at least 2")
        if not args.oracle_assignment:
            asg = random_assignment(d, seed)
        # an h outside the Neumann radius, or a d whose product modes
        # overflow the oracle's linear index, fails here
        asg.h_inverse()
    except KeyError as exc:
        return _bad_input(f"invalid oracle assignment: missing key {exc}")
    except (ValueError, TypeError, OSError, OverflowError) as exc:
        return _bad_input(f"invalid {source}: {exc}")
    try:
        checks = oracle_battery(asg)
    except OverflowError as exc:
        # atoms whose product spans more than the oracle's linear index
        return _bad_input(f"invalid {source}: {exc}")
    passed = all(c["passed"] for c in checks)
    report = {"seed": seed, "d": asg.d, "checks": checks, "passed": passed}
    return _print_report(report, args.format)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "wres": cmd_wres,
        "parametrix": cmd_parametrix,
        "verify": cmd_verify,
        "oracle-check": cmd_oracle_check,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # piped output is buffered: a closed reader shows here
    except BrokenPipeError:
        # devnull takes the interpreter's own flush at exit, which would raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError:
        return _bad_input("out of memory: the request is too large for this machine")
    return code


if __name__ == "__main__":
    sys.exit(main())
