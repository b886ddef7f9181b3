"""Child process of the benchmark: one fresh interpreter per call.

    worker.py setup <workload>            time import + input building
    worker.py eh <0|1> [--trace]          one d=6 residue, torsion off/on
    worker.py oracle <seed> <seconds> [--trace]
                                          the whole oracle workload
    worker.py cli -- <argv>               one traced CLI command, in process

The last line of stdout is one JSON object; timed spans in it carry
their start and end (``t0``, ``t1``, on the clock all processes share)
so that the caller can scale them by the host-speed probes this process
reports on stderr.  Untraced calls use only public ncwres entry points;
``--trace`` attaches the tracer after the import and before the work.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import hostspeed
import workloads


def import_cli() -> float:
    """Seconds taken by the first import of ncwres.cli in this process."""
    t0 = time.perf_counter()
    import ncwres.cli  # noqa: F401

    return time.perf_counter() - t0


def make_tracer(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer

    return Tracer().install()


def traced(tracer, name, fn, *args):
    """Run fn as one operation, in a root span when tracing."""
    if tracer is None:
        return fn(*args)
    tracer.op = name
    return tracer.run("op:" + name, "bench", fn, *args)


# -- eh-d6 -----------------------------------------------------------------


def eh_residue(torsion: bool):
    from ncwres import parametrix, trace, wres

    spec = parametrix.OperatorSpec(d=6, include_t=torsion)
    return trace.ibp_reduce(wres.wres_inverse_power(spec, power=2, n=2))


def run_eh(torsion: bool, trace_on: bool) -> dict:
    import_s = import_cli()
    from ncwres import serialize

    tracer = make_tracer(trace_on)
    name = workloads.EH_CASES[int(torsion)][0]
    t0 = time.perf_counter()
    reduced = traced(tracer, name, eh_residue, torsion)
    t1 = time.perf_counter()
    out = {
        "import_s": import_s,
        "op_s": t1 - t0,
        "t0": t0,
        "t1": t1,
        "result": serialize.trace_expression_to_json(reduced),
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
    return out


# -- oracle ----------------------------------------------------------------


def three_shapes():
    """The d=4 candidate basis of acceptance criterion 4: u = h^2 against
    torsion and its gradient."""
    from ncwres import ncalg, trace

    d = 4
    alg = ncalg.Algebra(d)
    u, v = alg.h_power(2), alg.h_power(-2)
    shapes = [trace.TraceExpression.zero(d) for _ in range(3)]
    for a in range(1, d + 1):
        t_a, du = alg.t(a), u.derive(a)
        shapes[0] = shapes[0] + trace.trace(u * t_a * u * t_a * u)
        shapes[1] = shapes[1] + trace.trace(u * (t_a * du - du * t_a))
        shapes[2] = shapes[2] + trace.trace(du * v * du)
    return shapes


def shape_weights():
    """Coefficients of the d=4 torsion residue in the three shapes."""
    from ncwres.ncalg import Scalar

    half = Fraction(1, 2)
    return [Scalar(half, 2), Scalar(-half, 2), Scalar(-half, 2)]


def certified_zeros():
    """d=4 trace expressions that are zero modulo cyclicity and IBP.

    The first is the torsion residue minus its three-shape form
    (acceptance criterion 4); the others are identities e - ibp_reduce(e).
    Each is certified symbolically before the oracle sees it.
    """
    from ncwres import ncalg, parametrix, trace, wres

    d = 4
    alg = ncalg.Algebra(d)
    residue = wres.wres_inverse_power(parametrix.OperatorSpec(d=d, include_t=True), power=1)
    combination = trace.TraceExpression.zero(d)
    for shape, w in zip(three_shapes(), shape_weights()):
        combination = combination + shape.scale(w)
    h, hinv, x = alg.h(), alg.hinv(), alg.x()
    zeros = [residue - combination]
    for e in (
        trace.trace(hinv * h.derive(1).derive(1)),
        trace.trace(hinv * h.derive(1) * alg.t(1) * h),
        trace.trace((h * alg.t(2) * hinv).derive(3)),
        trace.trace(x * h.derive(2) * hinv * h.derive(2)),
        trace.trace(h * h.derive(1) * h.derive(1) * hinv),
    ):
        zeros.append(e - trace.ibp_reduce(e))
    zero = trace.TraceExpression.zero(d)
    certified = all(trace.trace_equal(z, zero) for z in zeros)
    return trace.ibp_reduce(residue), zeros, certified


def pair_pool():
    """The d=2 symbol pairs of acceptance criterion 8, with their cuts."""
    import numpy as np

    from ncwres import randgen

    rng = np.random.default_rng(workloads.PAIR_SEED)
    pool = []
    for _ in range(workloads.ORACLE_OPS):
        deg_p = int(rng.integers(0, 3))
        deg_q = int(rng.integers(-2, 2))
        p = randgen.random_symbol(2, rng, deg_p)
        q = randgen.random_symbol(2, rng, deg_q)
        pool.append((p, q, deg_p + deg_q - 2))
    return pool


def oracle_setup():
    residue, zeros, certified = certified_zeros()
    return residue, zeros, certified, pair_pool()


def oracle_op(op: dict, zeros, pool) -> dict:
    from ncwres import fourier_oracle, randgen, symcalc

    asg = randgen.random_assignment(
        4, op["seed"], theta_mode=op["theta"], **workloads.ORACLE_ASSIGNMENT
    )
    worst = max(abs(asg.evaluate_trace_expression(z)) for z in zeros)
    p, q, cut = pool[op["index"]]
    asg2 = randgen.random_assignment(
        2, workloads.PAIR_SEED, theta_mode="irrational", eps=workloads.ORACLE_ASSIGNMENT["eps"]
    )
    xi = workloads.PAIR_XI
    lhs = asg2.evaluate_symbol(symcalc.symbol_product(p, q, cut), xi)
    rhs = fourier_oracle.gamma_sum_evaluation(asg2, p, q, cut, xi)
    # the largest single term behind the zeros, so a check that passes
    # only because everything evaluated to 0 is caught; words are cached
    scale = max(
        abs(float(sc) * asg.evaluate_word(tw.word).trace())
        for z in zeros
        for tw, sc in z.terms.items()
    )
    return {
        "worst": worst,
        "gap": (lhs - rhs).norm1(),
        "lhs": lhs.norm1(),
        "scale": scale,
    }


def _timed_op(tracer, op, zeros, pool) -> dict:
    t0 = time.perf_counter()
    res = traced(tracer, op["name"], oracle_op, op, zeros, pool)
    t1 = time.perf_counter()
    res.update(name=op["name"], op_s=t1 - t0, t0=t0, t1=t1)
    return res


def run_oracle(seed: int, seconds: float, trace_on: bool) -> dict:
    import_s = import_cli()
    from ncwres import serialize

    tracer = make_tracer(trace_on)
    if tracer is not None:
        tracer.op = "setup"
    t0 = time.perf_counter()
    residue, zeros, certified, pool = (
        oracle_setup() if tracer is None else tracer.run("setup", "bench", oracle_setup)
    )
    setup_s = time.perf_counter() - t0
    out = {
        "import_s": import_s,
        "setup_s": setup_s,
        "certified": certified,
        "residue": serialize.trace_expression_to_json(residue),
    }
    if tracer is not None:
        # one untraced round for the overhead baseline, then the same
        # operations traced
        tracer.uninstall()
        (ops,) = workloads.take_rounds("oracle", seed, 1)
        out["untraced"] = [_timed_op(None, op, zeros, pool) for op in ops]
        tracer.install()
        out["ops"] = [_timed_op(tracer, op, zeros, pool) for op in ops]
        tracer.uninstall()
        out["trace"] = tracer.dump()
        return out
    results = []
    clock = workloads.RoundClock(seconds, time.perf_counter())
    for ops in workloads.rounds("oracle", seed):
        if not clock.another(time.perf_counter()):
            break
        results.extend(_timed_op(None, op, zeros, pool) for op in ops)
        clock.done += 1
    out["ops"] = results
    return out


# -- setup and cli ---------------------------------------------------------


def run_setup(workload: str) -> dict:
    start = time.perf_counter()
    import_s = import_cli()
    t0 = time.perf_counter()
    certified = True
    if workload == "eh-d6":
        from ncwres import parametrix

        for _, torsion in workloads.EH_CASES:
            parametrix.laplace_symbol(parametrix.OperatorSpec(d=6, include_t=torsion))
    elif workload == "oracle":
        certified = oracle_setup()[2]
    numpy = sys.modules.get("numpy")
    t1 = time.perf_counter()
    return {
        "import_s": import_s,
        "setup_s": import_s + t1 - t0,
        "t0": start,
        "t1": t1,
        "certified": certified,
        "numpy": getattr(numpy, "__version__", None),
        "python": sys.version.split()[0],
    }


def run_cli(argv: list[str]) -> dict:
    """The traced counterpart of a fresh `ncwres` process."""
    import contextlib
    import io

    import_s = import_cli()
    from ncwres import cli

    tracer = make_tracer(True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = traced(tracer, "cli", cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return {
        "import_s": import_s,
        "stdout": buf.getvalue(),
        "code": code,
        "trace": tracer.dump(),
    }


def main(argv: list[str]) -> dict:
    mode, rest = argv[0], argv[1:]
    trace_on = "--trace" in rest
    if mode == "setup":
        return run_setup(rest[0])
    if mode == "eh":
        return run_eh(rest[0] == "1", trace_on)
    if mode == "oracle":
        return run_oracle(int(rest[0]), float(rest[1]), trace_on)
    if mode == "cli":
        return run_cli(rest[rest.index("--") + 1:])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    hostspeed.start()
    print(json.dumps(main(sys.argv[1:])))
