"""ncwres benchmark: one workload, one closed-loop client, no threads.

    python3 perfbench/run.py --workload cli-d4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, and nothing is installed.  Workloads:

* ``cli-d4``: README commands, each a fresh process running what the
  ``ncwres`` console script runs; stdout is compared byte for byte with
  the reference, except that printed deviations are checked against the
  1e-8 oracle bound.
* ``eh-d6``: the d=6 Einstein-Hilbert residue Wres(Delta^-2) without and
  with torsion, each in a fresh process, compared exactly.
* ``oracle``: one process; certified d=4 zeros and d=2 compositions are
  evaluated on fresh seeded Fourier assignments, within 1e-8.

Operations run in rounds: every round is the same multiset of
operations in a fresh seeded order, and another round starts only while
the mean round so far still fits in ``--seconds``.  Every process that
runs an operation or a set-up also times a fixed host-speed probe while
it works (``hostspeed.py``); each operation and set-up time is reported
scaled to a reference host speed by the probes taken during it, and the
raw wall times stay in the output file.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
one untraced round and one traced round run, and it carries the
per-layer metrics of the traced round (plus the oracle's traced set-up)
and the tracing overhead.  Spans and per-operation records go to
``.perfbench_out/`` in the checkout.  Exit code 2 means the checkout
holds no ncwres sources; a program that fails to import or set up, or
gives a wrong result, is reported as ``"correct": false`` with exit
code 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

# set-up is timed in this many fresh processes and reported as the median
SETUP_RUNS = 8
# the whole run, builds excepted, must end well inside three minutes
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


class RunFailed(Exception):
    """The checkout cannot be benchmarked at all."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("NCWRES_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed hashing keeps set and dict iteration order, and with it the
    # amount of work, identical between runs
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Child:
    """Result of one child process: exit code, output, wall time, peak
    RSS, and the host-speed probes it reported."""

    code: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float
    timed_out: bool
    probes: list

    def last_json(self) -> dict | None:
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


def run_child(argv: list[str], deadline: float) -> Child:
    """Run argv to completion or until the deadline, reading both pipes
    without threads; peak RSS comes from the child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(timeout=left):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    stderr, probes = hostspeed.parse(b"".join(chunks[proc.stderr]).decode())
    return Child(
        proc.returncode,
        b"".join(chunks[proc.stdout]).decode(),
        stderr,
        wall,
        usage.ru_maxrss / 1024.0,
        timed_out,
        probes,
    )


# what the installed `ncwres` console script runs, with the host-speed
# probes started first; they write to stderr only
NCWRES = [
    sys.executable,
    "-c",
    "import sys; sys.path.append(sys.argv.pop(1)); import hostspeed; hostspeed.start(); "
    "from ncwres.cli import main; sys.exit(main())",
    str(HERE),
]


def worker(*args: str) -> list[str]:
    return [sys.executable, str(WORKER), *args]


# -- operations --------------------------------------------------------------


def op_record(name, op_s, rss_mb, reason, traced=False) -> dict:
    return {"name": name, "op_s": op_s, "rss_mb": rss_mb, "error": reason, "traced": traced}


def run_cli_op(op: dict, refs: dict, deadline: float, traced: bool = False):
    """One CLI command in a fresh process; (record, trace dump or None)."""
    if traced:
        child = run_child(worker("cli", "--", *op["argv"]), deadline)
        payload = child.last_json()
        stdout = payload["stdout"] if payload else ""
        code = payload["code"] if payload else child.code
    else:
        child = run_child([*NCWRES, *op["argv"]], deadline)
        payload, stdout, code = None, child.stdout, child.code
    if child.timed_out:
        reason = "timed out"
    elif traced and payload is None:
        reason = f"worker failed: {child.stderr.strip()[-300:]}"
    else:
        reason = workloads.check_cli(stdout, code, refs[op["name"]])
    rec = op_record(op["name"], child.wall, child.rss_mb, reason, traced)
    return hostspeed.scale(rec, child.probes), payload


def run_eh_op(op: dict, refs: dict, deadline: float, traced: bool = False):
    args = ["eh", "1" if op["torsion"] else "0"] + (["--trace"] if traced else [])
    child = run_child(worker(*args), deadline)
    payload = child.last_json()
    if child.timed_out:
        reason = "timed out"
    elif payload is None:
        reason = f"worker failed: {child.stderr.strip()[-300:]}"
    elif payload["result"] != refs[op["name"]]:
        reason = "residue differs from the reference"
    else:
        reason = None
    if payload is None:
        return op_record(op["name"], child.wall, child.rss_mb, reason, traced), None
    rec = op_record(op["name"], payload["op_s"], child.rss_mb, reason, traced)
    return hostspeed.scale(rec, child.probes, payload["t0"], payload["t1"]), payload


def paced(workload: str, seed: int, seconds: float, run_op, refs, deadline):
    """Closed loop over whole rounds; returns the records."""
    records = []
    clock = workloads.RoundClock(seconds, time.perf_counter())
    for ops in workloads.rounds(workload, seed):
        if not clock.another(time.perf_counter()):
            break
        for op in ops:
            rec, _ = run_op(op, refs, deadline)
            records.append(rec)
            if rec["error"] == "timed out":
                return records
        clock.done += 1
    return records


def traced_rounds(workload: str, seed: int, run_op, refs, deadline):
    """One untraced round, then the same operations traced."""
    (ops,) = workloads.take_rounds(workload, seed, 1)
    untraced = [run_op(op, refs, deadline)[0] for op in ops]
    traced, dumps = [], []
    for op in ops:
        rec, payload = run_op(op, refs, deadline, traced=True)
        traced.append(rec)
        if payload:
            dumps.append((op["name"], payload))
    return untraced, traced, dumps


def run_oracle(seed: int, seconds: float, refs: dict, deadline: float, trace: bool):
    args = ["oracle", str(seed), str(seconds)] + (["--trace"] if trace else [])
    child = run_child(worker(*args), deadline)
    payload = child.last_json()
    if payload is None:
        reason = "timed out" if child.timed_out else f"worker failed: {child.stderr.strip()[-300:]}"
        return [op_record("oracle", child.wall, child.rss_mb, reason)], [], None
    setup_error = None
    if not payload["certified"]:
        setup_error = "certified zeros are not zero symbolically"
    elif payload["residue"] != refs["residue"]:
        setup_error = "torsion residue differs from the reference"

    def records(results, traced):
        return [
            hostspeed.scale(
                op_record(
                    r["name"],
                    r["op_s"],
                    child.rss_mb,
                    setup_error or workloads.check_oracle(r),
                    traced,
                ),
                child.probes,
                r["t0"],
                r["t1"],
            )
            for r in results
        ]

    if trace:
        return (
            records(payload["untraced"], False),
            records(payload["ops"], True),
            [("oracle", payload)],
        )
    return records(payload["ops"], False), [], None


# -- metrics -----------------------------------------------------------------


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def typical_times(records: list[dict]) -> list[float]:
    """Each distinct operation's median time over the run's rounds."""
    by_name: dict[str, list[float]] = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r["op_s"])
    return [statistics.median(v) for v in by_name.values()]


def end_to_end(setup: list[float], records: list[dict]) -> dict:
    """The closed loop's metrics.  Every round runs the same operations,
    whose costs differ up to a hundredfold, so the percentiles are taken
    over the operations, each at its median time in the run.  A
    percentile of the single calls would fall, wherever one operation's
    calls end and the next one's begin, on the slowest or fastest call
    of one operation.  ops_per_s is operations per second of a round at
    those times."""
    times = typical_times(records)
    failed = sum(1 for r in records if r["error"])
    values = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "pass_frac": (len(records) - failed) / len(records),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def load_layers() -> dict:
    with open(HERE / "layers.json") as fh:
        return json.load(fh)["metrics"]


def _span_sums(spans: list[list]) -> tuple[float, float]:
    """(parametrix_terms seconds, seconds of its defect composition)."""
    total = defect = 0.0
    for name, _, start, end, parent, _ in spans:
        if name == "parametrix.parametrix_terms":
            total += end - start
        elif (
            name == "symcalc.symbol_product"
            and parent >= 0
            and spans[parent][0] == "parametrix.parametrix_terms"
        ):
            defect += end - start
    return total, defect


def per_layer(dumps, imports: list[float], untraced, traced) -> tuple[dict, list]:
    counters: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    absent: set[str] = set()
    recursion = defect = 0.0
    for _, payload in dumps:
        tr = payload["trace"]
        for k, v in tr["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in tr["layer_self"].items():
            layer_self[k] = layer_self.get(k, 0.0) + v
        absent.update(tr["absent"])
        total, dfs = _span_sums(tr["spans"])
        recursion += total - dfs
        defect += dfs
    tried = counters.get("symcalc.pointwise_mul.pairs_tried", 0)
    derived = {
        "cli.import_s": statistics.median(imports),
        "parametrix.recursion_s": recursion,
        "parametrix.defect_s": defect,
        "symcalc.pointwise_mul.kept_ratio": (
            counters.get("symcalc.pointwise_mul.pairs_kept", 0) / tried if tried else 0.0
        ),
        "tracing.overhead": statistics.median(r["op_s"] for r in traced)
        / statistics.median(r["op_s"] for r in untraced),
    }
    metrics = {}
    for name, spec in load_layers().items():
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_s"):
            value = layer_self.get(name[: -len(".self_s")], 0.0)
        else:
            value = counters.get(name, 0)
        if spec["unit"] == "s":
            value = float(value)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics, sorted(absent)


# -- environment -------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# -- entry point -------------------------------------------------------------


def set_up(workload: str, deadline: float, count: int) -> tuple[list[dict], dict | None]:
    """Timed set-up samples, host-scaled, and the record of the first one
    that failed."""
    samples = []
    for _ in range(count):
        child = run_child(worker("setup", workload), deadline)
        payload = child.last_json()
        if payload is None or not payload["certified"]:
            error = f"set-up failed: {child.stderr.strip()[-500:]}"
            return samples, op_record("setup", child.wall, child.rss_mb, error)
        samples.append(
            hostspeed.scale(payload, child.probes, payload["t0"], payload["t1"], "setup_s")
        )
    return samples, None


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(final result line, full record for the output file)."""
    deadline = time.perf_counter() + BUDGET_S
    if not (ROOT / "src" / "ncwres" / "cli.py").is_file():
        raise RunFailed(f"no ncwres sources under {ROOT / 'src'}")
    with open(HERE / "reference.json") as fh:
        refs = json.load(fh)[workload]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    # the first import also writes the bytecode cache, so it is not timed
    run_child([sys.executable, "-c", "import ncwres.cli"], deadline)
    # half the set-up samples before the operations and half after, so
    # their median spans the run rather than its first seconds
    setups, broken = set_up(workload, deadline, SETUP_RUNS // 2)
    if broken:
        # a program that cannot even set up gives a failed result, not a failed run
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        record.update(env={}, result=result, absent=[], operations=[broken])
        return result, record
    record["env"] = {
        "python": setups[0]["python"],
        "numpy": setups[0]["numpy"],
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(),
    }

    run_op = {"cli-d4": run_cli_op, "eh-d6": run_eh_op}.get(workload)
    if workload == "oracle":
        untraced, traced, dumps = run_oracle(seed, seconds, refs, deadline, trace)
    elif trace:
        untraced, traced, dumps = traced_rounds(workload, seed, run_op, refs, deadline)
    else:
        untraced = paced(workload, seed, seconds, run_op, refs, deadline)
        traced, dumps = [], []

    later, broken = set_up(workload, deadline, SETUP_RUNS - SETUP_RUNS // 2)
    setups += later
    record["setup_s_samples"] = [s["setup_s"] for s in setups]
    record["setup_raw_s_samples"] = [s["raw_setup_s"] for s in setups]
    records = untraced + traced + ([broken] if broken else [])
    failed = sum(1 for r in records if r["error"])
    metrics, absent = {}, []
    if not trace:
        metrics = end_to_end([s["setup_s"] for s in setups], untraced)
    elif traced and untraced:
        imports = [s["import_s"] for s in setups] + [p["import_s"] for _, p in dumps]
        metrics, absent = per_layer(dumps, imports, untraced, traced)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    record.update(result=result, absent=absent, operations=records)
    if dumps:
        record["spans"] = {name: p["trace"]["spans"] for name, p in dumps}
    return result, record


def summary(result: dict, record: dict) -> str:
    ops = record["operations"]
    fail_frac = result["failed"] / result["attempted"]
    parts = [
        f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}",
        f"samples={len(ops)}",
        f"operations={len({r['name'] for r in ops})}",
        f"fail_frac={fail_frac:.4f}",
    ]
    shown = ["tracing.overhead"] if record["trace"] else list(result["metrics"])
    probes = [r["probe_s"] for r in ops if r.get("probe_s")]
    if probes and not record["trace"]:
        raw = statistics.median(r["raw_op_s"] for r in ops if "raw_op_s" in r)
        parts.append(f"raw_op_s_p50={raw:.6g}s probe_s={statistics.median(probes):.6g}s")
    for name in shown:
        m = result["metrics"].get(name)
        if m:
            parts.append(f"{name}={m['value']:.6g}{m['unit']}")
    if record["absent"]:
        parts.append(f"absent={','.join(record['absent'])}")
    return " ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh)
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for rec in record["operations"]:
        if rec["error"]:
            print(f"# FAIL {rec['name']}: {rec['error']}")
    print("# " + summary(result, record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
