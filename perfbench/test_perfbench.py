"""Checks of the benchmark itself: seeded generation, the correctness
gate, the tracer, host-speed scaling, and the metric tables.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

REFS = json.loads((run.HERE / "reference.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_generation(workload):
    same = workloads.take_rounds(workload, 7, 4)
    assert same == workloads.take_rounds(workload, 7, 4)
    assert same != workloads.take_rounds(workload, 8, 4)
    base = sorted(json.dumps(op, sort_keys=True) for op in workloads.base_ops(workload))
    for ops in same:
        assert sorted(json.dumps(op, sort_keys=True) for op in ops) == base


def _cli_op(name, *extra):
    argv = dict(workloads.CLI_COMMANDS)[name]
    return {"name": name, "argv": list(argv) + list(extra)}


def test_injected_sphere_fault_counts_as_failure():
    deadline = time.perf_counter() + 120
    refs = REFS["cli-d4"]
    good, _ = run.run_cli_op(_cli_op("verify-0"), refs, deadline)
    bad, _ = run.run_cli_op(_cli_op("verify-0", "--inject-sphere-fault"), refs, deadline)
    assert good["error"] is None
    assert bad["error"] is not None
    metrics = run.end_to_end([0.1], [good, bad])
    assert metrics["pass_frac"]["value"] == 0.5


def test_corrupted_reference_counts_as_failure():
    deadline = time.perf_counter() + 120
    refs = {"wres-p2": dict(REFS["cli-d4"]["wres-p2"])}
    refs["wres-p2"]["masked"] = refs["wres-p2"]["masked"].replace("2*pi^2", "3*pi^2")
    rec, _ = run.run_cli_op(_cli_op("wres-p2"), refs, deadline)
    assert rec["error"] == "stdout differs from the reference"


def test_printed_deviation_is_bounded_not_compared():
    ref = {"code": 0, "masked": "PASS x: worst deviation <float>\n"}
    assert workloads.check_cli("PASS x: worst deviation 4.378e-13\n", 0, ref) is None
    assert workloads.check_cli("PASS x: worst deviation 1.000e-05\n", 0, ref) is not None
    assert workloads.check_cli("PASS x: worst deviation 4.378e-13\n", 3, ref) is not None


def test_tracer_rebinds_imports_and_reports_absent_targets():
    from ncwres import ncalg, parametrix, symcalc, trace

    original = symcalc.symbol_product
    extra = (
        ("ncwres.symcalc:no_such_function", "symcalc.gone", "symcalc", tracer.SPAN, None),
        ("ncwres.no_such_module:f", "gone.f", "gone", tracer.SPAN, None),
        ("ncwres.symcalc:Symbol.no_such_method", "symcalc.gone2", "symcalc", tracer.TIMED, None),
    )
    tr = tracer.Tracer(tracer.TARGETS + extra).install()
    try:
        assert parametrix.symbol_product is symcalc.symbol_product is not original
        assert trace.normalize_word is ncalg.normalize_word
        spec = parametrix.OperatorSpec(d=4)
        parametrix.parametrix_terms(parametrix.laplace_symbol(spec), 2)
    finally:
        tr.uninstall()
    assert parametrix.symbol_product is original
    assert sorted(tr.absent) == sorted(t[0] for t in extra)
    assert tr.counters["symcalc.symbol_product.calls"] == 1
    assert tr.counters["ncalg.normalize_word.calls"] > 0
    total, defect = run._span_sums(tr.spans)
    assert 0 < defect < total


def test_host_scaling_keeps_the_raw_time():
    probes = [(0.0, 0.002), (1.0, 0.004), (5.0, 0.1)]
    rec = hostspeed.scale({"op_s": 2.0}, probes, 0.0, 1.0)
    assert rec["raw_op_s"] == 2.0
    assert rec["probe_s"] == pytest.approx(0.003)
    assert rec["op_s"] == pytest.approx(2.0 * hostspeed.PROBE_REF_S / 0.003)
    # an operation between two probes takes the nearest one
    assert hostspeed.probe_s(probes, 2.0, 2.1) == 0.004
    assert hostspeed.scale({"op_s": 2.0}, [])["op_s"] == 2.0


def test_child_reports_probes_during_its_run():
    child = run.run_child(
        [sys.executable, "-c", "import sys, time; sys.path.append(sys.argv[1]); import hostspeed; "
         "hostspeed.start(); time.sleep(0.3)", str(run.HERE)],
        time.perf_counter() + 60,
    )
    assert child.code == 0
    assert child.stderr == ""
    # one at start, one at exit, and about one per interval between
    assert len(child.probes) >= 4
    t = [t for t, _ in child.probes]
    assert t == sorted(t) and t[-1] - t[0] >= 0.3


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {name: m["unit"] for name, m in run.load_layers().items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-d4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
