"""Command line contract: pinned renderings, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ncwres
from ncwres.cli import main
from ncwres.randgen import random_assignment
from ncwres.serialize import assignment_to_json, trace_expression_from_json
from ncwres.trace import format_trace_expression


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wres_squared_inverse_rendering(capsys):
    code, out, _ = run(capsys, "wres", "--d", "4", "--power", "2")
    assert code == 0
    assert out == "2*pi^2 * t[h^4]\n"


def test_wres_flat_is_zero(capsys):
    code, out, _ = run(capsys, "wres", "--d", "4", "--power", "1", "--flat")
    assert code == 0
    assert out == "0\n"


def test_wres_commutative_matches_classical(capsys):
    code, out, _ = run(
        capsys, "wres", "--power", "1", "--mode", "commutative", "--no-torsion"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "d1(h)^2" in lines[0] and lines[0].startswith("-2*pi^2")
    assert lines[1] == "classical scalar-curvature form: match"


def test_wres_json_round_trips(capsys):
    code, out, _ = run(capsys, "wres", "--d", "4", "--power", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    e = trace_expression_from_json(payload["expression"], 4)
    assert format_trace_expression(e) == payload["rendering"] == "2*pi^2 * t[h^4]"


def test_parametrix_flat_collapses(capsys):
    code, out, _ = run(capsys, "parametrix", "--order", "2", "--flat")
    assert code == 0
    assert "|xi|^-2" in out
    assert "# defect degrees: none" in out


def test_parametrix_json_shape(capsys):
    code, out, _ = run(
        capsys, "parametrix", "--order", "2", "--no-torsion", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 3
    assert payload["defect"] == {"components": {}}


def test_verify_passes_and_is_deterministic(capsys):
    code1, out1, err1 = run(capsys, "verify", "--format", "json", "--seed", "3")
    code2, out2, _ = run(capsys, "verify", "--format", "json", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    assert report["seed"] == 3
    # timing goes to stderr only, never into the JSON
    assert "took" in err1
    assert "took" not in out1


def test_verify_detects_injected_fault(capsys):
    code, out, _ = run(capsys, "verify", "--inject-sphere-fault")
    assert code == 3
    assert "FAIL sphere-moment-partition" in out


def test_verify_reports_minimality(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "residue-minimal with torsion: no" in out


def test_oracle_check_seeded(capsys):
    code, out, _ = run(capsys, "oracle-check", "--seed", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} == {
        "neumann-inverse",
        "reduced-identities",
        "symbol-product",
    }


FLOAT = re.compile(r"\d\.\d{3}e[+-]\d{2}")

VERIFY_REPORT = """\
PASS sphere-moment-partition: splitting |xi|^2 = sum xi_a^2 preserves every moment
PASS derivative-dichotomy: sphere integral of a gradient vanishes exactly at homogeneity 1-d
PASS composition-defect: b0..b2 cancel the symbol product to the computed depth
PASS closed-form-vs-recursion: first and second correction terms match their closed forms
PASS residue-trace-property: 5 probes, 4 nontrivial, all symmetric
PASS squared-inverse-residue: residue of the squared inverse is 2*pi^2 * t[h^4]
PASS oracle-zero-certification: worst deviation # across 3 reduced identities
PASS oracle-worked-example: one-mode conformal factor: t(h^2) and t(dh.h) come out exact
residue-minimal with torsion: no
passed
"""

ORACLE_REPORT = """\
PASS neumann-inverse: |h h^-1 - 1| = #, certified tail #
PASS reduced-identities: worst deviation # across 4 identities
PASS symbol-product: symbolic composition vs direct gamma sum differ by #
passed
"""


@pytest.mark.parametrize(
    "argv, want",
    [
        (("verify", "--d", "4", "--seed", "0"), VERIFY_REPORT),
        (("oracle-check", "--d", "3", "--seed", "0"), ORACLE_REPORT),
    ],
    ids=["verify", "oracle-check"],
)
def test_text_report_is_pinned(capsys, argv, want):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # the printed deviations vary at rounding level; each must stay tiny
    assert all(float(x) < 1e-8 for x in FLOAT.findall(out))
    assert FLOAT.sub("#", out) == want


def test_oracle_check_json_key_order(capsys):
    _, out, _ = run(capsys, "oracle-check", "--d", "3", "--seed", "0", "--format", "json")
    report = json.loads(out)
    assert list(report) == ["seed", "d", "checks", "passed"]
    assert [list(c) for c in report["checks"]] == [["name", "passed", "detail"]] * 3


def test_oracle_check_from_file(capsys, tmp_path):
    asg = random_assignment(2, 11, theta_mode="rational")
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps(assignment_to_json(asg)))
    code, out, _ = run(capsys, "oracle-check", "--oracle-assignment", str(path))
    assert code == 0
    assert out.strip().endswith("passed")


def test_env_seed_default_and_override(capsys, monkeypatch):
    monkeypatch.setenv("NCWRES_SEED", "9")
    _, out, _ = run(capsys, "oracle-check", "--format", "json")
    assert json.loads(out)["seed"] == 9
    _, out, _ = run(capsys, "oracle-check", "--format", "json", "--seed", "4")
    assert json.loads(out)["seed"] == 4


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wres", "--power", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["wres", "--d", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert main(["parametrix", "--order", "-1"]) == 2
    capsys.readouterr()


def test_spec_file_configures_operator(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"d": 4, "include_t": False, "include_x": False}))
    code, out, _ = run(capsys, "wres", "--spec", str(path), "--power", "2")
    assert code == 0
    assert out == "2*pi^2 * t[h^4]\n"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 5}))
    with pytest.raises(SystemExit) as exc:
        main(["wres", "--spec", str(bad)])
    assert exc.value.code == 2
    capsys.readouterr()


ASSIGNMENT = "<assignment file>"


def _edited_assignment(edit) -> str:
    obj = assignment_to_json(random_assignment(2, 11))
    edit(obj)
    return json.dumps(obj)


def _skew_theta(obj):
    obj["theta"][0][1] = obj["theta"][1][0] = 0.3


def _wide_h(obj):
    obj["atoms"]["h"]["coeffs"].append({"index": [1, 1], "re": 5.0, "im": 0.0})


@pytest.mark.parametrize(
    "argv, content",
    [
        pytest.param(["verify", "--d", "3"], None, id="verify-d3"),
        pytest.param(["verify", "--d", "0"], None, id="verify-d0"),
        pytest.param(["oracle-check", "--d", "0"], None, id="oracle-d0"),
        pytest.param(["oracle-check", "--d", "1"], None, id="oracle-d1"),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            None,
            id="assignment-missing-file",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            "{",
            id="assignment-bad-json",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj.pop("theta")),
            id="assignment-missing-key",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj["atoms"].pop("T2")),
            id="assignment-missing-atom",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(_skew_theta),
            id="assignment-skew-theta",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(_wide_h),
            id="assignment-outside-neumann-radius",
        ),
    ],
)
def test_bad_input_exits_two_with_one_line(capsys, tmp_path, argv, content):
    path = tmp_path / "assignment.json"
    if content is not None:
        path.write_text(content)
    argv = [str(path) if arg == ASSIGNMENT else arg for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ncwres: ")
    assert captured.err.count("\n") == 1


def test_symbolic_path_does_not_import_numpy():
    src = str(Path(ncwres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "import ncwres.cli\n"
        "ncwres.cli.main(['wres', '--d', '4'])\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
