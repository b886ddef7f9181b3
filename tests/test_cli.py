"""Command line contract: pinned renderings, exit codes, determinism."""

import hashlib
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


def test_wres_d6_matches_the_kalau_walze_form(capsys):
    code, out, _ = run(
        capsys, "wres", "--d", "6", "--power", "2", "--mode", "commutative", "--no-torsion"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("-20/3*pi^3 * ( ") and "t[h^2.d1(h)^2]" in lines[0]
    assert lines[1] == "classical scalar-curvature form: match"


@pytest.mark.parametrize(
    "flags",
    [
        ("--no-torsion", "--include-x"),
        ("--flat",),
        ("--power", "2", "--no-torsion"),
    ],
    ids=["potential", "flat", "volume-power"],
)
def test_classical_verdict_only_for_the_plain_operator(capsys, flags):
    # the classical form is the plain conformal Laplacian's at p = d/2 - 1
    argv = ("wres", "--mode", "commutative") + flags
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "classical" not in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert "classical_match" not in json.loads(out)


@pytest.mark.parametrize("d, power", [("4", "1"), ("6", "2")])
def test_classical_verdict_in_json(capsys, d, power):
    argv = ("wres", "--d", d, "--power", power, "--mode", "commutative", "--no-torsion")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["classical_match"] is True


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


def test_parametrix_text_is_pinned(capsys):
    code, out, _ = run(capsys, "parametrix", "--d", "4", "--order", "2")
    assert code == 0
    lines = out.splitlines()
    # both coefficient forms of format_symbol: a lone word and a bracketed sum
    assert len(lines) == 20 and sum(line.startswith("( ") for line in lines) == 15
    assert lines[1] == "h^2 * |xi|^-2"
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "e4328df6359c45e18bca7acbb158255c780579f057d41e82b7bc1f94684f59d9"


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


def test_verify_runs_one_recursion(capsys, monkeypatch):
    from ncwres import parametrix

    depths = []
    series = parametrix.parametrix_series

    def counted(a, n, side="left"):
        depths.append(n)
        return series(a, n, side)

    monkeypatch.setattr(parametrix, "parametrix_series", counted)
    code, out, _ = run(capsys, "verify", "--d", "2", "--format", "json")
    assert code == 0
    # one run serves the defect and the b1/b2 closed forms
    assert depths == [2]
    (defect,) = [c for c in json.loads(out)["checks"] if c["name"] == "composition-defect"]
    assert defect["detail"].startswith("b0..b2 ")


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
    for env in ("abc", "-3"):
        monkeypatch.setenv("NCWRES_SEED", env)
        for argv in (["oracle-check", "--d", "2"], ["verify", "--d", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("ncwres: ") and captured.err.count("\n") == 1


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
    for argv in (["verify", "--d", "4", "--seed", "-1"], ["oracle-check", "--seed", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ncwres: --seed must be a nonnegative integer, not '-1'\n"


@pytest.mark.parametrize(
    "argv",
    [["wres", "--d", "4"], ["parametrix", "--d", "4"], ["verify", "--d", "2"], ["oracle-check"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "seed, env",
    [
        ("-5", None),
        ("abc", None),
        (None, "abc"),
        (None, "-3"),
        # forms int() would take: ASCII digits only are a seed
        ("1_0", None),
        ("+4", None),
        ("\u0663", None),
        (None, " 7 "),
        (None, "1_0"),
        # digits beyond Python's limit on integer strings
        pytest.param("9" * 5000, None, id="5000-nines"),
        pytest.param(None, "1" * 4301, id="env-4301-ones"),
    ],
)
def test_every_subcommand_checks_its_seed(capsys, monkeypatch, argv, seed, env):
    # the same contract whether or not the subcommand draws from the seed
    monkeypatch.delenv("NCWRES_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("NCWRES_SEED", env)
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--seed", seed] if seed is not None else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name, raw = ("--seed", seed) if seed is not None else ("NCWRES_SEED", env)
    if len(raw) <= sys.get_int_max_str_digits():
        assert captured.err == f"ncwres: {name} must be a nonnegative integer, not {raw!r}\n"
        return
    # a seed int() cannot read is named by its digit count, not echoed
    limit = sys.get_int_max_str_digits()
    want = f"ncwres: {name} has {len(raw)} digits, more than the {limit} Python reads\n"
    assert captured.err == want
    assert len(captured.err) < 200


@pytest.mark.parametrize(
    "argv",
    [["verify", "--d", "2", "--format", "json"], ["wres", "--d", "4"]],
    ids=["verify-json", "wres"],
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # the reading end is closed before the child starts, so its output
    # fails whenever it is written: inside print for the large verify
    # report, at the final flush for the short wres line
    src = str(Path(ncwres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncwres.cli", *argv],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


@pytest.mark.parametrize(
    "module, name, argv",
    [
        ("ncwres.cli", "wres_inverse_power", ["wres", "--d", "8", "--power", "2"]),
        ("ncwres.cli", "parametrix_terms", ["parametrix", "--d", "8", "--order", "6"]),
        ("ncwres.verify", "run_verification", ["verify", "--d", "8"]),
        ("ncwres.verify", "oracle_battery", ["oracle-check", "--d", "2"]),
    ],
    ids=["wres", "parametrix", "verify", "oracle-check"],
)
def test_memory_exhaustion_exits_two_with_one_line(capsys, monkeypatch, module, name, argv):
    # a request too large for the machine ends in MemoryError somewhere
    # inside its handler; the handler's entry point stands in for that place
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"{module}.{name}", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ncwres: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> list[tuple[str, str]]:
    """Every ``$ ncwres ...`` example of the README shown in full, as
    (command, expected stdout).

    An example whose output elides lines with ``...``, or prints an
    oracle deviation (which varies at rounding level between hosts, see
    ``test_text_report_is_pinned``), is not shown in full.
    """
    examples = []
    blocks = re.findall(r"^```\n(.*?)^```$", README.read_text(), re.M | re.S)
    for block in blocks:
        for chunk in re.split(r"^(?=\$ ncwres )", block, flags=re.M):
            if not chunk.startswith("$ ncwres "):
                continue
            command, _, output = chunk.partition("\n")
            output = output.rstrip("\n") + "\n"
            if "..." not in output and not FLOAT.search(output):
                examples.append((command[2:], output))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_shows_examples_in_full():
    assert len(README_EXAMPLES) >= 3


@pytest.mark.parametrize("command, want", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, monkeypatch, command, want):
    monkeypatch.delenv("NCWRES_SEED", raising=False)
    code, out, _ = run(capsys, *command.split()[1:])
    assert code == 0
    assert out == want


def test_spec_file_configures_operator(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"d": 4, "include_t": False, "include_x": False}))
    code, out, _ = run(capsys, "wres", "--spec", str(path), "--power", "2")
    assert code == 0
    assert out == "2*pi^2 * t[h^4]\n"
    bad = tmp_path / "bad.json"
    for data in ({"d": 5}, {"d": 4.0}, {"d": True}, {"d": 4, "include_t": "no"}):
        bad.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["wres", "--spec", str(bad)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("ncwres: ") and err.count("\n") == 1


ASSIGNMENT = "<assignment file>"


def _edited_assignment(edit) -> str:
    obj = assignment_to_json(random_assignment(2, 11))
    edit(obj)
    return json.dumps(obj)


def _skew_theta(obj):
    obj["theta"][0][1] = obj["theta"][1][0] = 0.3


def _wide_h(obj):
    obj["atoms"]["h"]["coeffs"].append({"index": [1, 1], "re": 5.0, "im": 0.0})


def _set_t1_index(obj, index):
    obj["atoms"]["T1"]["coeffs"][0]["index"] = index


def _set_t1_part(obj, part, value):
    obj["atoms"]["T1"]["coeffs"][0][part] = value


def _wide_t1(obj):
    # each mode fits int64, but h * T1 spans more than the linear index
    for sign in (1, -1):
        index = [sign * 2**30, sign * 2**30]
        obj["atoms"]["T1"]["coeffs"].append({"index": index, "re": 0.001, "im": 0.0})


def _repeat_t1_index(obj):
    obj["atoms"]["T1"]["coeffs"].append(dict(obj["atoms"]["T1"]["coeffs"][0], re=0.5))


@pytest.mark.parametrize(
    "argv, content",
    [
        pytest.param(["verify", "--d", "3"], None, id="verify-d3"),
        pytest.param(["verify", "--d", "0"], None, id="verify-d0"),
        pytest.param(["oracle-check", "--d", "0"], None, id="oracle-d0"),
        pytest.param(["oracle-check", "--d", "1"], None, id="oracle-d1"),
        # the product modes of h^-1 overflow the int64 linear index
        pytest.param(["oracle-check", "--d", "12"], None, id="oracle-d12"),
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
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj.update(tol=-1e-10)),
            id="assignment-negative-tol",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj.update(tol=0.0)),
            id="assignment-zero-tol",
        ),
        # below float64 epsilon h h^-1 cannot meet its certified tail
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj.update(tol=1e-30)),
            id="assignment-tol-below-epsilon",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj.update(tol=1e-300)),
            id="assignment-tol-far-below-epsilon",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: _set_t1_index(obj, [1, 0, 0])),
            id="assignment-index-wrong-length",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: _set_t1_index(obj, [1.5, 0])),
            id="assignment-index-not-int",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: _set_t1_index(obj, [2**70, 0])),
            id="assignment-index-outside-int64",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(_wide_t1),
            id="assignment-modes-beyond-linear-index",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(_repeat_t1_index),
            id="assignment-repeated-index",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj.update(atoms=list(obj["atoms"]))),
            id="assignment-atoms-list",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj["atoms"].update(T3=obj["atoms"]["T1"])),
            id="assignment-extra-atom",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: _set_t1_part(obj, "re", float("nan"))),
            id="assignment-coefficient-nan",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: _set_t1_part(obj, "re", True)),
            id="assignment-coefficient-bool",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj.update(theta=[[0, True], [False, 0]])),
            id="assignment-theta-bool",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj.update(theta="x")),
            id="assignment-theta-string",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj.update(theta=[0.0, 1.0])),
            id="assignment-theta-flat-list",
        ),
        pytest.param(
            ["oracle-check", "--oracle-assignment", ASSIGNMENT],
            _edited_assignment(lambda obj: obj["atoms"]["T1"].update(coeffs={})),
            id="assignment-coeffs-not-list",
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


@pytest.mark.parametrize("d", [-3, 0, 1, 12])
def test_oracle_check_names_a_bad_seeded_dimension(capsys, d):
    # the seeded assignment is drawn from --d, so --d is what is wrong
    code, out, err = run(capsys, "oracle-check", "--d", str(d), "--seed", "0")
    assert code == 2
    assert out == ""
    assert err.startswith(f"ncwres: invalid --d {d}: ")
    assert err.count("\n") == 1


def test_oracle_check_blames_a_bad_assignment_file(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, "oracle-check", "--d", "12", "--oracle-assignment", missing)
    assert code == 2
    assert err.startswith("ncwres: invalid oracle assignment: ")


def test_start_up_imports_only_what_the_command_needs():
    src = str(Path(ncwres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "import ncwres.cli\n"
        "ncwres.cli.main(sys.argv[1:])\n"
        "print(sorted(m for m in ('dataclasses', 'ncwres.serialize', 'numpy')"
        " if m in sys.modules))\n"
    )
    for argv, loaded in (
        (["wres", "--d", "4"], "[]"),
        (["wres", "--d", "4", "--format", "json"], "['ncwres.serialize']"),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == loaded


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
