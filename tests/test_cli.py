"""Command-line contract: reports, exit codes, byte determinism.

Reports are asserted structurally (parsed back from the emitted JSON) and
byte-wise (two runs of the same command must emit identical bytes).  The
subprocess smoke tests at the bottom check that each way of starting the
program emits the same bytes and exit code as the in-process ``run``:
``python -m deforma``; the ``deforma`` console script declared in
``pyproject.toml``, loaded the way an installer's launcher loads it
(``test_console_script_installed``, needs no install); and a ``deforma``
script found on PATH, when one is installed
(``test_console_script_on_path_matches_in_process``).
"""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from deforma.catalog import (
    abelian,
    heisenberg3,
    heisenberg_cochain,
    obstructed_cochain,
    sl2,
)
from deforma.cli import run
from deforma.io_formats import (
    parse_algebra_text,
    parse_cochain_text,
    render_algebra,
    render_cochain,
)
import deforma
from deforma import Cochain, Vector


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def report_of(stdout_text):
    assert stdout_text.endswith("\n") and stdout_text.count("\n") == 1
    return json.loads(stdout_text)


@pytest.fixture
def files(tmp_path, monkeypatch):
    """All input files the examples need, in one temp directory."""
    monkeypatch.delenv("DEFORMA_TRUNCATION", raising=False)

    def put(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    broken = (
        '{"brackets":{"1,2":["0","0","1"],"1,3":["1","0","0"]},'
        '"dim":3,"name":"broken"}\n'
    )
    return {
        "h3": put("h3.json", render_algebra(heisenberg3())),
        "sl2": put("sl2.json", render_algebra(sl2())),
        "ab2": put("ab2.json", render_algebra(abelian(2))),
        "ab3": put("ab3.json", render_algebra(abelian(3))),
        "broken": put("broken.json", broken),
        "bad_rational": put(
            "bad_rational.json",
            '{"brackets":{"1,2":["0","0","1/0"]},"dim":3,"name":"bad"}\n',
        ),
        "bad_json": put("bad_json.json", '{"dim": 3,\n'),
        "extra_field": put(
            "extra_field.json",
            '{"brackets":{},"dim":2,"name":"x","note":"hi"}\n',
        ),
        "heis_cochain": put("heis_cochain.json", render_cochain(heisenberg_cochain())),
        "obstructed": put("obstructed.json", render_cochain(obstructed_cochain())),
        "zero_cochain": put("zero_cochain.json", render_cochain(Cochain.zero(3, 2))),
        "non_cocycle": put(
            "non_cocycle.json",
            render_cochain(Cochain(3, 2, {(0, 2): Vector((1, 0, 0))})),
        ),
        "degree3_cochain": put(
            "degree3.json",
            render_cochain(Cochain(3, 3, {(0, 1, 2): Vector((0, 0, 1))})),
        ),
    }


# ------------------------------------------------------------------ validate


def test_validate_heisenberg(files):
    code, out, err = invoke(["validate", files["h3"]])
    assert code == 0 and err == ""
    report = report_of(out)
    assert report["status"] == "ok"
    assert report["exit_code"] == 0
    assert report["result"]["name"] == "heisenberg3"
    assert report["result"]["dim"] == 3
    assert report["result"]["antisymmetry"] == "structural"
    assert report["result"]["jacobi_violations"] == []
    assert report["inputs"]["algebra"]["path"] == files["h3"]
    assert len(report["inputs"]["algebra"]["sha256"]) == 64


def test_validate_broken_table(files):
    code, out, err = invoke(["validate", files["broken"]])
    assert code == 1
    report = report_of(out)
    assert report["status"] == "failed"
    assert report["result"]["jacobi_violations"] == [
        {"triple": [1, 2, 3], "value": "[0,0,-1]"}
    ]
    assert "jacobi identity fails at 1 basis triple(s)" in err


def test_validate_zero_denominator(files):
    code, out, err = invoke(["validate", files["bad_rational"]])
    assert code == 2
    assert out == ""
    assert "zero denominator" in err and "1,2" in err


def test_malformed_json_reports_position(files):
    code, out, err = invoke(["validate", files["bad_json"]])
    assert code == 2 and out == ""
    assert "line" in err and "column" in err


def test_unknown_field_rejected(files):
    code, out, err = invoke(["validate", files["extra_field"]])
    assert code == 2
    assert "unknown field" in err and "note" in err


def test_missing_file(files, tmp_path):
    code, out, err = invoke(["validate", str(tmp_path / "nope.json")])
    assert code == 2 and out == ""
    assert "cannot read" in err


#: Each of these once ended in a traceback or was accepted with exit 0.
MALFORMED_INPUTS = {
    "denominator-00": '{"brackets":{"1,2":["0","0","1/00"]},"dim":3,"name":"x"}',
    "5000-digit-numerator": '{"brackets":{"1,2":["0","0","%s"]},"dim":3,"name":"x"}' % ("7" * 5000),
    "5000-digit-index": '{"brackets":{"1,%s":["0","0","1"]},"dim":3,"name":"x"}' % ("2" * 5000),
    "5000-digit-dim": '{"brackets":{},"dim":%s,"name":"x"}' % ("3" * 5000),
    "deep-nesting": "[" * 100000,
    "newline-after-rational": '{"brackets":{"1,2":["0","0","1\\n"]},"dim":3,"name":"x"}',
    "non-ascii-digit": '{"brackets":{"1,2":["0","0","\u0662"]},"dim":3,"name":"x"}',
    "duplicate-key": '{"brackets":{"1,2":["0","0","1"],"1,2":["0","0","2"]},"dim":3,"name":"x"}',
}


@pytest.mark.parametrize("text", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exits_2_with_one_line(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    env = package_env()
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # keep CPython's default digit cap
    proc = subprocess.run(
        [sys.executable, "-m", "deforma", "validate", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1, proc.stderr


# ---------------------------------------------------------------- cohomology


def test_cohomology_sl2_rigid(files):
    code, out, err = invoke(["cohomology", files["sl2"], "--degree", "2"])
    assert code == 0
    result = report_of(out)["result"]
    assert result["degree"] == 2
    assert (result["dim_cocycles"], result["dim_coboundaries"], result["dim_h"]) == (
        6,
        6,
        0,
    )
    assert result["representatives"] == []


def test_cohomology_abelian2_default_degree(files):
    code, out, _ = invoke(["cohomology", files["ab2"]])
    assert code == 0
    result = report_of(out)["result"]
    assert result["degree"] == 2
    assert result["dim_h"] == 2
    assert len(result["representatives"]) == 2
    for rep in result["representatives"]:
        assert rep["degree"] == 2
        assert set(rep["entries"]) <= {"1,2"}


def test_cohomology_heisenberg_frozen(files):
    code, out, _ = invoke(["cohomology", files["h3"], "--degree", "2"])
    assert code == 0
    result = report_of(out)["result"]
    assert (result["dim_cocycles"], result["dim_coboundaries"], result["dim_h"]) == (
        8,
        3,
        5,
    )


def test_cohomology_rejects_degree_four(files):
    code, out, err = invoke(["cohomology", files["h3"], "--degree", "4"])
    assert code == 2
    assert out == ""


def test_cohomology_on_invalid_algebra(files):
    code, out, err = invoke(["cohomology", files["broken"]])
    assert code == 1
    result = report_of(out)["result"]
    assert result["error"] == "algebra fails the Jacobi identity"
    assert result["violations"][0]["triple"] == [1, 2, 3]


# -------------------------------------------------------------------- deform


def test_deform_heisenberg_direction_full_run(files):
    code, out, err = invoke(
        ["deform", files["ab3"], "--alpha1", files["heis_cochain"], "--max-order", "5"]
    )
    assert code == 0 and err == ""
    result = report_of(out)["result"]
    assert result["max_order"] == 5
    assert result["order_reached"] == 5
    assert result["obstructed_at"] is None
    assert result["obstruction_class"] is None
    assert [o["order"] for o in result["orders"]] == [2, 3, 4, 5]
    for o in result["orders"]:
        assert o["status"] == "solved"
        assert o["witness"] == {"degree": 2, "entries": {}}


def test_deform_obstructed_is_a_finding_not_a_failure(files):
    code, out, err = invoke(
        ["deform", files["ab3"], "--alpha1", files["obstructed"], "--max-order", "5"]
    )
    assert code == 0 and err == ""
    result = report_of(out)["result"]
    assert result["order_reached"] == 1
    assert result["obstructed_at"] == 2
    assert result["obstruction_class"] == ["0", "0", "1"]
    assert result["orders"] == [{"order": 2, "status": "obstructed"}]


def test_deform_require_order_flips_to_failure(files):
    code, out, err = invoke(
        [
            "deform",
            files["ab3"],
            "--alpha1",
            files["obstructed"],
            "--require-order",
        ]
    )
    assert code == 1
    assert "obstructed at order 2" in err
    assert report_of(out)["result"]["obstructed_at"] == 2
    assert report_of(out)["status"] == "failed"


def test_deform_sl2_zero_direction(files):
    code, out, _ = invoke(["deform", files["sl2"], "--alpha1", files["zero_cochain"]])
    assert code == 0
    result = report_of(out)["result"]
    assert result["order_reached"] == 5
    assert result["obstructed_at"] is None


def test_deform_non_cocycle(files):
    code, out, err = invoke(
        ["deform", files["h3"], "--alpha1", files["non_cocycle"]]
    )
    assert code == 1
    assert report_of(out)["result"] == {"error": "alpha1 is not a cocycle"}
    assert err == "alpha1 is not a cocycle\n"


@pytest.mark.parametrize("command", ["deform", "linfty"])
def test_first_order_term_checked_once(files, monkeypatch, command):
    alpha1 = obstructed_cochain()
    checks = []
    for name, module in list(sys.modules.items()):
        real = getattr(module, "ce_differential", None)
        if name.startswith("deforma") and real is not None:

            def counting(algebra, cochain, real=real):
                if cochain == alpha1:
                    checks.append(cochain)
                return real(algebra, cochain)

            monkeypatch.setattr(module, "ce_differential", counting)
    code, _, _ = invoke([command, files["ab3"], "--alpha1", files["obstructed"]])
    assert code == 0
    assert len(checks) == 1


def test_deform_max_order_floor(files):
    code, out, err = invoke(
        ["deform", files["ab3"], "--alpha1", files["heis_cochain"], "--max-order", "0"]
    )
    assert code == 2 and out == ""
    assert "--max-order" in err


def test_deform_rejects_wrong_degree_alpha1(files):
    code, out, err = invoke(
        ["deform", files["ab3"], "--alpha1", files["degree3_cochain"]]
    )
    assert code == 2 and out == ""
    assert "degree-2" in err


# -------------------------------------------------------------------- linfty


def test_linfty_obstructed_report(files):
    code, out, err = invoke(
        ["linfty", files["ab3"], "--alpha1", files["obstructed"]]
    )
    assert code == 0 and err == ""
    result = report_of(out)["result"]
    assert result["variant"] == "strict"
    assert result["truncation"] == 6
    assert result["homotopy"] == {"checked": 36, "passed": True, "violations": []}
    assert result["l3_table"] == {"1,2,3": "t^2 * [0,0,1]^*"}
    assert "restriction" not in result
    checks = {c["name"]: c for c in result["relations"]}
    assert set(checks) == {"R1", "R2", "R3", "R4"}
    assert all(c["passed"] and c["violations"] == [] for c in checks.values())
    assert checks["R1"]["instances"] == 216
    assert checks["R2"]["instances"] == 2160
    assert checks["R3"]["instances"] == 243
    assert checks["R4"]["instances"] == 1215


def test_linfty_zero_cocycle_table(files):
    code, out, _ = invoke(["linfty", files["sl2"], "--alpha1", files["zero_cochain"]])
    assert code == 0
    result = report_of(out)["result"]
    assert result["l3_table"] == {"1,2,3": "0"}


def test_linfty_extended_restriction(files):
    code, out, _ = invoke(
        [
            "linfty",
            files["ab3"],
            "--alpha1",
            files["obstructed"],
            "--variant",
            "extended",
        ]
    )
    assert code == 0
    result = report_of(out)["result"]
    assert result["restriction"] == "match"
    assert result["variant"] == "extended"


def test_linfty_truncation_floor(files):
    code, out, err = invoke(
        ["linfty", files["ab3"], "--alpha1", files["obstructed"], "--truncation", "5"]
    )
    assert code == 2 and out == ""
    assert "at least 6" in err


def test_linfty_truncation_env_override(files, monkeypatch):
    monkeypatch.setenv("DEFORMA_TRUNCATION", "7")
    code, out, _ = invoke(["linfty", files["ab3"], "--alpha1", files["obstructed"]])
    assert code == 0
    assert report_of(out)["result"]["truncation"] == 7


def test_linfty_truncation_flag_beats_env(files, monkeypatch):
    monkeypatch.setenv("DEFORMA_TRUNCATION", "8")
    code, out, _ = invoke(
        ["linfty", files["ab3"], "--alpha1", files["obstructed"], "--truncation", "6"]
    )
    assert code == 0
    assert report_of(out)["result"]["truncation"] == 6


def test_linfty_truncation_env_garbage(files, monkeypatch):
    monkeypatch.setenv("DEFORMA_TRUNCATION", "six")
    code, out, err = invoke(["linfty", files["ab3"], "--alpha1", files["obstructed"]])
    assert code == 2 and out == ""
    assert "DEFORMA_TRUNCATION" in err


def test_linfty_non_cocycle(files):
    code, out, err = invoke(["linfty", files["h3"], "--alpha1", files["non_cocycle"]])
    assert code == 1
    assert report_of(out)["result"] == {"error": "alpha1 is not a cocycle"}
    assert err == "alpha1 is not a cocycle\n"


# ------------------------------------------------------------- determinism


GOLDEN = [
    ["validate", "h3"],
    ["validate", "broken"],
    ["cohomology", "sl2", "--degree", "2"],
    ["cohomology", "ab2"],
    ["cohomology", "h3", "--degree", "2"],
    ["cohomology", "h3", "--degree", "1"],
    ["cohomology", "h3", "--degree", "3"],
    ["deform", "ab3", "--alpha1", "heis_cochain", "--max-order", "5"],
    ["deform", "ab3", "--alpha1", "obstructed", "--max-order", "5"],
    ["deform", "sl2", "--alpha1", "zero_cochain"],
    ["linfty", "ab3", "--alpha1", "obstructed"],
    ["linfty", "sl2", "--alpha1", "zero_cochain"],
    ["linfty", "ab3", "--alpha1", "obstructed", "--variant", "extended"],
]


@pytest.mark.parametrize("template", GOLDEN, ids=lambda t: " ".join(t))
def test_reports_are_byte_identical_across_runs(files, template):
    argv = [files.get(part, part) for part in template]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second
    code, out, _ = first
    # the emitted line is canonical JSON: sorted keys, no spaces
    assert out == json.dumps(
        json.loads(out), sort_keys=True, separators=(",", ":")
    ) + "\n"
    report = report_of(out)
    assert report["exit_code"] == code
    assert report["command"] == ["deforma", *argv]


def test_round_trip_algebra_files():
    for L in (heisenberg3(), sl2(), abelian(2)):
        text = render_algebra(L)
        again = parse_algebra_text(text)
        assert render_algebra(again) == text
        assert again.brackets == L.brackets
        assert again.dim == L.dim and again.name == L.name


def test_round_trip_cochain_files():
    for c in (heisenberg_cochain(), obstructed_cochain(), Cochain.zero(3, 2)):
        text = render_cochain(c)
        assert parse_cochain_text(text, 3) == c
        assert render_cochain(parse_cochain_text(text, 3)) == text


def test_round_trip_non_lowest_terms_canonicalizes():
    raw = '{"degree":2,"entries":{"1,2":["2/4","0","-3/3"]}}\n'
    c = parse_cochain_text(raw, 3)
    assert render_cochain(c) == '{"degree":2,"entries":{"1,2":["1/2","0","-1"]}}\n'


@pytest.mark.parametrize(
    "key",
    ["2,1", "1,1", "0,1", "1,4", "1", "1,2,3", "a,b", "01,2"],
)
def test_bad_bracket_keys_rejected(key):
    from deforma.io_formats import FormatError

    text = f'{{"brackets":{{"{key}":["0","0","0"]}},"dim":3,"name":"x"}}'
    with pytest.raises(FormatError):
        parse_algebra_text(text)


@pytest.mark.parametrize(
    "entries,dim",
    [
        ('{"1,2":["1","0"]}', 3),  # short vector
        ('{"1,2":["1",0,"0"]}', 3),  # bare number, not a string
        ('{"1,2":["1","0","1.5"]}', 3),  # decimal notation
    ],
)
def test_bad_cochain_values_rejected(entries, dim):
    from deforma.io_formats import FormatError

    with pytest.raises(FormatError):
        parse_cochain_text(f'{{"degree":2,"entries":{entries}}}', dim)


def test_cochain_degree_exceeding_dim_rejected():
    from deforma.io_formats import FormatError

    with pytest.raises(FormatError, match="exceeds dim"):
        parse_cochain_text('{"degree":4,"entries":{}}', 3)


# ------------------------------------------------------------- entry points


def package_env():
    """The environment with PYTHONPATH pinned to the ``src`` of the imported
    package, so a subprocess runs this checkout."""
    src = Path(deforma.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": str(src)}


def test_module_invocation_matches_in_process(files):
    code, out, _ = invoke(["validate", files["h3"]])
    proc = subprocess.run(
        [sys.executable, "-m", "deforma", "validate", files["h3"]],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == code == 0
    assert proc.stdout == out


def declared_console_script():
    """The ``deforma`` target in ``[project.scripts]`` of this checkout."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["deforma"]


def test_console_script_installed(files):
    # What a console-script launcher runs: load the entry point, call it with
    # no arguments, and exit with what it returns.
    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'deforma'\n"
        f"sys.exit(EntryPoint('deforma', {declared_console_script()!r}, "
        "'console_scripts').load()())\n"
    )
    code, out, _ = invoke(["validate", files["broken"]])
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "validate", files["broken"]],
        capture_output=True,
        env=package_env(),
    )
    assert proc.returncode == code == 1, proc.stderr.decode()
    assert json.loads(proc.stdout)["status"] == "failed"
    assert proc.stdout == out.encode()


@pytest.mark.skipif(
    shutil.which("deforma") is None, reason="no deforma console script on PATH"
)
def test_console_script_on_path_matches_in_process(files):
    # The script runs on the install it was made from, not on PYTHONPATH: a
    # stale install from another checkout must show up here as a mismatch.
    code, out, _ = invoke(["validate", files["broken"]])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [shutil.which("deforma"), "validate", files["broken"]],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == code == 1, proc.stderr.decode()
    assert proc.stdout == out.encode()
