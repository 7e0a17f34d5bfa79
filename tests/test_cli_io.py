"""Certificate documents and the command line driver, run in process."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from schurlab import detrep, hulek_monad
from schurlab.cli_io import (FAIL, PASS, PROBED, SCHEMA, UNRESOLVED,
                             canonical_json, claim, exit_code_for,
                             instance_digest, main, overall_status,
                             parse_field, parse_symmetric)
from schurlab.errors import PreconditionError
from schurlab.exact_math import QQ
from schurlab.polyring import LinFormsMatrix

ROOT = Path(__file__).resolve().parents[1]

HEXAD = {"field": {"type": "rational"},
         "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                    ["1", "1", "1"], ["1", "2", "3"], ["1", "4", "9"]]}
SIX_LINES = {"field": {"type": "rational"},
             "lines": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                       ["1", "1", "1"], ["1", "2", "3"], ["1", "4", "9"]]}
TRIANGLE_MAPS = [[["1", "0"], ["0", "0"], ["0", "0"]],
                 [["0", "0"], ["0", "1"], ["0", "0"]],
                 [["0", "0"], ["0", "0"], ["1", "-1"]]]


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_canonical_json_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}\n'
    assert instance_digest({"x": 1}) == instance_digest({"x": 1})
    assert instance_digest({"x": 1}) != instance_digest({"x": 2})


def test_status_aggregation():
    assert overall_status([claim("a", PASS)]) == PASS
    assert overall_status([claim("a", PASS), claim("b", PROBED)]) == PROBED
    assert overall_status([claim("a", UNRESOLVED), claim("b", PROBED)]) == UNRESOLVED
    assert overall_status([claim("a", FAIL), claim("b", UNRESOLVED)]) == FAIL
    assert exit_code_for([claim("a", PASS)]) == 0
    assert exit_code_for([claim("a", PROBED)]) == 0
    assert exit_code_for([claim("a", UNRESOLVED)]) == 4
    assert exit_code_for([claim("a", FAIL)]) == 3


def test_parse_field_errors():
    assert parse_field({"type": "rational"}).s is None
    assert parse_field({"type": "quadratic", "s": 5}).s == 5
    with pytest.raises(PreconditionError):
        parse_field({"type": "real"})
    with pytest.raises(PreconditionError):
        parse_field({"type": "quadratic"})
    with pytest.raises(PreconditionError):
        parse_symmetric(QQ, [["1", "2"], ["3", "4"]])


def test_cubic_full_pass(tmp_path, capsys):
    code, out = run(["cubic", "--in", write(tmp_path, "h.json", HEXAD),
                     "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA
    assert doc["status"] == PROBED
    statuses = {c["id"]: c["status"] for c in doc["claims"]}
    assert statuses["support-is-hexad"] == PASS
    assert statuses["polarity-routes-agree"] == PASS
    assert statuses["monad-exactness"] == PROBED
    assert len(doc["claims"]) == 19


def test_cubic_deterministic_output(tmp_path, capsys):
    path = write(tmp_path, "h.json", HEXAD)
    _, first = run(["cubic", "--in", path, "--format", "structured"], capsys)
    _, second = run(["cubic", "--in", path, "--format", "structured"], capsys)
    assert first == second


def test_cubic_collinear_rejected(tmp_path, capsys):
    bad = dict(HEXAD)
    bad["points"] = [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"],
                     ["1", "1", "1"], ["1", "2", "3"], ["1", "4", "9"]]
    code, out = run(["cubic", "--in", write(tmp_path, "bad.json", bad)], capsys)
    assert code == 2
    assert "collinear" in out


@pytest.mark.parametrize("literal", ["x", "1/0", "[1/0, 1]"])
def test_cubic_malformed_scalar_literal(literal, tmp_path, capsys):
    field = ({"type": "quadratic", "s": 5} if literal.startswith("[")
             else {"type": "rational"})
    bad = {"field": field, "points": [[literal, "0", "0"]] + HEXAD["points"][1:]}
    target = tmp_path / "cert.json"
    code = main(["cubic", "--in", write(tmp_path, "bad.json", bad),
                 "--out", str(target), "--format", "structured"])
    assert code == 2
    error = json.loads(target.read_text())["error"]
    assert error == {"kind": "precondition",
                     "message": f"malformed scalar literal {literal!r}"}


@pytest.mark.parametrize("entry", [True, False])
def test_cubic_boolean_scalar_rejected(entry, tmp_path, capsys):
    bad = {"field": {"type": "rational"},
           "points": [[entry, False, False]] + HEXAD["points"][1:]}
    target = tmp_path / "cert.json"
    code = main(["cubic", "--in", write(tmp_path, "bad.json", bad),
                 "--out", str(target), "--format", "structured"])
    assert code == 2
    error = json.loads(target.read_text())["error"]
    assert error == {"kind": "precondition",
                     "message": "scalar entries must be strings, got bool"}


def test_oversized_extension_modulus_rejected_quickly(tmp_path):
    # a 17-digit prime: trial division for squarefreeness would not finish
    doc = dict(HEXAD, field={"type": "quadratic", "s": 100000000000000003})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "schurlab", "cubic", "--in",
         write(tmp_path, "big.json", doc)],
        env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert "at most" in proc.stdout


@pytest.mark.parametrize("text", [
    '{"lines": [[1' + "0" * 4400 + ', 0, 0]]}',
    '{"lines": ' + "[" * 200000 + "]" * 200000 + "}"],
    ids=["integer-past-digit-limit", "nested-past-recursion-limit"])
def test_unreadable_json_rejected(text, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out = run(["logbundle", "--in", str(path)], capsys)
    assert code == 2
    assert "input JSON cannot be read" in out


def test_unserializable_computed_scalar_rejected(tmp_path):
    # the curve of this monad has coefficients of about 8000 digits
    maps = [[["1" + "0" * 4000, "0"], ["0", "0"], ["0", "0"]]] + TRIANGLE_MAPS[1:]
    doc = {"field": {"type": "rational"}, "maps": maps}
    target = tmp_path / "cert.json"
    code = main(["monad", "--in", write(tmp_path, "m.json", doc),
                 "--out", str(target), "--format", "structured"])
    assert code == 2
    error = json.loads(target.read_text())["error"]
    assert error["kind"] == "precondition"
    assert "MAX_LITERAL_DIGITS" in error["message"]


def test_cubic_coconic_rejected(tmp_path, capsys):
    bad = dict(HEXAD)
    bad["points"] = [["1", "0", "0"], ["1", "1", "1"], ["1", "2", "4"],
                     ["1", "3", "9"], ["1", "4", "16"], ["0", "0", "1"]]
    code, out = run(["cubic", "--in", write(tmp_path, "cc.json", bad)], capsys)
    assert code == 2
    assert "conic" in out


def test_logbundle_pass(tmp_path, capsys):
    code, out = run(["logbundle", "--in",
                     write(tmp_path, "l.json", SIX_LINES),
                     "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    statuses = {c["id"]: c["status"] for c in doc["claims"]}
    assert statuses["dimensions"] == PASS
    assert statuses["dual-points-jump"] == PASS
    assert statuses["support-is-dual-points"] == PASS


def test_logbundle_too_few_lines(tmp_path, capsys):
    for lines in ([], [["1", "0", "0"], ["0", "1", "0"]],
                  [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]):
        doc = {"field": {"type": "rational"}, "lines": lines}
        code, out = run(["logbundle", "--in", write(tmp_path, "t.json", doc)],
                        capsys)
        assert code == 2
        assert "at least six" in out


def test_monad_auto_form(tmp_path, capsys):
    doc = {"field": {"type": "rational"}, "maps": TRIANGLE_MAPS}
    code, out = run(["monad", "--in", write(tmp_path, "m.json", doc),
                     "--format", "structured"], capsys)
    assert code == 0
    parsed = json.loads(out)
    statuses = {c["id"]: c["status"] for c in parsed["claims"]}
    assert statuses["form-selected"] == PASS
    assert statuses["support-resolution"] == PASS


def test_monad_non_symmetric_form(tmp_path, capsys):
    doc = {"field": {"type": "rational"}, "maps": TRIANGLE_MAPS,
           "form": [["1", "0", "0"], ["1", "1", "0"], ["0", "0", "1"]]}
    code, out = run(["monad", "--in", write(tmp_path, "m.json", doc)], capsys)
    assert code == 2
    assert "symmetric" in out


def test_monad_incompatible_form(tmp_path, capsys):
    doc = {"field": {"type": "rational"}, "maps": TRIANGLE_MAPS,
           "form": [["1", "1", "0"], ["1", "2", "0"], ["0", "0", "1"]]}
    code, out = run(["monad", "--in", write(tmp_path, "m.json", doc)], capsys)
    assert code == 3
    assert "FAIL" in out


def test_monad_unresolved_support(tmp_path, capsys):
    doc = {"field": {"type": "rational"},
           "maps": [[["1", "1"], ["-2", "0"], ["2", "1"]],
                    [["1", "0"], ["1", "0"], ["2", "-1"]],
                    [["2", "-1"], ["0", "-1"], ["-2", "2"]]]}
    code, out = run(["monad", "--in", write(tmp_path, "m.json", doc)], capsys)
    assert code == 4
    assert "UNRESOLVED" in out


def test_example_commands(capsys):
    code, out = run(["example", "--name", "triangle"], capsys)
    assert code == 0 and "overall: pass" in out
    code, out = run(["example", "--name", "nosuch"], capsys)
    assert code == 2
    code, out = run(["example"], capsys)
    assert code == 2


@pytest.mark.parametrize("name", [["clebsch"], {"a": 1}, 3, True])
def test_example_non_string_name_rejected(tmp_path, capsys, name):
    path = write(tmp_path, "example.json", {"name": name})
    code, out = run(["example", "--in", path, "--format", "structured"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "fail" and doc["error"]["kind"] == "precondition"
    assert "unknown example" in doc["error"]["message"]


def test_missing_input(capsys):
    code, out = run(["cubic"], capsys)
    assert code == 2
    assert "--in" in out


def test_atomic_out_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code = main(["monad", "--in",
                 str(write_doc(tmp_path)), "--out", str(target),
                 "--format", "structured"])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["command"] == "monad"


def write_doc(tmp_path):
    path = tmp_path / "triangle_monad.json"
    path.write_text(json.dumps({"field": {"type": "rational"},
                                "maps": TRIANGLE_MAPS}))
    return path


def test_readme_monad_document(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### monad", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "monad.json"
    path.write_text(block)
    code, _ = run(["monad", "--in", str(path)], capsys)
    assert code == 0


def test_python_dash_m_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "schurlab", "example", "--name", "n2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "overall: pass" in proc.stdout


def test_python_dash_m_cli_module(tmp_path):
    # runs like python -m schurlab: no runpy warning, the same certificate
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "n2.json"
    proc = subprocess.run(
        [sys.executable, "-m", "schurlab.cli_io.cli", "example", "--name", "n2",
         "--format", "structured", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "example_n2.json").read_bytes()


def _count_calls(monkeypatch, calls, owner, name):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_cubic_resolves_each_locus_once(tmp_path, monkeypatch, capsys):
    # the base points are the induced monad's jumping points
    calls = []
    _count_calls(monkeypatch, calls, hulek_monad, "resolved_common_zeros")
    code, _ = run(["cubic", "--in", write(tmp_path, "h.json", HEXAD)], capsys)
    assert code == 0
    assert len(calls) == 1


def test_cubic_builds_each_hexad_object_once(tmp_path, monkeypatch, capsys):
    # the 4 x 3 pencil's minors are the induced monad's signed minors
    minors, kernel_forms = [], []
    _count_calls(monkeypatch, minors, LinFormsMatrix, "signed_maximal_minors")
    _count_calls(monkeypatch, kernel_forms, detrep, "kernel_form")
    code, _ = run(["cubic", "--in", write(tmp_path, "h.json", HEXAD)], capsys)
    assert code == 0
    assert len(minors) == 1
    assert len(kernel_forms) == 1


def test_logbundle_computes_signed_minors_once(tmp_path, monkeypatch, capsys):
    calls = []
    _count_calls(monkeypatch, calls, LinFormsMatrix, "signed_maximal_minors")
    code, _ = run(["logbundle", "--in",
                   write(tmp_path, "l.json", SIX_LINES)], capsys)
    assert code == 0
    assert len(calls) == 1


def test_monad_builds_pencil_once_per_jumping_point(tmp_path, monkeypatch, capsys):
    # exactness probes, orthogonality and singularity reports share it
    calls = []
    _count_calls(monkeypatch, calls, hulek_monad, "pencil_at")
    doc = {"field": {"type": "rational"}, "maps": TRIANGLE_MAPS}
    code, _ = run(["monad", "--in", write(tmp_path, "m.json", doc)], capsys)
    assert code == 0
    assert len(calls) == 3
