"""Structured certificates compared byte for byte with committed goldens.

The goldens in ``tests/golden/`` pin the exact ``--format structured``
output of each case, rejected inputs included.  After an intended change of
output, regenerate them with ``PYTHONPATH=src python3 tests/test_golden.py``
and review the diff.
"""
import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from schurlab.cli_io import main
from test_cli_io import HEXAD, SIX_LINES, TRIANGLE_MAPS

GOLDEN = Path(__file__).parent / "golden"


def _hexad(points):
    return {"field": {"type": "rational"}, "points": points}


# the hexad the Clebsch diagonal surface blows down to, over Q(sqrt 5)
CLEBSCH_HEXAD = {"field": {"type": "quadratic", "s": 5}, "points": [
    ["[1/1, 0/1]", "[0/1, 0/1]", "[-1/2, 1/2]"],
    ["[1/1, 0/1]", "[0/1, 0/1]", "[-1/2, -1/2]"],
    ["[1/1, 0/1]", "[5/2, -1/2]", "[-3/1, 1/1]"],
    ["[1/1, 0/1]", "[-5/2, -1/2]", "[-1/2, -1/2]"],
    ["[1/1, 0/1]", "[5/2, -3/2]", "[-3/1, 1/1]"],
    ["[1/1, 0/1]", "[-5/2, -3/2]", "[-1/2, 1/2]"]]}


# case name -> (command arguments, input document or None)
CASES = {
    "cubic_hexad": (["cubic"], HEXAD),
    "cubic_clebsch_hexad": (["cubic"], CLEBSCH_HEXAD),
    "logbundle_six_lines": (["logbundle"], SIX_LINES),
    "monad_triangle_selected_form": (
        ["monad"], {"field": {"type": "rational"}, "maps": TRIANGLE_MAPS}),
    "monad_triangle_gauss": (
        ["monad"], {"field": {"type": "quadratic", "s": -1}, "maps": TRIANGLE_MAPS}),
    "example_n2": (["example", "--name", "n2"], None),
    "example_triangle": (["example", "--name", "triangle"], None),
    "example_hulsbergen4": (["example", "--name", "hulsbergen4"], None),
    "example_hulsbergen5": (["example", "--name", "hulsbergen5"], None),
    "example_clebsch": (["example", "--name", "clebsch"], None),
    "cubic_coincident_rejected": (["cubic"], _hexad(
        [[1, 2, 3], [2, 4, 6], [0, 0, 1], [1, 1, 1], [1, 0, 0], [1, 4, 9]])),
    "cubic_collinear_rejected": (["cubic"], _hexad(
        [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 1], [1, 2, 3], [1, 4, 9]])),
    "cubic_coconic_rejected": (["cubic"], _hexad(
        [[1, 0, 0], [1, 1, 1], [1, 2, 4], [1, 3, 9], [1, 4, 16], [0, 0, 1]])),
}


def case_argv(name: str, workdir: Path) -> tuple[list[str], Path]:
    """Command line of a case, with its input document written to workdir,
    and the path its certificate goes to."""
    argv, doc = CASES[name]
    argv = list(argv)
    if doc is not None:
        path = workdir / f"{name}.in.json"
        path.write_text(json.dumps(doc))
        argv += ["--in", str(path)]
    out = workdir / f"{name}.cert.json"
    return argv + ["--format", "structured", "--out", str(out)], out


def certificate(name: str, workdir: Path) -> bytes:
    argv, out = case_argv(name, workdir)
    main(argv)
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_matches_golden(name, tmp_path):
    assert certificate(name, tmp_path) == (GOLDEN / f"{name}.json").read_bytes()


def test_certificates_do_not_depend_on_asserts(tmp_path):
    # python -O strips assert statements; no verification may live in one.
    # Every case shares one interpreter: compiling sympy for -O is a large
    # part of the cost.
    names = sorted(CASES)
    runs = [case_argv(name, tmp_path) for name in names]
    script = ("import json, sys\nfrom schurlab.cli_io import main\n"
              "for argv in json.loads(sys.argv[1]):\n    main(argv)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    subprocess.run([sys.executable, "-O", "-c", script,
                    json.dumps([argv for argv, _ in runs])], env=env, timeout=300)
    for name, (_, out) in zip(names, runs):
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes(), name


# Every assert left in src/: argument-shape checks only, which a caller can
# break but no input document can.  Verifications raise ClaimError instead,
# so that they also hold under python -O.
ASSERT_ALLOWLIST = Counter([
    ("detrep.py", "line.dim == 1 and line.ambient == form.nvars - 1"),
    ("detrep.py", "i != j"),
    ("exact_math/matrices.py", "len(a) == len(b)"),
    ("exact_math/matrices.py", "(self.rows, self.cols) == (other.rows, other.cols)"),
    ("exact_math/matrices.py", "(self.rows, self.cols) == (other.rows, other.cols)"),
    ("exact_math/matrices.py", "len(v) == self.cols"),
    ("exact_math/matrices.py", "len(v) == self.rows"),
    ("exact_math/matrices.py", "len(b) == self.rows"),
    ("exact_math/matrices.py", "self.cols == other.rows"),
    ("hulek_monad.py", "0 <= r <= min(n1, n2)"),
    ("polyring/homopoly.py", "n >= 0"),
    ("polyring/homopoly.py", "len(point) == self.nvars"),
    ("polyring/homopoly.py", "len(targets) == self.nvars"),
    ("polyring/homopoly.py", "not self.is_zero()"),
    ("polyring/homopoly.py", "len(vec) == len(order)"),
    ("polyring/homopoly.py", "len(values) == self.nvars and values[free] is None"),
    ("polyring/homopoly.py",
     "t.field == f and t.nvars == nv and (t.degree == e or t.is_zero())"),
    ("polyring/homopoly.py", "len(row) == cols"),
    ("polyring/homopoly.py", "(m.rows, m.cols) == (rows, cols) and m.field == field"),
    ("polyring/homopoly.py", "isinstance(p, HomPoly) and p.field == field"),
    ("polyring/homopoly.py", "p.degree == 1 or p.is_zero()"),
    ("polyring/homopoly.py", "p.nvars == nv"),
    ("polyring/local.py", "curve.nvars == 3 and (not curve.is_zero())"),
    ("polyring/local.py", "curve.nvars == 3 and line.dim == 1"),
    ("polyring/zeros.py", "f.field == g.field and f.nvars == g.nvars"),
    ("polyring/zeros.py", "polys"),
    ("polyring/zeros.py", "polys"),
    ("polyring/zeros.py", "f.nvars == 3 == g.nvars and f.field == g.field"),
    ("polyring/zeros.py", "not f.is_zero() and (not g.is_zero())"),
    ("polyring/zeros.py", "p.field == field and p.nvars == 3"),
])


def test_only_argument_shape_checks_are_asserts():
    package = Path(__file__).parents[1] / "src" / "schurlab"
    found = Counter()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found[(path.relative_to(package).as_posix(), ast.unparse(node.test))] += 1
    assert found == ASSERT_ALLOWLIST


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.json").write_bytes(certificate(case, Path(tmp)))
            print(f"wrote {case}", file=sys.stderr)
