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
import sympy
from sympy.polys.rings import PolyRing

from schurlab.cli_io import main
from schurlab.families import EXAMPLES
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
    "example_bring": (["example", "--name", "bring"], None),
    "example_schwarzenberger": (["example", "--name", "schwarzenberger"], None),
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


def test_no_case_builds_a_sympy_ring_or_algebraic_field(monkeypatch, tmp_path):
    # Gcds are interpolated from node gcds and eliminants over Q(sqrt s) are
    # factored through their rational norms, so no case, the Q(sqrt 5) ones
    # (clebsch, bring) included, builds QQ<sqrt(s)> or a sparse ring.
    def refuse(*args, **kwargs):
        raise RuntimeError("sympy built a PolyRing or an algebraic field")
    monkeypatch.setattr(sympy.QQ, "algebraic_field", refuse)
    monkeypatch.setattr(PolyRing, "__new__", refuse)
    for name in sorted(CASES):
        assert certificate(name, tmp_path) == (GOLDEN / f"{name}.json").read_bytes(), name


def test_every_example_has_a_golden():
    covered = {argv[2] for argv, _ in CASES.values() if argv[0] == "example"}
    assert covered == set(EXAMPLES)


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
    ("exact_math/matrices.py", "len(v) == self.cols"),
    ("exact_math/matrices.py", "len(v) == self.rows"),
    ("exact_math/matrices.py", "len(b) == self.rows"),
    ("exact_math/matrices.py", "self.cols == other.rows"),
    ("hulek_monad.py", "0 <= r <= min(n1, n2)"),
    ("polyring/homopoly.py", "n >= 0"),
    ("polyring/homopoly.py", "len(point) == self.nvars"),
    ("polyring/homopoly.py", "len(targets) == self.nvars"),
    ("polyring/homopoly.py", "len(vec) == len(order)"),
    ("polyring/homopoly.py",
     "t.field == f and t.nvars == nv and (t.degree == e or t.is_zero())"),
    ("polyring/homopoly.py", "len(row) == cols"),
    ("polyring/homopoly.py", "(m.rows, m.cols) == (rows, cols) and m.field == field"),
    ("polyring/homopoly.py", "isinstance(p, HomPoly) and p.field == field"),
    ("polyring/homopoly.py", "p.degree == 1 or p.is_zero()"),
    ("polyring/homopoly.py", "p.nvars == nv"),
    ("polyring/local.py", "curve.nvars == 3 and (not curve.is_zero())"),
    ("polyring/zeros.py", "polys"),
    ("polyring/zeros.py", "polys"),
    ("polyring/zeros.py", "f.nvars == 3 == g.nvars and f.field == g.field"),
    ("polyring/zeros.py", "f.nvars == 3 == g.nvars and f.field == g.field"),
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


def test_every_imported_name_is_used():
    # a name a module imports but never reads, nor lists in __all__, is
    # stale: pyflakes's unused-import check, with the standard library's ast
    package = Path(__file__).parents[1] / "src" / "schurlab"
    stale = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {name.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for name in node.value.elts}
        stale += [(path.relative_to(package).as_posix(), name)
                  for name in imported if name not in used | exported]
    assert stale == []


def package_reads():
    """The package's modules as (path, tree), and every name its code reads:
    as a name, an attribute or an imported name."""
    package = Path(__file__).parents[1] / "src" / "schurlab"
    trees = [(path, ast.parse(path.read_text())) for path in sorted(package.rglob("*.py"))]
    read = {node.id for _, tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.attr for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    read |= {alias.name for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    return package, trees, read


def test_every_private_helper_is_referenced():
    # a module-level _name function or class that no code in the package
    # reads is an orphan left behind by a refactor; dunders are read by the
    # interpreter
    package, trees, read = package_reads()
    orphans = [(path.relative_to(package).as_posix(), node.name)
               for path, tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")
               and node.name not in read]
    assert orphans == []


# public functions no code in the package reads, each with the reader it
# is kept for
PUBLIC_ALLOWLIST = {
    ("families.py", "FamilyInstance.failed_checks"),  # the tests' failure messages
    ("hulek_monad.py", "determinantal_degree"),  # ROADMAP item 5
}


def test_every_public_function_is_read():
    # a public module-level function or method that no code in the package
    # reads, as a name or an attribute, has lost its caller in a refactor
    package, trees, read = package_reads()
    defined = []
    for path, tree in trees:
        where = path.relative_to(package).as_posix()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((where, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(where, f"{node.name}.{sub.name}", sub.name) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
    unread = {(where, qualified) for where, qualified, name in defined
              if not name.startswith("_") and name not in read}
    assert unread == PUBLIC_ALLOWLIST


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.json").write_bytes(certificate(case, Path(tmp)))
            print(f"wrote {case}", file=sys.stderr)
