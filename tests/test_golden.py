"""Structured certificates compared byte for byte with committed goldens.

The goldens in ``tests/golden/`` pin the exact ``--format structured``
output of each case, rejected inputs included.  After an intended change of
output, regenerate them with ``PYTHONPATH=src python3 tests/test_golden.py``
and review the diff.
"""
import json
import os
import subprocess
import sys
import tempfile
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
    # The cases share one interpreter: compiling sympy for -O is most of
    # the cost.
    names = ["cubic_hexad", "example_hulsbergen4", "monad_triangle_gauss"]
    runs = [case_argv(name, tmp_path) for name in names]
    script = ("import json, sys\nfrom schurlab.cli_io import main\n"
              "for argv in json.loads(sys.argv[1]):\n    main(argv)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    subprocess.run([sys.executable, "-O", "-c", script,
                    json.dumps([argv for argv, _ in runs])], env=env, timeout=300)
    for name, (_, out) in zip(names, runs):
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.json").write_bytes(certificate(case, Path(tmp)))
            print(f"wrote {case}", file=sys.stderr)
