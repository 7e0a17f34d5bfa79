"""Certificates of seeded hexads and of eight lines, pinned by digest.

The goldens in ``tests/golden/`` cover fixed cases only.  This file pins the
sha256 of the ``--format structured`` certificate and the exit code of
``cubic`` on the first 30 hexads of the benchmark's ``inputs.hexads(1)`` and
of ``logbundle`` on its ``EIGHT_LINES``, each run in process through the
public entry point.  ``perfbench/inputs.py`` is loaded by path, as
``tests/test_benchmark_spans.py`` loads ``layers.py``.  After an intended
change of output, rewrite the record with
``PYTHONPATH=src python3 tests/test_certificate_digests.py`` and review it.
"""
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from schurlab.cli_io import main

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).parent / "pinned" / "certificate_digests.json"
HEXADS = 30


def load_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases() -> dict:
    """Case name -> (command arguments, input document)."""
    inputs = load_inputs()
    hexads = inputs.hexads(1)
    out = {f"hexad-{k:02d}": (["cubic"], inputs.rational_doc("points", next(hexads)))
           for k in range(HEXADS)}
    out["eight-lines"] = (["logbundle"], inputs.rational_doc("lines", inputs.EIGHT_LINES))
    return out


def digests(workdir: Path) -> dict:
    """Case name -> [sha256 of the structured certificate, exit code]."""
    out = {}
    for name, (argv, doc) in cases().items():
        source, cert = workdir / f"{name}.in.json", workdir / f"{name}.cert.json"
        source.write_text(json.dumps(doc))
        code = main(argv + ["--in", str(source), "--format", "structured", "--out", str(cert)])
        out[name] = [hashlib.sha256(cert.read_bytes()).hexdigest(), code]
    return out


def test_certificates_match_pinned_digests(tmp_path):
    pinned = json.loads(PINNED.read_text())
    assert len(pinned) == HEXADS + 1
    got = digests(tmp_path)
    assert [name for name in got if got[name] != pinned.get(name)] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        record = digests(Path(workdir))
    PINNED.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {PINNED}", file=sys.stderr)
