"""Every function the benchmark's layer tracer wraps still exists, and the
spans it expects on arrangement8 still fire.

perfbench/layers.py names its spans by module and attribute; a renamed or
moved function would only show when the benchmark runs.  The file is loaded
by path, as a plain module, without installing the tracer.  The traced run
loads perfbench/ by path too, in a subprocess.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    layers = load_layers()
    assert layers.SPANS
    missing = []
    for name, module_name, attr in layers.SPANS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and meth in cls.__dict__
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append((name, module_name, attr))
    assert missing == []


# Runs in a fresh interpreter, since the tracer patches the program for the
# rest of its process: the 8-line logbundle of the arrangement8 workload,
# through run.py's own traced child, then its per-layer totals.  Nothing is
# written under perfbench/.
TRACED_ARRANGEMENT8 = """
import json, sys
sys.dont_write_bytecode = True
sys.path[:0] = sys.argv[1:3]
import inputs, layers, run
with open(sys.argv[3], "w") as doc:
    json.dump(inputs.rational_doc("lines", inputs.EIGHT_LINES), doc)
result = run._child(["logbundle", "--in", sys.argv[3], "--format", "structured"], traced=True)
per_layer = layers.per_op([result["trace"]], 1)
silent = [name for name in run.EXPECTED_SPANS["arrangement8"]
          if per_layer[name + ".calls"] == 0]
silent += [name for name in run.EXPECTED_COUNTERS["arrangement8"] if per_layer[name] == 0]
print(json.dumps({"exit": result["exit"], "silent": silent}))
"""


def test_arrangement8_expected_spans_fire(tmp_path):
    """Every span the benchmark expects on arrangement8 records a call: a
    change that drops, say, lagrange_coeffs from solve_pair fails here rather
    than in a traced benchmark run."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ARRANGEMENT8, str(ROOT / "perfbench"),
         str(ROOT / "src"), str(tmp_path / "lines.json")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"exit": 0, "silent": []}
