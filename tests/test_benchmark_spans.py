"""Every function the benchmark's layer tracer wraps still exists, and the
spans it expects on each workload still fire.

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


# Runs in a fresh interpreter, since importing run.py imports the program
# for the rest of its process: the first operation of a workload (the
# standard hexad, the 8-line logbundle, one catalogue sweep), each CLI
# invocation traced in a forked child by run.py's own run_item, then the
# per-layer totals and the benchmark checker's verdict on each certificate.
# Input documents go to a temporary directory; nothing is written under
# perfbench/.
TRACED_WORKLOAD = """
import json, sys
from pathlib import Path
sys.dont_write_bytecode = True
sys.path[:0] = sys.argv[1:3]
import layers, run
workload = sys.argv[3]
run.WORK = Path(sys.argv[4])
op = next(run.WORKLOADS[workload][0](1))
results = [run.run_item(item, traced=True) for item in op]
per_layer = layers.per_op([r["trace"] for r in results], 1)
silent = [name for name in run.EXPECTED_SPANS[workload]
          if per_layer[name + ".calls"] == 0]
silent += [name for name in run.EXPECTED_COUNTERS[workload] if per_layer[name] == 0]
problems = [item.check(r["cert"], r["exit"]) for item, r in zip(op, results)]
print(json.dumps({"exits": sorted({r["exit"] for r in results}), "silent": silent,
                  "problems": [p for p in problems if p]}))
"""


def expected_spans_fire(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_WORKLOAD, str(ROOT / "perfbench"),
         str(ROOT / "src"), workload, str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "exits": [0], "silent": [], "problems": []}


def test_arrangement8_expected_spans_fire(tmp_path):
    """Every span the benchmark expects on arrangement8 records a call: a
    change that drops, say, lagrange_coeffs from solve_pair fails here rather
    than in a traced benchmark run."""
    expected_spans_fire("arrangement8", tmp_path)


def test_hexad_expected_spans_fire(tmp_path):
    expected_spans_fire("hexad", tmp_path)


def test_catalogue_expected_spans_fire(tmp_path):
    expected_spans_fire("catalogue", tmp_path)
