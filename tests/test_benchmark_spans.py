"""Every function the benchmark's layer tracer wraps still exists.

perfbench/layers.py names its spans by module and attribute; a renamed or
moved function would only show when the benchmark runs.  The file is loaded
by path, as a plain module, without installing the tracer.
"""
import importlib
import importlib.util
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
