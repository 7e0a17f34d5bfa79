"""schurlab benchmark.

    python3 perfbench/run.py --workload hexad --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is not installed, so
``src`` is put on the path.  Every operation calls the public entry point
``schurlab.cli_io.cli.main`` in a child forked from this process, which has
imported the package and run nothing else, so each operation starts from the
same state and no cache (sympy's or the program's) carries over.  The
children run one at a time.  Certificates are checked by ``check.py``, which
does not import schurlab.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` each operation runs twice, once
plain and once under ``layers.Tracer``, and the metrics are per-layer.
See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import check
import inputs
import layers

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up is sampled this many times before the timed loop and as many after
# it, so that the median spans the run rather than one moment of it.
SETUP_SAMPLES = 2
TAIL_MIN_OPS = 40


@dataclass
class Item:
    """One CLI invocation: arguments, input document, certificate check."""
    argv: list
    doc: dict | None
    check: Callable[[str, int], list]


def hexad_ops(seed: int):
    for points in inputs.hexads(seed):
        yield [Item(["cubic"], inputs.rational_doc("points", points),
                    partial(check.check_cubic, points=points))]


def arrangement8_ops(seed: int):
    item = Item(["logbundle"], inputs.rational_doc("lines", inputs.EIGHT_LINES),
                partial(check.check_logbundle, lines=inputs.EIGHT_LINES))
    while True:
        yield [item]


def catalogue_ops(seed: int):
    sweep = [Item(["example", "--name", name], None,
                  partial(check.check_example, name=name))
             for name in inputs.EXAMPLE_NAMES]
    sweep.append(Item(["logbundle"], inputs.rational_doc("lines", inputs.SIX_LINES),
                      partial(check.check_logbundle, lines=inputs.SIX_LINES)))
    sweep.append(Item(["monad"], inputs.rational_doc("maps", inputs.README_MAPS),
                      partial(check.check_monad, maps=inputs.README_MAPS)))
    while True:
        yield sweep


# workload -> (operations, minimum operations per untraced run)
WORKLOADS = {
    "hexad": (hexad_ops, TAIL_MIN_OPS),
    "arrangement8": (arrangement8_ops, 1),
    "catalogue": (catalogue_ops, 4),
}

# Spans that must record calls on each workload in a traced run.
_MONAD = ["hulek_monad.validate_monad", "hulek_monad.signed_minors",
          "hulek_monad.jlsk_curve", "hulek_monad.jlsk_via_form",
          "hulek_monad.orthogonality_report", "hulek_monad.biflex_reports",
          "polyring.signed_maximal_minors", "polyring.local_singularity",
          "exact_math.rref", "exact_math.det", "cli_io.parse", "cli_io.render"]
EXPECTED_SPANS = {
    "hexad": _MONAD + [
        "polyring.poly_det", "polyring.resolved_common_zeros",
        "polyring.solve_pair", "polyring.multivariate_gcd",
        "polyring.factor_univar", "detrep.build_detrep", "detrep.double_six",
        "detrep.recover_points", "schurform.schur_pair",
        "schurform.induced_monad", "hulek_monad.jumping_points"],
    "arrangement8": _MONAD + [
        "polyring.poly_det", "polyring.lagrange_coeffs",
        "polyring.resolved_common_zeros", "polyring.solve_pair",
        "polyring.factor_univar", "hulek_monad.jumping_points",
        "logbundle.build_logbundle", "logbundle.recover_cup_form",
        "logbundle.arrangement_jump_check"],
    "catalogue": _MONAD + [
        "polyring.poly_det", "polyring.lagrange_coeffs",
        "polyring.resolved_common_zeros", "polyring.solve_pair",
        "polyring.multivariate_gcd", "polyring.factor_univar",
        "detrep.build_detrep", "schurform.schur_pair",
        "hulek_monad.jumping_points", "hulek_monad.select_compatible_form",
        "logbundle.build_logbundle", "logbundle.recover_cup_form",
        "logbundle.arrangement_jump_check"]
    + [f"families.{name}" for name in inputs.EXAMPLE_NAMES],
}
EXPECTED_COUNTERS = {
    "hexad": ["exact_math.field_const.calls", "polyring.sympy_factor_list.calls"],
    "arrangement8": ["exact_math.field_const.calls"],
    "catalogue": ["exact_math.field_const.calls", "polyring.sympy_factor_list.calls"],
}


def setup_samples(count: int) -> list:
    """Wall times of fresh interpreters importing the CLI module.  The
    bytecode caches exist already: this process imported it first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import schurlab.cli_io.cli"]
    times = []
    for _ in range(count):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(perf_counter() - start)
    return times


def _child(argv: list, traced: bool) -> dict:
    from schurlab.cli_io.cli import main
    tracer = None
    if traced:
        tracer = layers.Tracer()
        tracer.install()
    out = io.StringIO()
    saved = sys.stdout
    sys.stdout = out
    start = perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        elapsed = perf_counter() - start
        sys.stdout = saved
    return {"exit": code, "seconds": elapsed, "cert": out.getvalue(),
            "trace": tracer.snapshot() if tracer else None}


def run_item(item: Item, traced: bool) -> dict:
    """Run one CLI invocation in a forked child; returns its exit code,
    wall seconds (measured in the child around ``main``), certificate text,
    trace snapshot and peak resident memory."""
    argv = list(item.argv) + ["--format", "structured"]
    if item.doc is not None:
        path = WORK / "input.json"
        path.write_text(json.dumps(item.doc))
        argv += ["--in", str(path)]
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            payload = json.dumps(_child(argv, traced)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"benchmark child for {argv} ended with status {status}")
    result = json.loads(data)
    result["rss_kb"] = usage.ru_maxrss
    return result


def tail(times: list, workload: str) -> float:
    """Highest percentile with at least ten samples beyond it on a workload
    that runs forty or more operations; elsewhere the slowest operation."""
    ordered = sorted(times)
    if WORKLOADS[workload][1] >= TAIL_MIN_OPS:
        return ordered[len(ordered) - 11]
    return ordered[-1]


class Tally:
    """Operations attempted, failed (non-zero exit) and rejected by the
    checker; one rejected operation makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.correct = True

    def record(self, results: list, op: list) -> None:
        self.attempted += 1
        if any(r["exit"] != 0 for r in results):
            self.failed += 1
            for r, item in zip(results, op):
                if r["exit"] != 0:
                    print(f"failed: {item.argv} exit {r['exit']}", file=sys.stderr)
            return
        rejected = False
        for r, item in zip(results, op):
            try:
                problems = item.check(r["cert"], r["exit"])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                problems = [f"malformed certificate: {exc!r}"]
            if problems:
                rejected = True
                print(f"wrong certificate for {item.argv}: {problems}", file=sys.stderr)
        if rejected:
            self.rejected += 1
            self.correct = False


def measure(workload: str, seed: int, seconds: float) -> tuple:
    ops, min_ops = WORKLOADS[workload]
    tally, times, rss = Tally(), [], []
    start = perf_counter()
    for op in ops(seed):
        results = [run_item(item, traced=False) for item in op]
        tally.record(results, op)
        times.append(sum(r["seconds"] for r in results))
        rss.extend(r["rss_kb"] for r in results)
        elapsed = perf_counter() - start
        if tally.attempted >= min_ops and elapsed + statistics.median(times) > seconds:
            break
    metrics = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail(times, workload), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }
    detail = {"op_seconds": times}
    return tally, metrics, detail


def measure_traced(workload: str, seed: int, seconds: float) -> tuple:
    ops, _ = WORKLOADS[workload]
    tally, snapshots = Tally(), []
    plain_s = traced_s = 0.0
    start = perf_counter()
    for op in ops(seed):
        plain = [run_item(item, traced=False) for item in op]
        traced = [run_item(item, traced=True) for item in op]
        tally.record(plain, op)
        for p, t, item in zip(plain, traced, op):
            if (p["exit"], p["cert"]) != (t["exit"], t["cert"]):
                tally.correct = False
                print(f"traced certificate differs for {item.argv}", file=sys.stderr)
        plain_s += sum(r["seconds"] for r in plain)
        traced_s += sum(r["seconds"] for r in traced)
        snapshots.extend(r["trace"] for r in traced)
        if perf_counter() - start > seconds:
            break
    per_layer = layers.per_op(snapshots, tally.attempted)
    missing = [name for name in EXPECTED_SPANS[workload]
               if per_layer[f"{name}.calls"] == 0]
    missing += [name for name in EXPECTED_COUNTERS[workload] if per_layer[name] == 0]
    if missing:
        raise RuntimeError(f"expected spans recorded no calls on {workload}: {missing}")
    metrics = {name: (per_layer[name], "s" if name.endswith("_s") else "count")
               for name in layers.REPORTED}
    metrics["tracing.untraced_s"] = (plain_s, "s")
    metrics["tracing.traced_s"] = (traced_s, "s")
    metrics["tracing.overhead"] = (traced_s / plain_s, "ratio")
    return tally, metrics, {"per_layer": per_layer, "snapshots": snapshots}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "schurlab" / "cli_io" / "cli.py").is_file():
        print(f"no schurlab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    sys.path.insert(0, str(SRC))
    import schurlab.cli_io.cli  # noqa: F401  (children fork from this state)
    gc.collect()
    gc.freeze()

    if args.trace:
        tally, metrics, detail = measure_traced(args.workload, args.seed, args.seconds)
    else:
        setup = setup_samples(SETUP_SAMPLES)
        tally, metrics, detail = measure(args.workload, args.seed, args.seconds)
        setup += setup_samples(SETUP_SAMPLES)
        metrics["setup_s"] = (statistics.median(setup), "s")
        detail["setup_seconds"] = setup
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    detail["rejected_by_checker"] = tally.rejected
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    (WORK / f"detail-{stem}.json").write_text(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
