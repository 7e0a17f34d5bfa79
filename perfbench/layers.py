"""Layer tracing from outside the program.

``install`` wraps the functions listed in ``SPANS`` in the already imported
schurlab modules.  A function imported by name is bound in several modules
(``poly_det`` in ``polyring.homopoly``, ``polyring``, ``detrep``,
``hulek_monad`` and ``families``), so every module-level binding of the
original, and every value of a module-level dict such as
``families.EXAMPLES``, is replaced.  Spans are kept in memory as per-name
totals: calls, inclusive seconds and self seconds (the span's duration
minus the time covered by its child spans).

It is only ever installed in a forked child that runs one traced
operation, so the parent and every untraced operation run unpatched code.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

# (span name, defining module, attribute or Class.method)
SPANS = [
    ("exact_math.rref", "schurlab.exact_math.matrices", "Matrix.rref"),
    ("exact_math.det", "schurlab.exact_math.matrices", "Matrix.det"),
    ("polyring.poly_det", "schurlab.polyring.homopoly", "poly_det"),
    ("polyring.lagrange_coeffs", "schurlab.polyring.homopoly", "lagrange_coeffs"),
    ("polyring.signed_maximal_minors", "schurlab.polyring.homopoly",
     "LinFormsMatrix.signed_maximal_minors"),
    ("polyring.resolved_common_zeros", "schurlab.polyring.zeros",
     "resolved_common_zeros"),
    ("polyring.solve_pair", "schurlab.polyring.zeros", "solve_pair"),
    ("polyring.multivariate_gcd", "schurlab.polyring.zeros", "multivariate_gcd"),
    ("polyring.factor_univar", "schurlab.polyring.univar", "factor_univar"),
    ("polyring.local_singularity", "schurlab.polyring.local", "local_singularity"),
    ("detrep.build_detrep", "schurlab.detrep", "build_detrep"),
    ("detrep.double_six", "schurlab.detrep", "double_six"),
    ("detrep.recover_points", "schurlab.detrep", "DetRep.recover_points"),
    ("schurform.schur_pair", "schurlab.schurform", "schur_pair"),
    ("schurform.induced_monad", "schurlab.schurform", "induced_monad"),
    ("hulek_monad.validate_monad", "schurlab.hulek_monad", "validate_monad"),
    ("hulek_monad.signed_minors", "schurlab.hulek_monad", "MonadData.signed_minors"),
    ("hulek_monad.jlsk_curve", "schurlab.hulek_monad", "MonadData.jlsk_curve"),
    ("hulek_monad.jlsk_via_form", "schurlab.hulek_monad", "MonadData.jlsk_via_form"),
    ("hulek_monad.jumping_points", "schurlab.hulek_monad", "MonadData.jumping_points"),
    ("hulek_monad.orthogonality_report", "schurlab.hulek_monad",
     "orthogonality_report"),
    ("hulek_monad.biflex_reports", "schurlab.hulek_monad", "biflex_reports"),
    ("hulek_monad.select_compatible_form", "schurlab.hulek_monad",
     "select_compatible_form"),
    ("logbundle.build_logbundle", "schurlab.logbundle", "build_logbundle"),
    ("logbundle.recover_cup_form", "schurlab.logbundle", "recover_cup_form"),
    ("logbundle.arrangement_jump_check", "schurlab.logbundle",
     "arrangement_jump_check"),
    ("families.clebsch", "schurlab.families", "clebsch_instance"),
    ("families.bring", "schurlab.families", "bring_instance"),
    ("families.triangle", "schurlab.families", "triangle_monad_n3"),
    ("families.n2", "schurlab.families", "n2_instance"),
    ("families.hulsbergen4", "schurlab.families", "hulsbergen_instance_4"),
    ("families.hulsbergen5", "schurlab.families", "hulsbergen_instance_5"),
    ("families.schwarzenberger", "schurlab.families", "schwarzenberger_detect"),
    ("cli_io.parse", "schurlab.cli_io.cli", "_load_input"),
    ("cli_io.parse", "schurlab.cli_io.documents", "parse_field"),
    ("cli_io.parse", "schurlab.cli_io.documents", "parse_vector"),
    ("cli_io.parse", "schurlab.cli_io.documents", "parse_matrix"),
    ("cli_io.parse", "schurlab.cli_io.documents", "parse_symmetric"),
    ("cli_io.render", "schurlab.cli_io.documents", "make_certificate"),
    ("cli_io.render", "schurlab.cli_io.documents", "canonical_json"),
    ("cli_io.render", "schurlab.cli_io.documents", "render_text"),
]

# Counters that are not spans: accesses to Field.zero / Field.one, calls
# into sympy.factor_list, matrix cells entering rref, and forms a zero
# locus left unresolved.
COUNTERS = ["exact_math.field_const.calls", "polyring.sympy_factor_list.calls",
            "exact_math.rref.cells", "exact_math.rref.max_cells",
            "polyring.resolved_common_zeros.unresolved_forms"]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in SPANS))

_BOTH = ("calls", "self_s")
# The per-layer metrics a traced run reports (BENCHMARK.json lists the same).
REPORTED = (
    ["exact_math.rref.calls", "exact_math.rref.self_s", "exact_math.rref.cells",
     "exact_math.rref.max_cells", "exact_math.det.calls", "exact_math.det.self_s",
     "exact_math.field_const.calls"]
    + [f"polyring.{fn}.{m}" for fn in ("poly_det", "lagrange_coeffs",
                                        "signed_maximal_minors") for m in _BOTH]
    + ["polyring.resolved_common_zeros.calls",
       "polyring.resolved_common_zeros.self_s",
       "polyring.resolved_common_zeros.unresolved_forms"]
    + [f"polyring.{fn}.{m}" for fn in ("solve_pair", "multivariate_gcd",
                                        "factor_univar") for m in _BOTH]
    + ["polyring.sympy_factor_list.calls",
       "polyring.local_singularity.calls", "polyring.local_singularity.self_s"]
    + [f"detrep.{fn}.self_s" for fn in ("build_detrep", "double_six", "recover_points")]
    + [f"schurform.{fn}.self_s" for fn in ("schur_pair", "induced_monad")]
    + [f"hulek_monad.{fn}.{m}" for fn in (
        "validate_monad", "signed_minors", "jlsk_curve", "jlsk_via_form",
        "jumping_points", "orthogonality_report", "biflex_reports",
        "select_compatible_form") for m in _BOTH]
    + [f"logbundle.{fn}.self_s" for fn in ("build_logbundle", "recover_cup_form",
                                           "arrangement_jump_check")]
    + [name + ".self_s" for name in SPAN_NAMES if name.startswith("families.")]
    + ["cli_io.parse.self_s", "cli_io.render.self_s"])


class Tracer:
    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._child_time = []

    def wrap(self, name: str, fn, after=None):
        stats = self.spans[name]
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
            if after is not None:
                after(args, result)
            return result
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _after_rref(self, args, result) -> None:
        cells = args[0].rows * args[0].cols
        self.counts["exact_math.rref.cells"] += cells
        if cells > self.counts["exact_math.rref.max_cells"]:
            self.counts["exact_math.rref.max_cells"] = cells

    def _after_zeros(self, args, result) -> None:
        self.counts["polyring.resolved_common_zeros.unresolved_forms"] += \
            len(result.unresolved_forms)

    def install(self) -> None:
        after = {"exact_math.rref": self._after_rref,
                 "polyring.resolved_common_zeros": self._after_zeros}
        for name, module, attr in SPANS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], after.get(name)))
            else:
                orig = getattr(owner, attr)
                _rebind(orig, self.wrap(name, orig, after.get(name)))

        field_cls = sys.modules["schurlab.exact_math.scalars"].Field
        for const in ("zero", "one"):
            getter = field_cls.__dict__[const].fget
            setattr(field_cls, const,
                    property(self._count("exact_math.field_const.calls", getter)))
        sympy = sys.modules["sympy"]
        sympy.factor_list = self._count("polyring.sympy_factor_list.calls",
                                        sympy.factor_list)

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def per_op(snapshots: list, ops: int) -> dict:
    """Per-layer metrics from the snapshots of every traced CLI invocation
    of ``ops`` operations: calls, self seconds and counts are averaged per
    operation, except the largest rref, which is a maximum."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = sum(s["spans"][name][0] for s in snapshots) / ops
        out[f"{name}.self_s"] = sum(s["spans"][name][2] for s in snapshots) / ops
    for name in COUNTERS:
        values = [s["counts"][name] for s in snapshots]
        out[name] = max(values) if name.endswith("max_cells") else sum(values) / ops
    return out


def _rebind(orig, wrapper) -> None:
    """Replace every module-level binding of ``orig`` in schurlab."""
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("schurlab") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper
