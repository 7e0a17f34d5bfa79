"""Command line driver.

Four verbs, one certificate per run:

  cubic      six plane points -> determinantal cubic, double six, polarity
             quadric by both routes, induced monad, second-kind curve.
  logbundle  d plane lines -> logarithmic-bundle monad, pairing form, curve,
             jump behaviour at the dual points.
  monad      raw matrices (optional form) -> compatibility, curve, jumping
             points, orthogonality and local singularity reports.
  example    a named worked instance from the families registry.

Exit codes: 0 every claim passed, 2 precondition violated, 3 some claim
failed, 4 claims left unresolved only by field-of-definition obstructions.
"""
from __future__ import annotations

import argparse
import json
import sys

from ..detrep import build_detrep, double_six
from ..errors import ClaimError, PreconditionError
from ..exact_math import Field, vec_canonical
from ..families import EXAMPLES
from ..hulek_monad import (MonadData, biflex_reports, orthogonality_report,
                           select_compatible_form, validate_monad)
from ..logbundle import arrangement_jump_check, build_logbundle
from ..polyring import ZeroLocus
from ..schurform import (induced_monad, minor_apolarity,
                         polarity_swaps_sextuples, schur_pair)
from .documents import (FAIL, PASS, UNRESOLVED, atomic_write,
                        canonical_json, claim, exit_code_for, make_certificate,
                        parse_field, parse_matrix, parse_symmetric,
                        parse_vector, render_text, ser_points, ser_vec)


class Run:
    """Mutable state for one invocation; survives into error certificates."""

    def __init__(self, command: str):
        self.command = command
        self.field = Field()
        self.input_doc: dict = {}
        self.claims: list[dict] = []
        self.artifacts: dict = {}

    def add(self, claim_id: str, result, witness=None) -> str:
        status = result if isinstance(result, str) else (PASS if result else FAIL)
        self.claims.append(claim(claim_id, status, witness))
        return status


def _locus_witness(locus: ZeroLocus) -> dict:
    out = {
        "zero_dimensional": locus.zero_dimensional,
        "resolved_points": ser_points(locus.points),
        "unresolved_form_count": len(locus.unresolved_forms),
        "unresolved_form_degrees": sorted(f.degree for f in locus.unresolved_forms),
    }
    if locus.common_factor is not None:
        out["common_factor"] = locus.common_factor.serialize()
    return out


def _support_claim(run: Run, claim_id: str, locus: ZeroLocus, expected) -> None:
    """Unresolved unless the locus is fully resolved and zero-dimensional;
    then it passes when it is exactly the expected points, or with no
    expected points at all."""
    resolved = locus.fully_resolved and locus.zero_dimensional
    status = ((expected is None or locus.is_exactly(expected)) if resolved
              else UNRESOLVED)
    run.add(claim_id, status, _locus_witness(locus))


def _point_claims(run: Run, monad: MonadData, points, orthogonality_id: str,
                  singularity_id: str, partial: bool) -> None:
    """Orthogonality, then local singularity, at the given jumping points."""
    if not points:
        for claim_id in (orthogonality_id, singularity_id):
            run.add(claim_id, UNRESOLVED, {"reason": "no resolved jumping points"})
        return
    coverage = {"coverage": "resolved points only"} if partial else {}
    reports = [orthogonality_report(monad, z) for z in points]
    run.add(orthogonality_id, all(r.passed for r in reports),
            {"points": [{"point": ser_vec(r.point), "corank": r.corank,
                         "contained": r.contained, "equality": r.equality}
                        for r in reports], **coverage})
    reports = biflex_reports(monad, points)
    run.add(singularity_id, all(r.passed for r in reports),
            {"points": [{"point": ser_vec(r.point), "corank": r.corank,
                         "multiplicity": r.multiplicity, "node": r.is_node,
                         "tangent_orders": r.tangent_orders}
                        for r in reports], **coverage})


def _jumping_locus_claims(run: Run, monad: MonadData, support_id: str,
                          expected=None) -> None:
    """The support claim for the monad's jumping locus (against the expected
    points, or only whether it resolves to finitely many points), then the
    point claims at its resolved points."""
    locus = monad.jumping_points()
    _support_claim(run, support_id, locus, expected)
    _point_claims(run, monad, locus.points, "orthogonality-at-jumping-points",
                  "singularity-at-support", not locus.fully_resolved)


def _monad_core_claims(run: Run, monad: MonadData) -> None:
    """Shared tail: exactness, curve by both routes."""
    report = validate_monad(monad)
    witness = {"generic_injectivity": report.generic_injectivity,
               "pointwise_surjectivity": report.pointwise_surjectivity}
    if report.status == PASS:
        witness["proof"] = "finite jumping locus"
    elif report.status == UNRESOLVED:
        witness["reason"] = "jumping locus has a curve component"
    run.add("monad-exactness", report.status, witness)
    curve = monad.jlsk_curve()
    expected = 2 * monad.n - 2
    run.add("curve-degree", curve.degree == expected,
            {"degree": curve.degree, "expected": expected})
    run.add("curve-route-agreement", monad.jlsk_via_form().proportional(curve))
    run.artifacts["curve"] = curve.serialize()


def cmd_cubic(run: Run, doc: dict) -> None:
    field = run.field
    raw = doc.get("points")
    if not isinstance(raw, list) or len(raw) != 6:
        raise PreconditionError("cubic input needs a list of exactly six points")
    points = [tuple(parse_vector(field, p, 3)) for p in raw]

    rep = build_detrep(field, points)
    run.add("hexad-admissible", True, {"points": ser_points(points)})
    run.artifacts["surface"] = rep.surface.serialize()
    run.add("grid-minors-span-cubics", rep.minors_span_cubics())
    run.add("surface-pullback-vanishes", rep.pullback_vanishes())

    _support_claim(run, "base-points-recovered", rep.recover_points(), rep.points)

    ds = double_six(rep)
    run.add("double-six-admissible", True)
    run.add("lines-on-surface", ds.verify_on_surface())
    run.add("lines-distinct", ds.verify_distinct())
    run.add("double-six-incidence", ds.verify_double_six())
    run.add("cross-line-incidence", ds.verify_c_incidences())

    try:
        kernel_form, orth_form = schur_pair(rep)
    except ClaimError as exc:
        run.add("polarity-routes-agree", FAIL, {"reason": str(exc)})
        return
    run.add("polarity-routes-agree", True,
            {"kernel_route": kernel_form.serialize(),
             "orthogonality_route": orth_form.serialize()})
    run.add("minor-apolarity", minor_apolarity(rep, kernel_form))
    run.add("polarity-swaps-sextuples", polarity_swaps_sextuples(rep, kernel_form))

    monad = induced_monad(rep)
    run.add("monad-compatibility", monad.compatibility_ok())
    _monad_core_claims(run, monad)
    _jumping_locus_claims(run, monad, "support-is-hexad", rep.points)


def cmd_logbundle(run: Run, doc: dict) -> None:
    field = run.field
    raw = doc.get("lines")
    if not isinstance(raw, list):
        raise PreconditionError("logbundle input needs a list of lines")
    forms = [tuple(parse_vector(field, l, 3)) for l in raw]

    lb = build_logbundle(field, forms)
    n = lb.n
    run.add("dimensions", lb.dims == (n - 1, n, n - 1) and n == (lb.d - 1) ** 2,
            {"dims": list(lb.dims), "n": n, "d": lb.d})
    run.add("pairing-form-unique", True, {"form": lb.monad.form.serialize()})
    run.add("monad-compatibility", lb.monad.compatibility_ok())
    _monad_core_claims(run, lb.monad)

    reports = arrangement_jump_check(lb)
    run.add("dual-points-jump",
            all(r.passed for r in reports),
            {"reports": [{"dual_point": ser_vec(r.form), "rank": r.rank,
                          "corank": r.corank, "bound": r.bound,
                          "expected_bound": r.expected_bound}
                         for r in reports]})

    duals = [vec_canonical(f) for f in lb.forms]
    if lb.d == 3:
        _jumping_locus_claims(run, lb.monad, "support-is-dual-points", duals)
    else:
        # For d >= 4 the jumping locus proves exactness but its support is
        # not claimed: its unresolved forms come from one coprime pair of
        # minors only.  The point claims are made at the dual points instead.
        _point_claims(run, lb.monad, duals, "orthogonality-at-dual-points",
                      "singularity-at-dual-points", True)


def cmd_monad(run: Run, doc: dict) -> None:
    field = run.field
    raw = doc.get("maps")
    if not isinstance(raw, list) or len(raw) != 3:
        raise PreconditionError("monad input needs exactly three matrices")
    maps = [parse_matrix(field, m) for m in raw]

    supplied = "form" in doc
    form = (parse_symmetric(field, doc["form"]) if supplied
            else select_compatible_form(field, maps))
    # claimed only once MonadData has accepted the maps and the form
    monad = MonadData(maps, form)
    run.add("form-supplied" if supplied else "form-selected", True,
            {"form": form.serialize()})
    compat = run.add("monad-compatibility", monad.compatibility_ok())
    if compat == FAIL:
        return
    _monad_core_claims(run, monad)
    _jumping_locus_claims(run, monad, "support-resolution")


def cmd_example(run: Run, name: str | None) -> None:
    if not name:
        raise PreconditionError(
            "example command needs --name; known: " + ", ".join(sorted(EXAMPLES)))
    if not isinstance(name, str) or name not in EXAMPLES:
        raise PreconditionError(
            f"unknown example {name!r}; known: " + ", ".join(sorted(EXAMPLES)))
    inst = EXAMPLES[name]()
    run.field = inst.field
    run.input_doc = {"example": name}
    for check_name, ok in inst.checks.items():
        run.add(check_name, ok)
    run.artifacts["example"] = inst.name
    run.artifacts["notes"] = list(inst.notes)


def _load_input(path: str | None) -> dict:
    if path is None:
        raise PreconditionError("this command needs --in pointing at a JSON file")
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise PreconditionError(f"cannot read input: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"input is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # huge integer, deep nesting
        raise PreconditionError(f"input JSON cannot be read: {exc}") from exc
    if not isinstance(doc, dict):
        raise PreconditionError("input document must be a JSON object")
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurlab",
        description="exact verification certificates for determinantal "
                    "surfaces, polarity quadrics, and second-kind jumping loci")
    parser.add_argument("command",
                        choices=["cubic", "logbundle", "monad", "example"])
    parser.add_argument("--in", dest="input_path", metavar="PATH",
                        help="input JSON document")
    parser.add_argument("--out", dest="output_path", metavar="PATH",
                        help="write the certificate here instead of stdout")
    parser.add_argument("--format", choices=["text", "structured"],
                        default="text")
    parser.add_argument("--name", help="worked example name (example command)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = Run(args.command)
    error = None
    try:
        if args.command == "example":
            name = args.name
            if name is None and args.input_path is not None:
                name = _load_input(args.input_path).get("name")
            cmd_example(run, name)
        else:
            doc = _load_input(args.input_path)
            run.input_doc = doc
            run.field = parse_field(doc.get("field", {"type": "rational"}))
            {"cubic": cmd_cubic, "logbundle": cmd_logbundle,
             "monad": cmd_monad}[args.command](run, doc)
    except PreconditionError as exc:
        error = {"kind": "precondition", "message": str(exc)}
    except ClaimError as exc:
        error = {"kind": "claim", "message": str(exc)}

    certificate = make_certificate(run.command, run.field, run.input_doc,
                                   run.claims, run.artifacts, error=error)
    text = (render_text(certificate) if args.format == "text"
            else canonical_json(certificate))
    if args.output_path:
        atomic_write(args.output_path, text)
    else:
        sys.stdout.write(text)

    if error is not None:
        return 2 if error["kind"] == "precondition" else 3
    return exit_code_for(run.claims)


if __name__ == "__main__":
    sys.exit(main())
