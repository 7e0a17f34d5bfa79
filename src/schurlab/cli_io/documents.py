"""Canonical structured documents: parsing, serialization, certificates.

Every run emits one self-describing document.  Serialization is canonical
(sorted keys, fixed separators, trailing newline) and writes are atomic, so
two runs over the same input and seed produce byte-identical artifacts.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile

from ..errors import PreconditionError
from ..exact_math import Field, Matrix, SymForm

SCHEMA = "schurlab-certificate/1"

PASS = "pass"
FAIL = "fail"
PROBED = "probed"
UNRESOLVED = "unresolved"


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".schurlab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def instance_digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def parse_field(decl) -> Field:
    if not isinstance(decl, dict) or "type" not in decl:
        raise PreconditionError("field declaration must be an object with a type")
    kind = decl["type"]
    if kind == "rational":
        return Field()
    if kind == "quadratic":
        if "s" not in decl or not isinstance(decl["s"], int):
            raise PreconditionError("quadratic field needs an integer s")
        return Field(decl["s"])
    raise PreconditionError(f"unknown field type {kind!r}")


def field_decl(field: Field) -> dict:
    if field.s is None:
        return {"type": "rational"}
    return {"type": "quadratic", "s": field.s}


def parse_vector(field: Field, entries, length: int | None = None):
    if not isinstance(entries, (list, tuple)):
        raise PreconditionError("vector must be a list of scalar strings")
    if length is not None and len(entries) != length:
        raise PreconditionError(f"vector of length {len(entries)}, expected {length}")
    out = []
    for e in entries:
        if isinstance(e, str):
            out.append(field.parse(e))
        elif type(e) is int:  # not bool: JSON true/false are not scalars
            out.append(field.scalar(e))
        else:
            raise PreconditionError(f"scalar entries must be strings, got {type(e).__name__}")
    return out


def parse_matrix(field: Field, rows, shape=None) -> Matrix:
    if not isinstance(rows, list) or not rows:
        raise PreconditionError("matrix must be a nonempty list of rows")
    width = None
    data = []
    for row in rows:
        vec = parse_vector(field, row)
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise PreconditionError("ragged matrix rows")
        data.append(vec)
    mat = Matrix.from_rows(field, data)
    if shape is not None and (mat.rows, mat.cols) != shape:
        raise PreconditionError(
            f"matrix shape {mat.rows}x{mat.cols}, expected {shape[0]}x{shape[1]}")
    return mat


def parse_symmetric(field: Field, rows) -> SymForm:
    mat = parse_matrix(field, rows)
    if mat.rows != mat.cols:
        raise PreconditionError("form matrix must be square")
    return SymForm(mat)


def ser_vec(vec):
    return [c.serialize() for c in vec]


def ser_points(points):
    return [ser_vec(p) for p in points]


def claim(claim_id: str, status: str, witness=None) -> dict:
    out = {"id": claim_id, "status": status}
    if witness is not None:
        out["witness"] = witness
    return out


def overall_status(claims) -> str:
    statuses = [c["status"] for c in claims]
    if FAIL in statuses:
        return FAIL
    if UNRESOLVED in statuses:
        return UNRESOLVED
    if PROBED in statuses:
        return PROBED
    return PASS


def exit_code_for(claims) -> int:
    status = overall_status(claims)
    if status == FAIL:
        return 3
    if status == UNRESOLVED:
        return 4
    return 0


def make_certificate(command: str, field: Field, seed: int, input_doc,
                     claims, artifacts, error=None) -> dict:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "field": field_decl(field),
        "seed": seed,
        "digest": instance_digest(input_doc),
        "claims": claims,
        "artifacts": artifacts,
        "status": overall_status(claims) if error is None else FAIL,
    }
    if error is not None:
        doc["error"] = error
    return doc


def render_text(doc: dict) -> str:
    """Human-readable view, derived line by line from the structured form."""
    lines = [f"schurlab {doc['command']}  field={doc['field']['type']}"
             + (f"(s={doc['field']['s']})" if doc['field']['type'] == "quadratic" else "")
             + f"  seed={doc['seed']}",
             f"input digest {doc['digest']}"]
    if "error" in doc:
        lines.append(f"ERROR [{doc['error']['kind']}] {doc['error']['message']}")
    for c in doc["claims"]:
        lines.append(f"{c['status'].upper():10s} {c['id']}")
    lines.append(f"overall: {doc['status']}")
    return "\n".join(lines) + "\n"
