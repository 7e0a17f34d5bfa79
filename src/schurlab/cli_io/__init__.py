"""Structured input/output and the command line driver.

``main`` is imported from ``cli`` on first access, not with the package, so
that ``python -m schurlab.cli_io.cli`` runs the module once, as __main__.
"""
from .documents import (FAIL, PASS, SCHEMA, UNRESOLVED, atomic_write,
                        canonical_json, claim, exit_code_for, field_decl,
                        instance_digest, make_certificate, overall_status,
                        parse_field, parse_matrix, parse_symmetric,
                        parse_vector, render_text, ser_points, ser_vec)

__all__ = [
    "main",
    "SCHEMA", "PASS", "FAIL", "UNRESOLVED",
    "atomic_write", "canonical_json", "claim", "exit_code_for", "field_decl",
    "instance_digest", "make_certificate", "overall_status", "parse_field",
    "parse_matrix", "parse_symmetric", "parse_vector", "render_text",
    "ser_points", "ser_vec",
]


def __getattr__(name):
    if name == "main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
