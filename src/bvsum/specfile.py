"""Loading of the JSON function-description files used by the CLI.

A file carries ``format`` (currently 1), ``name``, ``domain`` with
``lo``/``hi`` ("inf" for a half-line), a ``pieces`` list, a
``breakpoints`` list and an optional ``tail``; see README for the full
schema.  Validation failures are reported verbatim with file context.
"""

from __future__ import annotations

import json
from pathlib import Path

from .bv import BvFunction, validate
from .errors import ValidationError, Violation

FORMAT_VERSION = 1


def load_spec(path: str | Path) -> dict:
    """Read and version-check a spec file, returning the raw mapping."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ValidationError([Violation("BadSpec", str(path), str(e))]) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(
            [Violation("BadSpec", f"{path}:{e.lineno}:{e.colno}", e.msg)]) from None
    except ValueError as e:  # an integer literal past int's digit limit
        raise ValidationError([Violation("BadSpec", str(path), str(e))]) from None
    if not isinstance(raw, dict):
        raise ValidationError([Violation("BadSpec", str(path), "top level must be an object")])
    if raw.get("format") != FORMAT_VERSION:
        raise ValidationError(
            [Violation("BadSpec", f"{path}:format",
                       f"unsupported format {raw.get('format')!r}, expected {FORMAT_VERSION}")])
    return raw


def load_function(path: str | Path) -> BvFunction:
    """Load and validate a spec file into a BvFunction."""
    raw = load_spec(path)
    try:
        return validate(raw)
    except ValidationError as e:
        raise ValidationError(
            [Violation(v.kind, f"{path}:{v.where}", v.message) for v in e.violations]
        ) from None
