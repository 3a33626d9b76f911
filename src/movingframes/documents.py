"""JSON persistence for operator sets.

Schema (UTF-8, newline-terminated):

    {
      "n": 2,
      "operators": [{"pairing": [2, 1, 4, 3], "signs": [1, -1, -1, 1]}, ...],
      "metadata": {"generator": "...", "created": "..."}   # optional
    }

Pairing indices are 1-based and signs are literal +-1, so a document can be
audited by eye against the defining formulas.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from .operators import OperatorSet, make_operator


class DocumentError(ValueError):
    """Malformed or invalid operator-set document."""


def document_dict(a_set: OperatorSet, generator: str | None = None,
                  timestamp: bool = True) -> dict:
    doc: dict = {
        "n": a_set.dim // 2,
        "operators": [
            {"pairing": list(u.pairing), "signs": list(u.signs)} for u in a_set
        ],
    }
    metadata = {}
    if generator is not None:
        metadata["generator"] = generator
    if timestamp:
        metadata["created"] = datetime.now(timezone.utc).isoformat()
    if metadata:
        doc["metadata"] = metadata
    return doc


def write_document(path: str | Path, a_set: OperatorSet, generator: str | None = None,
                   timestamp: bool = True) -> None:
    text = json.dumps(document_dict(a_set, generator, timestamp), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def parse_document(doc) -> OperatorSet:
    """Validate a decoded document and return its operator set.

    Diagnostics name the offending operator record by index.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"document must be a JSON object, got {type(doc).__name__}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError(f"field 'n' must be a positive integer, got {n!r}")
    records = doc.get("operators")
    if not isinstance(records, list) or not records:
        raise DocumentError("field 'operators' must be a nonempty list")
    members = []
    for idx, record in enumerate(records):
        if not isinstance(record, dict) or "pairing" not in record or "signs" not in record:
            raise DocumentError(f"operator record {idx} must have 'pairing' and 'signs'")
        try:
            members.append(make_operator(2 * n, record["pairing"], record["signs"]))
        except (ValueError, TypeError) as exc:
            raise DocumentError(f"operator record {idx} is invalid: {exc}") from exc
    try:
        return OperatorSet(2 * n, tuple(members))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def read_document(path: str | Path) -> OperatorSet:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    # bad UTF-8, bad JSON and over-long integers are ValueErrors; deep nesting recurses
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    return parse_document(doc)
