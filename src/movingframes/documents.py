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

import itertools
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from .operators import OperatorSet, SignedInvolution, make_operator

_CHUNK = 1024  # records formatted at a time


class DocumentError(ValueError):
    """Malformed or invalid operator-set document."""


def document_chunks(a_set: OperatorSet, generator: str | None = None,
                    timestamp: bool = True) -> Iterator[str]:
    """The document of ``a_set`` in pieces, which together are the text of
    ``json.dumps(doc, indent=2)`` and a newline.

    Records are formatted straight from the set's arrays, _CHUNK at a time,
    so the whole text is never held at once; only the metadata goes through
    ``json``.
    """
    metadata = {}
    if generator is not None:
        metadata["generator"] = generator
    if timestamp:
        metadata["created"] = datetime.now(timezone.utc).isoformat()
    yield f'{{\n  "n": {a_set.dim // 2},\n  "operators": ' + ("[" if len(a_set) else "[]")
    entries = ",\n".join(["        %d"] * a_set.dim)
    record = ('    {\n      "pairing": [\n' + entries + '\n      ],\n'
              '      "signs": [\n' + entries + '\n      ]\n    }')
    k, e = a_set.index_arrays
    rows = np.hstack([k + 1, -e])
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start:start + _CHUNK]
        yield ",\n" if start else "\n"
        yield ",\n".join([record] * len(chunk)) % tuple(chunk.ravel().tolist())
    if len(a_set):
        yield "\n  ]"
    if metadata:  # json.dumps escapes newlines in strings, so each "\n" starts a line
        yield ',\n  "metadata": ' + json.dumps(metadata, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def write_document(path: str | Path, a_set: OperatorSet, generator: str | None = None,
                   timestamp: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(document_chunks(a_set, generator, timestamp))


def _record_arrays(records: list, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairing and sign arrays of records that are all dicts of int lists of
    length ``dim`` with signs +-1; TypeError when one is not (the caller then
    goes record by record)."""
    if set(map(type, records)) != {dict}:
        raise TypeError("a record is not a dict")
    pairings, signs = [r["pairing"] for r in records], [r["signs"] for r in records]
    lists = pairings + signs
    flat = itertools.chain.from_iterable
    if (set(map(type, lists)) != {list} or set(map(len, lists)) != {dim}
            or set(map(type, flat(lists))) != {int}  # type(x) is int: no bool, no float
            or not set(flat(signs)) <= {-1, 1}):
        raise TypeError("a record is not two lists of int of length dim, signs +-1")
    size = len(records) * dim  # too large an int raises OverflowError here
    return (np.fromiter(flat(pairings), np.intp, size).reshape(-1, dim),
            np.fromiter(flat(signs), np.int8, size).reshape(-1, dim))


def parse_document(doc) -> OperatorSet:
    """Validate a decoded document and return its operator set.

    Diagnostics name the offending operator record by index.  Records of
    plain int lists are read into arrays and checked all at once; otherwise
    each record is checked in turn, which gives the same messages.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"document must be a JSON object, got {type(doc).__name__}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError(f"field 'n' must be a positive integer, got {n!r}")
    records = doc.get("operators")
    if not isinstance(records, list) or not records:
        raise DocumentError("field 'operators' must be a nonempty list")
    try:
        try:
            return OperatorSet.from_arrays(*_record_arrays(records, 2 * n))
        except (TypeError, KeyError, OverflowError):
            return OperatorSet(2 * n, _members(records, 2 * n))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _members(records: list, dim: int) -> list[SignedInvolution]:
    """The members, record by record; the first invalid record raises."""
    members = []
    for idx, record in enumerate(records):
        if not isinstance(record, dict) or "pairing" not in record or "signs" not in record:
            raise DocumentError(f"operator record {idx} must have 'pairing' and 'signs'")
        try:
            members.append(make_operator(dim, record["pairing"], record["signs"]))
        except (ValueError, TypeError) as exc:
            raise DocumentError(f"operator record {idx} is invalid: {exc}") from exc
    return members


def read_document(path: str | Path) -> OperatorSet:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    # bad UTF-8, bad JSON and over-long integers are ValueErrors; deep nesting recurses
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    return parse_document(doc)
