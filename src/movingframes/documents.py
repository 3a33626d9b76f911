"""JSON persistence for operator sets.

Schema (UTF-8, newline-terminated):

    {
      "n": 2,
      "operators": [{"pairing": [2, 1, 4, 3], "signs": [1, -1, -1, 1]}, ...],
      "metadata": {"generator": "...", "created": "..."}   # optional
    }

Pairing indices are 1-based and signs are literal +-1, so a document can be
audited by eye against the defining formulas.

Documents are written in one fixed layout, the text of
``json.dumps(doc, indent=2)``.  :func:`read_document` reads a document in
exactly that layout straight from its bytes with numpy, a block of records at
a time, and checks all records at once; any other JSON is decoded with
``json`` and checked record by record by :func:`parse_document`.  Either way
the set, every message and so every exit code are the same.
"""

from __future__ import annotations

import io
import json
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from .operators import OperatorSet, make_operator
from .sphere import is_integer

_CHUNK = 1024  # records formatted at a time
_BLOCK = 1 << 18  # bytes of written records read at a time

_HEADER = re.compile(rb'\{\n  "n": ([1-9][0-9]{0,17}),\n  "operators": \[\n')
_METADATA = b',\n  "metadata": '
_NUMBER = b"-0123456789"
# a %d of at most this many characters, "-" included, fits in np.intp
_MAX_NUMBER = len(str(np.iinfo(np.intp).max)) - 1


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
    if not len(a_set):  # read_document refuses a document without operators
        raise ValueError("cannot write an empty operator set")
    metadata = {}
    if generator is not None:
        metadata["generator"] = generator
    if timestamp:
        metadata["created"] = datetime.now(timezone.utc).isoformat()
    yield f'{{\n  "n": {a_set.dim // 2},\n  "operators": ['
    record = _record_template(a_set.dim)
    k, sign = a_set.index_arrays
    rows = np.hstack([k + 1, sign])
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start:start + _CHUNK]
        yield ",\n" if start else "\n"
        yield ",\n".join([record] * len(chunk)) % tuple(chunk.ravel().tolist())
    yield "\n  ]"
    if metadata:  # json.dumps escapes newlines in strings, so each "\n" starts a line
        yield ',\n  "metadata": ' + json.dumps(metadata, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def _record_template(dim: int) -> str:
    """One written record of dimension ``dim``, with a ``%d`` for each of its
    2 * dim numbers, pairing first, as ``json.dumps(doc, indent=2)`` lays it out."""
    entries = ",\n".join(["        %d"] * dim)
    return ('    {\n      "pairing": [\n' + entries + '\n      ],\n'
            '      "signs": [\n' + entries + '\n      ]\n    }')


def write_document(path: str | Path, a_set: OperatorSet, generator: str | None = None,
                   timestamp: bool = True) -> None:
    chunks = document_chunks(a_set, generator, timestamp)
    head = next(chunks)  # an empty set is refused here, before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.writelines(chunks)


def parse_document(doc) -> OperatorSet:
    """Validate a decoded document and return its operator set.

    Records are checked in turn; diagnostics name the first invalid record
    by index.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"document must be a JSON object, got {type(doc).__name__}")
    n = doc.get("n")
    if not is_integer(n) or n < 1:
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
        return OperatorSet(2 * n, members)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _written_arrays(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The pairing and sign rows of the records of ``json.loads(data)``, when
    ``data`` is the text :func:`document_chunks` writes for some set, with any
    metadata, and every sign is +-1; otherwise None.  ``OperatorSet.from_arrays``
    of them gives the set, or the message, of ``parse_document(json.loads(data))``.

    Why these are exactly the records ``json.loads`` would produce.  Let R be
    the bytes between the header ``{\\n  "n": N,\\n  "operators": [\\n`` (N a
    positive integer without leading zeros) and the last ``\\n  ]``.

    * With every digit and "-" deleted, R equals the record template of
      dimension d = 2N without its numbers, repeated and joined by ",\\n".
    * Every maximal run of [-0-9] in R sits between a space and "," or a
      newline.  In the numberless text those adjacencies are exactly the 2d
      number slots of each record, and two runs in one slot would be one run,
      so with 2d runs per record each slot holds exactly one run.
    * Every run is a canonical %d: "-" only first, no leading zero, no "-0",
      at most ``_MAX_NUMBER`` characters.
    * After R come ``\\n  ]\\n}\\n``, or ``\\n  ],\\n  "metadata": X\\n}\\n`` with X
      valid UTF-8 that ``json.loads`` reads as one value.

    Then the bytes are the writer's output for those integers, which
    ``json.loads`` decodes to records of d ints per list, and the integers
    read here are theirs.  R is read in blocks cut at "},\\n    {" every
    ``_BLOCK`` bytes or so, so that no temporary covers the whole document.
    """
    header = _HEADER.match(data)
    if header is None:
        return None
    dim = 2 * int(header[1])
    if 22 * dim > len(data):  # shorter than one record, which takes over 22 bytes a coordinate
        return None
    start, end = header.end(), data.rfind(b"\n  ]", header.end())
    if end <= start:
        return None
    metadata = end + 4 + len(_METADATA)
    if data[end + 4:] != b"\n}\n":
        if not (data.startswith(_METADATA, end + 4) and data.endswith(b"\n}\n")
                and metadata < len(data) - 3):
            return None
        try:
            json.loads(data[metadata:-3].decode("utf-8"))
        except (ValueError, RecursionError):
            return None
    skeleton = _record_template(dim).replace("%d", "").encode()
    longest = len(skeleton) + 2 * dim * _MAX_NUMBER
    pairings, signs = [], []
    while start < end:
        cut = data.find(b"},\n    {", start + _BLOCK, end)
        stop = end if cut < 0 else cut + 1
        if stop - start > _BLOCK + longest:  # a record longer than any written one
            return None
        arrays = _block_arrays(data[start:stop], skeleton, dim)
        if arrays is None:
            return None
        pairings.append(arrays[0])
        signs.append(arrays[1])
        start = stop + 2
    return np.concatenate(pairings), np.concatenate(signs)


def _block_arrays(block: bytes, skeleton: bytes, dim: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The pairing and sign arrays of a block of whole written records, each
    ``skeleton`` with one canonical %d in each of its 2 * dim slots, when
    every sign is +-1; otherwise None."""
    stripped = block.translate(None, _NUMBER)
    count, rest = divmod(len(stripped) + 2, len(skeleton) + 2)
    if rest or stripped != b",\n".join([skeleton] * count):
        return None
    buf = np.frombuffer(block, np.uint8)
    # the skeleton has no "." or "/", so bytes 45..57 are now exactly [-0-9]
    number = buf - ord("-") <= ord("9") - ord("-")
    if number[0] or number[-1]:  # no space before, or nothing after
        return None
    edges = np.flatnonzero(number[1:] != number[:-1]) + 1
    starts, ends = edges[::2], edges[1::2]
    if len(starts) != 2 * dim * count:
        return None
    after = buf[ends]
    negative = buf[starts] == ord("-")
    first = starts + negative
    digits = ends - first
    values = (buf[first] - ord("0")).astype(np.intp)  # above 9 unless a digit
    if not (np.all(buf[starts - 1] == ord(" "))
            and np.all((after == ord(",")) | (after == ord("\n")))
            and (ends - starts).max() <= _MAX_NUMBER and values.max() <= 9
            and not np.any((values == 0) & ((digits > 1) | negative))):
        return None
    for j in range(1, int(digits.max())):
        more = digits > j
        digit = buf[first[more] + j] - ord("0")
        if digit.max() > 9:  # a "-" inside a run
            return None
        values[more] = values[more] * 10 + digit
    values *= 1 - 2 * negative.view(np.int8)
    values = values.reshape(count, 2 * dim)
    if not np.all(np.abs(values[:, dim:]) == 1):  # else the int8 cast wraps 257 to 1
        return None
    return values[:, :dim], values[:, dim:].astype(np.int8)


def read_document(path: str | Path) -> OperatorSet:
    """The operator set of the document at ``path``.

    A document in the written layout is read straight from its bytes (see
    :func:`_written_arrays`); any other is decoded as ``Path.read_text`` would
    and checked by :func:`parse_document`, with the same messages.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    arrays = _written_arrays(data)
    if arrays is not None:
        del data  # freed before the set's checks allocate
        try:
            return OperatorSet.from_arrays(*arrays)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    try:  # UTF-8 with universal newlines, as Path.read_text decodes
        doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    # bad UTF-8, bad JSON and over-long integers are ValueErrors; deep nesting recurses
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    return parse_document(doc)
