import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from movingframes import (DocumentError, build_minimal_balanced,
                          enumerate_full, make_operator, read_document,
                          write_document)
from movingframes import documents
from movingframes.cli import main
from movingframes.documents import document_chunks, parse_document
from movingframes.operators import OperatorSet, SignedInvolution


class TestRoundTrip:
    @pytest.mark.parametrize("a_set", [enumerate_full(1), enumerate_full(2),
                                       build_minimal_balanced(3)])
    def test_write_then_read(self, a_set, tmp_path):
        path = tmp_path / "ops.json"
        write_document(path, a_set, generator="test")
        assert read_document(path) == a_set

    def test_newline_terminated_utf8(self, tmp_path):
        path = tmp_path / "ops.json"
        write_document(path, enumerate_full(1))
        assert path.read_bytes().endswith(b"\n")

    def test_timestamp_suppression(self):
        text = "".join(document_chunks(enumerate_full(1), generator="g", timestamp=False))
        assert json.loads(text)["metadata"] == {"generator": "g"}
        doc = json.loads("".join(document_chunks(enumerate_full(1), timestamp=False)))
        assert "metadata" not in doc


def json_document(a_set, metadata=None):
    """The document as json.dumps writes it, from the members one by one."""
    doc = {"n": a_set.dim // 2,
           "operators": [{"pairing": list(u.pairing), "signs": list(u.signs)} for u in a_set]}
    if metadata:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2) + "\n"


# one member at d = 200: numbers of one, two and three digits in one record
D200 = OperatorSet(200, [make_operator(200, [i + 2 - 2 * (i % 2) for i in range(200)],
                                       [1 - 2 * (i % 2) for i in range(200)])])
SOURCES = [enumerate_full(n) for n in (1, 2, 3)] + [build_minimal_balanced(n) for n in range(2, 8)]


@st.composite
def written_sets(draw):
    """A random subset, in random order and of at least one member, of a full
    or Theorem 3.4 set."""
    k, sign = draw(st.sampled_from(SOURCES)).index_arrays
    size = draw(st.integers(1, len(k)))
    order = draw(st.randoms(use_true_random=False)).sample(range(len(k)), size)
    return OperatorSet.from_arrays(k[order] + 1, sign[order])


class TestWrittenText:
    SETS = [enumerate_full(1), enumerate_full(3), build_minimal_balanced(4),
            OperatorSet(4, enumerate_full(2).members[::-1]), D200]

    @pytest.mark.parametrize("a_set", SETS, ids=["full1", "full3", "min4", "reversed", "d200"])
    def test_same_text_as_json_dumps(self, a_set, tmp_path):
        path = tmp_path / "ops.json"
        write_document(path, a_set, timestamp=False)
        assert path.read_text(encoding="utf-8") == json_document(a_set)
        write_document(path, a_set, generator="théorème \"3.4\"\n", timestamp=False)
        assert path.read_text(encoding="utf-8") == json_document(
            a_set, {"generator": "théorème \"3.4\"\n"})
        write_document(path, a_set, generator="g")
        text = path.read_text(encoding="utf-8")
        created = json.loads(text)["metadata"]["created"]
        assert text == json_document(a_set, {"generator": "g", "created": created})

    def test_refuses_empty_set(self, tmp_path):
        """No reader accepts a document without operators, and no set without
        members exists to be written: both constructors refuse one.  A set of
        one member is written as json.dumps writes it."""
        for build in (lambda: OperatorSet(2, ()),
                      lambda: OperatorSet.from_arrays(np.zeros((0, 2), int), np.zeros((0, 2), int))):
            with pytest.raises(ValueError, match="^an operator set needs at least one member$"):
                build()
        one, path = OperatorSet(2, enumerate_full(1)[:1]), tmp_path / "one.json"
        write_document(path, one, timestamp=False)
        assert path.read_text(encoding="utf-8") == json_document(one)
        assert read_document(path) == one

    def test_more_records_than_one_chunk(self):
        a_set = build_minimal_balanced(7)  # 1,664 records
        assert "".join(document_chunks(a_set, timestamp=False)) == json_document(a_set)

    # chunks of max(1, block // record) records, records of 112 (d = 2) to 400
    # bytes (d = 14) with their ",\n" and padding: one, one to four, or 655 to 2,340
    @pytest.mark.parametrize("block", [1, 500, documents._BLOCK], ids=["one", "few", "block"])
    @settings(max_examples=60, deadline=None)
    @given(a_set=written_sets())
    def test_any_subset_at_any_chunk_boundary(self, block, a_set, tmp_path_factory):
        """The text is json.dumps's wherever the chunks are cut, and it is read
        back by the byte route as the same set, also when that reads a block
        of about as few bytes."""
        def refuse(doc):
            raise AssertionError("the json route was taken")

        path = tmp_path_factory.getbasetemp() / "subset.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(documents, "_BLOCK", block)
            patch.setattr(documents, "parse_document", refuse)
            write_document(path, a_set, timestamp=False)
            assert path.read_text(encoding="utf-8") == json_document(a_set)
            assert read_document(path) == a_set

    def test_memory_stays_within_a_chunk(self):
        """The whole text is never held at once: the 12.3 MB document of the
        Theorem 3.4 set at n = 11 is written within a fixed few MB."""
        a_set = build_minimal_balanced(11)
        a_set.index_arrays  # the set's own arrays, built before tracing
        tracemalloc.start()
        try:
            write_document(os.devnull, a_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def reference_parse_error(doc):
    """The message of the per-record parse that array reading replaced, or None."""
    members = []
    for idx, record in enumerate(doc["operators"]):
        if not isinstance(record, dict) or "pairing" not in record or "signs" not in record:
            return f"operator record {idx} must have 'pairing' and 'signs'"
        try:
            members.append(make_operator(2 * doc["n"], record["pairing"], record["signs"]))
        except (ValueError, TypeError) as exc:
            return f"operator record {idx} is invalid: {exc}"
    if len(set(members)) != len(members):
        return "operator set contains duplicate members"
    return None


CORRUPTIONS = ("bool", "float", "string", "length", "range", "huge", "fixed point",
               "involution", "antisymmetry", "duplicate", "not a record")


@st.composite
def corrupted_documents(draw):
    """A document of a random subset of a generated set, with one to three
    records corrupted in one of the CORRUPTIONS ways each."""
    a_set = draw(st.sampled_from([enumerate_full(1), enumerate_full(2), enumerate_full(3),
                                  build_minimal_balanced(4)]))
    records = [{"pairing": list(u.pairing), "signs": list(u.signs)}
               for u in draw(st.lists(st.sampled_from(a_set.members), min_size=1,
                                      max_size=12, unique=True))]
    d = a_set.dim
    for _ in range(draw(st.integers(1, 3))):
        idx = draw(st.integers(0, len(records) - 1))
        record = records[idx]
        if not (isinstance(record, dict) and set(record) == {"pairing", "signs"}
                and len(record["pairing"]) == len(record["signs"]) == a_set.dim
                and all(type(x) is int for x in record["pairing"] + record["signs"])):
            continue  # this record is corrupted already
        record = records[idx] = {key: list(value) for key, value in record.items()}
        field = draw(st.sampled_from(["pairing", "signs"]))
        pos = draw(st.integers(0, d - 1))
        kind = draw(st.sampled_from(CORRUPTIONS))
        value = record[field][pos]
        if kind == "bool":
            record[field][pos] = draw(st.booleans())
        elif kind == "float":
            record[field][pos] = float(value) + draw(st.sampled_from([0.0, 0.5]))
        elif kind == "string":
            record[field][pos] = str(value)
        elif kind == "length":
            record[field] = record[field][:-1] if draw(st.booleans()) else record[field] + [1]
        elif kind == "range":
            record[field][pos] = draw(st.sampled_from([0, -1, d + 1, 2, -2]))
        elif kind == "huge":
            record[field][pos] = draw(st.sampled_from([2**70, -(2**70), 2**63]))
        elif kind == "fixed point":
            record["pairing"][pos] = pos + 1
        elif kind == "involution":
            record["pairing"][pos] = draw(st.sampled_from(
                [k for k in range(1, d + 1) if k not in (pos + 1, record["pairing"][pos])]
                or [pos + 1]))
        elif kind == "antisymmetry":
            record["signs"][pos] = -record["signs"][pos]
        elif kind == "duplicate":
            records.insert(draw(st.integers(0, len(records))), dict(records[idx]))
        else:
            records[idx] = draw(st.sampled_from([[1, 2], "x", None, {"pairing": [2, 1]}]))
    return {"n": d // 2, "operators": records}


class TestParseDiagnostics:
    @settings(max_examples=250, deadline=None)
    @given(corrupted_documents())
    def test_same_message_as_per_record_parse(self, doc):
        expected = reference_parse_error(doc)
        if expected is None:  # corruptions can cancel out; then the set must parse
            assert len(parse_document(doc)) == len(doc["operators"])
            return
        with pytest.raises(DocumentError) as exc:
            parse_document(doc)
        assert str(exc.value) == expected


class TestParseErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        # plain garbage, bad UTF-8, nesting past the recursion limit, and an
        # integer past the digit limit of int()
        for text in (b"not json at all", b'\xff\xfe{"n":1}', b"[" * 200000,
                     b'{"n": ' + b"1" * 5000 + b', "operators": []}'):
            path.write_bytes(text)
            with pytest.raises(DocumentError, match="valid JSON"):
                read_document(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            read_document(tmp_path / "nope.json")

    def test_document_must_be_an_object(self):
        for doc, kind in (([{"n": 1}], "list"), (7, "int"), (1.5, "float")):
            with pytest.raises(DocumentError) as exc:
                parse_document(doc)
            assert str(exc.value) == f"document must be a JSON object, got {kind}"

    def test_missing_n(self):
        with pytest.raises(DocumentError, match="'n'"):
            parse_document({"operators": [{"pairing": [2, 1], "signs": [1, -1]}]})

    def test_empty_operator_list(self):
        with pytest.raises(DocumentError, match="nonempty"):
            parse_document({"n": 1, "operators": []})

    def test_corrupted_sign_names_record(self):
        doc = {"n": 1, "operators": [
            {"pairing": [2, 1], "signs": [1, -1]},
            {"pairing": [2, 1], "signs": [1, 1]},
        ]}
        with pytest.raises(DocumentError, match="record 1"):
            parse_document(doc)

    def test_wrong_dimension_record(self):
        doc = {"n": 2, "operators": [{"pairing": [2, 1], "signs": [1, -1]}]}
        with pytest.raises(DocumentError, match="record 0"):
            parse_document(doc)

    @pytest.mark.parametrize("pairing,signs", [
        ([2.9, "1"], [True, -1.5]),   # every entry of the wrong type
        ([2.0, 1.0], [1, -1]),        # integral floats
        (["2", "1"], [1, -1]),
        ([2, 1], [True, False]),
        ([2, 1], [True, -1]),         # True == 1, but bool is not a sign
        ([2, 1], [1.0, -1.0]),
    ])
    def test_non_integer_entries_are_not_coerced(self, pairing, signs):
        doc = {"n": 1, "operators": [{"pairing": pairing, "signs": signs}]}
        with pytest.raises(DocumentError, match="operator record 0"):
            parse_document(doc)

    def test_duplicate_members(self):
        doc = {"n": 1, "operators": [
            {"pairing": [2, 1], "signs": [1, -1]},
            {"pairing": [2, 1], "signs": [1, -1]},
        ]}
        with pytest.raises(DocumentError, match="duplicate"):
            parse_document(doc)


def json_route(path):
    """The set or DocumentError of reading a document through read_text,
    json.loads and parse_document, as every document was read before
    written ones were read from their bytes."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    return parse_document(doc)


def outcome(read, path):
    try:
        return read(path)
    except DocumentError as exc:
        return str(exc)


WRITTEN_SETS = [enumerate_full(1), enumerate_full(2), enumerate_full(3),
                build_minimal_balanced(2), build_minimal_balanced(3), build_minimal_balanced(4)]
EDIT_BYTES = sorted(set(b' \n\r\t,-.e0123456789[]{}":'
                       b"noperatorspairingsignsmetadatageneratorcreated"))
NUMBER = re.compile(rb"(?<= )-?[0-9]+(?=[,\n])")  # the first one is "n"
# numbers the writer never writes, and the largest that it does; 19 nines overflow intp,
# and 257, -255 and -257 would wrap to a sign of +-1 in int8
ODD_NUMBERS = ["", "-", "--1", "1-", "1-2", "01", "-01", "00", "-0", "0", "2", "-2", "128",
               "300", "-129", "257", "-255", "-257", "9" * 18, "-" + "9" * 17, "9" * 19,
               "-" + "9" * 19]
RECORD = re.compile(rb"    \{\n.*?\n    \}", re.S)


@st.composite
def edited_documents(draw):
    """The bytes of a written document of a subset of a generated set, with
    one to three edits: a byte replaced, inserted or deleted; a number
    rewritten canonically (a sign flipped, a pairing entry made a fixed
    point) or as text of [-0-9] that it never writes, or moved elsewhere;
    or a record duplicated.  Positions are drawn uniformly."""
    a_set = draw(st.sampled_from(WRITTEN_SETS))
    members = draw(st.lists(st.sampled_from(a_set.members), min_size=1, max_size=8, unique=True))
    generator = draw(st.sampled_from([None, "gen-min", "théorème \"3.4\"\n"]))
    data = bytearray("".join(document_chunks(OperatorSet(a_set.dim, members), generator,
                                             timestamp=draw(st.booleans()))).encode())
    d = a_set.dim
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace", "insert", "delete", "flip", "fixed point",
                                     "rewrite", "move", "duplicate"]))
        numbers = list(NUMBER.finditer(data))
        if kind in ("replace", "insert", "delete"):
            at = draw(st.sampled_from(range(len(data))))
            data[at:at + (kind != "insert")] = b"" if kind == "delete" else bytes(
                [draw(st.sampled_from(EDIT_BYTES))])
        elif kind == "flip" and numbers:
            number = draw(st.sampled_from(numbers))
            data[number.start():number.end()] = str(-int(number[0])).encode()
        elif kind == "fixed point" and len(numbers) > 1:
            slot = draw(st.integers(0, len(numbers) - 2))
            if slot % (2 * d) < d:  # a pairing entry
                number = numbers[slot + 1]
                data[number.start():number.end()] = str(slot % (2 * d) + 1).encode()
        elif kind == "rewrite" and numbers:
            number = draw(st.sampled_from(numbers))
            data[number.start():number.end()] = draw(st.one_of(
                st.sampled_from(ODD_NUMBERS), st.text("-0123456789", max_size=4))).encode()
        elif kind == "move" and numbers:
            number = draw(st.sampled_from(numbers))
            del data[number.start():number.end()]
            at = draw(st.sampled_from(range(len(data) + 1)))
            data[at:at] = number[0]
        elif kind == "duplicate":
            records = list(RECORD.finditer(data))
            if records:
                record = draw(st.sampled_from(records))
                data[record.end():record.end()] = b",\n" + record[0]
    return bytes(data)


class TestByteRoute:
    @pytest.mark.parametrize("block", [documents._BLOCK, 100], ids=["block", "small-block"])
    @settings(max_examples=300, deadline=None)
    @given(data=edited_documents())
    def test_same_outcome_as_json_route(self, block, data, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "edited.json"
        path.write_bytes(data)
        event("byte route" if documents._written_arrays(data) is not None else "json route")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(documents, "_BLOCK", block)  # 100 bytes: records straddle block cuts
            assert outcome(read_document, path) == outcome(json_route, path)

    @pytest.mark.parametrize("block", [documents._BLOCK, 100], ids=["block", "small-block"])
    def test_odd_and_moved_numbers(self, block, tmp_path, monkeypatch):
        # each odd number in each slot of a two-record document, and its first
        # number moved to each position: every run check of the byte route
        monkeypatch.setattr(documents, "_BLOCK", block)
        a_set = OperatorSet(4, build_minimal_balanced(2).members[:2])
        written = "".join(document_chunks(a_set, timestamp=False)).encode()
        numbers = list(NUMBER.finditer(written))[1:]
        edited = [written[:number.start()] + odd.encode() + written[number.end():]
                  for number in numbers for odd in ODD_NUMBERS]
        first = numbers[0]
        rest = written[:first.start()] + written[first.end():]
        edited += [rest[:at] + first[0] + rest[at:] for at in range(len(rest) + 1)]
        path = tmp_path / "doc.json"
        for data in edited:
            path.write_bytes(data)
            assert outcome(read_document, path) == outcome(json_route, path), data

    def test_generated_documents_take_the_byte_route(self, tmp_path, monkeypatch):
        def refuse(doc):
            raise AssertionError("the json route was taken")

        monkeypatch.setattr(documents, "parse_document", refuse)
        path = tmp_path / "doc.json"
        for command, build, sizes in (("gen-min", build_minimal_balanced, range(1, 11)),
                                      ("gen-full", enumerate_full, range(1, 5))):
            for n in sizes:
                assert main([command, str(n), "-o", str(path)]) == 0
                assert read_document(path) == build(n)
        for generator in ("théorème \"3.4\" ✓\n", None):
            write_document(path, enumerate_full(2), generator=generator, timestamp=True)
            assert read_document(path) == enumerate_full(2)

    def test_other_json_takes_the_json_route(self, tmp_path):
        a_set = build_minimal_balanced(3)
        written = "".join(document_chunks(a_set, generator="g"))
        copies = {"crlf": written.replace("\n", "\r\n").encode(),
                  "bom": b"\xef\xbb\xbf" + written.encode(),
                  "compact": json.dumps(json.loads(written), separators=(",", ":")).encode()}
        # the inputs of TestParseErrors.test_not_json and TestCheckBalance.test_garbage_file
        garbage = [b"not json at all", b"{{{", b'\xff\xfe{"n":1}', b"[" * 200000,
                   b'{"n": ' + b"1" * 5000 + b', "operators": []}']
        path = tmp_path / "doc.json"
        for name, data in [*copies.items(), *enumerate(garbage)]:
            assert documents._written_arrays(data) is None, name
            path.write_bytes(data)
            expected = outcome(json_route, path)
            assert outcome(read_document, path) == expected, name
            assert (expected == a_set) == (name in ("crlf", "compact")), name

    def test_record_longer_than_any_written_one(self, tmp_path, monkeypatch):
        # valid JSON whose first record is padded past _BLOCK + the longest written
        # record: refused by its length, before any block is scanned
        def scan(*args):
            raise AssertionError("a block was scanned")

        monkeypatch.setattr(documents, "_BLOCK", 100)
        monkeypatch.setattr(documents, "_block_arrays", scan)
        a_set = OperatorSet(4, build_minimal_balanced(2).members[:2])
        written = "".join(document_chunks(a_set, timestamp=False))
        data = written.replace('"pairing": [', '"pairing": [' + " " * 500, 1).encode()
        assert documents._written_arrays(data) is None
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        assert outcome(read_document, path) == outcome(json_route, path) == a_set

    @pytest.mark.parametrize("dim", [2, 4, 20, 256])
    def test_number_slots_are_the_space_comma_and_space_newline_pairs(self, dim):
        # the premise of the exactness argument in documents._written_arrays
        template = documents._record_template(dim)
        assert len(re.findall(r" %d[,\n]", template)) == template.count("%") == 2 * dim
        assert len(re.findall(r" [,\n]", template.replace("%d", ""))) == 2 * dim

    def test_memory_stays_within_the_json_route(self, tmp_path):
        path = tmp_path / "min10.json"
        write_document(path, build_minimal_balanced(10))
        peaks = []
        for read in (read_document, json_route):
            tracemalloc.start()
            try:
                read(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.1 * peaks[1]


class TestAssets:
    def test_presets_match_shipped_documents(self):
        # the presets are loaded from the shipped documents; pin their operators
        from movingframes import s1_basis, s3_basis
        assert s1_basis() == OperatorSet(2, (SignedInvolution((2, 1), (1, -1)),))
        assert s3_basis() == OperatorSet(4, (
            SignedInvolution((2, 1, 4, 3), (1, -1, -1, 1)),
            SignedInvolution((3, 4, 1, 2), (1, 1, -1, -1)),
            SignedInvolution((4, 3, 2, 1), (1, -1, 1, -1)),
        ))
