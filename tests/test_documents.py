import pytest

from movingframes import (DocumentError, build_minimal_balanced,
                          enumerate_full, read_document, write_document)
from movingframes.documents import document_dict, parse_document
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
        doc = document_dict(enumerate_full(1), generator="g", timestamp=False)
        assert doc["metadata"] == {"generator": "g"}
        doc = document_dict(enumerate_full(1), timestamp=False)
        assert "metadata" not in doc


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
