import itertools
import json
import math
import re
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingframes import (build_minimal_balanced, build_pairing_matrix,
                          enumerate_full, extract_pairings, make_operator,
                          read_document, tangency_defect, write_document)
from movingframes.operators import (OperatorSet, SignedInvolution,
                                   _fixed_point_free_involutions)

CIRCLE = make_operator(2, (2, 1), (1, -1))


class TestMakeOperator:
    def test_circle_field(self):
        u = make_operator(2, (2, 1), (1, -1))
        assert u.pairing == (2, 1)
        assert u.signs == (1, -1)

    def test_valid_dim4(self):
        u = make_operator(4, (2, 1, 4, 3), (1, -1, -1, 1))
        assert u([1.0, 2.0, 3.0, 4.0]) == [-2.0, 1.0, 4.0, -3.0]

    def test_rejects_odd_dim(self):
        with pytest.raises(ValueError, match="even"):
            make_operator(3, (2, 1, 3), (1, -1, 1))

    def test_rejects_fixed_point(self):
        with pytest.raises(ValueError, match="fixed point at position 3"):
            make_operator(4, (2, 1, 3, 4), (1, -1, 1, -1))

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="not an involution at position 1"):
            make_operator(4, (2, 3, 4, 1), (1, -1, 1, -1))

    def test_rejects_sign_violation(self):
        with pytest.raises(ValueError, match="antisymmetric.*position 1"):
            make_operator(4, (2, 1, 4, 3), (1, 1, -1, 1))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="position 2 is out of range"):
            make_operator(4, (2, 5, 4, 3), (1, -1, -1, 1))

    @pytest.mark.parametrize("entry", [2.0, True, "2", np.int64(2)])
    def test_rejects_non_int_index_by_type(self, entry):
        with pytest.raises(ValueError, match=r"position 1 must be an int, got "):
            SignedInvolution((entry, 1), (1, -1))

    def test_rejects_bad_sign_value(self):
        with pytest.raises(ValueError, match="sign at position 2"):
            SignedInvolution((2, 1), (1, 0))

    def test_rejects_bool_sign(self):
        # True == 1, but a boolean is not a sign
        with pytest.raises(ValueError, match="sign at position 1"):
            SignedInvolution((2, 1), (True, -1))

    @pytest.mark.parametrize("dim,pairing,signs", [
        (4.0, (2, 1, 4, 3), (1, -1, 1, -1)), (np.float64(4), (2, 1, 4, 3), (1, -1, 1, -1)),
        ("4", (2, 1, 4, 3), (1, -1, 1, -1)), (True, (2, 1), (1, -1)),
    ], ids=["float", "numpy-float", "str", "bool"])
    def test_dim_follows_the_integer_rule(self, dim, pairing, signs):
        """A dim that is not an int or numpy integer, or is a bool, is refused
        before the pairing is read; a numpy integer is taken as its int."""
        with pytest.raises(ValueError, match=f"^dim must be an integer, got {re.escape(repr(dim))}$"):
            make_operator(dim, pairing, signs)
        assert make_operator(np.int64(len(pairing)), pairing, signs) == make_operator(
            len(pairing), pairing, signs)

    def test_rejects_length_mismatch(self):
        for pairing, signs in [((2, 1), (1, -1)), ((2, 1, 4, 3), (1, -1))]:
            with pytest.raises(ValueError, match="length"):
                make_operator(4, pairing, signs)

    def test_plain_swap_is_rejected(self):
        # a -> (a_2, a_1) has no sign flip and is not tangent: at (0.6, 0.8)
        # the image dotted with the point gives 2 * 0.6 * 0.8 = 0.96.
        with pytest.raises(ValueError, match="antisymmetric"):
            make_operator(2, (2, 1), (1, 1))
        swapped = [0.8, 0.6]
        assert abs(np.dot(swapped, [0.6, 0.8]) - 0.96) < 1e-15


def five_pass_reference(pairing, signs):
    """Reference for the constructor: the same checks in five separate passes
    (ranges, fixed points, involution, sign values, antisymmetry); the first
    message, or None."""
    d = len(pairing)
    if d == 0 or d % 2 != 0:
        return f"dimension must be a positive even integer, got {d}"
    if len(signs) != d:
        return f"signs has length {len(signs)}, expected {d} to match pairing"
    for i, k in enumerate(pairing, start=1):
        if not isinstance(k, int) or isinstance(k, bool):
            return f"pairing index at position {i} must be an int, got {k!r}"
        if not 1 <= k <= d:
            return f"pairing index at position {i} is out of range 1..{d}: {k!r}"
    for i, k in enumerate(pairing, start=1):
        if k == i:
            return f"pairing has a fixed point at position {i}"
    for i, k in enumerate(pairing, start=1):
        if pairing[k - 1] != i:
            return (f"pairing is not an involution at position {i}: "
                    f"position {i} maps to {k} but {k} maps to {pairing[k - 1]}")
    for i, s in enumerate(signs, start=1):
        if not isinstance(s, int) or isinstance(s, bool) or s not in (-1, 1):
            return f"sign at position {i} must be -1 or +1, got {s!r}"
    for i, k in enumerate(pairing, start=1):
        if signs[i - 1] != -signs[k - 1]:
            return (f"signs are not antisymmetric within the pair at position {i}: "
                    f"sign[{i}] = {signs[i - 1]} but sign[{k}] = {signs[k - 1]}")
    return None


def constructor_message(pairing, signs):
    try:
        SignedInvolution(pairing, signs)
    except ValueError as exc:
        return str(exc)
    return None


ENTRIES = st.one_of(st.integers(-1, 7), st.booleans(), st.floats(), st.text(max_size=2))


def two_pass_reference(pairing, signs):
    """Reference for the constructor's wording of an operator with several
    faults: each position on its own (an int index in range, not fixed, and a
    sign +-1), then each position against its partner; the first message, or None."""
    d = len(pairing)
    if d == 0 or d % 2 != 0:
        return f"dimension must be a positive even integer, got {d}"
    if len(signs) != d:
        return f"signs has length {len(signs)}, expected {d} to match pairing"
    for i, (k, s) in enumerate(zip(pairing, signs), start=1):
        if not isinstance(k, int) or isinstance(k, bool):
            return f"pairing index at position {i} must be an int, got {k!r}"
        if not 1 <= k <= d:
            return f"pairing index at position {i} is out of range 1..{d}: {k!r}"
        if k == i:
            return f"pairing has a fixed point at position {i}"
        if not isinstance(s, int) or isinstance(s, bool) or s not in (-1, 1):
            return f"sign at position {i} must be -1 or +1, got {s!r}"
    for i, k in enumerate(pairing, start=1):
        if pairing[k - 1] != i:
            return (f"pairing is not an involution at position {i}: "
                    f"position {i} maps to {k} but {k} maps to {pairing[k - 1]}")
        if signs[i - 1] != -signs[k - 1]:
            return (f"signs are not antisymmetric within the pair at position {i}: "
                    f"sign[{i}] = {signs[i - 1]} but sign[{k}] = {signs[k - 1]}")
    return None


class Small(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


class Index(int):
    """An int subclass that is not an enum."""


@st.composite
def changed_entries(draw, count):
    """A valid operator on R^d, d <= 6, with ``count`` pairing or sign entries
    replaced (a position may be drawn twice), as tuples or as lists."""
    d = 2 * draw(st.integers(1, 3))
    order = draw(st.permutations(range(1, d + 1)))
    pairing, signs = [0] * d, [0] * d
    for i, k in zip(order[::2], order[1::2]):
        pairing[i - 1], pairing[k - 1] = k, i
        signs[i - 1] = draw(st.sampled_from((1, -1)))
        signs[k - 1] = -signs[i - 1]
    small = st.integers(-2 * d, 2 * d)  # below -d, pairing[k - 1] would raise IndexError
    for _ in range(count):
        changed = draw(st.sampled_from((pairing, signs)))
        changed[draw(st.integers(0, d - 1))] = draw(
            small | ENTRIES | small.map(np.int64) | small.map(Index) | st.sampled_from(Small)
            | st.lists(small, min_size=2, max_size=2).map(np.array))
    container = draw(st.sampled_from((tuple, list)))
    return container(pairing), container(signs)


class TestAgainstFivePassReference:
    @settings(max_examples=300)
    @given(st.lists(ENTRIES, max_size=6), st.lists(ENTRIES, max_size=6))
    def test_accept_and_reject_agree(self, pairing, signs):
        expected = five_pass_reference(tuple(pairing), tuple(signs))
        assert (constructor_message(tuple(pairing), tuple(signs)) is None) == (expected is None)

    @settings(max_examples=300)
    @given(changed_entries(1))
    def test_one_changed_entry_keeps_its_message(self, operator):
        assert constructor_message(*operator) == five_pass_reference(*operator)

    @settings(max_examples=500)
    @given(changed_entries(2))
    def test_two_changed_entries_keep_their_precedence(self, operator):
        """With two faults the first position's own fault comes before any
        pairwise one, which five separate passes would not give; acceptance
        still agrees with them."""
        message = constructor_message(*operator)
        assert message == two_pass_reference(*operator)
        assert (message is None) == (five_pass_reference(*operator) is None)

    @pytest.mark.parametrize("container", [tuple, list])
    @pytest.mark.parametrize("pairing, signs, accepted", [
        # int subclasses are ints, at either row and in either role of a pair
        ((Small.TWO, Small.ONE, 4, Small.THREE), (1, -1, Index(-1), Small.ONE), True),
        ((Index(3), 4, Index(1), Index(2)), (Index(1), -1, -1, 1), True),
        ((Small.TWO, Small.TWO, 4, 3), (1, -1, -1, 1), False),
        ((Index(2), 1, 4, Index(5)), (1, -1, -1, 1), False),
        ((2, 1, 4, 3), (1, -1, Index(1), Index(1)), False),
        # numpy integers and bools compare equal to valid entries but are refused
        ((np.int64(2), 1, 4, 3), (1, -1, -1, 1), False),
        ((2, 1, 4, np.intp(3)), (1, -1, -1, 1), False),
        ((2, 1, 4, 3), (np.int8(1), -1, -1, 1), False),
        ((2, 1, 4, 3), (1, -1, -1, np.int64(1)), False),
        ((2, True, 4, 3), (1, -1, -1, 1), False),
        ((2, 1, 4, 3), (True, -1, -1, 1), False),
        ((2, 1, 4, 3), (1, -1, -1, True), False),
        ((3, 4, 1, 2), (1, False, -1, 1), False),
        # 0 and -1 would index the last entries without the range test, -9 nothing
        ((0, 1, 4, 3), (1, -1, -1, 1), False),
        ((2, 1, 4, -1), (1, -1, -1, 1), False),
        ((-1, 4, 4, 2), (1, 1, -1, -1), False),
        ((2, 1, 0, 3), (1, -1, -1, 1), False),
        ((2, 1, -9, 3), (1, -1, -1, 1), False),
        # an array entry is refused by its own check, also where a partner meets it first
        ((2, np.array([1, 1]), 4, 3), (1, -1, 1, -1), False),
        ((2, 1, 4, 3), (1, np.array([-1, -1]), 1, -1), False),
        ((2, 1, 4, 3), (1, np.array([-1]), 1, -1), False),
    ])
    def test_edge_entries_keep_outcome_and_message(self, pairing, signs, accepted, container):
        operator = container(pairing), container(signs)
        message = constructor_message(*operator)
        assert message == five_pass_reference(*operator)
        assert (message is None) == accepted


class TestApply:
    def test_circle_example(self):
        assert CIRCLE([0.6, 0.8]) == [-0.8, 0.6]

    def test_zero_vector(self):
        u = make_operator(4, (3, 4, 1, 2), (1, 1, -1, -1))
        assert u([0.0] * 4) == [0.0] * 4

    def test_quaternion_style_operator(self):
        u = make_operator(4, (3, 4, 1, 2), (1, 1, -1, -1))
        assert u([1, 2, 3, 4]) == [-3, -4, 1, 2]

    def test_numpy_roundtrip(self):
        u = make_operator(4, (2, 1, 4, 3), (1, -1, -1, 1))
        a = np.array([1.0, 2.0, 3.0, 4.0])
        out = u(a)
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, [-2.0, 1.0, 4.0, -3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            CIRCLE([1.0, 0.0, 0.0])

    def test_refuses_all_but_one_vector(self):
        """A batch, a nested list, a string or a ragged list is not one vector
        of length dim, though the first two have dim rows and the string dim
        characters."""
        u = make_operator(4, (2, 1, 4, 3), (1, -1, -1, 1))
        for op, a, got in ((u, np.arange(16.0).reshape(4, 4), "shape (4, 4)"),
                           (CIRCLE, [[1, 2], [3, 4]], "shape (2, 2)"),
                           (CIRCLE, "ab", "shape ()"),
                           (CIRCLE, [[1, 2], [3]], "a ragged sequence")):
            with pytest.raises(ValueError) as exc:
                op(a)
            assert str(exc.value) == f"expected one vector of length {op.dim}, got {got}"

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    def test_preserves_norm(self, vec):
        u = make_operator(4, (4, 3, 2, 1), (1, 1, -1, -1))
        assert math.isclose(
            np.linalg.norm(u(np.array(vec))), np.linalg.norm(vec),
            rel_tol=0, abs_tol=1e-9 * max(1.0, np.linalg.norm(vec)),
        )

    @given(st.lists(st.integers(-100, 100), min_size=6, max_size=6))
    def test_double_apply_negates(self, vec):
        # each coordinate pair acts as a quarter turn
        for u in (make_operator(6, (2, 1, 4, 3, 6, 5), (1, -1, 1, -1, 1, -1)),
                  make_operator(6, (4, 6, 5, 1, 3, 2), (1, 1, -1, -1, 1, -1))):
            assert u(u(vec)) == [-x for x in vec]


class TestEnumerateFull:
    def test_n1_listing(self):
        ops = enumerate_full(1)
        assert [(u.pairing, u.signs) for u in ops] == [
            ((2, 1), (1, -1)),
            ((2, 1), (-1, 1)),
        ]

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 12), (3, 120), (4, 1680)])
    def test_cardinality(self, n, count):
        assert len(enumerate_full(n)) == count

    def test_no_duplicates_and_all_valid(self):
        ops = enumerate_full(3)
        assert len(set(ops.members)) == len(ops)
        for u in ops:
            make_operator(u.dim, u.pairing, u.signs)

    def test_canonical_order(self):
        ops = enumerate_full(2)
        def key(u):
            return (u.pairing, tuple(0 if s == 1 else 1 for s in u.signs))
        assert list(ops) == sorted(ops, key=key)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_full(9)
        assert len(enumerate_full(3, cap=None)) == 120
        assert len(enumerate_full(2, cap=np.int64(2))) == 12

    def test_rejects_nonpositive(self):
        for n in (0, True, 2.5, "3"):
            with pytest.raises(ValueError, match="positive integer"):
                enumerate_full(n)

    @pytest.mark.parametrize("cap", [math.nan, 2.5, True, "5", 0, -1, np.float64(5)])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, cap):
        for build in (enumerate_full, build_minimal_balanced, build_pairing_matrix):
            with pytest.raises(ValueError, match=r"cap must be None or an integer of at least 1"):
                build(2, cap=cap)

    def test_repr(self):
        assert repr(enumerate_full(2)) == "OperatorSet(dim=4, size=12)"


def assert_stores_own_signs(a_set):
    """index_arrays is (pairing - 1, signs) of the members, and from_arrays of
    it, with the signs as they are, gives the set back."""
    k, sign = a_set.index_arrays
    assert np.array_equal(k, [np.subtract(u.pairing, 1) for u in a_set])
    assert np.array_equal(sign, [u.signs for u in a_set])
    assert sign.dtype == np.int64
    assert OperatorSet.from_arrays(k + 1, sign) == a_set


class TestIndexArrays:
    @pytest.mark.parametrize("a_set", [*(build_minimal_balanced(n) for n in range(1, 6)),
                                       enumerate_full(2), enumerate_full(3)],
                             ids=["min1", "min2", "min3", "min4", "min5", "full2", "full3"])
    def test_generated_sets_store_own_signs(self, a_set):
        assert_stores_own_signs(a_set)

    def test_member_built_set_stores_own_signs(self):
        assert_stores_own_signs(OperatorSet(4, [make_operator(4, (2, 1, 4, 3), (1, -1, -1, 1)),
                                                make_operator(4, (3, 4, 1, 2), (-1, 1, 1, -1))]))

    @pytest.mark.parametrize("compact", [False, True], ids=["written", "compact"])
    def test_read_set_stores_own_signs(self, compact, tmp_path):
        a_set, path = build_minimal_balanced(3), tmp_path / "ops.json"
        write_document(path, a_set)
        if compact:  # not the written layout: read record by record through json
            path.write_text(json.dumps(json.loads(path.read_text())))
        read = read_document(path)
        assert read == a_set
        assert_stores_own_signs(read)

    def test_built_once_and_read_only(self):
        a_set = enumerate_full(2)
        k, sign = a_set.index_arrays
        again = a_set.index_arrays
        assert again[0] is k and again[1] is sign
        for array in (k, sign):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0
        # the cache is no field: equality and hashing are by members only
        assert a_set == enumerate_full(2) and hash(a_set) == hash(enumerate_full(2))


def reference_involutions(d):
    """All fixed-point-free involutions of {1..d}, lexicographic (the
    per-member enumeration the array generators replaced)."""
    partner = [0] * (d + 1)

    def rec(i):
        if i > d:
            yield tuple(partner[1:])
        elif partner[i]:
            yield from rec(i + 1)
        else:
            for j in range(i + 1, d + 1):
                if not partner[j]:
                    partner[i], partner[j] = j, i
                    yield from rec(i + 1)
                    partner[i] = partner[j] = 0

    yield from rec(1)


def reference_sign_assignments(pairing, fix_first=False):
    """Antisymmetric sign sequences of a pairing, lexicographic with +1 first."""
    pairs = [(i, k) for i, k in enumerate(pairing, start=1) if i < k]
    choices = [(1,) if fix_first and i == 1 else (1, -1) for i, _ in pairs]
    for combo in itertools.product(*choices):
        signs = [0] * len(pairing)
        for (i, k), s in zip(pairs, combo):
            signs[i - 1], signs[k - 1] = s, -s
        yield tuple(signs)


class TestArrayGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_matches_per_member_enumeration(self, n):
        expected = [(pairing, signs) for pairing in reference_involutions(2 * n)
                    for signs in reference_sign_assignments(pairing)]
        assert [(u.pairing, u.signs) for u in enumerate_full(n)] == expected

    @pytest.mark.parametrize("d", range(0, 13, 2))
    def test_involution_array_matches_per_member_enumeration(self, d):
        rows = _fixed_point_free_involutions(d)
        assert rows.dtype == np.intp
        assert list(map(tuple, rows.tolist())) == list(reference_involutions(d))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_theorem_set_matches_per_member_construction(self, n):
        expected = [(pairing, signs)
                    for pairing in map(tuple, extract_pairings(build_pairing_matrix(n)).tolist())
                    for signs in reference_sign_assignments(pairing, fix_first=True)]
        assert [(u.pairing, u.signs) for u in build_minimal_balanced(n)] == expected

    def test_caps_refuse_before_building(self):
        with pytest.raises(ValueError, match="exceeds the size cap 12"):
            build_minimal_balanced(13)
        with pytest.raises(ValueError, match="exceeds the size cap 2"):
            build_minimal_balanced(3, cap=2)
        with pytest.raises(ValueError, match="exceeds the size cap 100"):
            build_pairing_matrix(101)
        with pytest.raises(ValueError, match="positive"):
            build_minimal_balanced(0)
        assert len(build_minimal_balanced(3, cap=None)) == 20


class TestFromArrays:
    def test_same_set_either_way(self):
        for built in (enumerate_full(2), build_minimal_balanced(3)):
            members = OperatorSet(built.dim, tuple(SignedInvolution(u.pairing, u.signs)
                                                   for u in built))
            assert built == members and members == built
            assert hash(built) == hash(members)
            assert built.members == members.members
            assert built[-1] == members[-1] and list(built) == list(members)
        assert enumerate_full(2) != OperatorSet(4, enumerate_full(2).members[::-1])
        assert enumerate_full(2) != OperatorSet(4, enumerate_full(2).members[:-1])

    def test_inputs_are_copied(self):
        pairing, signs = np.array([[2, 1], [2, 1]]), np.array([[1, -1], [-1, 1]])
        a_set = OperatorSet.from_arrays(pairing, signs)
        pairing[0, 0], signs[:] = 5, 0
        assert a_set == enumerate_full(1)

    def test_first_invalid_row_names_the_record(self):
        pairing = np.array([[2, 1, 4, 3], [2, 1, 4, 3], [3, 4, 2, 1], [1, 2, 3, 4]])
        signs = np.array([[1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1], [1, 1, 1, 1]])
        with pytest.raises(ValueError) as exc:
            OperatorSet.from_arrays(pairing, signs)
        assert str(exc.value) == ("operator record 2 is invalid: pairing is not an involution "
                                  "at position 1: position 1 maps to 3 but 3 maps to 2")

    def test_large_entries_keep_their_values_in_the_message(self):
        with pytest.raises(ValueError, match="got 300$"):
            OperatorSet.from_arrays(np.array([[2, 1]]), np.array([[300, -1]]))

    def test_duplicates(self):
        with pytest.raises(ValueError, match="^operator set contains duplicate members$"):
            OperatorSet.from_arrays(np.array([[2, 1], [2, 1]]), np.array([[1, -1], [1, -1]]))

    def test_column_major_input(self):
        k, sign = build_minimal_balanced(3).index_arrays
        a_set = OperatorSet.from_arrays(np.asfortranarray(k + 1), np.asfortranarray(sign))
        assert a_set == OperatorSet.from_arrays(k + 1, sign)
        assert all(a.flags.c_contiguous for a in a_set.index_arrays)
        with pytest.raises(ValueError, match="^operator set contains duplicate members$"):
            OperatorSet.from_arrays(np.asfortranarray(k[[0, 1, 0]] + 1),
                                    np.asfortranarray(sign[[0, 1, 0]]))

    @pytest.mark.parametrize("pairing,signs", [
        (np.array([2, 1]), np.array([1, -1])),
        (np.array([[2, 1]]), np.array([[1, -1, 1]])),
        (np.array([[2.0, 1.0]]), np.array([[1, -1]])),
        (np.array([[2, 1]]), np.array([[True, False]])),
    ])
    def test_rejects_shapes_and_dtypes(self, pairing, signs):
        with pytest.raises(ValueError, match="integer arrays of one shape"):
            OperatorSet.from_arrays(pairing, signs)

    def test_rows_whose_codes_agree_modulo_256_are_distinct(self):
        # Duplicates are found on the codes pairing * signs.  Two rows that
        # differ only at positions 1, 127, 129 and 255, where their codes are
        # 129/-127, -255/1, -1/255 and 127/-129, would collide in int8.  (At
        # d = 128 no two rows can: +128 and -128 would mean one pair with
        # opposite signs, whose partner codes differ by less than 256.)
        d = 256

        def row(pairs):
            pairing, signs = np.zeros(d, int), np.zeros(d, int)
            rest = sorted(set(range(1, d + 1)) - {i for pair in pairs for i in pair[:2]})
            for i, j, sign in pairs + [(i, j, 1) for i, j in zip(rest[::2], rest[1::2])]:
                pairing[i - 1], pairing[j - 1], signs[i - 1], signs[j - 1] = j, i, sign, -sign
            return pairing, signs

        fixed = [(2, 128, 1), (130, 256, 1)]
        pairing, signs = (np.array(rows) for rows in zip(
            row([(1, 129, 1), (127, 255, -1)] + fixed), row([(1, 127, -1), (129, 255, 1)] + fixed)))
        codes = pairing * signs
        assert (codes[0] != codes[1]).sum() == 4
        assert (codes[0].astype(np.int8) == codes[1].astype(np.int8)).all()
        assert len(OperatorSet.from_arrays(pairing, signs)) == 2

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            OperatorSet.from_arrays(np.ones((1, 3), int), np.ones((1, 3), int))

    def test_immutable(self):
        for a_set in (enumerate_full(1), OperatorSet(2, enumerate_full(1).members)):
            with pytest.raises(AttributeError, match="immutable"):
                a_set.dim = 4

    def test_empty(self):
        """Both constructors refuse a set without members with one message,
        after the dimension checks."""
        needs = "an operator set needs at least one member"
        for dim, message in ((2, needs), (4, needs),
                             (3, "dimension must be a positive even integer, got 3")):
            no_rows = np.zeros((0, dim), int)
            for build in (lambda: OperatorSet(dim, ()), lambda: OperatorSet(dim, iter(())),
                          lambda: OperatorSet.from_arrays(no_rows, no_rows)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    build()

    def test_refuses_odd_dimension_and_members_of_another(self):
        with pytest.raises(ValueError, match="^dimension must be a positive even integer, got 3$"):
            OperatorSet(3, ())
        for dim in (4.0, np.float64(4), True):
            with pytest.raises(ValueError, match="^dimension must be a positive even integer"):
                OperatorSet(dim, ())
        one = enumerate_full(2)[:1]
        assert OperatorSet(np.int64(4), one) == OperatorSet(4, one)
        with pytest.raises(ValueError, match="^member 1 has dimension 2, expected 4$"):
            OperatorSet(4, (enumerate_full(2)[0], enumerate_full(1)[0]))

    @pytest.mark.parametrize("members,index,kind", [
        ([(1, 2)], 0, "tuple"), ("ab", 0, "str"), ([None], 0, "NoneType"),
        ([enumerate_full(2)[0], (2, 1, 4, 3)], 1, "tuple"),
    ], ids=["tuple", "str", "none", "second-member"])
    def test_refuses_members_that_are_not_signed_involutions(self, members, index, kind):
        with pytest.raises(ValueError, match=f"^member {index} must be a SignedInvolution, got {kind}$"):
            OperatorSet(4, members)


class TestTangencyDefect:
    def test_circle_float(self):
        assert tangency_defect(CIRCLE, [0.6, 0.8]) == pytest.approx(0.0, abs=1e-15)

    def test_exact_zero_on_rationals(self):
        a = [Fraction(3, 5), Fraction(4, 5)]
        assert tangency_defect(CIRCLE, a) == 0
        u = make_operator(4, (3, 4, 1, 2), (1, 1, -1, -1))
        b = [Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3), Fraction(0)]
        assert tangency_defect(u, b) == 0

    def test_all_members_tangent(self):
        a = np.array([0.5, -0.5, 0.5, 0.5])
        for u in enumerate_full(2):
            assert abs(tangency_defect(u, a)) < 1e-15

    def test_rejects_non_unit(self):
        u = make_operator(4, (2, 1, 4, 3), (1, -1, 1, -1))
        for v, a in ((CIRCLE, [3.0, 4.0]), (CIRCLE, [0.0, 0.0]), (CIRCLE, [0.6, math.nan]),
                     (u, [math.nan] * 4), (u, [1.0, 1.0, 0.0, 0.0])):
            with pytest.raises(ValueError, match="expected a unit vector"):
                tangency_defect(v, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            tangency_defect(CIRCLE, [1.0, 0.0, 0.0, 0.0])
