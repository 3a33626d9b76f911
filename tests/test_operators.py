import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingframes import (apply, build_minimal_balanced, enumerate_full,
                          make_operator, tangency_defect)
from movingframes.operators import SignedInvolution

CIRCLE = make_operator(2, (2, 1), (1, -1))


class TestMakeOperator:
    def test_circle_field(self):
        u = make_operator(2, (2, 1), (1, -1))
        assert u.pairing == (2, 1)
        assert u.signs == (1, -1)

    def test_valid_dim4(self):
        u = make_operator(4, (2, 1, 4, 3), (1, -1, -1, 1))
        assert apply(u, [1.0, 2.0, 3.0, 4.0]) == [-2.0, 1.0, 4.0, -3.0]

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

    def test_rejects_bad_sign_value(self):
        with pytest.raises(ValueError, match="sign at position 2"):
            SignedInvolution((2, 1), (1, 0))

    def test_rejects_bool_sign(self):
        # True == 1, but a boolean is not a sign
        with pytest.raises(ValueError, match="sign at position 1"):
            SignedInvolution((2, 1), (True, -1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            make_operator(4, (2, 1), (1, -1))

    def test_plain_swap_is_rejected(self):
        # a -> (a_2, a_1) has no sign flip and is not tangent: at (0.6, 0.8)
        # the image dotted with the point gives 2 * 0.6 * 0.8 = 0.96.
        with pytest.raises(ValueError, match="antisymmetric"):
            make_operator(2, (2, 1), (1, 1))
        swapped = [0.8, 0.6]
        assert abs(np.dot(swapped, [0.6, 0.8]) - 0.96) < 1e-15


class TestApply:
    def test_circle_example(self):
        assert apply(CIRCLE, [0.6, 0.8]) == [-0.8, 0.6]

    def test_zero_vector(self):
        u = make_operator(4, (3, 4, 1, 2), (1, 1, -1, -1))
        assert apply(u, [0.0] * 4) == [0.0] * 4

    def test_quaternion_style_operator(self):
        u = make_operator(4, (3, 4, 1, 2), (1, 1, -1, -1))
        assert apply(u, [1, 2, 3, 4]) == [-3, -4, 1, 2]

    def test_numpy_roundtrip(self):
        u = make_operator(4, (2, 1, 4, 3), (1, -1, -1, 1))
        a = np.array([1.0, 2.0, 3.0, 4.0])
        out = apply(u, a)
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, [-2.0, 1.0, 4.0, -3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            apply(CIRCLE, [1.0, 0.0, 0.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    def test_preserves_norm(self, vec):
        u = make_operator(4, (4, 3, 2, 1), (1, 1, -1, -1))
        assert math.isclose(
            np.linalg.norm(apply(u, np.array(vec))), np.linalg.norm(vec),
            rel_tol=0, abs_tol=1e-9 * max(1.0, np.linalg.norm(vec)),
        )

    @given(st.lists(st.integers(-100, 100), min_size=6, max_size=6))
    def test_double_apply_negates(self, vec):
        # each coordinate pair acts as a quarter turn
        for u in (make_operator(6, (2, 1, 4, 3, 6, 5), (1, -1, 1, -1, 1, -1)),
                  make_operator(6, (4, 6, 5, 1, 3, 2), (1, 1, -1, -1, 1, -1))):
            assert apply(u, apply(u, vec)) == [-x for x in vec]


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

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_full(0)


class TestIndexArrays:
    def test_partner_indices_and_signs(self):
        a_set = enumerate_full(2)
        k, e = a_set.index_arrays
        for u, k_row, e_row in zip(a_set, k, e):
            assert tuple(k_row + 1) == u.pairing
            assert tuple(e_row) == tuple(u.signs[j] for j in k_row)

    @pytest.mark.parametrize("a_set", [*(build_minimal_balanced(n) for n in range(1, 6)),
                                       enumerate_full(3)],
                             ids=["min1", "min2", "min3", "min4", "min5", "full3"])
    def test_partner_signs_of_generated_sets(self, a_set):
        k, e = a_set.index_arrays
        signs = np.array([u.signs for u in a_set])
        assert np.array_equal(k + 1, [u.pairing for u in a_set])
        assert np.array_equal(e, np.take_along_axis(signs, k, axis=1))

    def test_built_once_and_read_only(self):
        a_set = enumerate_full(2)
        k, e = a_set.index_arrays
        again = a_set.index_arrays
        assert again[0] is k and again[1] is e
        for array in (k, e):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0
        # the cache is no field: equality and hashing are by members only
        assert a_set == enumerate_full(2) and hash(a_set) == hash(enumerate_full(2))


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
        with pytest.raises(ValueError, match="unit"):
            tangency_defect(CIRCLE, [3.0, 4.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            tangency_defect(CIRCLE, [1.0, 0.0, 0.0, 0.0])
