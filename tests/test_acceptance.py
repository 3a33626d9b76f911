"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and time
budget and prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from movingframes import (build_minimal_balanced, build_pairing_matrix,
                          enumerate_full, extract_pairings, frame_operator,
                          is_balanced, operator_images, probe_points,
                          s3_basis, validate_pairing_matrix,
                          witness_cross_term, witness_unbalanced)
from movingframes.operators import OperatorSet
from movingframes.sphere import sample_sphere, tangent_basis


@contextmanager
def criterion(label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"{label}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s budget"


@pytest.fixture(scope="module")
def a4_scan():
    """Exhaustive scan over all nonempty subsets of the 12 dimension-4 operators.

    For each subset: the exact balance report, plus numerical tightness of
    the tangent images at 6 probe points and 20 seeded random points, checked
    two independent ways (normal-vector augmentation, and coordinates in an
    explicit orthonormal tangent basis).
    """
    full = enumerate_full(2)
    points = np.vstack([probe_points(4), sample_sphere(4, 20, seed=2024)])
    n_points = len(points)
    imgs = operator_images(full, points)                   # (P, 12, 4)
    bases = np.stack([tangent_basis(a) for a in points])   # (P, 3, 4)
    eye4 = np.eye(4)
    eye3 = np.eye(3)

    start = time.perf_counter()
    records = []
    for mask in range(1, 1 << 12):
        idx = [i for i in range(12) if mask >> i & 1]
        subset = OperatorSet(4, tuple(full[i] for i in idx))
        report = is_balanced(subset)

        k = len(idx)
        constant = k / 3
        sub_imgs = imgs[:, idx, :]
        normal = sqrt(constant) * points
        augmented = np.concatenate([normal[:, None, :], sub_imgs], axis=1)
        s_aug = np.einsum("pki,pkj->pij", augmented, augmented)
        dev_aug = float(np.max(np.abs(s_aug - constant * eye4)))

        coords = np.einsum("pkd,pbd->pkb", sub_imgs, bases)
        s_dir = np.einsum("pkb,pkc->pbc", coords, coords)
        dev_dir = float(np.max(np.abs(s_dir - constant * eye3)))

        const_aug = float(np.max(np.abs(np.trace(s_aug, axis1=1, axis2=2) / 4 - constant)))
        const_dir = float(np.max(np.abs(np.trace(s_dir, axis1=1, axis2=2) / 3 - constant)))

        records.append({
            "subset": subset,
            "report": report,
            "tight_aug": dev_aug <= 1e-9,
            "tight_dir": dev_dir <= 1e-9,
            "const_dev_aug": const_aug,
            "const_dev_dir": const_dir,
        })
    elapsed = time.perf_counter() - start
    return {"records": records, "elapsed": elapsed, "points": n_points}


def test_criterion_1_cardinality():
    with criterion("criterion 1 (cardinality of the full operator sets)", 1.0):
        assert [len(enumerate_full(n)) for n in (1, 2, 3, 4)] == [2, 12, 120, 1680]


def test_criterion_2_full_sets_balanced():
    with criterion("criterion 2 (full sets are balanced)", 1.0):
        for n in (1, 2, 3):
            report = is_balanced(enumerate_full(n))
            assert report.balanced
            assert report.condition_i_failures == []
            assert report.condition_ii_failures == []


def test_criterion_3_minimal_sizes_and_balance():
    with criterion("criterion 3 (minimal balanced set sizes)", 1.0):
        sizes = []
        for n in range(1, 6):
            a_set = build_minimal_balanced(n)
            sizes.append(len(a_set))
            assert is_balanced(a_set).balanced
        assert sizes == [1, 6, 20, 56, 144]


def test_criterion_4_pairing_matrices_to_n50():
    with criterion("criterion 4 (pairing matrices and pairing families, n <= 50)", 5.0):
        for n in range(1, 51):
            matrix = build_pairing_matrix(n)
            validate_pairing_matrix(matrix)
            # a valid matrix guarantees conditions i-iii of the family,
            # including exactly-once pair coverage (see extract_pairings)
            family = extract_pairings(matrix)
            assert len(family.pairings) == 2 * n - 1


def test_criterion_5_tangent_projector_form():
    with criterion("criterion 5 (frame operator equals C(I - aa^T), n <= 5)", 10.0):
        for n in range(1, 6):
            a_set = build_minimal_balanced(n)
            d = 2 * n
            constant = len(a_set) / (d - 1)
            points = np.vstack([probe_points(d), sample_sphere(d, 100, seed=n)])
            imgs = operator_images(a_set, points)
            grams = np.einsum("pmi,pmj->pij", imgs, imgs)
            targets = constant * (np.eye(d)[None]
                                  - np.einsum("pi,pj->pij", points, points))
            assert float(np.max(np.abs(grams - targets))) <= 1e-9


def test_criterion_6_exhaustive_equivalence_n2(a4_scan):
    with criterion("criterion 6 (balanced <=> numerically tight, all A_4 subsets)", 60.0):
        assert a4_scan["elapsed"] < 60.0
        assert len(a4_scan["records"]) == 4095
        for record in a4_scan["records"]:
            assert record["report"].balanced == record["tight_aug"], (
                f"verdicts disagree for a subset of size {len(record['subset'])}"
            )


def test_criterion_7_witness_fidelity(a4_scan):
    with criterion("criterion 7 (witness defects match numerics)", 60.0):
        unbalanced = [r for r in a4_scan["records"] if not r["report"].balanced]
        assert unbalanced
        for record in unbalanced:
            witness = witness_unbalanced(record["subset"], record["report"])
            assert witness.defect != 0
            cross = witness_cross_term(record["subset"], witness)
            assert abs(cross - float(witness.defect)) <= 1e-10


def test_criterion_8_reconstruction_round_trip():
    with criterion("criterion 8 (reconstruction of 1000 tangent vectors, n <= 5)", 30.0):
        for n in range(1, 6):
            a_set = build_minimal_balanced(n)
            d = 2 * n
            constant = len(a_set) / (d - 1)
            points = sample_sphere(d, 1000, seed=100 + n)
            rng = np.random.default_rng(200 + n)
            raw = rng.standard_normal((1000, d))
            tangents = raw - np.sum(raw * points, axis=1, keepdims=True) * points
            imgs = operator_images(a_set, points)
            coeffs = np.einsum("pmd,pd->pm", imgs, tangents)
            rebuilt = np.einsum("pm,pmd->pd", coeffs, imgs) / constant
            rel = (np.linalg.norm(rebuilt - tangents, axis=1)
                   / np.linalg.norm(tangents, axis=1))
            assert float(rel.max()) <= 1e-12


def test_criterion_9_s3_preset_orthonormal():
    with criterion("criterion 9 (moving orthonormal basis preset on S^3)", 10.0):
        preset = s3_basis()
        points = sample_sphere(4, 100, seed=9)
        for a in points:
            s = frame_operator([np.asarray(u(a)) for u in preset])
            assert np.max(np.abs(s - (np.eye(4) - np.outer(a, a)))) <= 1e-12


def test_criterion_10_cross_validation(a4_scan):
    with criterion("criterion 10 (augmentation vs tangent-basis agreement)", 60.0):
        # every subset from the criterion-6 scan
        for record in a4_scan["records"]:
            assert record["tight_aug"] == record["tight_dir"]
            assert record["const_dev_aug"] <= 1e-8
            assert record["const_dev_dir"] <= 1e-8
        # every minimal set from criterion 5
        for n in range(1, 6):
            a_set = build_minimal_balanced(n)
            d = 2 * n
            constant = len(a_set) / (d - 1)
            points = np.vstack([probe_points(d), sample_sphere(d, 100, seed=n)])
            imgs = operator_images(a_set, points)
            normals = sqrt(constant) * points
            augmented = np.concatenate([normals[:, None, :], imgs], axis=1)
            s_aug = np.einsum("pki,pkj->pij", augmented, augmented)
            dev_aug = float(np.max(np.abs(s_aug - constant * np.eye(d))))
            bases = np.stack([tangent_basis(a) for a in points])
            coords = np.einsum("pkd,pbd->pkb", imgs, bases)
            s_dir = np.einsum("pkb,pkc->pbc", coords, coords)
            dev_dir = float(np.max(np.abs(s_dir - constant * np.eye(d - 1))))
            assert (dev_aug <= 1e-9) == (dev_dir <= 1e-9)
            assert dev_aug <= 1e-9 and dev_dir <= 1e-9
            c_aug = float(np.max(np.abs(np.trace(s_aug, axis1=1, axis2=2) / d - constant)))
            c_dir = float(np.max(np.abs(np.trace(s_dir, axis1=1, axis2=2) / (d - 1) - constant)))
            assert c_aug <= 1e-8 and c_dir <= 1e-8
