"""Hand-picked operator sets giving moving orthonormal bases for S^1 and S^3,
loaded from the documents shipped under ``assets/``."""

from __future__ import annotations

from pathlib import Path

from .documents import read_document
from .operators import OperatorSet


def _load(name: str) -> OperatorSet:
    return read_document(Path(__file__).with_name("assets") / name)


def s1_basis() -> OperatorSet:
    """a -> (-a_2, a_1): the counterclockwise unit tangent field on the circle."""
    return _load("s1_preset.json")


def s3_basis() -> OperatorSet:
    """The classic triple of tangent fields on S^3, orthonormal at every point
    (so the moving frame constant is 1):

        a -> (-a_2,  a_1,  a_4, -a_3)
        a -> (-a_3, -a_4,  a_1,  a_2)
        a -> (-a_4,  a_3, -a_2,  a_1)
    """
    return _load("s3_preset.json")
