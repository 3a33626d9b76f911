"""Signed-involution vector fields on odd spheres and moving unit tight frames."""

__version__ = "0.1.0"

from .balance import (BalanceReport, build_minimal_balanced, build_pairing_matrix,
                      count_pair_slice, count_sign_slice, extract_pairings,
                      is_balanced, sign_flip_bijection, validate_pairing_matrix)
from .documents import DocumentError, read_document, write_document
from .framecheck import (FrameReport, UnbalancedWitness, augment_with_normal,
                         check_tight, frame_operator, operator_images,
                         probe_points, reconstruct, verify_moving_funtf,
                         witness_cross_term, witness_unbalanced)
from .operators import (OperatorSet, SignedInvolution, enumerate_full, make_operator,
                        tangency_defect)
from .presets import s1_basis, s3_basis
from .sphere import project_tangent, sample_sphere, tangent_basis

__all__ = [
    "BalanceReport", "build_minimal_balanced", "build_pairing_matrix",
    "count_pair_slice", "count_sign_slice", "extract_pairings", "is_balanced",
    "sign_flip_bijection", "validate_pairing_matrix", "DocumentError", "read_document",
    "write_document", "FrameReport", "UnbalancedWitness", "augment_with_normal",
    "check_tight", "frame_operator", "operator_images", "probe_points",
    "reconstruct", "verify_moving_funtf", "witness_cross_term",
    "witness_unbalanced", "OperatorSet", "SignedInvolution", "enumerate_full",
    "make_operator", "tangency_defect", "s1_basis", "s3_basis", "project_tangent",
    "sample_sphere", "tangent_basis",
]
