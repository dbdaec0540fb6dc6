"""Deletion shadows on sequences over {0,...,k}: orders, compressions,
closed-form minimum shadows and brute-force verification."""

from .extremal import (
    canonical_family,
    canonicalize,
    compress,
    min_delta_shadow_size,
    ones_count_colex,
    prop10_lower_bound,
)
from .famio import FamilyFormatError, read_family, write_family
from .orders import initial_segment_leq
from .seqcore import Family, reduced
from .shadow import delta, delta_r, deletion_multidegree, full_deletion
from .verify import SearchBudget, VerificationReport, brute_force_min_shadow, run_suite

__all__ = [
    "Family",
    "FamilyFormatError",
    "SearchBudget",
    "VerificationReport",
    "brute_force_min_shadow",
    "canonical_family",
    "canonicalize",
    "compress",
    "delta",
    "delta_r",
    "deletion_multidegree",
    "full_deletion",
    "initial_segment_leq",
    "min_delta_shadow_size",
    "ones_count_colex",
    "prop10_lower_bound",
    "read_family",
    "reduced",
    "run_suite",
    "write_family",
]
