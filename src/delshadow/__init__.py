"""Deletion shadows on sequences over {0,...,k}: orders, compressions,
closed-form minimum shadows and brute-force verification."""

from .extremal import (
    SegmentDescriptor,
    SetSystem,
    canonical_family,
    canonicalize,
    complement_system,
    compress,
    min_delta_shadow_size,
    ones_count,
    ones_count_colex,
    prop10_lower_bound,
    segment_realize,
)
from .famio import FamilyFormatError, read_family, write_family
from .orders import (
    c_less,
    colex_initial_positions,
    colex_less,
    initial_segment_leq,
    leq_less,
    simplicial_less,
)
from .seqcore import Component, Family, component_of, components, reduced
from .shadow import delta, delta_r, deletion_multidegree, full_deletion
from .verify import SearchBudget, VerificationReport, brute_force_min_shadow, run_suite

__all__ = [
    "Component",
    "Family",
    "FamilyFormatError",
    "SearchBudget",
    "SegmentDescriptor",
    "SetSystem",
    "VerificationReport",
    "brute_force_min_shadow",
    "c_less",
    "canonical_family",
    "canonicalize",
    "colex_initial_positions",
    "colex_less",
    "complement_system",
    "component_of",
    "components",
    "compress",
    "delta",
    "delta_r",
    "deletion_multidegree",
    "full_deletion",
    "initial_segment_leq",
    "leq_less",
    "min_delta_shadow_size",
    "ones_count",
    "ones_count_colex",
    "prop10_lower_bound",
    "read_family",
    "reduced",
    "run_suite",
    "segment_realize",
    "simplicial_less",
    "write_family",
]
