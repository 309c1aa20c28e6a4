"""Signature sequences of exact reals, trimming operators, block
constructions of doubly fractal sequences, and parameter recovery."""

from .construction import (Branch, ConstructionError, ConstructionState,
                           SeamMerge, construct_ones, construct_ramp_state,
                           enumerate_ramp, extend_next_block,
                           extend_second_block, init_ramp, merge_seams,
                           needs_branch, seam_above, seam_below)
from .inverse import (EMPTY_INTERVAL, ThetaInterval, first_divergence,
                      seed_interval, theta_interval_from_prefix)
from .seqcore import (AnnotatedTerm, FractalCheck, InitialSegment, SegmentKind,
                      annotate_ranks, check_doubly_fractal_prefix,
                      classify_initial_segment, lower_trim, occurrence_index,
                      parse_terms, rank_stream, upper_trim)
from .signature import (ExactNumber, Surd, brute_force_signature,
                        compare_affine, generate_signature, parse_theta,
                        signature_terms)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedTerm", "Branch", "ConstructionError", "ConstructionState",
    "EMPTY_INTERVAL", "ExactNumber", "FractalCheck", "InitialSegment",
    "SeamMerge", "SegmentKind", "Surd", "ThetaInterval", "annotate_ranks",
    "brute_force_signature", "check_doubly_fractal_prefix",
    "classify_initial_segment", "compare_affine", "construct_ones",
    "construct_ramp_state", "enumerate_ramp",
    "extend_next_block", "extend_second_block", "first_divergence",
    "generate_signature", "init_ramp", "lower_trim", "merge_seams",
    "needs_branch", "occurrence_index", "parse_terms", "parse_theta",
    "rank_stream", "seam_above", "seam_below", "seed_interval",
    "signature_terms", "theta_interval_from_prefix", "upper_trim",
]
