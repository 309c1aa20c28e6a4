"""Signature sequences of exact reals, trimming operators, block
constructions of doubly fractal sequences, and parameter recovery.

Each public name loads its module on first use (PEP 562): a CLI command
is mostly interpreter start-up, and importing the package loads nothing.
"""
from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "construction": """Branch ConstructionState SeamMerge construct_ones construct_ramp_state
        enumerate_ramp extend_next_block extend_second_block init_ramp merge_seams
        needs_branch seam_above seam_below""",
    "inverse": """EMPTY_INTERVAL ThetaInterval first_divergence seed_interval
        theta_interval_from_prefix""",
    "seqcore": """AnnotatedTerm ConstructionError FractalCheck SegmentKind annotate_ranks
        check_doubly_fractal_prefix lower_trim parse_terms rank_stream upper_trim""",
    "signature": """ExactNumber Surd brute_force_signature compare_affine generate_signature
        parse_theta signature_runs""",
}.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
