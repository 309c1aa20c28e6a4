import copy
import pickle
from fractions import Fraction

import pytest

import fractalseq
from fractalseq import (ConstructionState, FractalCheck, InitialSegment, SeamMerge,
                        SegmentKind, Surd, ThetaInterval)
from fractalseq import construction, seqcore

PUBLIC_NAMES = [
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
    "signature_runs", "theta_interval_from_prefix", "upper_trim",
]


def test_public_names_are_unchanged():
    assert fractalseq.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fractalseq import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(fractalseq, name) for name in PUBLIC_NAMES)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        fractalseq.no_such_name


def test_construction_error_is_one_class():
    assert construction.ConstructionError is seqcore.ConstructionError
    assert fractalseq.ConstructionError is seqcore.ConstructionError


VALUES = [
    Surd.sqrt(13),
    ThetaInterval(Fraction(1, 4), True, Fraction(1, 3), True),
    FractalCheck(True, False, 3),
    InitialSegment(SegmentKind.RAMP, 4),
    SeamMerge(6, (6, 3, 1), 2),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_fields_are_read_only(value):
    for name in ("a", "b", "d", "c") if isinstance(value, Surd) else value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_reprs_keep_their_format():
    assert repr(VALUES[0]) == "Surd(a=0, b=1, d=13, c=1)"
    assert repr(VALUES[1]) == ("ThetaInterval(lo=Fraction(1, 4), lo_closed=True, "
                               "hi=Fraction(1, 3), hi_closed=True)")


def test_surd_survives_copy_and_pickle():
    theta = Surd.make(1, 2, 5, 3)
    for twin in (copy.copy(theta), copy.deepcopy(theta), pickle.loads(pickle.dumps(theta))):
        assert twin == theta and hash(twin) == hash(theta) and repr(twin) == repr(theta)


def test_construction_state_defaults_are_fresh():
    a, b = (ConstructionState(2, [1, 2], [1]) for _ in range(2))
    assert a.branch_log == [] and a.branch_log is not b.branch_log
    assert a.checker is not b.checker and a.fresh == 3
    with pytest.raises(AttributeError):
        a.extra = 0
