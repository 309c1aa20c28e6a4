import random

import pytest
from hypothesis import given, strategies as st

from fractalseq import (AnnotatedTerm, Branch, SegmentKind, annotate_ranks,
                        check_doubly_fractal_prefix, classify_initial_segment,
                        construct_ramp_state, lower_trim, occurrence_index,
                        parse_terms, rank_stream, upper_trim)
from fractalseq.seqcore import PrefixChecker

from fixtures import RAMP4_TERMS, SQRT13_PREFIX

small_seqs = st.lists(st.integers(min_value=1, max_value=9), max_size=60)


# --- trims ---------------------------------------------------------------

def test_upper_trim_drops_first_occurrences():
    assert upper_trim([1, 2, 3, 4, 1, 5, 2, 6, 3, 7, 4]) == [1, 2, 3, 4]


def test_upper_trim_single_term():
    assert upper_trim([1]) == []


def test_upper_trim_ones_run():
    assert upper_trim([1, 1, 1, 1, 1, 1, 1, 2, 1, 2]) == [1, 1, 1, 1, 1, 1, 1, 2]


def test_lower_trim_subtracts_and_drops_zeros():
    assert lower_trim([1, 2, 3, 4, 1, 5, 2, 6, 3, 7, 4]) == [1, 2, 3, 4, 1, 5, 2, 6, 3]


def test_lower_trim_all_ones():
    assert lower_trim([1, 1, 1]) == []


def test_lower_trim_keeps_only_the_two():
    assert lower_trim([1, 1, 1, 1, 2]) == [1]


def test_trims_of_empty():
    assert upper_trim([]) == []
    assert lower_trim([]) == []


@given(small_seqs)
def test_upper_trim_length_law(seq):
    assert len(upper_trim(seq)) == len(seq) - len(set(seq))


@given(small_seqs)
def test_lower_trim_is_pointwise(seq):
    out = lower_trim(seq)
    expected = [t - 1 for t in seq if t != 1]
    assert out == expected


@given(small_seqs, st.integers(min_value=0, max_value=60))
def test_trims_commute_with_prefixing(seq, cut):
    prefix = seq[:cut]
    for trim in (upper_trim, lower_trim):
        t_full, t_pre = trim(seq), trim(prefix)
        assert t_full[:len(t_pre)] == t_pre


def test_trims_commute_with_prefixing_at_scale():
    rng = random.Random(99)
    for _ in range(20):
        seq = [rng.randint(1, 40) for _ in range(10_000)]
        cut = rng.randint(0, len(seq))
        for trim in (upper_trim, lower_trim):
            t_full, t_pre = trim(seq), trim(seq[:cut])
            assert t_full[:len(t_pre)] == t_pre


# --- occurrence bookkeeping ----------------------------------------------

def test_occurrence_index_in_construction_prefix():
    through_block_3 = RAMP4_TERMS[:21]
    assert occurrence_index(through_block_3, 4, 2) == 11


def test_occurrence_index_absent_value():
    assert occurrence_index([1, 2, 3], 5, 1) is None


def test_occurrence_index_first_fresh():
    assert occurrence_index(RAMP4_TERMS, 5, 1) == 6


def test_occurrence_index_rejects_bad_args():
    with pytest.raises(ValueError):
        occurrence_index([1], 0, 1)
    with pytest.raises(ValueError):
        occurrence_index([1], 1, 0)


def test_annotate_ranks_simple():
    assert annotate_ranks([1, 2, 3, 4, 1]) == [
        AnnotatedTerm(1, 1), AnnotatedTerm(2, 1), AnnotatedTerm(3, 1),
        AnnotatedTerm(4, 1), AnnotatedTerm(1, 2)]


def test_annotate_ranks_ones_run():
    assert [t.rank for t in annotate_ranks([1, 1, 1, 1, 2])] == [1, 2, 3, 4, 1]


def test_annotate_ranks_of_sqrt13_prefix():
    assert annotate_ranks(SQRT13_PREFIX[:6]) == [
        AnnotatedTerm(1, 1), AnnotatedTerm(2, 1), AnnotatedTerm(3, 1),
        AnnotatedTerm(4, 1), AnnotatedTerm(1, 2), AnnotatedTerm(5, 1)]


@given(small_seqs)
def test_ranks_count_up_per_value(seq):
    annotated = annotate_ranks(seq)
    for v in set(seq):
        ranks = [t.rank for t in annotated if t.value == v]
        assert ranks == list(range(1, len(ranks) + 1))


@given(small_seqs)
def test_rank_stream_matches_annotation(seq):
    assert rank_stream(seq) == [t.rank for t in annotate_ranks(seq)]


def recounted_ranks(xs):
    """Occurrence ranks by recounting every prefix, the oracle of the
    one-pass count in `rank_stream`."""
    return [xs[:h + 1].count(xs[h]) for h in range(len(xs))]


@given(small_seqs)
def test_ranks_match_recounting_oracle(seq):
    ranks = recounted_ranks(seq)
    assert rank_stream(iter(seq)) == ranks
    assert annotate_ranks(iter(seq)) == [AnnotatedTerm(v, r) for v, r in zip(seq, ranks)]


# --- initial segment classification --------------------------------------

@pytest.mark.parametrize("seq,kind,n", [
    ([1, 2, 3, 4, 1, 5], SegmentKind.RAMP, 4),
    ([1, 2, 1], SegmentKind.RAMP, 2),
    ([1, 1, 1, 1, 2], SegmentKind.ONES, 4),
    ([1, 1, 2], SegmentKind.ONES, 2),
])
def test_classify_decided(seq, kind, n):
    got = classify_initial_segment(seq)
    assert got.kind is kind and got.n == n


@pytest.mark.parametrize("seq", [
    [], [1], [1, 1], [1, 1, 1], [1, 2], [1, 2, 3], [1, 2, 3, 4],
])
def test_classify_indeterminate(seq):
    assert classify_initial_segment(seq).kind is SegmentKind.INDETERMINATE


@pytest.mark.parametrize("seq", [
    [2, 1],            # must open with 1
    [1, 3],            # jump past 2
    [1, 1, 3],         # a run of ones must close with 2
    [1, 2, 2],         # a ramp must close with 1
    [1, 2, 3, 5],      # broken ramp, not closed by 1
])
def test_classify_invalid(seq):
    assert classify_initial_segment(seq).kind is SegmentKind.INVALID


# --- doubly-fractal prefix checker ----------------------------------------

def test_check_passes_on_construction_run():
    report = check_doubly_fractal_prefix(RAMP4_TERMS)
    assert report.ok and report.first_violation_index is None


def test_check_short_prefix_can_pass_vacuously():
    report = check_doubly_fractal_prefix([1, 2, 1, 3])
    assert report.upper_ok and report.lower_ok


def test_check_flags_lower_violation():
    report = check_doubly_fractal_prefix([1, 3])
    assert not report.lower_ok
    assert report.upper_ok
    assert report.first_violation_index == 1


def test_check_flags_missing_leading_one():
    report = check_doubly_fractal_prefix([2, 3, 2])
    assert not report.lower_ok


def test_check_empty_sequence():
    assert check_doubly_fractal_prefix([]).ok


def test_check_prefixes_of_good_sequence_all_pass():
    for cut in range(len(RAMP4_TERMS) + 1):
        assert check_doubly_fractal_prefix(RAMP4_TERMS[:cut]).ok


# --- incremental checker ---------------------------------------------------

def assert_agrees_at_every_cut(seq, cuts):
    """Grow one list to each cut in turn; after every advance the
    incremental verdict equals the full checker's, and a failure sticks."""
    checker, grown, failed = PrefixChecker(), [], False
    for cut in cuts:
        grown += seq[len(grown):cut]
        ok = checker.advance(grown)
        assert ok == check_doubly_fractal_prefix(grown).ok, cut
        assert not (failed and ok), cut
        failed = not ok


def cuts_from_chunks(length, chunks):
    cuts, at = [], 0
    for size in chunks:
        at = min(length, at + size)
        cuts.append(at)
    return cuts + [length]


@given(st.lists(st.integers(1, 6), max_size=60), st.lists(st.integers(0, 8), max_size=30))
def test_incremental_checker_agrees_on_small_lists(seq, chunks):
    assert_agrees_at_every_cut(seq, cuts_from_chunks(len(seq), chunks))


# Random lists rarely pass for long, so also feed a passing run with at
# most one term changed.
PASSING_RUN = construct_ramp_state(4, 11, Branch.FRESH_FIRST).terms[:200]


@given(st.integers(0, len(PASSING_RUN) - 1), st.integers(1, 12),
       st.lists(st.integers(0, 40), max_size=20))
def test_incremental_checker_agrees_on_corrupted_runs(at, value, chunks):
    seq = list(PASSING_RUN)
    seq[at] = value
    assert_agrees_at_every_cut(seq, cuts_from_chunks(len(seq), chunks))


def test_incremental_checker_agrees_on_a_long_run():
    rng = random.Random(150)
    n = rng.randint(2, 6)
    bits = [rng.choice(list(Branch)) for _ in range(150)]
    seq = construct_ramp_state(n, 150, bits).terms
    cuts = sorted(rng.sample(range(len(seq)), 25)) + [len(seq)]
    assert_agrees_at_every_cut(seq, cuts)
    assert check_doubly_fractal_prefix(seq).ok
    broken = list(seq)
    broken[cuts[12]] += 1
    assert_agrees_at_every_cut(broken, cuts)
    assert not check_doubly_fractal_prefix(broken).ok


def test_incremental_checker_copy_is_independent():
    checker = PrefixChecker()
    checker.advance(RAMP4_TERMS[:20])
    twin = checker.copy()
    assert not twin.advance(RAMP4_TERMS[:20] + [9])
    assert checker.ok and checker.checked == 20
    assert checker.advance(RAMP4_TERMS)


# --- text format -----------------------------------------------------------

def test_parse_terms_whitespace_and_newlines():
    assert parse_terms("1 2\n3\t4\n") == [1, 2, 3, 4]


def test_parse_terms_rejects_junk():
    with pytest.raises(ValueError):
        parse_terms("1 two 3")
    with pytest.raises(ValueError):
        parse_terms("1 0 3")


def test_parse_terms_empty():
    assert parse_terms("") == []
