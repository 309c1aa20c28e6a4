import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from fractalseq import (AnnotatedTerm, Branch, Surd, annotate_ranks,
                        check_doubly_fractal_prefix, construct_ramp_state,
                        generate_signature, lower_trim, parse_terms, parse_theta,
                        rank_stream, upper_trim)
from fractalseq import seqcore
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


# --- occurrence ranks ----------------------------------------------------

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


@pytest.mark.parametrize("slices", [[[0]], [[1, 0]], [[1], [0]], [[1, 3, 3], [5], [0]],
                                    [[1, 2], [], [-4, 1]]], ids=str)
def test_checkers_refuse_terms_below_one(slices):
    # [1, 3, 3] fails both trims before its 0 is read.
    seq = [t for part in slices for t in part]
    with pytest.raises(ValueError, match="^terms must be >= 1$"):
        check_doubly_fractal_prefix(seq)
    with pytest.raises(ValueError, match="^terms must be >= 1$"):
        fold(slices)


# --- one-pass checker over slices ----------------------------------------------

def fold(slices):
    """Feed ``slices`` to one PrefixChecker, as ``check`` does, and
    return its report."""
    checker = PrefixChecker()
    for part in slices:
        checker.feed(part)
    return checker.report()


def cut_at(seq, sizes):
    """``seq`` cut into consecutive slices of the given sizes, then the rest."""
    out, at = [], 0
    for size in sizes:
        out.append(seq[at:at + size])
        at += size
    return out + [seq[at:]]


@given(st.lists(st.integers(1, 6) | st.integers(min_value=1), max_size=60),
       st.lists(st.integers(0, 8), max_size=30))
def test_sliced_check_matches_full_checker_on_small_lists(seq, sizes):
    assert fold(cut_at(seq, sizes)) == check_doubly_fractal_prefix(seq)


SIGNATURES = [[t.value for t in generate_signature(parse_theta(text), 3000)]
              for text in ("sqrt(13)", "22/7", "1/3", "(1+sqrt(5))/2", "2/5")]


@given(st.sampled_from(SIGNATURES), st.integers(1, 3000), st.sampled_from(["", "swap", "bump"]),
       st.integers(0, 2999), st.lists(st.integers(0, 500), max_size=12))
def test_sliced_check_matches_full_checker_on_signatures(values, n, fault, at, sizes):
    seq, k = values[:n], at % n
    if fault == "swap" and k + 1 < n:
        seq[k], seq[k + 1] = seq[k + 1], seq[k]
    elif fault == "bump":
        seq[k] += -1 if seq[k] > 1 and at % 2 else 1
    report = fold(cut_at(seq, sizes))
    assert report == check_doubly_fractal_prefix(seq)
    assert report.ok or fault


def test_sliced_check_finds_the_first_violation_of_a_long_run():
    seq = SIGNATURES[0][:2000]
    seq[1500] += 1
    want = check_doubly_fractal_prefix(seq)
    assert not want.ok and want.first_violation_index < 1500
    assert fold(cut_at(seq, [7] * 300)) == want
    assert fold([seq]) == want


# --- incremental checker ---------------------------------------------------

def assert_agrees_at_every_cut(seq, cuts):
    """Feed one checker the terms up to each cut in turn; after every
    slice its verdict and report equal the list oracle's, and a failure
    sticks."""
    checker, at, failed = PrefixChecker(), 0, False
    for cut in cuts:
        ok = checker.feed(seq[at:cut])
        at = cut
        want = check_doubly_fractal_prefix(seq[:cut])
        assert (ok, checker.report()) == (want.ok, want), cut
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
PASSING_RUN = construct_ramp_state(4, 11, [Branch.FRESH_FIRST] * 11).terms[:200]


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


def assert_passing_prefixes_hold_one_to_max(seq, cuts):
    """The lemma behind ``ConstructionState.cursors``: a prefix that the
    checker accepts holds exactly the values 1..max."""
    for cut in cuts:
        prefix = seq[:cut]
        if check_doubly_fractal_prefix(prefix).ok:
            assert set(prefix) == set(range(1, max(prefix, default=0) + 1)), prefix


@given(st.lists(st.integers(1, 6), max_size=60))
def test_passing_small_lists_hold_one_to_max(seq):
    assert_passing_prefixes_hold_one_to_max(seq, range(len(seq) + 1))


@given(st.integers(0, len(PASSING_RUN) - 1), st.integers(1, 12),
       st.integers(0, len(PASSING_RUN)))
def test_passing_corrupted_runs_hold_one_to_max(at, value, cut):
    seq = list(PASSING_RUN)
    seq[at] = value
    assert_passing_prefixes_hold_one_to_max(seq, (at + 1, cut, len(seq)))


@pytest.mark.parametrize("seq", [[0], [1, 0], [2], [1, 3], [1, 2, 1, 4]], ids=str)
def test_incremental_checker_refuses_zero_and_gaps(seq):
    # Terms below 1 lie outside the domain and raise, as in the list
    # oracle; a gap fails, and the failure sticks.
    checker = PrefixChecker()
    if min(seq) < 1:
        with pytest.raises(ValueError, match="^terms must be >= 1$"):
            checker.feed(seq)
    else:
        assert not checker.feed(seq)
        assert not checker.feed([1])
        assert checker.report() == check_doubly_fractal_prefix(seq + [1])


def test_incremental_checker_refuses_a_gap_after_a_passing_prefix():
    checker = PrefixChecker()
    prefix = RAMP4_TERMS[:20]
    assert checker.feed(prefix)
    gap = [max(prefix) + 2]
    assert not check_doubly_fractal_prefix(prefix + gap).ok
    assert not checker.copy().feed(gap)
    assert checker.feed(RAMP4_TERMS[20:])


def test_incremental_checker_copy_is_independent():
    checker = PrefixChecker()
    checker.feed(RAMP4_TERMS[:20])
    twin = checker.copy()
    assert not twin.feed([9])
    assert checker.report().ok
    assert checker.feed(RAMP4_TERMS[20:])
    assert twin.report() == check_doubly_fractal_prefix(RAMP4_TERMS[:20] + [9])


# --- text format -----------------------------------------------------------

def test_parse_terms_whitespace_and_newlines():
    assert parse_terms("1 2\n3\t4\n") == [1, 2, 3, 4]
    assert parse_terms("1\u00a02\u20033\u3000") == [1, 2, 3]   # non-ASCII whitespace


def test_parse_terms_rejects_junk():
    with pytest.raises(ValueError):
        parse_terms("1 two 3")
    with pytest.raises(ValueError):
        parse_terms("1 0 3")


def test_parse_terms_empty():
    assert parse_terms("") == []


@pytest.mark.parametrize("text, message", [
    ("1 2 1_0", "not an integer: '1_0'"),              # int() reads underscores,
    ("1 \u0662 1", "not an integer: '\u0662'"),   # Arabic-Indic digits
    ("1 \uff13", "not an integer: '\uff13'"),     # and fullwidth ones
    ("1 x \u0662", "not an integer: 'x'"),            # the first bad term is named
    ("1 0 \u0662", "terms must be >= 1, got 0"),
])
def test_parse_terms_reads_only_ascii_decimal(text, message):
    with pytest.raises(ValueError) as exc:
        parse_terms(text)
    assert str(exc.value) == message


def tokenwise_parse_terms(text):
    """Oracle: split the whole text at once and parse token by token."""
    tokens = text.split()
    if not text.isascii() or "_" in text:
        # int() also reads '1_0' and non-ASCII digits: refuse the first such
        # token, once the tokens before it have parsed.
        for k, tok in enumerate(tokens):
            if not tok.isascii() or "_" in tok:
                tokenwise_parse_terms(" ".join(tokens[:k]))
                raise ValueError(f"not an integer: {tok!r}")
    out = []
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise ValueError(f"not an integer: {tok!r}") from None
        if v < 1:
            raise ValueError(f"terms must be >= 1, got {v}")
        out.append(v)
    return out


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_slices_are_cut_at_what_split_takes_as_whitespace():
    every_char = "".join(map(chr, range(sys.maxunicode + 1)))
    assert seqcore._SPACE.findall(every_char) == [c for c in every_char if c.isspace()]


def test_byte_slices_are_cut_at_what_split_takes_as_whitespace():
    every_byte = bytes(range(128))
    spaces = bytes(c for c in every_byte if chr(c).isspace())
    assert seqcore.ASCII_SPACE == spaces
    assert re.findall(seqcore._SPACE_BYTES, every_byte) == [bytes((c,)) for c in spaces]


def test_upper_trim_goes_on_from_the_values_seen():
    seq, seen = SQRT13_PREFIX * 2, set()
    trimmed = [t for part in cut_at(seq, [5, 0, 9, 1]) for t in upper_trim(part, seen)]
    assert trimmed == upper_trim(seq) and seen == set(seq)


term_tokens = st.one_of(
    st.integers(min_value=1, max_value=10 ** 12).map(str),
    st.sampled_from(["0", "-3", "+7", "007", "x", "1_0", "\u0662", "\uff13", "9" * 5000]))
spaces = st.text(st.sampled_from(" \t\n\x0b\x1c\x1d\x1e\x1f\u00a0"), max_size=3)


@given(spaces, st.lists(st.tuples(term_tokens, spaces.filter(bool))), spaces, st.integers(1, 8))
def test_sliced_parse_matches_tokenwise_oracle(lead, pairs, trail, slice_chars):
    text = lead + "".join(tok + sep for tok, sep in pairs).rstrip() + trail
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqcore, "_SLICE_CHARS", slice_chars)
        got = parse_outcome(parse_terms, text)
    assert got == parse_outcome(tokenwise_parse_terms, text)


@given(spaces, st.lists(st.tuples(term_tokens, spaces.filter(bool))), spaces, st.integers(1, 8))
def test_byte_slices_parse_as_the_whole_text(lead, pairs, trail, slice_chars):
    text = lead + "".join(tok + sep for tok, sep in pairs).rstrip() + trail
    data = text.encode()
    if not data.isascii():
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqcore, "_SLICE_CHARS", slice_chars)
        parts = list(seqcore.term_slices(data))
        got = parse_outcome(lambda _: [t for p in parts for t in parse_terms(p.decode())], text)
    assert b"".join(parts) == data
    assert got == parse_outcome(tokenwise_parse_terms, text)


def test_parse_terms_holds_one_slice_of_tokens():
    text = "".join(f"{v}\n" for v, _ in generate_signature(Surd.sqrt(13), 10 ** 5))
    tracemalloc.start()
    try:
        terms = parse_terms(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(terms) == 10 ** 5
    assert peak < 2 * held  # splitting the whole text at once peaks near 3.7x
