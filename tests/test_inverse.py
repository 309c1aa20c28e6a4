import random
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fractalseq import (EMPTY_INTERVAL, SegmentKind, Surd, ThetaInterval,
                        annotate_ranks, check_doubly_fractal_prefix, first_divergence,
                        generate_signature, parse_theta, seed_interval,
                        theta_interval_from_prefix)
from fractalseq.inverse import _interval
from fractalseq.seqcore import check_doubly_fractal_slices, next_terms

from conftest import make_theta_sample
from fixtures import DIVERGENCE_7_2_VS_SQRT13, RAMP4_INTERVAL, RAMP4_TERMS
from test_cli import run_cli

SQRT13 = Surd.sqrt(13)


def closed(lo, hi):
    return ThetaInterval(Fraction(lo), True, Fraction(hi), True)


def is_farey_pair(iv):
    return iv.lo.denominator * iv.hi.numerator - iv.lo.numerator * iv.hi.denominator == 1


def certified(iv, n):
    """Whether the interval [p/q, r/s] of a signature prefix of length n
    passes the certificate: rq - ps = 1, each endpoint has
    (p+1)(q+1) <= 2n, and the mediant does not.  0 reads as 0/1 and oo
    as 1/0.  Found by computation, not proved; only integer arithmetic
    on the endpoints, so nothing of the package is trusted."""
    p, q = iv.lo.numerator, iv.lo.denominator
    r, s = (1, 0) if iv.hi is None else (iv.hi.numerator, iv.hi.denominator)
    return (r * q - p * s == 1 and (p + 1) * (q + 1) <= 2 * n
            and (r + 1) * (s + 1) <= 2 * n and (p + r + 1) * (q + s + 1) > 2 * n)


# --- interval recovery -------------------------------------------------------

def test_ramp_seed_prefix_interval():
    assert theta_interval_from_prefix([1, 2, 3, 4, 1, 5]) == closed(3, 4)


def test_ones_seed_prefix_interval():
    # The signature of any theta in [1/5, 1/4) opens with five ones, not
    # four, so the consistent set for (1,1,1,1,2) is [1/4, 1/3] (the right
    # endpoint up to ties).  Acceptance criterion 10b regenerates these
    # endpoints through brute_force_signature.
    assert theta_interval_from_prefix([1, 1, 1, 1, 2]) == closed(Fraction(1, 4), Fraction(1, 3))


def test_gap_means_empty():
    assert theta_interval_from_prefix([1, 3]) is EMPTY_INTERVAL


def test_adjacency_alone_is_not_enough():
    # (1, 2) forces 1 + 2*theta >= 2 + theta, a frontier constraint.
    assert theta_interval_from_prefix([1, 2]) == ThetaInterval(
        Fraction(1), True, None, False)


def test_single_term_interval_is_unbounded():
    iv = theta_interval_from_prefix([1])
    assert iv.hi is None and iv.lo == 0 and not iv.lo_closed


def test_impossible_repeat_is_empty():
    assert theta_interval_from_prefix([1, 2, 2]).is_empty


def test_out_of_order_rank_is_empty():
    assert theta_interval_from_prefix([1, 3, 1]).is_empty


def test_huge_term_costs_no_scan_up_to_it():
    # Only the least missing value is tested on the frontier; a scan of
    # every value up to the maximum would not finish here.
    assert theta_interval_from_prefix([1, 10 ** 12, 1]) is EMPTY_INTERVAL
    assert theta_interval_from_prefix([1, 2, 10 ** 12]) is EMPTY_INTERVAL


def test_golden_run_interval():
    iv = theta_interval_from_prefix(RAMP4_TERMS)
    assert (iv.lo, iv.hi) == RAMP4_INTERVAL
    assert iv.lo_closed and iv.hi_closed


def test_interval_rejects_bad_input():
    with pytest.raises(ValueError):
        theta_interval_from_prefix([])
    with pytest.raises(ValueError):
        theta_interval_from_prefix([1, 0, 2])


# --- integer pairs against the Fraction oracle ----------------------------------

def fraction_interval_from_prefix(terms):
    """The inverter as first written, one Fraction per constraint, kept as
    the oracle of the integer-pair one."""
    seq = list(terms)
    pairs = annotate_ranks(seq)
    lo, lo_closed = Fraction(0), False
    hi, hi_closed = None, False

    def tighten_lower(r):
        nonlocal lo, lo_closed
        if r > lo:
            lo, lo_closed = r, True

    def tighten_upper(r):
        nonlocal hi, hi_closed
        if hi is None or r < hi:
            hi, hi_closed = r, True

    for (s1, a1), (s2, a2) in zip(pairs, pairs[1:]):
        ds, da = s1 - s2, a2 - a1
        if da > 0:
            tighten_lower(Fraction(ds, da))
        elif da < 0:
            tighten_upper(Fraction(ds, da))
        elif ds > 0:
            return EMPTY_INTERVAL

    counts = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
    top = max(seq)
    frontier = [(v, c + 1) for v, c in counts.items()]
    frontier += [(w, 1) for w in range(1, top) if w not in counts]
    frontier.append((top + 1, 1))

    last_s, last_a = pairs[-1]
    for fi, fj in frontier:
        dv, dj = fi - last_s, last_a - fj
        if dj > 0:
            tighten_upper(Fraction(dv, dj))
        elif dj < 0:
            tighten_lower(Fraction(dv, dj))
        elif dv < 0:
            return EMPTY_INTERVAL

    return _interval(lo, lo_closed, hi, hi_closed)


def assert_matches_fraction_oracle(prefix):
    got, want = theta_interval_from_prefix(prefix), fraction_interval_from_prefix(prefix)
    assert got == want and str(got) == str(want), prefix
    # A point can be the tie order's own; any wider bounded result is a Farey pair.
    if not got.is_empty and not got.is_point and got.hi is not None:
        assert is_farey_pair(got), (prefix, got)
    return got


# capsys and monkeypatch hold nothing from one example to the next: run_cli reads and resets both.
@given(st.lists(st.integers(1, 6), min_size=1, max_size=14))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_integer_pairs_match_fraction_oracle(capsys, monkeypatch, prefix):
    assert_matches_fraction_oracle(prefix)
    want = fraction_interval_from_prefix(prefix)
    assert run_cli(capsys, monkeypatch, ["invert", "--expect-nonempty"], " ".join(map(str, prefix))
                   ) == (int(want.is_empty), f"{want}\n", "")


def signature_prefixes_with_faults(seed=41):
    """Intact prefixes of rational and surd signatures, and each with one
    adjacent swap and one term bumped by one."""
    rng = random.Random(seed)
    for text in ("sqrt(13)", "22/7", "1/3", "(1+sqrt(5))/2", "7/2", "3", "2/5"):
        values = [t.value for t in generate_signature(parse_theta(text), 2000)]
        for n in (1, 2, 3, 5, 8, 13, 40, 200, 2000):
            prefix = values[:n]
            yield prefix
            if n >= 2:
                k = rng.randrange(n - 1)
                yield prefix[:k] + [prefix[k + 1], prefix[k]] + prefix[k + 2:]
                k = rng.randrange(n)
                bump = rng.choice((-1, 1)) if prefix[k] > 1 else 1
                yield prefix[:k] + [prefix[k] + bump] + prefix[k + 1:]


def test_integer_pairs_match_fraction_oracle_on_signatures(capsys, monkeypatch):
    prefixes = list(signature_prefixes_with_faults())
    ivs = [assert_matches_fraction_oracle(p) for p in prefixes]
    assert any(iv.is_empty for iv in ivs)
    assert any(iv.hi is None for iv in ivs)
    assert any(iv.is_point for iv in ivs)
    assert any(iv.lo_closed and iv.lo > 0 for iv in ivs)
    assert [run_cli(capsys, monkeypatch, ["invert", "--expect-nonempty"], " ".join(map(str, p)))
            for p in prefixes] == [(int(want.is_empty), f"{want}\n", "")
                                   for want in map(fraction_interval_from_prefix, prefixes)]


def assert_iterator_form_agrees(prefix):
    got = theta_interval_from_prefix(t for t in prefix)
    assert got == theta_interval_from_prefix(prefix) == fraction_interval_from_prefix(prefix)
    assert str(got) == str(fraction_interval_from_prefix(prefix)), prefix


@given(st.lists(st.integers(1, 6), min_size=1, max_size=14))
@settings(max_examples=300, deadline=None)
def test_iterator_form_matches_list_form_and_fraction_oracle(prefix):
    assert_iterator_form_agrees(prefix)


def test_iterator_form_matches_on_signatures():
    for prefix in signature_prefixes_with_faults():
        assert_iterator_form_agrees(prefix)


def test_iterator_form_reads_to_the_end():
    rest = iter([1, 3, 1, 2, 5])            # EMPTY is certain at the 3
    assert theta_interval_from_prefix(rest) is EMPTY_INTERVAL
    assert next(rest, None) is None
    with pytest.raises(ValueError, match="^terms must be >= 1$"):
        theta_interval_from_prefix(iter([1, 3, 1, 0]))
    with pytest.raises(ValueError, match="^cannot invert an empty sequence$"):
        theta_interval_from_prefix(iter([]))


# --- membership ---------------------------------------------------------------

def test_contains_surd_by_exact_squaring():
    assert closed(3, 4).contains(SQRT13)
    assert not closed(1, 3).contains(SQRT13)


def test_contains_respects_flags():
    iv = ThetaInterval(Fraction(1, 5), True, Fraction(1, 4), True)
    assert not iv.contains(Fraction(1, 7))
    assert iv.contains(Fraction(1, 5))
    open_iv = ThetaInterval(Fraction(1, 5), False, Fraction(1, 4), False)
    assert not open_iv.contains(Fraction(1, 5))
    assert open_iv.contains(Fraction(9, 40))


def test_empty_contains_nothing():
    assert not EMPTY_INTERVAL.contains(Fraction(1))
    assert not EMPTY_INTERVAL.contains(SQRT13)


def test_witness():
    assert closed(3, 4).witness() == Fraction(7, 2)
    assert ThetaInterval(Fraction(2), True, None, False).witness() == 3
    assert EMPTY_INTERVAL.witness() is None
    assert closed(5, 5).witness() == 5


def test_subset_relation():
    assert closed(2, 3).is_subset_of(closed(1, 4))
    assert closed(2, 3).is_subset_of(closed(2, 3))
    assert not closed(1, 4).is_subset_of(closed(2, 3))
    assert EMPTY_INTERVAL.is_subset_of(closed(1, 2))
    assert not closed(1, 2).is_subset_of(EMPTY_INTERVAL)
    assert closed(1, 2).is_subset_of(ThetaInterval(Fraction(1), True, None, False))
    assert not ThetaInterval(Fraction(1), True, None, False).is_subset_of(
        ThetaInterval(Fraction(0), False, Fraction(5), True))


def test_interval_str():
    assert str(closed(3, 4)) == "[3, 4]"
    assert str(EMPTY_INTERVAL) == "EMPTY"
    assert str(ThetaInterval(Fraction(0), False, Fraction(1, 2), True)) == "(0, 1/2]"
    assert str(ThetaInterval(Fraction(1), True, None, False)) == "[1, oo)"


# --- seed intervals --------------------------------------------------------------

def test_seed_interval_ramp():
    assert seed_interval(4, SegmentKind.RAMP) == closed(3, 4)
    assert seed_interval(2, SegmentKind.RAMP) == closed(1, 2)


def test_seed_interval_ones():
    assert seed_interval(4, SegmentKind.ONES) == closed(Fraction(1, 4), Fraction(1, 3))
    assert seed_interval(2, SegmentKind.ONES) == closed(Fraction(1, 2), Fraction(1))


def test_seed_interval_rejects_small_n():
    with pytest.raises(ValueError):
        seed_interval(1, SegmentKind.RAMP)
    with pytest.raises(ValueError, match="no seed interval"):
        seed_interval(3, "ramp")


def test_seed_interval_matches_prefix_recovery():
    # The n+2 term opening of each seed recovers exactly the seed interval.
    for n in range(2, 8):
        ramp = list(range(1, n + 1)) + [1, n + 1]
        assert theta_interval_from_prefix(ramp) == seed_interval(n, SegmentKind.RAMP)
        ones = [1] * n + [2, 1]
        assert theta_interval_from_prefix(ones) == seed_interval(n, SegmentKind.ONES)


# --- soundness and refinement ------------------------------------------------------

def test_recovered_interval_contains_its_parameter():
    for theta in make_theta_sample(8, 8, seed=5):
        values = [t.value for t in generate_signature(theta, 200)]
        iv = theta_interval_from_prefix(values)
        assert not iv.is_empty
        assert iv.contains(theta), theta
        assert certified(iv, 200), (theta, iv)


def test_intervals_nest_as_prefixes_grow():
    for theta in make_theta_sample(5, 5, seed=6):
        values = [t.value for t in generate_signature(theta, 400)]
        ivs = [theta_interval_from_prefix(values[:n]) for n in (50, 100, 400)]
        for n, iv in zip((50, 100, 400), ivs):
            assert certified(iv, n), (theta, n, iv)
        assert ivs[2].is_subset_of(ivs[1])
        assert ivs[1].is_subset_of(ivs[0])


@given(st.lists(st.integers(1, 6), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_interior_witness_regenerates(prefix):
    iv = theta_interval_from_prefix(prefix)
    if iv.is_empty or iv.is_point:
        return
    witness = iv.witness()
    regen = [t.value for t in generate_signature(witness, len(prefix))]
    assert regen == prefix
    assert iv.hi is None or is_farey_pair(iv), (prefix, iv)


# --- every doubly fractal prefix up to a length ------------------------------------

def expected_next(terms):
    """The next terms that the upper and the lower trim of a passing
    prefix expect, at the cursors that ``ConstructionState`` derives from
    it: u = terms[len - max] and f = terms[len - count(1)] + 1."""
    return terms[len(terms) - max(terms)], terms[len(terms) - terms.count(1)] + 1


def test_doubly_fractal_prefixes_are_signature_prefixes_whose_intervals_tile():
    # Level by level, every prefix that the stepper allows.  At each node
    # the fold passes exactly the allowed values among 1, u, f and max+1,
    # and any other value fails both trims; up to length 40, every value
    # 1..max+1 is tried.
    level, sizes = [[1]], [1]
    while len(level[0]) < 150:
        grown = []
        for prefix in level:
            (u, f), top = expected_next(prefix), max(prefix)
            allowed = next_terms(u, f, top + 1)
            named = {1, u, f, top + 1}
            for v in range(1, top + 2) if len(prefix) <= 40 else named:
                report = check_doubly_fractal_slices([prefix, [v]])
                assert report.ok == (v in allowed), (prefix, v)
                assert v in named or not (report.upper_ok or report.lower_ok), (prefix, v)
            grown += [prefix + [v] for v in allowed]
        level = grown
        sizes.append(len(level))
    assert sizes[:15] == [1, 2, 4, 6, 8, 12, 14, 16, 20, 24, 26, 32, 34, 36, 42]
    assert sizes[59] == 262 and sizes[-1] == 812
    intervals = []
    for prefix in level:
        assert check_doubly_fractal_prefix(prefix).ok
        iv = theta_interval_from_prefix(prefix)
        assert not iv.is_empty
        assert [t.value for t in generate_signature(iv.witness(), 150)] == prefix
        intervals.append(iv)
    intervals.sort(key=lambda iv: iv.lo)
    assert intervals[0].lo == 0 and intervals[-1].hi is None
    for left, right in zip(intervals, intervals[1:]):
        assert left.hi == right.lo and is_farey_pair(left), (left, right)


def stepper_counts(top):
    """counts[N], for N <= top: the prefixes of length N that next_terms
    allows, walked depth first from [1] in one list of terms.  The
    cursors move as ``ConstructionState`` moves them, from (0, 0, 1)
    before the first term."""
    counts, terms = [0] * (top + 1), []
    stack = [(0, 0, 0, 1, 1)]  # (length, upper, lower, fresh) before the term t
    while stack:
        length, upper, lower, fresh, t = stack.pop()
        del terms[length:]
        terms.append(t)
        upper, lower, fresh = upper + (t < fresh), lower + (t > 1), fresh + (t == fresh)
        counts[length + 1] += 1
        if length + 1 < top:
            stack += [(length + 1, upper, lower, fresh, v)
                      for v in next_terms(terms[upper], terms[lower] + 1, fresh)]
    return counts


def farey_counts(top):
    """counts[N], for N <= top: 1 + #{coprime p, q >= 1 : (p+1)(q+1) <= 2N}.
    A pair first counts at N = ceil((p+1)(q+1)/2)."""
    first = [0] * (top + 1)
    for p in range(1, top):
        for q in range(1, 2 * top // (p + 1)):
            if gcd(p, q) == 1:
                first[((p + 1) * (q + 1) + 1) // 2] += 1
    return [0] + [1 + c for c in accumulate(first[1:])]


def check_prefix_counts(top):
    """The stepper's prefix count equals the Farey count at every N <= top."""
    counts, expected = stepper_counts(top), farey_counts(top)
    assert counts == expected, next(n for n in range(top + 1) if counts[n] != expected[n])
    return counts


def test_the_stepper_allows_as_many_prefixes_as_the_farey_count():
    # Every signature prefix is doubly fractal, and a signature prefix of
    # length N changes at p/q exactly when (p+1)(q+1) <= 2N; so equal
    # counts make every doubly fractal prefix a signature prefix: the
    # paper's converse, checked to N = 400 by counting (found by
    # computation, not proved).  CI runs check_prefix_counts(1000).
    counts = check_prefix_counts(400)
    assert counts[1:9] == [1, 2, 4, 6, 8, 12, 14, 16]
    assert counts[60] == 262 and counts[150] == 812


def check_leaf_intervals(top):
    """For every N <= top, the intervals of the length-N prefixes that
    next_terms allows tile (0, oo): sorted, the first is open at 0, each
    ends where the next starts, the last is unbounded, and the interior
    endpoints are exactly the coprime p/q with (p+1)(q+1) <= 2N.  Found
    by computation, not proved."""
    level = [[1]]
    for n in range(1, top + 1):
        intervals = sorted(map(theta_interval_from_prefix, level), key=lambda iv: iv.lo)
        assert intervals[0].lo == 0 and not intervals[0].lo_closed, n
        assert intervals[-1].hi is None, n
        for left, right in zip(intervals, intervals[1:]):
            assert left.hi == right.lo, (n, left, right)
        cuts = {Fraction(p, q) for p in range(1, n) for q in range(1, 2 * n // (p + 1))
                if gcd(p, q) == 1 and (p + 1) * (q + 1) <= 2 * n}
        assert [iv.lo for iv in intervals[1:]] == sorted(cuts), n
        level = [prefix + [v] for prefix in level
                 for v in next_terms(*expected_next(prefix), max(prefix) + 1)]


def test_the_allowed_prefixes_of_each_length_tile_theta():
    # The leaves of the prefix tree at each depth N partition theta > 0 at
    # the Farey-like fractions that the counts above predict.  CI runs
    # check_leaf_intervals(150).
    check_leaf_intervals(60)


# --- Stern-Brocot cross-check -------------------------------------------------------

def stern_brocot_witness(prefix, max_denominator=1000):
    """Directed mediant descent toward a rational whose signature opens
    with `prefix`; independent of the interval arithmetic."""
    want = annotate_ranks(prefix)
    lo, hi = (0, 1), (1, 0)
    while True:
        p, q = lo[0] + hi[0], lo[1] + hi[1]
        if q > max_denominator:
            return None
        mid = Fraction(p, q)
        got = generate_signature(mid, len(prefix))
        values = [t.value for t in got]
        if values == list(prefix):
            return mid
        h = next(k for k, (a, b) in enumerate(zip(values, prefix)) if a != b)
        s, a = want[h]
        sp, ap = got[h]
        if ap > a:
            lo = (p, q)       # the wanted pair needs a larger theta
        elif ap < a:
            hi = (p, q)
        else:
            return None       # same rank, smaller value: impossible anywhere


def random_prefixes(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            theta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            values = [t.value for t in generate_signature(theta, rng.randint(1, 12))]
            if rng.random() < 0.5 and len(values) > 2:
                values[rng.randrange(len(values))] = rng.randint(1, 6)
            out.append(values)
        else:
            out.append([rng.randint(1, 5) for _ in range(rng.randint(1, 10))])
    return out


def test_interval_agrees_with_stern_brocot_scan():
    for prefix in random_prefixes(120, seed=31):
        if any(v < 1 for v in prefix):
            continue
        iv = theta_interval_from_prefix(prefix)
        found = stern_brocot_witness(prefix)
        if found is not None:
            assert not iv.is_empty
            assert iv.contains(found), (prefix, found)
        if iv.is_empty:
            assert found is None, (prefix, found)
        elif not iv.is_point:
            witness = iv.witness()
            regen = [t.value for t in generate_signature(witness, len(prefix))]
            assert regen == prefix, (prefix, witness)


# --- divergence -----------------------------------------------------------------------

def test_divergence_below_and_above_one():
    assert first_divergence(Fraction(1, 7), Fraction(13, 2), 10) == 2


def test_divergence_inside_shared_seed_window():
    assert first_divergence(Fraction(7, 2), SQRT13, 100) == DIVERGENCE_7_2_VS_SQRT13


def test_divergence_matches_generated_prefixes():
    a, b = Fraction(7, 2), SQRT13
    va = [t.value for t in generate_signature(a, 100)]
    vb = [t.value for t in generate_signature(b, 100)]
    expected = next(k + 1 for k in range(100) if va[k] != vb[k])
    assert first_divergence(a, b, 100) == expected
    assert va[:expected - 1] == vb[:expected - 1]


def test_divergence_not_found_within_horizon():
    assert first_divergence(Fraction(7, 2), SQRT13, 10) is None


def test_divergence_rejects_equal_parameters():
    with pytest.raises(ValueError):
        first_divergence(Fraction(3, 2), Fraction(3, 2), 100)
    with pytest.raises(ValueError):
        first_divergence(SQRT13, Surd.sqrt(13), 100)
    with pytest.raises(ValueError, match="max_terms must be >= 1"):
        first_divergence(1, 2, 0)


def test_divergence_sampled_pairs():
    rng = random.Random(17)
    values = sorted({Fraction(p, q) for q in range(1, 8) for p in range(1, 30)
                     if Fraction(p, q) < 8})
    for _ in range(60):
        a, b = rng.sample(values, 2)
        assert first_divergence(a, b, 5000) is not None
