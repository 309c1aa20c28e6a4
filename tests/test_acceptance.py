"""Acceptance checklist.

Each test is one numbered criterion and prints a PASS line on success
(run with ``pytest -s`` to see them inline).  Criterion 10 is split
by seed: 10a is the ramp (1, 2, 3, 4, 1, 5), whose interval is [3, 4];
10b is the ones seed (1, 1, 1, 1, 2), whose interval is [1/4, 1/3],
checked against the seed table and regenerated through the
brute-force oracle.
"""
import time
from fractions import Fraction

from fractalseq import (SegmentKind, Surd, brute_force_signature,
                        check_doubly_fractal_prefix, construct_ones,
                        enumerate_ramp, extend_next_block, extend_second_block,
                        first_divergence, generate_signature, init_ramp,
                        merge_seams, needs_branch, seam_above, seam_below,
                        seed_interval, theta_interval_from_prefix)

from fixtures import (ONE_SEVENTH_PREFIX, RAMP4_BRANCHES, RAMP4_RANK_STREAM,
                      RAMP4_TERMS, SQRT13_PREFIX)


def _report(label, detail=""):
    print(f"ACCEPTANCE {label}: PASS {detail}".rstrip())


def test_criterion_01_sqrt13_golden():
    t0 = time.perf_counter()
    values = [t.value for t in generate_signature(Surd.sqrt(13), 23)]
    elapsed = time.perf_counter() - t0
    assert values == SQRT13_PREFIX
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    _report("01 sqrt(13) golden prefix", f"({elapsed * 1000:.1f} ms)")


def test_criterion_02_one_seventh_golden():
    values = [t.value for t in generate_signature(Fraction(1, 7), 24)]
    assert values == ONE_SEVENTH_PREFIX
    assert values[7:] == ONE_SEVENTH_PREFIX[7:]  # the tie-ordered stretch
    _report("02 1/7 golden prefix incl. tie order")


def test_criterion_03_construction_golden_with_intermediates():
    state = extend_second_block(init_ramp(4))
    branches = iter(RAMP4_BRANCHES)
    expected_merges = [
        ((8,), (1,), (1, 8), -1),
        ((11, 8), (1, 8), (11, 1, 8), 1),
        ((11, 8, 15), (11, 1, 8), (11, 1, 8, 15), -2),
    ]
    for below, above, merged, offset in expected_merges:
        got_below, got_above = seam_below(state), seam_above(state)
        assert tuple(got_below) == below
        assert tuple(got_above) == above
        branch = next(branches) if needs_branch(state) else None
        plan = merge_seams(got_below, got_above, branch)
        assert plan.merged == merged
        assert plan.offset == offset
        extend_next_block(state, branch)
    assert state.terms == RAMP4_TERMS
    _report("03 five-block construction with merge intermediates")


def test_criterion_04_ones_companion_golden():
    # Full command form: the golden run needs the same branch string as
    # criterion 03, which the shorthand `construct --n 4 --type2` omits.
    from fractalseq.cli import main
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["construct", "--n", "4", "--blocks", "5",
                     "--branches", "0,1", "--type2"])
    assert code == 0
    assert [int(x) for x in buf.getvalue().split()] == RAMP4_RANK_STREAM
    assert construct_ones(4, 52, RAMP4_BRANCHES) == RAMP4_RANK_STREAM
    _report("04 ones-seeded companion golden run")


def test_criterion_05_oracle_equivalence(theta_sample):
    t0 = time.perf_counter()
    for theta in theta_sample:
        assert generate_signature(theta, 2000) == brute_force_signature(theta, 2000), theta
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report("05 block generator == brute-force oracle, 50 thetas x 2000",
            f"({elapsed:.1f} s)")


def test_criterion_06_doubly_fractal_suite(theta_sample):
    for theta in theta_sample:
        values = [t.value for t in generate_signature(theta, 1000)]
        for n in (10, 100, 1000):
            assert check_doubly_fractal_prefix(values[:n]).ok, (theta, n)
    _report("06 doubly-fractal property at 10/100/1000, 50 thetas")


def test_criterion_07_inverse_soundness(theta_sample):
    for theta in theta_sample:
        values = [t.value for t in generate_signature(theta, 500)]
        intervals = [theta_interval_from_prefix(values[:n]) for n in (50, 100, 500)]
        for iv in intervals:
            assert not iv.is_empty, theta
        assert intervals[-1].contains(theta), theta
        assert intervals[2].is_subset_of(intervals[1]), theta
        assert intervals[1].is_subset_of(intervals[0]), theta
    _report("07 recovered intervals sound and nested, 50 thetas")


def test_criterion_08_roundtrip_over_branch_tree():
    outcomes = enumerate_ramp(3, 4)
    assert len(outcomes) == 4
    for log, terms in outcomes:
        interval = theta_interval_from_prefix(terms)
        assert not interval.is_empty, log
        midpoint = interval.witness()
        regen = [t.value for t in generate_signature(midpoint, len(terms))]
        assert regen == terms, log
    _report("08 every branch outcome regenerates from its interval midpoint")


def test_criterion_09_divergence_battery():
    values = sorted({Fraction(p, q) for q in range(1, 11) for p in range(1, 10 * q)
                     if 0 < Fraction(p, q) < 10})
    t0 = time.perf_counter()
    pairs = deepest = 0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            d = first_divergence(values[i], values[j], 5000)
            assert d is not None, (values[i], values[j])
            pairs += 1
            deepest = max(deepest, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _report("09 all small-denominator pairs diverge",
            f"({pairs} pairs, deepest {deepest}, {elapsed:.1f} s)")


def test_criterion_10a_ramp_seed_interval():
    iv = theta_interval_from_prefix([1, 2, 3, 4, 1, 5])
    assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (3, 4, True, True)
    assert seed_interval(4, SegmentKind.RAMP) == iv
    _report("10a interval of (1,2,3,4,1,5) is exactly [3, 4]")


def test_criterion_10b_ones_seed_interval_as_stated():
    # 1 + j*theta sorts before 2 + theta exactly when (j-1)*theta < 1, and
    # a tie goes to the larger first component, 2.  So the signature opens
    # with exactly four ones and then 2 iff 1/4 <= theta < 1/3.  That is
    # seed_interval(4, ONES) = [1/n, 1/(n-1)] at n = 4, the reciprocal of
    # 10a's [3, 4]; [1/5, 1/4] is the interval of five ones.  Bounds are
    # emitted closed, so at the right end 1/3 the tie order decides and
    # exact regeneration gives three ones.
    prefix = [1, 1, 1, 1, 2]
    iv = theta_interval_from_prefix(prefix)
    assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (
        Fraction(1, 4), Fraction(1, 3), True, True)
    assert seed_interval(4, SegmentKind.ONES) == iv

    def opening(theta):
        return [t.value for t in brute_force_signature(theta, len(prefix) + 1)]

    assert opening(iv.witness())[:5] == prefix
    assert opening(iv.lo)[:5] == prefix
    assert opening(Fraction(1, 5)) == [1, 1, 1, 1, 1, 2]
    assert opening(Fraction(1, 3))[:4] == [1, 1, 1, 2]
    _report("10b interval of (1,1,1,1,2) is exactly [1/4, 1/3]")
