import copy
import random
from fractions import Fraction
from itertools import chain, count
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fractalseq import construction
from fractalseq import (Branch, ConstructionError, ConstructionState, ThetaInterval,
                        brute_force_signature, check_doubly_fractal_prefix, construct_ones,
                        construct_ramp_state, enumerate_ramp,
                        extend_next_block, extend_second_block,
                        generate_signature, init_ramp, lower_trim, merge_seams,
                        needs_branch, ramp_leaf, ramp_leaves, ramp_pieces, rank_stream,
                        seam_above,
                        seam_below, theta_interval_from_prefix, upper_trim)

from fixtures import (RAMP4_BRANCHES, RAMP4_RANK_STREAM, RAMP4_STEPS,
                      RAMP4_TERMS)

ONE, FRESH = Branch.ONE_FIRST, Branch.FRESH_FIRST


def ramp4_after(step):
    """State of the n=4 run after `step` extension steps (1 = seed only)."""
    state = init_ramp(4)
    branches = iter(RAMP4_BRANCHES)
    if step >= 2:
        extend_second_block(state)
    for _ in range(3, step + 1):
        extend_next_block(state, next(branches) if needs_branch(state) else None)
    return state


# --- seeding and the second block ------------------------------------------

def test_init_ramp():
    for n in range(2, 10):
        state = init_ramp(n)
        assert state.terms == list(range(1, n + 1))
        assert state.fresh == n + 1
        assert state.blocks == 1
        assert state.branch_log == []
        assert_cursors_are_the_trim_lengths(state)


def test_init_ramp_minimal():
    assert init_ramp(2).terms == [1, 2]


def test_init_ramp_rejects_small_n():
    with pytest.raises(ConstructionError):
        init_ramp(1)


@pytest.mark.parametrize("n", range(2, 61))
def test_second_block_is_its_closed_form(n):
    # (1, n+1, 2, n+2, ..., n-1, 2n-1, n), grown by the trims alone.
    state = extend_second_block(init_ramp(n))
    block = [1] + [t for i in range(1, n) for t in (n + i, i + 1)]
    assert state.terms == list(range(1, n + 1)) + block
    assert state.fresh == 2 * n
    assert state.branch_log == []
    assert_cursors_are_the_trim_lengths(state)


def test_second_block_only_after_seed():
    state = extend_second_block(init_ramp(3))
    with pytest.raises(ConstructionError):
        extend_second_block(state)


# --- seam extraction ---------------------------------------------------------

@pytest.mark.parametrize("step,below,above", [
    (2, [8], [1]),
    (3, [11, 8], [1, 8]),
    (4, [11, 8, 15], [11, 1, 8]),
])
def test_seam_windows(step, below, above):
    state = ramp4_after(step)
    assert seam_below(state) == below
    assert seam_above(state) == above


def test_seams_need_two_blocks():
    for needs_two_blocks in (seam_below, seam_above, needs_branch):
        with pytest.raises(ConstructionError):
            needs_two_blocks(init_ramp(4))


# --- merging ------------------------------------------------------------------

def test_merge_coinciding_one_first():
    plan = merge_seams([8], [1], ONE)
    assert plan.merged == (1, 8)
    assert plan.offset == -1
    assert plan.carry == ()


def test_merge_coinciding_fresh_first():
    plan = merge_seams([11, 8], [1, 8], FRESH)
    assert plan.merged == (11, 1, 8)
    assert plan.offset == 1
    assert plan.carry == (11,)
    assert plan.fresh_value == 11


def test_merge_forced():
    plan = merge_seams([11, 8, 15], [11, 1, 8])
    assert plan.merged == (11, 1, 8, 15)
    assert plan.offset == -2
    assert plan.carry == (11,)
    assert plan.fresh_value == 15


def test_merge_forced_other_order():
    # fresh slot before the slot of 1
    plan = merge_seams([9, 5, 6], [5, 1, 6])
    assert plan.merged == (9, 5, 1, 6)
    assert plan.offset == 2


def test_merge_branch_required():
    with pytest.raises(ConstructionError):
        merge_seams([8], [1])


def test_merge_branch_forbidden_when_forced():
    with pytest.raises(ConstructionError):
        merge_seams([11, 8, 15], [11, 1, 8], ONE)


def test_merge_rejects_structural_mismatch():
    with pytest.raises(ConstructionError):
        merge_seams([5, 9], [1, 7])
    with pytest.raises(ConstructionError):
        merge_seams([5, 2], [1, 1, 5])   # two ones
    with pytest.raises(ConstructionError):
        merge_seams([1, 5], [1, 5])      # a 1 in the lower seam


def test_merge_rejects_repeated_fresh_value():
    with pytest.raises(ConstructionError):
        merge_seams([7, 7], [1, 7])


def quadratic_merge_positions(below, above):
    """The merge rule as first written, kept as the oracle of the linear
    one: try every slot of `below` for the fresh value."""
    if any(x < 2 for x in below):
        raise ConstructionError(f"seam from below contains a 1: {list(below)}")
    if above.count(1) != 1:
        raise ConstructionError(f"seam from above must contain exactly one 1: {list(above)}")
    common = [x for x in above if x != 1]
    candidates = [k for k in range(len(below))
                  if list(below[:k]) + list(below[k + 1:]) == common]
    if not candidates:
        raise ConstructionError(
            f"seam windows do not share a common order: {list(below)} vs {list(above)}")
    fresh_value = below[candidates[0]]
    if below.count(fresh_value) != 1:
        raise ConstructionError(
            f"fresh-class value {fresh_value} repeats in the seam: {list(below)}")
    return common, candidates[0], above.index(1), fresh_value


def merge_outcome(rule, below, above):
    try:
        return rule(below, above)
    except ConstructionError as err:
        return str(err)


def assert_merge_matches_oracle(below, above):
    assert (merge_outcome(construction._merge_positions, below, above)
            == merge_outcome(quadratic_merge_positions, below, above)), (below, above)


@given(st.lists(st.integers(1, 6), max_size=7), st.lists(st.integers(1, 6), max_size=7))
def test_linear_merge_matches_oracle_on_arbitrary_windows(below, above):
    assert_merge_matches_oracle(below, above)


def test_linear_merge_matches_oracle_on_near_seams():
    # Well-formed windows (common order plus one fresh value below and
    # one 1 above), then the same with one defect each.
    rng = random.Random(7)
    for _ in range(3000):
        common = rng.sample(range(2, 30), rng.randint(0, 10))
        below, above = list(common), list(common)
        below.insert(rng.randint(0, len(common)), rng.randint(2, 32))
        above.insert(rng.randint(0, len(common)), 1)
        defect = rng.randrange(6)
        window = below if rng.random() < 0.5 else above
        k = rng.randrange(len(window))
        if defect == 1:
            window.insert(k, window[k])
        elif defect == 2:
            del window[k]
        elif defect == 3:
            j = rng.randrange(len(window))
            window[j], window[k] = window[k], window[j]
        elif defect == 4:
            window[k] = 1
        elif defect == 5:
            window[k] = rng.randint(2, 32)
        assert_merge_matches_oracle(below, above)


def test_linear_merge_matches_oracle_on_real_seams():
    for n, blocks in [(2, 40), (4, 30), (7, 20)]:
        state = construct_ramp_state(n, 2)
        for _ in range(blocks):
            assert_merge_matches_oracle(seam_below(state), seam_above(state))
            extend_next_block(state, FRESH if needs_branch(state) else None)


def three_slice_merge(common, gap_fresh, gap_one, fresh_value, branch):
    """The merged seam as first written, kept as the oracle of the two
    inserts in `merge_seams`."""
    if gap_fresh == gap_one:
        pair = [1, fresh_value] if branch is ONE else [fresh_value, 1]
        return common[:gap_fresh] + pair + common[gap_fresh:]
    if gap_one < gap_fresh:
        return (common[:gap_one] + [1] + common[gap_one:gap_fresh]
                + [fresh_value] + common[gap_fresh:])
    return (common[:gap_fresh] + [fresh_value] + common[gap_fresh:gap_one]
            + [1] + common[gap_one:])


def test_merged_seam_matches_three_slice_oracle_on_real_seams():
    # Runs that fork the same way every time never meet a forced merge,
    # so the runs here take seeded random turns.
    rng = random.Random(99)
    orders = set()
    for n, blocks in [(2, 40), (3, 30), (4, 30), (6, 20)]:
        state = construct_ramp_state(n, 2)
        for _ in range(blocks):
            below, above = seam_below(state), seam_above(state)
            common, gap_fresh, gap_one, fresh_value = construction._merge_positions(below, above)
            fork = needs_branch(state)
            for branch in (ONE, FRESH) if fork else (None,):
                plan = merge_seams(below, above, branch)
                assert [x for x in plan.merged if x != 1] == below
                assert [x for x in plan.merged if x != plan.fresh_value] == above
                assert list(plan.merged) == three_slice_merge(
                    common, gap_fresh, gap_one, fresh_value, branch), (below, above, branch)
                orders.add((gap_one > gap_fresh) - (gap_one < gap_fresh))
            extend_next_block(state, rng.choice([ONE, FRESH]) if fork else None)
    assert orders == {-1, 0, 1}


# --- full extension steps ------------------------------------------------------

def test_steps_match_golden_run():
    state = init_ramp(4)
    assert state.terms == RAMP4_STEPS[0]
    extend_second_block(state)
    branches = iter(RAMP4_BRANCHES)
    grown = len(state.terms)
    for expected_step in RAMP4_STEPS[2:]:
        extend_next_block(state, next(branches) if needs_branch(state) else None)
        assert state.terms[grown:] == expected_step
        grown = len(state.terms)
    assert state.terms == RAMP4_TERMS
    assert state.branch_log == RAMP4_BRANCHES


def test_construct_ramp_golden():
    assert construct_ramp_state(4, 5, RAMP4_BRANCHES).terms == RAMP4_TERMS


def test_construct_ramp_single_block():
    assert construct_ramp_state(2, 1).terms == [1, 2]


def test_fresh_counter_invariant():
    state = construct_ramp_state(4, 7, [ONE, FRESH, ONE, FRESH])
    assert state.fresh == max(state.terms) + 1


@given(st.integers(2, 9), st.integers(1, 60), st.randoms(use_true_random=False))
def test_block_lengths_lie_between_the_cap_bounds(n, blocks, rng):
    # Block j holds 1 + (n-1)*j to 1 + n*j terms; the CLI's term cap
    # refuses a construction by the sum of the lower bounds.
    state = construct_ramp_state(n, blocks, [rng.choice([ONE, FRESH]) for _ in range(blocks)])
    starts = [i for i, t in enumerate(state.terms, 1) if t == 1]
    ends = starts[1:] + [len(state.terms) + 1]
    for j, (start, end) in enumerate(zip(starts, ends), start=1):
        assert 1 + (n - 1) * j <= end - start <= 1 + n * j


def test_construct_rejects_exhausted_branch_list():
    with pytest.raises(ConstructionError):
        construct_ramp_state(4, 5, [ONE])
    with pytest.raises(ConstructionError, match="branch list exhausted"):
        list(ramp_pieces(4, 5, [ONE]))
    # The seed's closing 1 is decided by n and uses up no Branch, so the
    # first fork a list must cover is in the third block.
    for n in range(2, 10):
        assert construct_ramp_state(n, 2, []).branch_log == []
        with pytest.raises(ConstructionError, match="branch list exhausted"):
            construct_ramp_state(n, 3, [])


def test_branch_choices_are_read_as_branch_values():
    # 0 and 1 mean ONE_FIRST and FRESH_FIRST, as they do after --branches,
    # and are logged as Branch members; any other value is Branch's own
    # ValueError at the fork that reads it, not a ConstructionError.
    for bits in ([0, 0, 0], [0, 1]):
        path = [Branch(bit) for bit in bits]
        run, grown = construct_ramp_state(4, 5, path), construct_ramp_state(4, 5, bits)
        assert grown.terms == run.terms and grown.branch_log == run.branch_log == path
        assert list(chain.from_iterable(ramp_pieces(4, 5, bits))) == run.terms
        assert construct_ones(4, len(run.terms), bits) == rank_stream(run.terms)
        assert ramp_leaf(4, 5, bits) == (path, len(run.terms))
    assert construct_ramp_state(4, 5, [0, 1]).terms == RAMP4_TERMS
    for bad in (2, "0", None):
        for call in (lambda: construct_ramp_state(4, 5, [bad]), lambda: ramp_leaf(4, 5, [bad]),
                     lambda: list(ramp_pieces(4, 5, [bad])), lambda: construct_ones(4, 52, [bad])):
            with pytest.raises(ValueError, match="is not a valid Branch"):
                call()


@given(st.integers(2, 9), st.integers(1, 60),
       st.none() | st.lists(st.sampled_from(list(Branch)), max_size=60))
def test_ramp_pieces_join_to_the_whole_run(n, blocks, bits):
    try:
        run = construct_ramp_state(n, blocks, bits)
    except ConstructionError as exc:
        with pytest.raises(ConstructionError) as raised:
            list(ramp_pieces(n, blocks, bits))
        assert str(raised.value) == str(exc)
        if bits is not None:  # the leaf walk runs out of choices as growth does
            with pytest.raises(ConstructionError) as raised:
                ramp_leaf(n, blocks, bits)
            assert str(raised.value) == str(exc)
    else:
        assert list(chain.from_iterable(ramp_pieces(n, blocks, bits))) == run.terms
        if bits is not None:  # the leaf walk takes the choices growth takes, and the length
            assert ramp_leaf(n, blocks, bits) == (run.branch_log, len(run.terms))


@pytest.mark.parametrize("policy", [None, [FRESH] * 300], ids=["one-first", "fresh-first"])
def test_upper_cursor_stays_below_lower_cursor(policy):
    # ramp_pieces cuts at the upper cursor, so the lower one must stay in
    # the window: max > blocks, so len - max < len - blocks.
    for n in (2, 5, 9):
        state, choices = init_ramp(n), construction._choices(policy)
        while state.blocks < 300:
            construction._grow(state, choices)
            upper, lower, fresh = state.cursors
            assert upper < lower and fresh - 1 > state.blocks, (n, state.blocks)


def test_every_step_stays_doubly_fractal():
    rng = random.Random(424242)
    for _ in range(40):
        n = rng.randint(2, 6)
        blocks = rng.randint(1, 8)
        state = init_ramp(n)
        if blocks >= 2:
            extend_second_block(state)
        for _ in range(3, blocks + 1):
            branch = rng.choice([ONE, FRESH]) if needs_branch(state) else None
            extend_next_block(state, branch)
            assert check_doubly_fractal_prefix(state.terms).ok
        assert state.fresh == max(state.terms) + 1


def test_part_recurrence():
    # Global first occurrences removed, the survivors inside the segment
    # between consecutive occurrences of n reproduce the previous segment.
    for n, blocks, branches in [(4, 5, RAMP4_BRANCHES), (3, 6, [ONE] * 6), (2, 7, [FRESH] * 7)]:
        terms = construct_ramp_state(n, blocks, branches).terms
        seen = set()
        survivor = [False] * len(terms)
        for idx, v in enumerate(terms):
            survivor[idx] = v in seen
            seen.add(v)
        at_n = [idx for idx, v in enumerate(terms) if v == n]
        for k, (a, b, c) in enumerate(zip(at_n, at_n[1:], at_n[2:]), start=1):
            part_k = terms[a:b]
            part_next = terms[b:c]
            survivors = [v for off, v in enumerate(part_next) if survivor[b + off]]
            assert survivors == part_k, (n, k)


def test_upper_trim_peels_one_block():
    # Trimming the five-block run leaves its four-block prefix.
    four_blocks = construct_ramp_state(4, 4, RAMP4_BRANCHES).terms
    assert upper_trim(RAMP4_TERMS) == four_blocks[:len(upper_trim(RAMP4_TERMS))]


# --- term-by-term growth against the paper's block procedure ----------------

def scheduled_weave_forward(replay, n, gap):
    """The paper's weave, kept as the oracle of term-by-term growth:
    schedule a fresh slot `gap` after each main term, and read the
    replay with a separate pointer."""
    out = []
    sched = set()
    k = 0
    while k < len(replay):
        pos = len(out) + 1
        if pos in sched:
            sched.discard(pos)
            out.append(None)
            continue
        term = replay[k]
        k += 1
        out.append(term)
        if term <= n:
            sched.add(len(out) + gap)
    return out


def _last_index(terms, value, before=None):
    hi = len(terms) if before is None else before
    for k in range(hi - 1, -1, -1):
        if terms[k] == value:
            return k
    return None


def scanned_seams(state):
    """The two seams as first found, kept as the oracle of `seam_below`
    and `seam_above`: scan `terms` backwards for the closing mains."""
    a = _last_index(state.terms, state.n - 1)
    b = _last_index(state.terms, state.n)
    assert a is not None and b is not None and a < b
    below = [x + 1 for x in state.terms[a + 1:b]]
    b = _last_index(state.terms, state.n + 1)
    assert b is not None
    a = _last_index(state.terms, state.n, before=b)
    assert a is not None
    return below, state.terms[a + 1:b]


def assert_seams_match_scans(state):
    """The seams, the fork test and the merges agree with the oracles
    run on the scanned seams; True when the next step forks."""
    below, above = scanned_seams(state)
    assert (seam_below(state), seam_above(state)) == (below, above)
    common, gap_fresh, gap_one, fresh_value = quadratic_merge_positions(below, above)
    fork = gap_fresh == gap_one
    assert needs_branch(state) == fork
    for branch in (ONE, FRESH) if fork else (None,):
        assert list(merge_seams(below, above, branch).merged) == three_slice_merge(
            common, gap_fresh, gap_one, fresh_value, branch)
    return fork


def test_seams_match_scans_on_both_sides_of_every_fork():
    rng = random.Random(77)
    forks = 0
    for n in range(2, 10):
        state = construct_ramp_state(n, 2)
        while True:
            fork = assert_seams_match_scans(state)
            if state.blocks == 120:
                break
            branch = rng.choice([ONE, FRESH]) if fork else None
            if branch is not None:
                other = extend_next_block(copy.deepcopy(state), FRESH if branch is ONE else ONE)
                assert_seams_match_scans(other)
                forks += 1
            extend_next_block(state, branch)
    assert forks > 50


def with_fresh_values(woven, fresh):
    """Fill the None slots of a weave with fresh, fresh+1, ... in order."""
    values = count(fresh)
    return [next(values) if slot is None else slot for slot in woven]


def assert_step_matches_procedure(state, branch):
    """Grow one block as the drivers do, ``branch`` its one choice, and
    compare it with the carry plus the weave of the previous block."""
    plan = merge_seams(seam_below(state), seam_above(state), branch)
    replay = state.terms[_last_index(state.terms, 1):]
    if plan.offset > 0:
        woven = scheduled_weave_forward(replay[::-1], state.n, plan.offset)[::-1]
    else:
        woven = scheduled_weave_forward(replay, state.n, -plan.offset)
    expected = list(plan.carry) + with_fresh_values(woven, max(state.terms + list(plan.carry)) + 1)
    grown, given = len(state.terms), [] if branch is None else [branch]
    forks = len(state.branch_log)
    construction._grow(state, construction._choices(given))
    assert state.branch_log[forks:] == given
    assert state.terms[grown:] == expected, (state.n, state.blocks, branch)
    assert seam_above(state) == list(plan.merged)
    return plan.offset


def test_grown_blocks_match_the_procedure_on_both_sides_of_every_fork():
    rng = random.Random(2024)
    forks, signs = 0, set()
    for n in range(2, 10):
        state = extend_second_block(init_ramp(n))
        assert state.terms[n:] == with_fresh_values(
            scheduled_weave_forward(list(range(1, n + 1)), n, 1), n + 1)
        while state.blocks < 120:
            branch = rng.choice([ONE, FRESH]) if needs_branch(state) else None
            if branch is not None:
                other = FRESH if branch is ONE else ONE
                assert_step_matches_procedure(copy.deepcopy(state), other)
                forks += 1
            signs.add(assert_step_matches_procedure(state, branch) > 0)
        assert check_doubly_fractal_prefix(state.terms).ok
    assert forks > 50 and signs == {False, True}


def assert_cursors_are_the_trim_lengths(state):
    terms = state.terms
    want = (len(upper_trim(terms)), len(lower_trim(terms)), max(terms) + 1)
    assert state.cursors == want, (state.n, state.blocks)
    assert state.blocks == terms.count(1)


def test_cursors_are_the_trim_lengths_after_every_block():
    # Growth keeps the cursors by hand; the trims of the terms recount them.
    rng = random.Random(2024)
    for n in range(2, 10):
        state = init_ramp(n)
        assert_cursors_are_the_trim_lengths(state)
        extend_second_block(state)
        assert_cursors_are_the_trim_lengths(state)
        while state.blocks < 40:
            branch = rng.choice([ONE, FRESH])
            if needs_branch(state):  # the other side of the fork
                twin = copy.deepcopy(state)
                construction._grow(twin, construction._choices([FRESH if branch is ONE else ONE]))
                assert_cursors_are_the_trim_lengths(twin)
            construction._grow(state, construction._choices([branch]))
            assert_cursors_are_the_trim_lengths(state)


def test_dead_end_is_refused():
    # Cursors set by hand: upper trimming asks for 2 and lower trimming
    # for 3, which is taken, so no term can follow.
    state = init_ramp(3)
    state.cursors = (1, 1, 4)
    with pytest.raises(ConstructionError, match="no term can follow term 3: "
                                                "upper trimming asks for 2, lower trimming for 3"):
        construction._grow(state, None)


def test_step_given_a_branch_refuses_a_second_fork():
    # Cursors set by hand, as if after [1]: upper trimming asks for 1 and
    # lower trimming for the fresh value at every term, so each term forks.
    state = init_ramp(4)
    state.cursors = (0, 0, 2)
    with pytest.raises(ConstructionError, match="branch list exhausted"):
        construction._grow(state, construction._choices([FRESH]))


def test_state_is_built_from_its_seed_alone():
    # No terms, block starts or fresh value can be passed in.
    with pytest.raises(TypeError):
        ConstructionState(3, [1, 2, 3], [1])
    with pytest.raises(AttributeError):
        init_ramp(3).fresh = 5


def test_forced_step_refuses_a_fork(monkeypatch):
    state = construct_ramp_state(4, 2)
    assert needs_branch(state)
    monkeypatch.setattr(construction, "merge_seams", lambda below, above, branch: None)
    with pytest.raises(ConstructionError, match="branch list exhausted"):
        extend_next_block(state)


# --- branch enumeration ---------------------------------------------------------

def test_enumerate_two_outcomes_at_first_fork():
    outcomes = enumerate_ramp(4, 3)
    assert len(outcomes) == 2
    assert [log for log, _ in outcomes] == [(ONE,), (FRESH,)]
    assert outcomes[0][1][:11] == outcomes[1][1][:11]
    assert outcomes[0][1] != outcomes[1][1]
    for _, terms in outcomes:
        assert check_doubly_fractal_prefix(terms).ok


def test_enumerate_depth_two():
    outcomes = enumerate_ramp(3, 4)
    assert [log for log, _ in outcomes] == [
        (ONE, ONE), (ONE, FRESH), (FRESH, ONE), (FRESH, FRESH)]
    for log, terms in outcomes:
        assert construct_ramp_state(3, 4, list(log)).terms == terms


def test_enumerate_no_fork_cases():
    assert enumerate_ramp(4, 1) == [((), [1, 2, 3, 4])]
    assert enumerate_ramp(2, 2) == [((), [1, 2, 1, 3, 2])]
    for n in range(2, 10):
        for blocks in (1, 2):
            assert enumerate_ramp(n, blocks) == [((), construct_ramp_state(n, blocks).terms)]


def runs_fork_by_fork(n, blocks):
    """Every run of ``blocks`` blocks, grown step by step by the paper's
    procedure and copied at each step that forks, the ONE_FIRST copy
    explored first."""
    runs, stack = [], [init_ramp(n)]
    while stack:
        state = stack.pop()
        if state.blocks == blocks:
            runs.append(state)
        elif state.blocks == 1:
            stack.append(extend_second_block(state))
        elif needs_branch(state):
            twin = copy.copy(state)  # the cursors are a tuple; the lists are copied
            twin.terms, twin.branch_log = state.terms[:], state.branch_log[:]
            stack += [extend_next_block(state, FRESH), extend_next_block(twin, ONE)]
        else:
            stack.append(extend_next_block(state))
    return runs


def test_the_leaf_walk_names_every_run_grown_fork_by_fork():
    for n in range(2, 10):
        for blocks in range(1, 31 if n <= 4 else 22):
            runs = runs_fork_by_fork(n, blocks)
            assert enumerate_ramp(n, blocks) == [(tuple(r.branch_log), r.terms) for r in runs]
            assert [length for _, length in ramp_leaves(n, blocks)] == [len(r.terms) for r in runs]


@given(st.integers(2, 30), st.integers(1, 80), st.data())
@settings(deadline=None)
def test_a_leaf_is_the_run_of_its_path(n, blocks, data):
    leaves = list(ramp_leaves(n, blocks))
    lengths = [length for _, length in leaves]
    assert lengths == sorted(lengths)
    # The leaves are the gaps of the Farey series of order blocks-1 over [n-1, n].
    fractions = sum(gcd(p, q) == 1 for q in range(1, blocks) for p in range(1, q + 1))
    assert len(leaves) == max(fractions, 1)
    path, length = leaves[data.draw(st.integers(0, len(leaves) - 1))]
    path = tuple(path)
    run = construct_ramp_state(n, blocks, path)
    assert run.branch_log == list(path) and len(run.terms) == length
    assert ramp_leaf(n, blocks, list(path)) == (list(path), length)


def farey_gaps(n, blocks):
    """The gaps between consecutive fractions of [n-1, n] with denominators
    below ``blocks`` (up to 1 when ``blocks`` is 1 or 2), left to right:
    listed from all p/q, apart from the package's tree walks."""
    order = max(blocks - 1, 1)
    ends = sorted({Fraction(p, q) for q in range(1, order + 1)
                   for p in range((n - 1) * q, n * q + 1)})
    return list(zip(ends, ends[1:]))


def check_leaf_runs(top_n, top_blocks, brute_terms=0):
    """Two facts, found by computation and not proved, for every leaf of
    ramp_leaves with n <= top_n and blocks <= top_blocks.  The run is the
    signature of its leaf's mediant p/q, to the length ramp_leaf gives
    (and brute_force_signature agrees on runs of up to ``brute_terms``
    terms).  The run's ranks, what --type2 prints, invert to the
    reciprocal of the run's own interval [lo, hi]: [1/hi, 1/lo], open at
    0 for the one-block run, whose interval is unbounded."""
    for n in range(2, top_n + 1):
        for blocks in range(1, top_blocks + 1):
            leaves, gaps = list(ramp_leaves(n, blocks)), farey_gaps(n, blocks)
            assert len(leaves) == len(gaps), (n, blocks)
            for (path, _), (lo, hi) in zip(leaves, gaps):
                path = list(path)
                theta = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
                run = construct_ramp_state(n, blocks, path).terms
                length = ramp_leaf(n, blocks, path)[1]
                assert [t.value for t in generate_signature(theta, length)] == run, (n, path)
                if length <= brute_terms:
                    assert [t.value for t in brute_force_signature(theta, length)] == run
                iv = theta_interval_from_prefix(run)
                assert theta_interval_from_prefix(rank_stream(run)) == ThetaInterval(
                    Fraction(0) if iv.hi is None else 1 / iv.hi, iv.hi_closed,
                    1 / iv.lo, iv.lo_closed), (n, path)


def test_a_run_is_the_signature_of_its_leaf_mediant():
    # All 680 leaves with n <= 6 and blocks <= 11, brute force on the 109
    # runs of up to 60 terms.  CI runs check_leaf_runs(9, 24, 200).
    check_leaf_runs(6, 11, 60)


def test_enumerated_outcomes_regenerate_from_interval_witnesses():
    for _, terms in enumerate_ramp(3, 4):
        interval = theta_interval_from_prefix(terms)
        assert not interval.is_empty
        witness = interval.witness()
        regen = [t.value for t in generate_signature(witness, len(terms))]
        assert regen == terms


def test_fresh_branch_tracks_sqrt13():
    # Taking the fresh-first fork at block three lands in the parameter
    # window that contains sqrt(13), so the outcome is a prefix of its
    # signature.
    from fixtures import SQRT13_PREFIX
    terms = construct_ramp_state(4, 3, [FRESH]).terms
    assert terms == SQRT13_PREFIX[:len(terms)]


# --- ones-seeded companion -------------------------------------------------------

def test_ones_seed_prefixes():
    assert construct_ones(4, 5, RAMP4_BRANCHES) == [1, 1, 1, 1, 2]
    assert construct_ones(4, 11, RAMP4_BRANCHES) == [1, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2]


def test_ones_full_golden_run():
    assert construct_ones(4, 52, RAMP4_BRANCHES) == RAMP4_RANK_STREAM


def test_ones_seventh_term_by_hand():
    # Term 7 of the source run is its second 2, so the companion shows 2.
    assert construct_ones(4, 7, RAMP4_BRANCHES)[6] == 2


def test_ones_equals_rank_stream_of_source_at_scale():
    state = init_ramp(3)
    extend_second_block(state)
    while len(state.terms) < 10_000:
        extend_next_block(state, ONE if needs_branch(state) else None)
    length = 10_000
    xs = state.terms[:length]
    expected = [xs[:h + 1].count(xs[h]) for h in range(length)]
    assert construct_ones(3, length, [ONE] * length) == expected
    assert rank_stream(state.terms[:length]) == expected


def test_ones_rejects_bad_length():
    with pytest.raises(ConstructionError):
        construct_ones(4, 0)
