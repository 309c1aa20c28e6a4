"""Step-by-step construction of doubly fractal sequences.

A constructed sequence grows block by block.  A block runs from a
leading 1 to the next occurrence of the largest main term n; the main
terms 1..n form the first block, and the second block rewrites them
with one fresh value woven after each main term except n.

Each term is forced by the two trims, except at a fork.  At the cursors
of :class:`~fractalseq.seqcore.PrefixChecker`, a repeated next term
must be u = terms[upper] and a next term above 1 must be
f = terms[lower] + 1.  The terms so far are exactly 1..fresh-1, so f is
either seen or the fresh value.  The next term is u when u == f, or
when u == 1 and f is seen, and f when f is fresh and u != 1; else no
term can follow.  When u == 1 and f is fresh the sequence forks, and a
:class:`Branch` picks the term: ONE_FIRST starts the next block with 1,
FRESH_FIRST places f.  With k ones so far, ONE_FIRST keeps theta below
(f-1)/k and FRESH_FIRST above it.  Every choice is logged.  A term
picked this way passes exactly the tests of ``PrefixChecker.advance``,
so the prefix is doubly fractal by construction.  This is the paper's
converse: the trims alone determine the sequence, but for the forks.

The paper explains a step as a merge of two "seam" windows, which both
predict the stretch from the last closing n up to the next n+1.  The
seam from below is the values strictly between the last n-1 and the
last n, each raised by 1; the seam from above is the seam merged at the
previous step, the stretch from the closing n before the last block up
to that block's n+1.  They agree but for a single
fresh-class value below and a single 1 above, and the step forks
exactly when those two compete for one slot.  The merge stays as that
explained procedure and as the tests' oracle; of the growing code only
:func:`extend_next_block` consults it, to check its branch.
"""
from __future__ import annotations

from enum import Enum
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

# check_doubly_fractal_prefix is unused here; perfbench/tracer.py looks up
# construction.check_doubly_fractal_prefix.
from .seqcore import (ConstructionError, PrefixChecker, check_doubly_fractal_prefix,
                      rank_stream)


class Branch(Enum):
    """Choice at a fork: start the next block with 1, or place the fresh
    value (in the merge: the order of the two seam specials)."""

    ONE_FIRST = 0
    FRESH_FIRST = 1


class ConstructionState:
    """Mutable state of one construction run.

    ``block_starts`` holds the 1-based index of each block's leading 1,
    and the last term is always the last block's closing n.  The
    ``checker`` holds what growth needs of ``terms``: the two trim
    cursors and the next fresh value.  A doubly fractal prefix holds
    exactly the values 1..max, so ``fresh`` is 1 + max(terms).  The
    constructor advances ``checker`` over ``terms`` and refuses a prefix
    that fails.  Each term is forced by the two trims except at a fork,
    and ``branch_log`` records the Branch taken at every fork, in order.
    Between steps ``terms`` only grows: editing terms is outside the
    contract, and the next step would not notice.
    """

    __slots__ = ("n", "terms", "block_starts", "branch_log", "checker")

    def __init__(self, n: int, terms: list[int], block_starts: list[int], *,
                 branch_log: Optional[list[Branch]] = None,
                 checker: Optional[PrefixChecker] = None) -> None:
        self.n, self.terms, self.block_starts = n, terms, block_starts
        self.branch_log = [] if branch_log is None else branch_log
        self.checker = PrefixChecker() if checker is None else checker
        if not self.checker.advance(terms):
            raise ConstructionError("terms are not a doubly fractal prefix")

    @property
    def blocks(self) -> int:
        return len(self.block_starts)

    @property
    def fresh(self) -> int:
        return self.checker.fresh

    def clone(self) -> "ConstructionState":
        return ConstructionState(self.n, list(self.terms), list(self.block_starts),
                                 branch_log=list(self.branch_log), checker=self.checker.copy())


def init_ramp(n: int) -> ConstructionState:
    """Start a construction from the ramp seed (1, 2, ..., n)."""
    if not isinstance(n, int) or n < 2:
        raise ConstructionError(f"need n >= 2, got {n!r}")
    return ConstructionState(n, list(range(1, n + 1)), [1])


def extend_second_block(state: ConstructionState) -> ConstructionState:
    """Write the forced second block (1, n+1, 2, n+2, ..., n-1, 2n-1, n)."""
    n = state.n
    if state.blocks != 1 or state.terms != list(range(1, n + 1)):
        raise ConstructionError("second block can only follow the bare seed")
    state.terms.append(1)  # the seed's closing 1; the rest is forced
    state.block_starts.append(n + 1)
    state.checker.advance(state.terms)
    _grow(state, None)
    return state


def seam_below(state: ConstructionState) -> list[int]:
    """The coming seam as predicted by lower trimming.

    Values strictly between the last block's one n-1 and its closing n,
    each raised by 1.
    """
    _require_blocks(state, 2)
    a = state.terms.index(state.n - 1, state.block_starts[-1] - 1)
    return [x + 1 for x in state.terms[a + 1:-1]]


def seam_above(state: ConstructionState) -> list[int]:
    """The coming seam as predicted by upper trimming: the seam merged
    at the previous step, read off the terms between the closing n of
    the previous block and the last block's n+1."""
    _require_blocks(state, 2)
    n, terms, starts = state.n, state.terms, state.block_starts
    a = terms.index(n, starts[-2] - 1)
    return terms[a + 1:terms.index(n + 1, starts[-1] - 1)]


def _require_blocks(state: ConstructionState, k: int) -> None:
    if state.blocks < k:
        raise ConstructionError(f"need at least {k} blocks, have {state.blocks}")


class SeamMerge(NamedTuple):
    """Outcome of merging the two seam windows.

    ``merged`` restricted to non-1 values equals the seam from below,
    and restricted to everything but ``fresh_value`` equals the seam
    from above.  ``offset`` is (1-based position of 1) - (position of
    fresh_value) within ``merged``.
    """

    fresh_value: int
    merged: tuple[int, ...]
    offset: int

    @property
    def carry(self) -> tuple[int, ...]:
        """The part of the merged seam before its 1; appended verbatim."""
        return self.merged[:self.merged.index(1)]


def _merge_positions(below: Sequence[int], above: Sequence[int]):
    if any(x < 2 for x in below):
        raise ConstructionError(f"seam from below contains a 1: {list(below)}")
    if above.count(1) != 1:
        raise ConstructionError(f"seam from above must contain exactly one 1: {list(above)}")
    common = [x for x in above if x != 1]
    # `below` must be `common` with one value inserted.  Where several
    # slots would do, they hold one repeated value, caught just below.
    k = next((i for i, (x, y) in enumerate(zip(below, common)) if x != y), len(common))
    if len(below) != len(common) + 1 or list(below[k + 1:]) != common[k:]:
        raise ConstructionError(
            f"seam windows do not share a common order: {list(below)} vs {list(above)}")
    fresh_value = below[k]
    if below.count(fresh_value) != 1:
        raise ConstructionError(
            f"fresh-class value {fresh_value} repeats in the seam: {list(below)}")
    return common, k, above.index(1), fresh_value


def needs_branch(state: ConstructionState) -> bool:
    """True when the next extension step genuinely forks."""
    _, gap_fresh, gap_one, _ = _merge_positions(seam_below(state), seam_above(state))
    return gap_fresh == gap_one


def merge_seams(below: Sequence[int], above: Sequence[int],
                branch: Optional[Branch] = None) -> SeamMerge:
    """Interleave the two seam windows into one merged seam.

    ``branch`` must be given exactly when the two special values target
    the same slot; otherwise the merge is forced and ``branch`` must be
    None.
    """
    common, gap_fresh, gap_one, fresh_value = _merge_positions(below, above)
    if gap_fresh == gap_one and branch is None:
        raise ConstructionError("merge is ambiguous here: a Branch is required")
    if gap_fresh != gap_one and branch is not None:
        raise ConstructionError("merge is forced here: no Branch may be given")
    # On a shared slot the 1 goes after fresh_value only under FRESH_FIRST.
    merged = list(common)
    merged.insert(gap_fresh, fresh_value)
    merged.insert(gap_one + (gap_one > gap_fresh or branch is Branch.FRESH_FIRST), 1)
    offset = merged.index(1) - merged.index(fresh_value)
    return SeamMerge(fresh_value, tuple(merged), offset)


def extend_next_block(state: ConstructionState,
                      branch: Optional[Branch] = None) -> ConstructionState:
    """Run one full extension step: merge the seams, which decides
    whether ``branch`` is required, then grow the block."""
    merge_seams(seam_below(state), seam_above(state), branch)
    if not _grow(state, branch):
        raise ConstructionError(f"block {state.blocks + 1} forks though its merge is forced")
    return state


def _grow(state: ConstructionState, branch: Optional[Branch]) -> bool:
    """Append terms through the next closing n, each forced by the two trims.

    At a fork ``branch`` picks the term and is used up.  At a fork with
    no branch left, a call given none stops before the forked term and
    returns False; a call given one raises, as does a dead end.  True
    once the block is closed.
    """
    n, terms, checker = state.n, state.terms, state.checker
    upper, lower, fresh = checker.upper, checker.lower, checker.fresh
    given = branch is not None
    try:
        while True:
            u, f = terms[upper], terms[lower] + 1
            if u == f:
                t = u
            elif f == fresh:  # terms[lower] < fresh, so f <= fresh
                if u != 1:
                    t = f
                elif branch is not None:
                    state.branch_log.append(branch)
                    t, branch = 1 if branch is Branch.ONE_FIRST else f, None
                elif given:
                    raise ConstructionError(f"a step forks twice, at term {len(terms) + 1}")
                else:
                    return False
            elif u == 1:
                t = 1
            else:
                raise ConstructionError(f"no term can follow term {len(terms)}: upper "
                                        f"trimming asks for {u}, lower trimming for {f}")
            terms.append(t)
            if t < fresh:
                upper += 1
            else:
                fresh += 1
            if t > 1:
                lower += 1
            if t == 1:
                state.block_starts.append(len(terms))
            elif t == n:
                return True
    finally:
        checker.fresh, checker.upper, checker.lower = fresh, upper, lower
        checker.checked = len(terms)


# ---------------------------------------------------------------------------
# Drivers: runs grow by the two trims alone, through _grow, without the
# seam merge; at a fork a run is cloned before the forked term.


BranchSpec = Union[None, Branch, Sequence[Branch]]


def _branch_feed(branches: BranchSpec) -> Iterator[tuple[Branch, ...]]:
    """Turn a branch policy into a per-fork stream of one-choice tuples.

    None defaults every fork to ONE_FIRST; a single Branch repeats; an
    explicit sequence is consumed in fork order and must cover every
    fork encountered.
    """
    if branches is None:
        branches = Branch.ONE_FIRST
    if isinstance(branches, Branch):
        return repeat((branches,))
    return ((b,) for b in branches)


def _runs(state: ConstructionState, more: Callable[[ConstructionState], bool],
          choices: Iterator[tuple[Branch, ...]]) -> Iterator[ConstructionState]:
    """Grow ``state`` block by block while ``more(state)`` holds; yield each run.

    A one-block state gets the forced second block.  At a fork each
    Branch in the next tuple of ``choices`` but the last grows a clone
    taken at the forked term, whose runs are yielded first; the last
    grows ``state``.  One choice, one run.
    """
    while more(state):
        if state.blocks == 1:
            extend_second_block(state)
        elif not _grow(state, None):
            picks = next(choices, None)
            if picks is None:
                raise ConstructionError("branch list exhausted: the construction "
                                        "forked more often than choices were given")
            *others, last = picks
            for choice in others:
                twin = state.clone()
                _grow(twin, choice)
                yield from _runs(twin, more, choices)
            _grow(state, last)
    yield state


def _require_count(name: str, value: int) -> None:
    if not isinstance(value, int) or value < 1:
        raise ConstructionError(f"need {name} >= 1, got {value!r}")


def construct_ramp_state(n: int, blocks: int,
                         branches: BranchSpec = None) -> ConstructionState:
    """Build ``blocks`` blocks from the ramp seed (1, 2, ..., n)."""
    _require_count("blocks", blocks)
    supply = _branch_feed(branches)
    return next(_runs(init_ramp(n), lambda s: s.blocks < blocks, supply))


def enumerate_ramp(n: int, blocks: int) -> list[tuple[tuple[Branch, ...], list[int]]]:
    """All branch-resolved outcomes, as (branch path, terms) pairs.

    Paths are listed with ONE_FIRST explored first, so the output order
    is the binary order of the fork choices.
    """
    _require_count("blocks", blocks)
    return [(tuple(run.branch_log), list(run.terms))
            for run in _runs(init_ramp(n), lambda s: s.blocks < blocks, repeat(tuple(Branch)))]


def construct_ones(n: int, length: int, branches: BranchSpec = None) -> list[int]:
    """Build the ones-seeded companion sequence (1 repeated n times, then 2, ...).

    The ramp-seeded sequence with the same n and branch choices is grown
    until it covers ``length`` terms, and each of its terms is replaced
    by its occurrence rank.  The rank stream starts with n ones followed
    by a 2, so the seed needs no special-casing.
    """
    _require_count("length", length)
    supply = _branch_feed(branches)
    state = next(_runs(init_ramp(n), lambda s: len(s.terms) < length, supply))
    return rank_stream(state.terms[:length])
