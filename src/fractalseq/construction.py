"""Step-by-step construction of doubly fractal sequences.

A constructed sequence grows block by block.  A block runs from a
leading 1 to the next occurrence of the largest main term n; the main
terms 1..n form the first block, and the second block rewrites them
with one fresh value woven after each main term except n.

Every later block is derived from a merge of two "seam" windows that
both predict the stretch separating the new block's n from its n+1:

* the seam seen from below: the values strictly between the last n-1
  and the last n, each raised by 1 (lower trimming maps the new seam
  back onto that window);
* the seam seen from above: the seam merged at the previous step,
  which the state stores (upper trimming maps the new seam onto it).

The two windows agree except that the one from below carries a single
fresh-class value and the one from above carries a single 1.  Merging
them interleaves both specials into the shared common order.  When the
two specials compete for the same slot the merge genuinely forks, and a
:class:`Branch` choice is required; every choice is logged so runs are
reproducible.

The merged seam is cut at its 1: the part before the 1 is appended to
the sequence, and the signed offset between the 1 and the fresh-class
value dictates where fresh values are woven into the next block (offset
-d places each fresh value d positions after its main term, positive
offsets place it before).  So a slot of the new block is fresh exactly
when the slot d places before it (after it, for a positive offset)
holds a main term.  A weave position is used only if it falls inside
the developing block, between its leading 1 and its final n.

Rather than trusting any of this blindly, every completed extension is
validated and rejected loudly if it fails.  Each run keeps an
incremental checker (:class:`~fractalseq.seqcore.PrefixChecker`) that
checks only the terms a step added, so a step costs time linear in its
block; the full prefix checker runs only to describe a failure.
"""
from __future__ import annotations

from enum import Enum
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .seqcore import (ConstructionError, PrefixChecker, check_doubly_fractal_prefix,
                      rank_stream)


class Branch(Enum):
    """Order choice when the two seam specials compete for one slot."""

    ONE_FIRST = 0
    FRESH_FIRST = 1


class ConstructionState:
    """Mutable state of one construction run.

    ``block_starts`` holds the 1-based index of each block's leading 1,
    and the last term is always the last block's closing n;
    ``fresh`` is always 1 + max(terms); ``seam`` is the seam merged at
    the last step, which is the next step's seam seen from above;
    ``branch_log`` records the Branch taken at every genuine fork, in
    order; ``checker`` has validated the terms up to the last step.
    Between steps ``terms`` only grows: editing terms that were already
    checked is outside the contract, and the next step would not notice
    it.
    """

    __slots__ = ("n", "terms", "block_starts", "fresh", "branch_log", "checker", "seam")

    def __init__(self, n: int, terms: list[int], block_starts: list[int], fresh: int,
                 branch_log: Optional[list[Branch]] = None,
                 checker: Optional[PrefixChecker] = None, seam: tuple[int, ...] = ()) -> None:
        self.n, self.terms, self.block_starts, self.fresh = n, terms, block_starts, fresh
        self.branch_log = [] if branch_log is None else branch_log
        self.checker = PrefixChecker() if checker is None else checker
        self.seam = seam

    @property
    def blocks(self) -> int:
        return len(self.block_starts)

    def clone(self) -> "ConstructionState":
        return ConstructionState(self.n, list(self.terms), list(self.block_starts), self.fresh,
                                 list(self.branch_log), self.checker.copy(), self.seam)


def init_ramp(n: int) -> ConstructionState:
    """Start a construction from the ramp seed (1, 2, ..., n)."""
    if not isinstance(n, int) or n < 2:
        raise ConstructionError(f"need n >= 2, got {n!r}")
    return ConstructionState(n, list(range(1, n + 1)), [1], n + 1)


def extend_second_block(state: ConstructionState) -> ConstructionState:
    """Write the forced second block (1, n+1, 2, n+2, ..., n-1, 2n-1, n)."""
    n = state.n
    if state.blocks != 1 or state.terms != list(range(1, n + 1)):
        raise ConstructionError("second block can only follow the bare seed")
    state.seam = (1,)
    return _append_block(state, (), _weave_forward(state.terms, n, 1), "second block")


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
    at the previous step, which the state stores."""
    _require_blocks(state, 2)
    return list(state.seam)


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


def _weave_forward(replay: Sequence[int], n: int, gap: int) -> list[Optional[int]]:
    """Replay a block, dropping a None slot `gap` positions after each main term.

    A slot is fresh exactly when the slot `gap` places before it holds a
    main term (a value up to n).  Nothing follows the final replayed
    term (the block's closing n), which is exactly the in-block bound on
    weave positions.
    """
    out: list[Optional[int]] = []
    for term in replay:
        while len(out) >= gap and out[-gap] is not None and out[-gap] <= n:
            out.append(None)
        out.append(term)
    return out


def _weave(replay: Sequence[int], n: int, offset: int) -> list[Optional[int]]:
    if offset < 0:
        return _weave_forward(replay, n, -offset)
    # Positive offset puts fresh values before their mains; run the same
    # walk on the reversed block, where "before" becomes "after".  Slots
    # discarded at the reversed end are those falling before the leading 1.
    return _weave_forward(replay[::-1], n, offset)[::-1]


def extend_next_block(state: ConstructionState,
                      branch: Optional[Branch] = None) -> ConstructionState:
    """Run one full extension step: merge seams, append the carry, weave
    the next block, validate the result."""
    plan = merge_seams(seam_below(state), seam_above(state), branch)
    replay = state.terms[state.block_starts[-1] - 1:]
    if branch is not None:
        state.branch_log.append(branch)
    state.seam = plan.merged
    return _append_block(state, plan.carry, _weave(replay, state.n, plan.offset),
                         f"block {state.blocks + 1}")


def _append_block(state: ConstructionState, carry: Sequence[int],
                  woven: Sequence[Optional[int]], step: str) -> ConstructionState:
    """Append ``carry``, then ``woven`` with None slots made fresh; validate."""
    state.terms += carry
    if carry:
        state.fresh = max(state.fresh, max(carry) + 1)
    state.block_starts.append(len(state.terms) + 1)
    for slot in woven:
        if slot is None:
            slot = state.fresh
            state.fresh += 1
        state.terms.append(slot)
    _validate(state, step)
    return state


def _validate(state: ConstructionState, step: str) -> None:
    if not state.checker.advance(state.terms):
        report = check_doubly_fractal_prefix(state.terms)
        raise ConstructionError(
            f"{step} broke the doubly-fractal property at index "
            f"{report.first_violation_index} (upper_ok={report.upper_ok}, "
            f"lower_ok={report.lower_ok})")


# ---------------------------------------------------------------------------
# Drivers


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
    Branch in the next tuple of ``choices`` but the last grows a clone,
    whose runs are yielded first; the last grows ``state``.  One choice,
    one run.
    """
    while more(state):
        if state.blocks == 1:
            extend_second_block(state)
        elif needs_branch(state):
            picks = next(choices, None)
            if picks is None:
                raise ConstructionError("branch list exhausted: the construction "
                                        "forked more often than choices were given")
            *others, last = picks
            for choice in others:
                yield from _runs(extend_next_block(state.clone(), choice), more, choices)
            extend_next_block(state, last)
        else:
            extend_next_block(state, None)
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
