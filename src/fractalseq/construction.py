"""Step-by-step construction of doubly fractal sequences.

A constructed sequence grows block by block.  A block runs from a
leading 1 to the next occurrence of the largest main term n; the main
terms 1..n form the first block, and the second block rewrites them
with one fresh value woven after each main term except n.

Each term is forced by the two trims, except at a fork.  At the state's
two trim cursors, a repeated next term must be u = terms[upper] and a
next term above 1 must be f = terms[lower] + 1.  The terms so far are
exactly 1..fresh-1, so f is either seen or the fresh value.
``_grow`` takes each term from :func:`seqcore.next_terms`: u when
u == f, or when u == 1 and f is seen, and f when f is fresh and
u != 1; else no term can follow.  When u == 1 and f is fresh the
sequence forks, and a :class:`Branch` picks the term: ONE_FIRST
starts the next block with 1, FRESH_FIRST places f.  With k ones so
far, ONE_FIRST keeps theta below (f-1)/k and FRESH_FIRST above it.
The first fork, just after the seed, splits at n, and the seed's main
terms stop at n, so theta < n: the seed's closing 1 is forced.  Every
later choice is logged.  A term picked this way passes exactly the
tests of the two trims, so the prefix is doubly fractal by
construction.  This is the paper's converse: the trims alone determine
the sequence, but for the forks.  So a run is named by its list of
choices: :func:`ramp_leaves` lists every run's choices and length
without growing any, :func:`ramp_leaf` finds one run's from its list of
choices, and each run, one of every enumeration included, grows alone
from the seed.  ``_grow`` grows one block and reads the Branch of each
fork from one iterator of choices; when they run out, it raises the one
``branch list exhausted`` error.  That the runs are the leaves
of a Stern-Brocot tree was found and checked by computation; it is not
proved here.

The paper explains a step as a merge of two "seam" windows, which both
predict the stretch from the last closing n up to the next n+1.  Once a
block has closed, they are the terms at the two trim cursors.  The seam
from below starts at the lower cursor, just after the last block's
n-1, and runs to the closing n, each value raised by 1; the seam from
above starts at the upper cursor, just after the previous block's
closing n, and runs to the next n+1, so it is the seam merged at the
previous step.  They agree but for a single fresh-class value below
and a single 1 above, and the step forks exactly when those two
compete for one slot.  The merge stays as that explained procedure and
as the tests' oracle; of the growing code only :func:`extend_next_block`
consults it, to check its branch.

``_grow`` writes every term after the seed, the closing 1 included.
It reads no term before the upper cursor, so :func:`ramp_pieces`,
which the CLI streams, cuts those off: the one edit from outside.
"""
from __future__ import annotations

from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

# check_doubly_fractal_prefix is unused here; perfbench/tracer.py looks up
# construction.check_doubly_fractal_prefix.
from .seqcore import ConstructionError, check_doubly_fractal_prefix, next_terms, rank_stream


class Branch(Enum):
    """Choice at a fork: start the next block with 1, or place the fresh
    value (in the merge: the order of the two seam specials)."""

    ONE_FIRST = 0
    FRESH_FIRST = 1


class ConstructionState:
    """Mutable state of one construction run, started from the ramp seed
    (1, 2, ..., n).

    Between steps the last term is the last block's closing n.
    ``cursors`` holds what growth needs of ``terms``: the lengths of the
    upper and the lower trim, which index the terms the next repeated
    value and the next value above 1 must match, and the next fresh
    value.  A passing prefix holds exactly the values 1..max, so they
    are len - max, len - (number of 1s) and max + 1.  Each block holds
    one 1, so ``blocks``, the number of 1s, is len - lower.  Each term
    is forced by the two trims except at a fork, and ``branch_log``
    records the Branch taken at every fork, in order.  Only ``_grow``
    appends terms after the seed and moves the cursors, but for the cut
    :func:`ramp_pieces` makes and shifts them by: other edits are
    outside the contract, and the next step would not notice.
    """

    __slots__ = ("n", "terms", "branch_log", "cursors")

    def __init__(self, n: int) -> None:
        _require_count("n", n, 2)
        self.n, self.terms = n, list(range(1, n + 1))
        self.branch_log: list[Branch] = []
        self.cursors = (0, n - 1, n + 1)

    @property
    def blocks(self) -> int:
        return len(self.terms) - self.cursors[1]

    @property
    def fresh(self) -> int:
        return self.cursors[2]


init_ramp = ConstructionState


def extend_second_block(state: ConstructionState) -> ConstructionState:
    """Grow the forced second block (1, n+1, 2, n+2, ..., n-1, 2n-1, n)."""
    if state.blocks != 1:
        raise ConstructionError("second block can only follow the bare seed")
    _grow(state, _choices(()))
    return state


def seam_below(state: ConstructionState) -> list[int]:
    """The coming seam as predicted by lower trimming.

    Values strictly between the last block's one n-1, the last term of
    the lower trim, and its closing n, each raised by 1.
    """
    _require_blocks(state, 2)
    return [x + 1 for x in state.terms[state.cursors[1]:-1]]


def seam_above(state: ConstructionState) -> list[int]:
    """The coming seam as predicted by upper trimming: the seam merged
    at the previous step, read off the terms between the closing n of
    the previous block, the last term of the upper trim, and the last
    block's n+1."""
    _require_blocks(state, 2)
    upper, terms = state.cursors[0], state.terms
    return terms[upper:terms.index(state.n + 1, upper)]


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
    # A fork the merge did not foresee, or a second one, exhausts the choices.
    _grow(state, _choices(() if branch is None else (branch,)))
    return state


def _grow(state: ConstructionState, choices: Iterator[Branch]) -> None:
    """Append one block, through the next closing n, each term forced by
    the two trims but at a fork, where ``next(choices)`` picks it: one
    Branch per fork, logged.  A dead end raises, as do the choices when
    they run out.
    """
    n, terms = state.n, state.terms
    upper, lower, fresh = state.cursors
    try:
        while True:
            u, f = terms[upper], terms[lower] + 1
            if u == f:  # most terms; next_terms would answer (u,)
                t = u
            elif len(follow := next_terms(u, f, fresh)) == 1:
                t = follow[0]
            elif not follow:
                raise ConstructionError(f"no term can follow term {len(terms)}: upper "
                                        f"trimming asks for {u}, lower trimming for {f}")
            elif len(terms) - lower == 1:
                t = 1  # the seed's closing 1: theta < n
            else:
                state.branch_log.append(branch := next(choices))
                t = 1 if branch is Branch.ONE_FIRST else f
            terms.append(t)
            if t < fresh:
                upper += 1
            else:
                fresh += 1
            if t > 1:
                lower += 1
                if t == n:
                    return
    finally:
        state.cursors = (upper, lower, fresh)


# ---------------------------------------------------------------------------
# Drivers: each grows whole blocks with _grow, by the two trims alone,
# without the seam merge, while its stop condition holds, and takes the
# next Branch of one _choices iterator at each fork.  ramp_leaves and
# ramp_leaf name runs by their choices without growing one.


BranchSpec = Optional[Iterable[Branch]]


def _choices(branches: BranchSpec) -> Iterator[Branch]:
    """The Branch of each fork in turn: ONE_FIRST at every fork for
    None, else ``branches`` in order, after which the next fork raises."""
    yield from repeat(Branch.ONE_FIRST) if branches is None else branches
    raise ConstructionError(
        "branch list exhausted: the construction forked more often than choices were given")


def _require_count(name: str, value: int, least: int = 1) -> None:
    if not isinstance(value, int) or value < least:
        raise ConstructionError(f"need {name} >= {least}, got {value!r}")


def construct_ramp_state(n: int, blocks: int,
                         branches: BranchSpec = None) -> ConstructionState:
    """Build ``blocks`` blocks from the ramp seed (1, 2, ..., n)."""
    _require_count("blocks", blocks)
    state, choices = init_ramp(n), _choices(branches)
    while state.blocks < blocks:
        _grow(state, choices)
    return state


def ramp_pieces(n: int, blocks: int, branches: BranchSpec = None) -> Iterator[list[int]]:
    """The terms of ``construct_ramp_state(n, blocks, branches)`` in pieces,
    one after each block: the terms before the upper trim cursor, which
    growth never reads again, are cut from the state.  Error messages
    that name a term count from the last cut.

    >>> list(ramp_pieces(3, 4))
    [[1, 2, 3], [1, 4, 2, 5, 3], [1, 6, 4, 2, 7, 5, 3], [1, 8, 6, 4, 2, 9, 7, 5, 3]]
    """
    _require_count("blocks", blocks)
    state, choices = init_ramp(n), _choices(branches)
    while state.blocks < blocks:
        _grow(state, choices)
        upper, lower, fresh = state.cursors
        yield state.terms[:upper]
        del state.terms[:upper]
        state.cursors = (0, lower - upper, fresh)
    yield state.terms


def ramp_leaves(n: int, blocks: int) -> Iterator[tuple[Iterator[Branch], int]]:
    """Every run of ``blocks`` blocks from the ramp seed, without growing
    one: (fork path, length) pairs, in the binary order of the choices.

    A fork with k ones so far and fresh value f splits theta at (f-1)/k,
    the Stern-Brocot mediant of the interval so far, and k < blocks.  So
    the runs are the leaves of the Stern-Brocot tree over [n-1, n], cut
    where a mediant's denominator would reach ``blocks``: the gaps between
    consecutive Farey fractions of order blocks-1 (Graham, Knuth and
    Patashnik, *Concrete Mathematics* 4.5), which are walked left to
    right.  In a gap floor(m*theta) is fixed for every m < blocks, and the
    run holds n*blocks terms plus their sum: the first run
    n*B + (n-1)*B*(B-1)/2, and past the shared endpoint c/d the next
    (B-1)//d more.  These facts were checked by computation for n <= 9 and
    B <= 30; they are not proved here.

    A path is an iterator of Branch, walked down the tree only when read,
    so taking a length costs no path: the first holds B-2 forks.
    """
    _require_count("blocks", blocks)
    _require_count("n", n, 2)
    # The first gap a/b < c/d; with one block, c/d = 1/0 closes it.
    a, b, c, d = n - 1, 1, (n - 1) * (blocks - 1) + 1, blocks - 1
    length = n * blocks + (n - 1) * blocks * (blocks - 1) // 2
    yield _fork_path(n, blocks, c, d), length
    while d > 1:  # c/d < n
        k = (blocks - 1 + b) // d  # the Farey successor of c/d is (k*c - a)/(k*d - b)
        a, b, c, d, length = c, d, k * c - a, k * d - b, length + (blocks - 1) // d
        yield _fork_path(n, blocks, c, d), length


def _fork_path(n: int, blocks: int, c: int, d: int) -> Iterator[Branch]:
    """The choices down the tree of :func:`ramp_leaves` to the leaf that
    ends at c/d: ONE_FIRST where the leaf lies left of the mediant."""
    low, high = (n - 1, 1), (n, 1)
    while low[1] + high[1] < blocks:
        mid = (low[0] + high[0], low[1] + high[1])
        right = c * mid[1] > mid[0] * d
        yield Branch(int(right))
        low, high = (mid, high) if right else (low, mid)


def ramp_leaf(n: int, blocks: int, branches: Iterable[Branch]) -> tuple[list[Branch], int]:
    """The leaf of :func:`ramp_leaves` that ``branches`` walks down to, without
    growing its run: the choices the run takes, one per fork, and its length.

    Each choice splits the interval of theta at its mediant, ONE_FIRST
    keeping the left part, while the mediant's denominator stays below
    ``blocks``; choices past the leaf are never read, as growth never
    reads them.  Too few raise growth's own error.  In the leaf, of
    mediant p/q, the run holds n*blocks terms plus the sum of
    floor(m*p/q) over m < blocks.  That the walk takes the run's choices
    and gives its length was checked by computation, not proved: against
    runs grown for every leaf with n <= 9 and blocks <= 30, and for
    random choice lists with n <= 9 and blocks <= 60.
    """
    _require_count("blocks", blocks)
    _require_count("n", n, 2)
    (a, b), (c, d), path, choices = (n - 1, 1), (n, 1), [], _choices(branches)
    while b + d < blocks:
        path.append(branch := next(choices))
        if branch is Branch.ONE_FIRST:
            c, d = a + c, b + d
        else:
            a, b = a + c, b + d
    return path, n * blocks + sum(m * (a + c) // (b + d) for m in range(blocks))


def enumerate_ramp(n: int, blocks: int) -> list[tuple[tuple[Branch, ...], list[int]]]:
    """All branch-resolved outcomes, as (branch path, terms) pairs, one run
    per leaf of :func:`ramp_leaves`, in the binary order of the choices."""
    runs = (construct_ramp_state(n, blocks, path) for path, _ in ramp_leaves(n, blocks))
    return [(tuple(run.branch_log), run.terms) for run in runs]


def construct_ones(n: int, length: int, branches: BranchSpec = None) -> list[int]:
    """Build the ones-seeded companion sequence (1 repeated n times, then 2, ...).

    The ramp-seeded sequence with the same n and branch choices is grown
    until it covers ``length`` terms, and each of its terms is replaced
    by its occurrence rank.  The rank stream starts with n ones followed
    by a 2, so the seed needs no special-casing.
    """
    _require_count("length", length)
    state, choices = init_ramp(n), _choices(branches)
    while len(state.terms) < length:
        _grow(state, choices)
    return rank_stream(state.terms[:length])
