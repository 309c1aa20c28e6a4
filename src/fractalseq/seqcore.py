"""Finite positive-integer sequences: trimming operators, occurrence
bookkeeping, and the doubly-fractal prefix checker.

Sequences are plain lists (or any iterable) of integers >= 1.  Reported
positions are 1-based throughout, matching the usual convention for
integer sequences.

Both trimming operators commute with taking prefixes: a first occurrence
within a prefix is a first occurrence in any extension, and subtracting 1
is pointwise.  The doubly-fractal checker therefore tests "trim(s) is a
prefix of s" rather than equality, which is the correct finite form of
the self-similarity property.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence


class AnnotatedTerm(NamedTuple):
    """A term together with its occurrence rank.

    ``rank`` counts how many times ``value`` has appeared up to and
    including this position.
    """

    value: int
    rank: int


def upper_trim(terms: Iterable[int]) -> list[int]:
    """Remove the first occurrence of every distinct value.

    >>> upper_trim([1, 2, 3, 4, 1, 5, 2, 6, 3, 7, 4])
    [1, 2, 3, 4]
    >>> upper_trim([1])
    []
    """
    seen: set[int] = set()
    out: list[int] = []
    for t in terms:
        if t in seen:
            out.append(t)
        else:
            seen.add(t)
    return out


def lower_trim(terms: Iterable[int]) -> list[int]:
    """Subtract 1 from every term and drop the zeros that result.

    >>> lower_trim([1, 2, 3, 4, 1, 5, 2, 6, 3, 7, 4])
    [1, 2, 3, 4, 1, 5, 2, 6, 3]
    >>> lower_trim([1, 1, 1])
    []
    """
    return [t - 1 for t in terms if t > 1]


def occurrence_index(terms: Iterable[int], value: int, k: int) -> Optional[int]:
    """1-based index of the k-th occurrence of ``value``, or None.

    Fewer than ``k`` occurrences is a normal condition, not an error.
    """
    if value < 1 or k < 1:
        raise ValueError("value and k must be positive")
    remaining = k
    for pos, t in enumerate(terms, start=1):
        if t == value:
            remaining -= 1
            if remaining == 0:
                return pos
    return None


def annotate_ranks(terms: Iterable[int]) -> list[AnnotatedTerm]:
    """Pair every term with its occurrence rank."""
    seq = list(terms)
    return list(map(AnnotatedTerm, seq, rank_stream(seq)))


def rank_stream(terms: Iterable[int]) -> list[int]:
    """The occurrence rank of every term, in one left-to-right pass."""
    counts: dict[int, int] = {}
    out: list[int] = []
    for v in terms:
        counts[v] = rank = counts.get(v, 0) + 1
        out.append(rank)
    return out


class SegmentKind(Enum):
    """How a prefix opens.

    RAMP:  (1, 2, ..., n, 1, ...) with n >= 2.
    ONES:  (1, 1, ..., 1, 2, ...) with n >= 2 leading ones.
    INDETERMINATE: too short to decide (all ones so far, or a pure ramp).
    INVALID: cannot open any doubly fractal sequence.
    """

    RAMP = "ramp"
    ONES = "ones"
    INDETERMINATE = "indeterminate"
    INVALID = "invalid"


@dataclass(frozen=True)
class InitialSegment:
    kind: SegmentKind
    n: Optional[int] = None


def classify_initial_segment(terms: Iterable[int]) -> InitialSegment:
    """Classify how a prefix opens.

    A doubly fractal sequence is forced to open either with a ramp
    (1, 2, ..., n) closed by a 1, or with a run of n ones closed by a 2.
    Short prefixes that have not yet reached the closing term are
    INDETERMINATE; anything off both forced forms is INVALID.
    """
    seq = list(terms)
    if not seq:
        return InitialSegment(SegmentKind.INDETERMINATE)
    if seq[0] != 1:
        return InitialSegment(SegmentKind.INVALID)

    ones = 0
    while ones < len(seq) and seq[ones] == 1:
        ones += 1
    if ones == len(seq):
        return InitialSegment(SegmentKind.INDETERMINATE)
    if ones >= 2:
        if seq[ones] == 2:
            return InitialSegment(SegmentKind.ONES, ones)
        return InitialSegment(SegmentKind.INVALID)

    # Exactly one leading 1: staircase territory.
    ramp = 1
    while ramp < len(seq) and seq[ramp] == ramp + 1:
        ramp += 1
    if ramp == 1:
        return InitialSegment(SegmentKind.INVALID)  # jump such as (1, 3, ...)
    if ramp == len(seq):
        return InitialSegment(SegmentKind.INDETERMINATE)
    if seq[ramp] == 1:
        return InitialSegment(SegmentKind.RAMP, ramp)
    return InitialSegment(SegmentKind.INVALID)


@dataclass(frozen=True)
class FractalCheck:
    """Result of the doubly-fractal prefix test.

    ``first_violation_index`` is the earliest 1-based position (across
    both trims) where a trimmed sequence departs from the original, or
    None when both agree.
    """

    upper_ok: bool
    lower_ok: bool
    first_violation_index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.upper_ok and self.lower_ok


def _prefix_mismatch(trimmed: list[int], original: list[int]) -> Optional[int]:
    for k, (a, b) in enumerate(zip(trimmed, original)):
        if a != b:
            return k + 1
    return None


def check_doubly_fractal_prefix(terms: Iterable[int]) -> FractalCheck:
    """Test whether both trims of a finite prefix are prefixes of it.

    Short prefixes can pass vacuously; the result is prefix-consistency,
    not a claim about any infinite extension.
    """
    seq = list(terms)
    bad_upper = _prefix_mismatch(upper_trim(seq), seq)
    bad_lower = _prefix_mismatch(lower_trim(seq), seq)
    violations = [v for v in (bad_upper, bad_lower) if v is not None]
    return FractalCheck(
        upper_ok=bad_upper is None,
        lower_ok=bad_lower is None,
        first_violation_index=min(violations) if violations else None,
    )


class PrefixChecker:
    """Incremental form of :func:`check_doubly_fractal_prefix`.

    Each :meth:`advance` call is handed the whole growing list and
    checks only the terms added since the previous call, so checking a
    list term by term costs linear time in total.  ``upper`` and
    ``lower`` index the next term of the list that the next repeated
    value, and the next value above 1 lowered by 1, must equal.  The
    list may only grow between calls.  Once a prefix fails, ``ok``
    stays False, as every extension of a failing prefix fails too.
    """

    __slots__ = ("seen", "upper", "lower", "checked", "ok")

    def __init__(self) -> None:
        self.seen: set[int] = set()
        self.upper = self.lower = self.checked = 0
        self.ok = True

    def advance(self, terms: Sequence[int]) -> bool:
        """Check ``terms[self.checked:]``; True while the prefix passes."""
        if not self.ok:
            return False
        seen, upper, lower = self.seen, self.upper, self.lower
        for k in range(self.checked, len(terms)):
            t = terms[k]
            if t in seen:
                if t != terms[upper]:
                    self.ok = False
                    return False
                upper += 1
            else:
                seen.add(t)
            if t > 1:
                if t - 1 != terms[lower]:
                    self.ok = False
                    return False
                lower += 1
        self.upper, self.lower, self.checked = upper, lower, len(terms)
        return True

    def copy(self) -> "PrefixChecker":
        twin = PrefixChecker()
        twin.seen = set(self.seen)
        twin.upper, twin.lower = self.upper, self.lower
        twin.checked, twin.ok = self.checked, self.ok
        return twin


def parse_terms(text: str) -> list[int]:
    """Parse ASCII decimal integers separated by whitespace or newlines."""
    out = []
    for tok in text.split():
        try:
            v = int(tok)
        except ValueError:
            raise ValueError(f"not an integer: {tok!r}") from None
        if v < 1:
            raise ValueError(f"terms must be >= 1, got {v}")
        out.append(v)
    return out
