"""Finite positive-integer sequences: trimming operators, occurrence
bookkeeping, the doubly-fractal prefix checkers, and term parsing.

Sequences are plain lists (or any iterable) of integers >= 1.  Reported
positions are 1-based throughout, matching the usual convention for
integer sequences.

Both trimming operators commute with taking prefixes: a first occurrence
within a prefix is a first occurrence in any extension, and subtracting 1
is pointwise.  The doubly-fractal checker therefore tests "trim(s) is a
prefix of s" rather than equality, which is the correct finite form of
the self-similarity property.  ``check_doubly_fractal_prefix`` builds
both trims of a list; ``check_doubly_fractal_slices`` gives the same
report in one pass over a sequence handed in slices, and
``PrefixChecker`` follows a growing list.

Term input is cut into slices of about ``_SLICE_CHARS`` characters, each
ending at whitespace, so that a caller can parse and fold over one slice
at a time.
"""
from __future__ import annotations

import re
from enum import Enum
from typing import AnyStr, Iterable, Iterator, NamedTuple, Optional, Sequence


class ConstructionError(ValueError):
    """A construction step was invalid or produced a non-fractal prefix."""


class AnnotatedTerm(NamedTuple):
    """A term together with its occurrence rank.

    ``rank`` counts how many times ``value`` has appeared up to and
    including this position.
    """

    value: int
    rank: int


def upper_trim(terms: Iterable[int], seen: Optional[set[int]] = None) -> list[int]:
    """Remove the first occurrence of every distinct value.

    Values in ``seen`` count as met before ``terms``, and every value of
    ``terms`` is added to it, so a sequence can be trimmed slice by slice.

    >>> upper_trim([1, 2, 3, 4, 1, 5, 2, 6, 3, 7, 4])
    [1, 2, 3, 4]
    >>> upper_trim([1])
    []
    >>> seen = set()
    >>> upper_trim([1, 2, 1], seen) + upper_trim([3, 2], seen)
    [1, 2]
    """
    if seen is None:
        seen = set()
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


class InitialSegment(NamedTuple):
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


class FractalCheck(NamedTuple):
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
    not a claim about any infinite extension.  Terms are integers >= 1.
    """
    seq = list(terms)
    if min(seq, default=1) < 1:
        raise ValueError("terms must be >= 1")
    bad_upper = _prefix_mismatch(upper_trim(seq), seq)
    bad_lower = _prefix_mismatch(lower_trim(seq), seq)
    violations = [v for v in (bad_upper, bad_lower) if v is not None]
    return FractalCheck(
        upper_ok=bad_upper is None,
        lower_ok=bad_lower is None,
        first_violation_index=min(violations) if violations else None,
    )


def check_doubly_fractal_slices(slices: Iterable[Sequence[int]]) -> FractalCheck:
    """:func:`check_doubly_fractal_prefix` in one pass over a sequence
    handed in consecutive slices.

    The k-th repeated value must equal term k, and so must the k-th value
    above 1, lowered by 1; ``up`` and ``low`` index term k for each trim.
    Both lag the term that moves them, so ``window`` keeps only the terms
    from the lagging cursor of a trim still passing onward, and ``base``
    is the position of its first term.  A trim's first mismatch is final,
    and once both trims have failed no term is kept.  Every slice is
    read all the same, and every term must be >= 1.

    >>> check_doubly_fractal_slices([[1, 2], [1, 3, 2, 4]])
    FractalCheck(upper_ok=True, lower_ok=True, first_violation_index=None)
    >>> check_doubly_fractal_slices([[1, 2, 1], [3, 3]])
    FractalCheck(upper_ok=False, lower_ok=False, first_violation_index=2)
    """
    seen: set[int] = set()
    window: list[int] = []
    base = up = low = 0
    bad_up = bad_low = None
    for part in slices:
        if min(part, default=1) < 1:
            raise ValueError("terms must be >= 1")
        if bad_up is not None and bad_low is not None:
            continue
        window += part
        for t in part:
            if bad_up is None:
                if t in seen:
                    if t != window[up]:
                        bad_up = base + up + 1
                    up += 1
                else:
                    seen.add(t)
            if t > 1 and bad_low is None:
                if t - 1 != window[low]:
                    bad_low = base + low + 1
                low += 1
        drop = min(up if bad_up is None else len(window),
                   low if bad_low is None else len(window))
        del window[:drop]
        base, up, low = base + drop, up - drop, low - drop
    return FractalCheck(
        upper_ok=bad_up is None,
        lower_ok=bad_low is None,
        first_violation_index=min(filter(None, (bad_up, bad_low)), default=None),
    )


class PrefixChecker:
    """Incremental form of :func:`check_doubly_fractal_prefix`.

    Each :meth:`advance` call is handed the whole growing list and
    checks only the terms added since the previous call, so checking a
    list term by term costs linear time in total.  ``upper`` and
    ``lower`` index the next term of the list that the next repeated
    value, and the next value above 1 lowered by 1, must equal.  Lower
    trimming puts an earlier v-1 before every first v > 1, so a passing
    prefix holds exactly the values 1..max, and ``fresh`` = max + 1 is
    all that is kept of the values seen.  The list may only grow
    between calls.  Once a prefix fails, ``ok`` stays False, as every
    extension of a failing prefix fails too.  Terms are integers >= 1;
    a term below 1 fails.
    """

    __slots__ = ("fresh", "upper", "lower", "checked", "ok")

    def __init__(self) -> None:
        self.fresh = 1
        self.upper = self.lower = self.checked = 0
        self.ok = True

    def advance(self, terms: Sequence[int]) -> bool:
        """Check ``terms[self.checked:]``; True while the prefix passes."""
        if not self.ok:
            return False
        fresh, upper, lower = self.fresh, self.upper, self.lower
        for k in range(self.checked, len(terms)):
            t = terms[k]
            if t < fresh:
                if t != terms[upper] or t < 1:
                    self.ok = False
                    return False
                upper += 1
            else:
                fresh += 1  # a t above the old fresh fails the lower test
            if t > 1:
                if t - 1 != terms[lower]:
                    self.ok = False
                    return False
                lower += 1
        self.fresh, self.upper, self.lower, self.checked = fresh, upper, lower, len(terms)
        return True

    def copy(self) -> "PrefixChecker":
        twin = PrefixChecker()
        twin.fresh, twin.upper, twin.lower = self.fresh, self.upper, self.lower
        twin.checked, twin.ok = self.checked, self.ok
        return twin


_SLICE_CHARS = 1 << 14  # tokens of one slice take about 0.2 MB; 64 Ki held 1 MB more
# Exactly the characters str.isspace() is true of, which split() cuts at;
# a search runs in C, so a huge token costs no loop in Python.
_SPACE = re.compile(r"\s")
# The same characters in ASCII; a bytes \s leaves out \x1c-\x1f.  The
# pattern is compiled on first use, which spares a command that reads no
# input about 0.15 ms of start-up.
ASCII_SPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_SPACE_BYTES = b"[" + re.escape(ASCII_SPACE) + b"]"


def term_slices(text: AnyStr) -> Iterator[AnyStr]:
    """Cut a str, or ASCII bytes, into pieces of about ``_SLICE_CHARS``
    characters, each ending at whitespace, so no token is split."""
    space = _SPACE if isinstance(text, str) else re.compile(_SPACE_BYTES)
    start = 0
    while start < len(text):
        cut = space.search(text, start + _SLICE_CHARS)
        end = cut.end() if cut else len(text)
        yield text[start:end]
        start = end


def parse_terms(text: str) -> list[int]:
    """Parse ASCII decimal integers separated by whitespace or newlines.

    The text is parsed slice by slice (:func:`term_slices`), so only one
    slice's tokens are alive at a time.
    """
    out: list[int] = []
    for part in term_slices(text):
        out += _parse_slice(part)
    return out


def _parse_slice(part: str) -> list[int]:
    if part.isascii() and "_" not in part:  # int() also reads '1_0' and non-ASCII digits
        try:
            values = list(map(int, part.split()))
        except ValueError:
            pass
        else:
            if min(values, default=1) >= 1:
                return values
    # Token by token, so that the error names the first bad token.
    out = []
    for tok in part.split():
        try:
            if not tok.isascii() or "_" in tok:
                raise ValueError
            v = int(tok)
        except ValueError:
            raise ValueError(f"not an integer: {tok!r}") from None
        if v < 1:
            raise ValueError(f"terms must be >= 1, got {v}")
        out.append(v)
    return out
