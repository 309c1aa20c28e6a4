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
both trims of a list and is the oracle; ``PrefixChecker`` folds over a
sequence handed in slices and gives the same report.

Term input is cut into slices of about ``_SLICE_CHARS`` characters, each
ending at whitespace, so that a caller can parse and fold over one slice
at a time.
"""
from __future__ import annotations

import re
from enum import Enum
from typing import AnyStr, Iterable, Iterator, NamedTuple, Optional, Sequence


class ConstructionError(ValueError):
    """A construction request or step was invalid."""


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
    """How a doubly fractal sequence opens.

    RAMP:  (1, 2, ..., n, 1, ...) with n >= 2.
    ONES:  (1, 1, ..., 1, 2, ...) with n >= 2 leading ones.
    """

    RAMP = "ramp"
    ONES = "ones"


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


class PrefixChecker:
    """:func:`check_doubly_fractal_prefix` in one pass over a sequence
    handed to :meth:`feed` in consecutive slices.

    The k-th repeated value must equal term k, and so must the k-th value
    above 1, lowered by 1; ``up`` and ``low`` index term k for each trim.
    Both lag the term that moves them, so ``window`` keeps only the terms
    from the lagging cursor of a trim still passing onward, and ``base``
    is the position of its first term.  A trim's first mismatch is final,
    and once both trims have failed no term is kept.  Every slice must
    hold terms >= 1, also after both trims have failed.

    >>> checker = PrefixChecker()
    >>> checker.feed([1, 2]), checker.feed([1, 3, 2, 4])
    (True, True)
    >>> checker.report()
    FractalCheck(upper_ok=True, lower_ok=True, first_violation_index=None)
    >>> checker.feed([3, 3]), checker.report()
    (False, FractalCheck(upper_ok=False, lower_ok=False, first_violation_index=3))
    """

    __slots__ = ("seen", "window", "base", "up", "low", "bad_up", "bad_low")

    def __init__(self) -> None:
        self.seen: set[int] = set()
        self.window: list[int] = []
        self.base = self.up = self.low = 0
        self.bad_up: Optional[int] = None
        self.bad_low: Optional[int] = None

    def feed(self, part: Sequence[int]) -> bool:
        """Check the next slice; True while both trims pass."""
        if min(part, default=1) < 1:
            raise ValueError("terms must be >= 1")
        bad_up, bad_low = self.bad_up, self.bad_low
        if bad_up is not None and bad_low is not None:
            return False
        seen, window, base, up, low = self.seen, self.window, self.base, self.up, self.low
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
        self.base, self.up, self.low = base + drop, up - drop, low - drop
        self.bad_up, self.bad_low = bad_up, bad_low
        return bad_up is None and bad_low is None

    def report(self) -> FractalCheck:
        """The report on every term fed so far."""
        return FractalCheck(
            upper_ok=self.bad_up is None,
            lower_ok=self.bad_low is None,
            first_violation_index=min(filter(None, (self.bad_up, self.bad_low)), default=None),
        )

    def copy(self) -> "PrefixChecker":
        twin = PrefixChecker()
        twin.seen, twin.window = set(self.seen), list(self.window)
        twin.base, twin.up, twin.low = self.base, self.up, self.low
        twin.bad_up, twin.bad_low = self.bad_up, self.bad_low
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
