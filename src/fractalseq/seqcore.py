"""Finite positive-integer sequences: trimming operators, occurrence
bookkeeping, the doubly-fractal prefix checkers, and term parsing, with
``positive_int``, the one rule for every integer the program reads.

Sequences are plain lists (or any iterable) of integers >= 1.  Reported
positions are 1-based throughout, matching the usual convention for
integer sequences.

Both trimming operators commute with taking prefixes: a first occurrence
within a prefix is a first occurrence in any extension, and subtracting 1
is pointwise.  The doubly-fractal checker therefore tests "trim(s) is a
prefix of s" rather than equality, which is the correct finite form of
the self-similarity property.  ``check_doubly_fractal_prefix`` builds
both trims of a list and is the oracle; ``check_doubly_fractal_slices``
folds over slices of a sequence, comparing each one's ``upper_trim`` and
``lower_trim`` with the terms it has kept.  The two share the prefix
comparison ``_prefix_mismatch`` and the report builder ``_report``.

Term input is read from a binary stream ``_SLICE_CHARS`` bytes at a time
and cut into slices, each ending at whitespace (``term_slices``), so that
a caller can parse one slice at a time with ``parse_terms`` and fold over
it without holding the input.
"""
from __future__ import annotations

from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, Sequence


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


def rank_stream(terms: Iterable[int], counts: Optional[dict[int, int]] = None) -> list[int]:
    """The occurrence rank of every term, in one left-to-right pass.

    ``counts`` holds the occurrences met before ``terms`` and is updated
    with theirs, so a sequence can be ranked slice by slice.

    >>> counts = {}
    >>> rank_stream([1, 2, 1], counts) + rank_stream([3, 2], counts)
    [1, 1, 2, 1, 2]
    """
    if counts is None:
        counts = {}
    out: list[int] = []
    for v in terms:
        counts[v] = rank = counts.get(v, 0) + 1
        out.append(rank)
    return out


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
    """The 1-based position where ``trimmed`` first departs from
    ``original``, or None when it is a prefix of it."""
    if trimmed == original[:len(trimmed)]:
        return None
    for k, (a, b) in enumerate(zip(trimmed, original)):
        if a != b:
            return k + 1
    return None


def _report(bad_upper: Optional[int], bad_lower: Optional[int]) -> FractalCheck:
    """The report on each trim's first mismatch, None where it passes."""
    return FractalCheck(bad_upper is None, bad_lower is None,
                        min(filter(None, (bad_upper, bad_lower)), default=None))


def check_doubly_fractal_prefix(terms: Iterable[int]) -> FractalCheck:
    """Test whether both trims of a finite prefix are prefixes of it.

    Short prefixes can pass vacuously; the result is prefix-consistency,
    not a claim about any infinite extension.  Terms are integers >= 1.
    """
    seq = list(terms)
    if min(seq, default=1) < 1:
        raise ValueError("terms must be >= 1")
    return _report(_prefix_mismatch(upper_trim(seq), seq),
                   _prefix_mismatch(lower_trim(seq), seq))


def check_doubly_fractal_slices(slices: Iterable[Sequence[int]]) -> FractalCheck:
    """:func:`check_doubly_fractal_prefix` in one pass over a sequence
    handed in consecutive slices.

    Each slice's :func:`upper_trim` (against the values ``seen`` so far)
    and :func:`lower_trim` must match the terms at ``up`` and ``low``,
    the cursors of the two trims.  Both lag the terms that move them, so
    ``window`` keeps only the terms from the lagging cursor of a trim
    still passing onward, and ``base`` is the position of its first
    term.  A trim's first mismatch is final, and once both trims have
    failed no term is kept.  Every slice is read to the end and must
    hold terms >= 1, also after both trims have failed.

    >>> check_doubly_fractal_slices([[1, 2], [1, 3, 2, 4]])
    FractalCheck(upper_ok=True, lower_ok=True, first_violation_index=None)
    >>> check_doubly_fractal_slices([[1, 2], [1, 3, 2, 4], [3, 3]])
    FractalCheck(upper_ok=False, lower_ok=False, first_violation_index=3)
    """
    seen: set[int] = set()
    window: list[int] = []
    base = up = low = 0
    bad_up: Optional[int] = None
    bad_low: Optional[int] = None

    def match(trimmed: list[int], at: int) -> tuple[int, Optional[int]]:
        # The cursor past ``trimmed`` laid at ``at``, and its first mismatch.
        k = _prefix_mismatch(trimmed, window[at:at + len(trimmed)])
        return at + len(trimmed), None if k is None else base + at + k

    for part in slices:
        if min(part, default=1) < 1:
            raise ValueError("terms must be >= 1")
        window += part
        if bad_up is None:
            up, bad_up = match(upper_trim(part, seen), up)
        if bad_low is None:
            low, bad_low = match(lower_trim(part), low)
        drop = min(up if bad_up is None else len(window),
                   low if bad_low is None else len(window))
        del window[:drop]
        base, up, low = base + drop, up - drop, low - drop
    return _report(bad_up, bad_low)


_SLICE_CHARS = 1 << 14  # tokens of one slice take about 0.2 MB; 64 Ki held 1 MB more
# Exactly the ASCII characters str.isspace() is true of, which split() cuts
# at; bytes.split() leaves out \x1c-\x1f.
ASCII_SPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "


def term_slices(stream: BinaryIO) -> Iterator[bytes]:
    """Read a binary stream ``_SLICE_CHARS`` bytes at a time and cut it into
    slices that end at whitespace, so no token is split.  The partial last
    token is carried in a ``bytearray`` and each read is searched alone, so a
    token that spans many reads costs linear time."""
    carry = bytearray()
    while block := stream.read(_SLICE_CHARS):
        carry += block
        cut = max(carry.rfind(c, -len(block)) for c in ASCII_SPACE) + 1
        if cut:
            yield bytes(carry[:cut])
            del carry[:cut]
    if carry:
        yield bytes(carry)


def parse_terms(text: str) -> list[int]:
    """Parse ASCII decimal integers separated by whitespace or newlines.

    The whole text is parsed at once; to hold one slice's tokens at a
    time, decode and parse each slice of :func:`term_slices` in turn.
    """
    if text.isascii() and "_" not in text:  # int() also reads '1_0' and non-ASCII digits
        try:
            values = list(map(int, text.split()))
        except ValueError:
            pass
        else:
            if min(values, default=1) >= 1:
                return values
    # Token by token, so that the error names the first bad token.
    return [positive_int(tok, "terms ") for tok in text.split()]


def positive_int(text: str, what: str = "") -> int:
    """``text`` as an integer >= 1: ASCII decimal as ``int()`` reads it, but
    no ``_``.  A refusal says ``not an integer: 'text'``, or ``must be >= 1,
    got v`` led by ``what``."""
    try:
        if not text.isascii() or "_" in text:  # int() also reads '1_0' and non-ASCII digits
            raise ValueError
        v = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if v < 1:
        raise ValueError(f"{what}must be >= 1, got {v}")
    return v
