"""Intervals of the parameters consistent with a sequence prefix.

A prefix p of length N is the start of the signature of theta exactly
when, after annotating occurrence ranks, two families of linear
inequalities hold:

* adjacency: consecutive annotated terms are nondecreasing as values
  s_h + a_h * theta;
* frontier: every minimal pair (i, j) NOT in the prefix must not sort
  strictly before the last listed term.  These are (v, count(v) + 1)
  for each listed value v and (w, 1) for each missing value w; only the
  least missing w (max + 1 if none is below) needs a test.

The adjacency family alone admits impostors (it would accept (1, 2)
for every positive theta); the frontier family is what certifies that
nothing was skipped.  Intersecting all constraints with theta > 0
yields an interval with exact rational bounds, possibly empty, possibly
unbounded above.

Bounds are kept as integer pairs (num, den) with den > 0 and compared
by cross-multiplying, in one pass that counts ranks as it goes and one
over the frontier; ``Fraction``s appear only in the result.

All bounds are emitted closed, because every inequality above is weak.
A closed endpoint may still fail to regenerate the prefix when the tie
order at that exact rational reorders equal values; exact regeneration,
not the bound flag, is the arbiter at endpoints.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

# annotate_ranks is unused here; perfbench/tracer.py looks up inverse.annotate_ranks.
from .seqcore import annotate_ranks


class ThetaInterval(NamedTuple):
    """An interval of parameters with exact rational endpoints.

    ``hi`` is None when unbounded above.  The lower endpoint is always
    finite (every interval lives inside theta > 0).
    """

    lo: Fraction
    lo_closed: bool
    hi: Optional[Fraction]
    hi_closed: bool

    @property
    def is_empty(self) -> bool:
        if self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    @property
    def is_point(self) -> bool:
        return self.hi is not None and self.lo == self.hi and not self.is_empty

    def contains(self, theta) -> bool:
        """Exact membership test."""
        # No command calls this, so signature loads here; a Surd has loaded it already.
        from .signature import as_exact, compare_with_rational
        if self.is_empty:
            return False
        theta = as_exact(theta)
        c = compare_with_rational(theta, self.lo)
        if c < 0 or (c == 0 and not self.lo_closed):
            return False
        if self.hi is None:
            return True
        c = compare_with_rational(theta, self.hi)
        return c < 0 or (c == 0 and self.hi_closed)

    def witness(self) -> Optional[Fraction]:
        """A rational representative: the midpoint when bounded, the
        point itself when degenerate, None when empty."""
        if self.is_empty:
            return None
        if self.hi is None:
            return self.lo + 1 if self.lo > 0 else Fraction(1)
        if self.lo == self.hi:
            return self.lo
        return (self.lo + self.hi) / 2

    def is_subset_of(self, other: "ThetaInterval") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        if self.lo < other.lo or (self.lo == other.lo
                                  and self.lo_closed and not other.lo_closed):
            return False
        if other.hi is None:
            return True
        if self.hi is None:
            return False
        return self.hi < other.hi or (self.hi == other.hi
                                      and (other.hi_closed or not self.hi_closed))

    def __str__(self) -> str:
        if self.is_empty:
            return "EMPTY"
        left = "[" if self.lo_closed else "("
        if self.hi is None:
            return f"{left}{self.lo}, oo)"
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


EMPTY_INTERVAL = ThetaInterval(Fraction(1), False, Fraction(0), False)


def _interval(lo: Fraction, lo_closed: bool,
              hi: Optional[Fraction], hi_closed: bool) -> ThetaInterval:
    iv = ThetaInterval(lo, lo_closed, hi, hi_closed)
    return EMPTY_INTERVAL if iv.is_empty else iv


def theta_interval_from_prefix(terms: Iterable[int]) -> ThetaInterval:
    """Exact interval of parameters whose signature starts with ``terms``.

    EMPTY is a normal result: it certifies that no positive parameter
    produces this prefix (up to tie order at rational endpoints, see the
    module notes).  ``terms`` may be any iterable; it is read once, to the
    end, even after EMPTY is certain, and every term must be >= 1.
    """
    terms = iter(terms)
    # lo = lo_n/lo_d starts at 0/1, open until first tightened; hi = 1/0
    # is unbounded, and any candidate r/q with q > 0 compares below it.
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 0
    counts: dict[int, int] = {}
    # A phantom pair (0, 0) before the first term only asks theta >= -s.
    s1 = a1 = 0
    empty = False
    for s2 in terms:
        a2 = counts[s2] = counts.get(s2, 0) + 1
        ds, da = s1 - s2, a2 - a1
        if da > 0:
            if ds * lo_d > lo_n * da:
                lo_n, lo_d = ds, da
        elif da < 0:
            if ds * hi_d > hi_n * da:        # ds/da < hi, with da < 0
                hi_n, hi_d = -ds, -da
        elif ds > 0:
            empty = True
            break
        s1, a1 = s2, a2
    if not counts:
        raise ValueError("cannot invert an empty sequence")
    if min(counts) < 1 or min(terms, default=1) < 1:
        raise ValueError("terms must be >= 1")
    if empty:
        return EMPTY_INTERVAL

    w = 1                   # the least missing value
    while w in counts:
        w += 1
    counts[w] = 0           # now the frontier is (v, c + 1) for every (v, c)
    for fi, c in counts.items():
        dv, dj = fi - s1, a1 - 1 - c
        if dj > 0:
            if dv * hi_d < hi_n * dj:
                hi_n, hi_d = dv, dj
        elif dj < 0:
            if dv * lo_d < lo_n * dj:        # dv/dj > lo, with dj < 0
                lo_n, lo_d = -dv, -dj
        elif dv < 0:
            return EMPTY_INTERVAL

    return _interval(Fraction(lo_n, lo_d), lo_n > 0,
                     Fraction(hi_n, hi_d) if hi_d else None, hi_d > 0)


class SegmentKind(Enum):
    """How a doubly fractal sequence opens, as :func:`seed_interval` spells out."""

    RAMP = "ramp"
    ONES = "ones"


def seed_interval(n: int, kind: SegmentKind) -> ThetaInterval:
    """Parameters whose signatures open with the given seed.

    RAMP, the segment (1, 2, ..., n, 1): theta in [n-1, n].
    ONES, the segment (1 x n, 2): theta in [1/n, 1/(n-1)].
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need n >= 2, got {n!r}")
    if kind is SegmentKind.RAMP:
        return _interval(Fraction(n - 1), True, Fraction(n), True)
    if kind is SegmentKind.ONES:
        return _interval(Fraction(1, n), True, Fraction(1, n - 1), True)
    raise ValueError(f"no seed interval for {kind}")
