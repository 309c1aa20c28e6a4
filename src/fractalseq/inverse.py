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
over the frontier.  This fold, ``_bounds``, decides EMPTY in integers
too, and ``_text`` writes an interval's text from integers, so ``invert``
builds no ``Fraction``: importing ``fractions`` loads ``decimal``, about
0.4 MB of max-RSS.  ``fractions`` is imported only by the functions that
build the library's results.

All bounds are emitted closed, because every inequality above is weak.
A closed endpoint may still fail to regenerate the prefix when the tie
order at that exact rational reorders equal values; exact regeneration,
not the bound flag, is the arbiter at endpoints.
"""
from __future__ import annotations

from enum import Enum
from math import gcd
from numbers import Rational  # not Fraction: annotations resolve without loading fractions
from typing import Iterable, NamedTuple, Optional

# annotate_ranks is unused here; perfbench/tracer.py looks up inverse.annotate_ranks.
from .seqcore import annotate_ranks


class ThetaInterval(NamedTuple):
    """An interval of parameters with exact rational endpoints.

    ``hi`` is None when unbounded above.  The lower endpoint is always
    finite (every interval lives inside theta > 0).  The library's
    endpoints are ``Fraction``s, but for ``EMPTY_INTERVAL``'s ints 1 and 0.
    """

    lo: Rational
    lo_closed: bool
    hi: Optional[Rational]
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

    def witness(self) -> Optional[Rational]:
        """A rational representative: the midpoint when bounded, the
        point itself when degenerate, None when empty."""
        from fractions import Fraction
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
            return _text(None)
        hi = (1, 0) if self.hi is None else (self.hi.numerator, self.hi.denominator)
        return _text((self.lo.numerator, self.lo.denominator, *hi), self.lo_closed, self.hi_closed)


# Ints, so that no Fraction is built; they compare and hash as Fraction(1) and Fraction(0) do.
EMPTY_INTERVAL = ThetaInterval(1, False, 0, False)


def _text(bounds: Optional[tuple[int, int, int, int]],
          lo_closed: Optional[bool] = None, hi_closed: bool = True) -> str:
    """The text of ``_bounds``' result, for ``invert`` and ``ThetaInterval.__str__``:
    EMPTY for None, else lo_n/lo_d and hi_n/hi_d (``oo`` when hi_d is 0)
    in lowest terms, as ``str`` of a ``Fraction`` writes them.  Unless the
    flags say otherwise, the lower bound is closed exactly when it is
    above 0 and the upper one always, as ``_bounds`` gives them."""
    if bounds is None:
        return "EMPTY"
    lo_n, lo_d, hi_n, hi_d = bounds
    left = "[" if (lo_n > 0 if lo_closed is None else lo_closed) else "("
    right = f"{_ratio(hi_n, hi_d)}{']' if hi_closed else ')'}" if hi_d else "oo)"
    return f"{left}{_ratio(lo_n, lo_d)}, {right}"


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, d > 0, and n alone when that leaves d at 1."""
    g = gcd(n, d)
    return f"{n // g}" if d == g else f"{n // g}/{d // g}"


def _interval(lo: Rational, lo_closed: bool,
              hi: Optional[Rational], hi_closed: bool) -> ThetaInterval:
    iv = ThetaInterval(lo, lo_closed, hi, hi_closed)
    return EMPTY_INTERVAL if iv.is_empty else iv


def theta_interval_from_prefix(terms: Iterable[int]) -> ThetaInterval:
    """Exact interval of parameters whose signature starts with ``terms``.

    EMPTY is a normal result: it certifies that no positive parameter
    produces this prefix (up to tie order at rational endpoints, see the
    module notes).  ``terms`` may be any iterable; it is read once, to the
    end, even after EMPTY is certain, and every term must be >= 1.
    """
    from fractions import Fraction
    bounds = _bounds(terms)
    if bounds is None:
        return EMPTY_INTERVAL
    lo_n, lo_d, hi_n, hi_d = bounds
    return ThetaInterval(Fraction(lo_n, lo_d), lo_n > 0,
                         Fraction(hi_n, hi_d) if hi_d else None, hi_d > 0)


def _bounds(terms: Iterable[int]) -> Optional[tuple[int, int, int, int]]:
    """The interval of ``theta_interval_from_prefix`` as (lo_n, lo_d, hi_n,
    hi_d), with lo_d > 0 and hi_d 0 when unbounded above, or None when
    EMPTY.  The lower bound is closed exactly when lo_n > 0 and the upper
    one whenever it is finite."""
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
        return None

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
            return None
    # Crossed bounds: no theta > 0 has lo <= theta <= hi.
    if hi_d and (hi_n <= 0 or lo_n * hi_d > hi_n * lo_d):
        return None
    return lo_n, lo_d, hi_n, hi_d


class SegmentKind(Enum):
    """How a doubly fractal sequence opens, as :func:`seed_interval` spells out."""

    RAMP = "ramp"
    ONES = "ones"


def seed_interval(n: int, kind: SegmentKind) -> ThetaInterval:
    """Parameters whose signatures open with the given seed.

    RAMP, the segment (1, 2, ..., n, 1): theta in [n-1, n].
    ONES, the segment (1 x n, 2): theta in [1/n, 1/(n-1)].
    """
    from fractions import Fraction
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need n >= 2, got {n!r}")
    if kind is SegmentKind.RAMP:
        return _interval(Fraction(n - 1), True, Fraction(n), True)
    if kind is SegmentKind.ONES:
        return _interval(Fraction(1, n), True, Fraction(1, n - 1), True)
    raise ValueError(f"no seed interval for {kind}")
