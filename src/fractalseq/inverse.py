"""Recovering the parameters consistent with a sequence prefix.

A prefix p of length N is the start of the signature of theta exactly
when, after annotating occurrence ranks, two families of linear
inequalities hold:

* adjacency: consecutive annotated terms are nondecreasing as values
  s_h + a_h * theta;
* frontier: every minimal pair (i, j) NOT in the prefix, namely
  (v, count(v) + 1) for each listed value v, (w, 1) for each missing
  value w below the maximum, and (max + 1, 1), must not sort strictly
  before the last listed term.

The adjacency family alone admits impostors (it would accept (1, 2)
for every positive theta); the frontier family is what certifies that
nothing was skipped.  Intersecting all constraints with theta > 0
yields an interval with exact rational bounds, possibly empty, possibly
unbounded above.

All bounds are emitted closed, because every inequality above is weak.
A closed endpoint may still fail to regenerate the prefix when the tie
order at that exact rational reorders equal values; exact regeneration,
not the bound flag, is the arbiter at endpoints.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional

from .seqcore import SegmentKind, annotate_ranks
from .signature import as_exact, compare_with_rational, signature_terms


@dataclass(frozen=True)
class ThetaInterval:
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
    module notes).
    """
    seq = list(terms)
    if not seq:
        raise ValueError("prefix must be nonempty")
    if any(t < 1 for t in seq):
        raise ValueError("terms must be >= 1")

    pairs = annotate_ranks(seq)
    lo, lo_closed = Fraction(0), False
    hi: Optional[Fraction] = None
    hi_closed = False

    def tighten_lower(r: Fraction) -> None:
        nonlocal lo, lo_closed
        if r > lo:
            lo, lo_closed = r, True

    def tighten_upper(r: Fraction) -> None:
        nonlocal hi, hi_closed
        if hi is None or r < hi:
            hi, hi_closed = r, True

    for (s1, a1), (s2, a2) in zip(pairs, pairs[1:]):
        ds, da = s1 - s2, a2 - a1
        if da > 0:
            tighten_lower(Fraction(ds, da))
        elif da < 0:
            tighten_upper(Fraction(ds, da))
        elif ds > 0:
            return EMPTY_INTERVAL

    counts: dict[int, int] = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
    top = max(seq)
    frontier = [(v, c + 1) for v, c in counts.items()]
    frontier += [(w, 1) for w in range(1, top) if w not in counts]
    frontier.append((top + 1, 1))

    last_s, last_a = pairs[-1]
    for fi, fj in frontier:
        dv, dj = fi - last_s, last_a - fj
        if dj > 0:
            tighten_upper(Fraction(dv, dj))
        elif dj < 0:
            tighten_lower(Fraction(dv, dj))
        elif dv < 0:
            return EMPTY_INTERVAL

    return _interval(lo, lo_closed, hi, hi_closed)


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


def first_divergence(theta1, theta2, max_terms: int) -> Optional[int]:
    """Smallest 1-based index where two signatures differ.

    Distinct parameters always diverge eventually; ``max_terms`` bounds
    the search, and None reports agreement through that horizon.
    """
    t1, t2 = as_exact(theta1), as_exact(theta2)
    if t1 == t2:
        raise ValueError("parameters must be distinct")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    stream = zip(signature_terms(t1), signature_terms(t2))
    for h, (x, y) in enumerate(islice(stream, max_terms), start=1):
        if x.value != y.value:
            return h
    return None
