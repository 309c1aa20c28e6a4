"""Signature sequences of exact positive reals.

For a parameter theta > 0, sort the multiset {i + j*theta : i, j >= 1}
in nondecreasing order; the stream of i-components is the signature of
theta, and the j-components are exactly the occurrence ranks.

theta is either a ``fractions.Fraction`` or a :class:`Surd`, an exact
quadratic irrational (a + b*sqrt(d))/c.  Every comparison in this module
is decided by integer arithmetic (sign analysis plus one squaring step
for surds); floating point is never consulted.  Distinct parameters that
are arbitrarily close still separate correctly, no matter how deep in
the sequence the first differing term lies.

Ties happen exactly when theta is rational.  Equal values are emitted
with the larger i-component first; the listings this module is tested
against fix that order.

The generator, :func:`signature_runs`, yields the sequence in runs: a
list of values and a list of ranks each, with no object per term.  Row
k of the block view holds the m in (floor(k*theta), floor((k+1)*theta)],
so every row holds floor(theta) or floor(theta)+1 of them, and every
block splits into the same floor(theta)+2 runs, each one pass over the
rows.  :func:`generate_signature` and the CLI read the terms off the runs,
and :func:`first_divergence` streams the runs of two parameters.
"""
from __future__ import annotations

import math
import re
from bisect import insort
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, count, islice
from typing import Iterator, Union

from .seqcore import AnnotatedTerm


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def surd_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for d >= 2 not a square.

    When a and b have opposite signs the comparison reduces to a*a
    versus b*b*d, which cannot be a draw: equality would make sqrt(d)
    rational.
    """
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    t = a * a - b * b * d
    return _sign(t) if a > 0 else -_sign(t)


class Surd:
    """Exact value (a + b*sqrt(d)) / c.

    Normal form: c >= 1, b != 0, d >= 2 not a square, gcd(a, b, c) = 1.
    The radicand is kept as written, so ``sqrt(12)`` and ``2*sqrt(3)``
    have different fields; ``==`` and ``hash`` compare values.
    Build values through :meth:`make` (or :func:`parse_theta`), which
    normalizes and collapses rational cases to ``Fraction``; the raw
    constructor rejects anything not already in normal form.  Fields
    cannot be assigned or deleted.
    """

    __slots__ = ("a", "b", "d", "c")

    def __init__(self, a: int, b: int, d: int, c: int = 1) -> None:
        if c < 1:
            raise ValueError("denominator must be positive")
        if b == 0:
            raise ValueError("b = 0 is rational; use Fraction")
        if d < 2 or math.isqrt(d) ** 2 == d:
            raise ValueError("d must be >= 2 and not a square")
        if math.gcd(a, b, c) != 1:
            raise ValueError("components must have no common factor")
        for name, value in zip(Surd.__slots__, (a, b, d, c)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"Surd(a={self.a!r}, b={self.b!r}, d={self.d!r}, c={self.c!r})"

    def __reduce__(self):
        return Surd, (self.a, self.b, self.d, self.c)

    def _key(self) -> tuple[Fraction, Fraction]:
        # The rational part and the signed square of b*sqrt(d)/c.  Equal
        # values have equal rational parts, since x*sqrt(d1) - y*sqrt(d2)
        # is never a nonzero rational when neither d1 nor d2 is a square.
        return (Fraction(self.a, self.c),
                Fraction(self.b * abs(self.b) * self.d, self.c * self.c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @staticmethod
    def make(a: int, b: int, d: int, c: int = 1) -> "ExactNumber":
        if c == 0:
            raise ZeroDivisionError("denominator is zero")
        if d < 0:
            raise ValueError("negative radicand")
        if c < 0:
            a, b, c = -a, -b, -c
        r = math.isqrt(d)
        if r * r == d:
            return Fraction(a + b * r, c)
        if b == 0:
            return Fraction(a, c)
        g = math.gcd(a, b, c)
        return Surd(a // g, b // g, d, c // g)

    @staticmethod
    def sqrt(d: int) -> "ExactNumber":
        return Surd.make(0, 1, d)

    # Unused in the package; perfbench/workloads.py calls it.
    def sign(self) -> int:
        return surd_sign(self.a, self.b, self.d)

    def __str__(self) -> str:
        if self.a == 0 and self.b == 1 and self.c == 1:
            return f"sqrt({self.d})"
        root = f"sqrt({self.d})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.d})"
        if self.a == 0:
            body = root if self.b > 0 else f"0-{root}"
        else:
            body = f"{self.a}{'+' if self.b > 0 else '-'}{root}"
        return body if self.c == 1 else f"({body})/{self.c}"


ExactNumber = Union[Fraction, Surd]


def as_exact(theta) -> ExactNumber:
    """Coerce int/Fraction/Surd to an ExactNumber."""
    if isinstance(theta, Surd):
        return theta
    if isinstance(theta, (int, Fraction)):
        return Fraction(theta)
    raise TypeError(f"not an exact number: {theta!r}")


def theta_sign(theta: ExactNumber) -> int:
    if isinstance(theta, Fraction):
        return _sign(theta.numerator)
    return surd_sign(theta.a, theta.b, theta.d)


def _require_positive(theta: ExactNumber) -> None:
    if theta_sign(theta) <= 0:
        raise ValueError("theta must be positive")


def compare_affine(i1: int, j1: int, i2: int, j2: int, theta) -> int:
    """Exact three-way comparison of i1 + j1*theta against i2 + j2*theta.

    Returns -1, 0, or 1 as the first form is less than, equal to, or
    greater than the second.  Equality requires a rational theta.
    """
    theta = as_exact(theta)
    de, df = i1 - i2, j1 - j2
    if isinstance(theta, Fraction):
        return _sign(de * theta.denominator + df * theta.numerator)
    return surd_sign(de * theta.c + df * theta.a, df * theta.b, theta.d)


def compare_with_rational(theta: ExactNumber, r: Fraction) -> int:
    """Exact sign of theta - r: the sign of v*theta - u for r = u/v."""
    return compare_affine(0, r.denominator, r.numerator, 0, theta)


# ---------------------------------------------------------------------------
# Generation


def _floor_times(x: int, theta: ExactNumber) -> int:
    """Exact floor(x*theta) for an integer x >= 1."""
    if isinstance(theta, Fraction):
        return x * theta.numerator // theta.denominator
    # x*b*sqrt(d) is irrational for x >= 1: its floor is isqrt(x*x*b*b*d)
    # for b > 0 and -isqrt(x*x*b*b*d) - 1 for b < 0.
    r = math.isqrt(x * x * theta.b * theta.b * theta.d)
    return (x * theta.a + (r if theta.b > 0 else -r - 1)) // theta.c


def signature_runs(theta) -> Iterator[tuple[list[int], list[int]]]:
    """Yield the signature of theta as runs: (values, ranks) list pairs.

    Block view: block j is the term (1, j) followed by one term
    (m+1, j-k) per pair (m, k) with 0 <= k < j and key m - k*theta in
    (0, theta], since (m+1) + (j-k)*theta = 1 + j*theta + key.  The
    pairs go in key order, equal keys (rational theta only) larger m
    first.  Keys do not depend on j, so block j+1 is block j plus row
    k = j: the m in (floor(j*theta), floor((j+1)*theta)].  Within a row
    the keys are t - f for t = 1, 2, ... and f the fractional part of
    k*theta, so every t-th pair precedes every (t+1)-th one, and the
    t-th pairs keep the order of their rows' first keys.

    A row holds floor(theta) or floor(theta)+1 pairs, so the rows are
    kept sorted by first key and block j is floor(theta)+2 runs: run 0
    is ([1], [j]); run t = 1..floor(theta) holds the value m + t for
    every row, m its first pair; the last run holds m + floor(theta) + 1
    for the long rows, which lead: row k, first key 1 - frac(k*theta),
    is long exactly when frac(k*theta) + frac(theta) >= 1, that is when
    its first key is at most frac(theta).  A run of block j holds at
    most j terms, so the work before any term is bounded by its block
    number however large theta is.  The full runs of a block share one
    ranks list, so a caller must not modify a run.
    """
    theta = as_exact(theta)
    _require_positive(theta)
    by_key = cmp_to_key(lambda u, v: (compare_affine(u[0], -u[1], v[0], -v[1], theta)
                                      or v[0] - u[0]))
    short = _floor_times(1, theta)  # pairs in a short row

    def blocks() -> Iterator[tuple[list[int], list[int]]]:
        rows: list[tuple[int, int]] = []  # (first m, k), by first key
        longs = lo = 0  # longs counts the long rows, which come first
        for j in count(1):
            hi = _floor_times(j, theta)
            if hi > lo:
                insort(rows, (lo + 1, j - 1), key=by_key)
                longs += hi - lo > short
            lo = hi
            yield [1], [j]
            firsts = [m for m, _ in rows]
            ranks = [j - k for _, k in rows]
            for t in range(1, short + 1):
                yield [m + t for m in firsts], ranks
            yield [m + short + 1 for m in firsts[:longs]], ranks[:longs]

    return blocks()


def generate_signature(theta, n_terms: int) -> list[AnnotatedTerm]:
    """First ``n_terms`` annotated terms of the signature of theta."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    runs = signature_runs(theta)
    return list(islice(chain.from_iterable(map(AnnotatedTerm, v, r) for v, r in runs), n_terms))


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
    v1, v2 = (chain.from_iterable(v for v, _ in signature_runs(t)) for t in (t1, t2))
    for h, (x, y) in enumerate(islice(zip(v1, v2), max_terms), start=1):
        if x != y:
            return h
    return None


def brute_force_signature(theta, n_terms: int) -> list[AnnotatedTerm]:
    """Independent oracle: enumerate a value box, sort, take a prefix.

    All pairs (i, j) with i + j*theta <= V are collected for a cutoff V
    grown until the box holds at least ``n_terms`` pairs; anything
    outside the box exceeds V, so the sorted prefix is complete.  The
    sort uses :func:`compare_affine` with the same tie rule as the lazy
    generator but shares none of its block machinery.
    """
    theta = as_exact(theta)
    _require_positive(theta)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    V = _floor_times(1, theta) + 3  # any start above theta; V doubles until full
    while True:
        pairs: list[tuple[int, int]] = []
        j = 1
        while compare_affine(1, j, V, 0, theta) <= 0:
            i = 1
            while compare_affine(i, j, V, 0, theta) <= 0:
                pairs.append((i, j))
                i += 1
            j += 1
        if len(pairs) >= n_terms:
            break
        V *= 2
    pairs.sort(key=cmp_to_key(
        lambda u, v: compare_affine(u[0], u[1], v[0], v[1], theta) or (v[0] - u[0])))
    return [AnnotatedTerm(i, j) for i, j in pairs[:n_terms]]


# ---------------------------------------------------------------------------
# Parsing and formatting


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*(\d+))?", re.ASCII)
_DECIMAL_RE = re.compile(r"[+-]?(?:\d*\.\d+|\d+\.\d*)", re.ASCII)
_SURD_INNER = r"(?:(?P<a>[+-]?\d+)\s*(?P<op>[+-])\s*)?(?:(?P<b>\d+)\s*\*\s*)?sqrt\(\s*(?P<d>\d+)\s*\)"
_SURD_PAREN_RE = re.compile(rf"\(\s*{_SURD_INNER}\s*\)\s*/\s*(?P<c>\d+)", re.ASCII)
_SURD_BARE_RE = re.compile(rf"{_SURD_INNER}(?:\s*/\s*(?P<c>\d+))?", re.ASCII)


def _denominator(digits: str | None) -> int:
    c = int(digits) if digits else 1
    if c == 0:
        raise ValueError("zero denominator")
    return c


def parse_theta(text: str) -> ExactNumber:
    """Parse a positive exact parameter.

    Accepted forms: ``7``, ``13/2``, ``sqrt(13)``, ``3*sqrt(2)``,
    ``1+sqrt(2)``, ``sqrt(13)/2``, ``(1+2*sqrt(5))/3``.  Decimal
    notation is rejected: a float cannot say which exact number it
    means, and nearby parameters have different signatures.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty theta expression")
    if _DECIMAL_RE.fullmatch(s):
        raise ValueError(
            f"decimal theta {s!r} not supported; use p/q or (a+b*sqrt(d))/c")

    if "sqrt" not in s:
        m = _RATIONAL_RE.fullmatch(s)
        if not m:
            raise ValueError(f"malformed theta expression: {text!r}")
        value: ExactNumber = Fraction(int(m.group(1)), _denominator(m.group(2)))
    else:
        m = _SURD_PAREN_RE.fullmatch(s) or _SURD_BARE_RE.fullmatch(s)
        if not m:
            raise ValueError(f"malformed theta expression: {text!r}")
        if m.group("a") is not None and m.re is _SURD_BARE_RE and m.group("c"):
            raise ValueError(
                f"ambiguous theta {text!r}: parenthesize as (a+b*sqrt(d))/c")
        a = int(m.group("a")) if m.group("a") else 0
        b = int(m.group("b")) if m.group("b") else 1
        if m.group("op") == "-":
            b = -b
        value = Surd.make(a, b, int(m.group("d")), _denominator(m.group("c")))

    if theta_sign(value) <= 0:
        raise ValueError(f"theta must be positive: {text!r}")
    return value

