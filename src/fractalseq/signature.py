"""Signature sequences of exact positive reals.

For a parameter theta > 0, sort the multiset {i + j*theta : i, j >= 1}
in nondecreasing order; the stream of i-components is the signature of
theta, and the j-components are exactly the occurrence ranks.

theta is either a ``fractions.Fraction`` or a :class:`Surd`, an exact
quadratic irrational (a + b*sqrt(d))/c.  Inside this module every theta
is four integers (a, b, d, c), the value (a + b*sqrt(d))/c with c >= 1; a
rational is b = d = 0.  One integer formula decides each question for
both kinds: the sign of de + df*theta is ``surd_sign(de*c + df*a, df*b,
d)`` (sign analysis plus one squaring step), and floor(x*theta) is
x*a // c or, for b != 0, one ``isqrt``.  Floating point is never
consulted, so distinct parameters that are arbitrarily close still
separate correctly, no matter how deep in the sequence the first
differing term lies.

Ties happen exactly when theta is rational.  Equal values are emitted
with the larger i-component first; the listings this module is tested
against fix that order.

The generator yields the sequence in runs: a list of values and a list
of ranks each, with no object per term.  Row k of the block view holds
the m in (floor(k*theta), floor((k+1)*theta)], so every row holds
floor(theta) or floor(theta)+1 of them, and every block splits into the
same floor(theta)+2 runs, each one pass over the rows.
:func:`generate_signature` and the CLI read the terms off the runs, and
:func:`first_divergence` streams the runs of two parameters.

The CLI calls the private parser, generator and divergence test on the
four integers and builds no ``Fraction``: importing ``fractions`` loads
``decimal``, about 0.4 MB of max-RSS.  ``fractions`` is imported only by
the functions that build a ``Fraction``.
"""
from __future__ import annotations

import math
import re
from bisect import insort
from functools import cmp_to_key
from itertools import chain, count, islice
from numbers import Rational  # not Fraction: annotations resolve without loading fractions
from typing import Iterator, Optional, Union

from .seqcore import AnnotatedTerm


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def surd_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for b = 0 or d >= 2 not a square.

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


def _normal(a: int, b: int, d: int, c: int) -> tuple[int, int, int, int]:
    """(a + b*sqrt(d))/c as four integers with c >= 1 and no common factor;
    a rational, a square radicand included, has b = d = 0."""
    if c == 0:
        raise ZeroDivisionError("denominator is zero")
    if d < 0:
        raise ValueError("negative radicand")
    r = math.isqrt(d)
    if r * r == d or b == 0:
        a, b, d = a + b * r, 0, 0
    g = math.gcd(a, b, c) * _sign(c)  # c's sign, so that c // g >= 1
    return a // g, b // g, d, c // g


def _key(a: int, b: int, d: int, c: int) -> tuple[int, int, int, int]:
    # The rational part a/c and the signed square b*|b|*d/c^2 of the rest, each in lowest
    # terms.  Equal values have equal rational parts, since x*sqrt(d1) - y*sqrt(d2) is never
    # a nonzero rational when neither d1 nor d2 is a square.
    s, cc = b * abs(b) * d, c * c
    g, h = math.gcd(a, c), math.gcd(s, cc)
    return a // g, c // g, s // h, cc // h


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return _key(*_parts(self)) == _key(*_parts(other))

    def __hash__(self) -> int:
        return hash(_key(*_parts(self)))

    @staticmethod
    def make(a: int, b: int, d: int, c: int = 1) -> "ExactNumber":
        a, b, d, c = _normal(a, b, d, c)
        if b:
            return Surd(a, b, d, c)
        from fractions import Fraction
        return Fraction(a, c)

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


ExactNumber = Union[Rational, Surd]


def _parts(theta) -> tuple[int, int, int, int]:
    """The four integers (a, b, d, c) of an int, a Fraction or a Surd."""
    if isinstance(theta, Surd):
        return theta.a, theta.b, theta.d, theta.c
    if isinstance(theta, Rational):
        return theta.numerator, 0, 0, theta.denominator
    raise TypeError(f"not an exact number: {theta!r}")


def as_exact(theta) -> ExactNumber:
    """Coerce int/Fraction/Surd to an ExactNumber."""
    return theta if isinstance(theta, Surd) else Surd.make(*_parts(theta))


def theta_sign(theta: ExactNumber) -> int:
    return surd_sign(*_parts(theta)[:3])


def _compare(i1: int, j1: int, i2: int, j2: int, a: int, b: int, d: int, c: int) -> int:
    # (i1 - i2) + (j1 - j2)*theta has the sign of c times it.
    return surd_sign((i1 - i2) * c + (j1 - j2) * a, (j1 - j2) * b, d)


def compare_affine(i1: int, j1: int, i2: int, j2: int, theta) -> int:
    """Exact three-way comparison of i1 + j1*theta against i2 + j2*theta.

    Returns -1, 0, or 1 as the first form is less than, equal to, or
    greater than the second.  Equality requires a rational theta.
    """
    return _compare(i1, j1, i2, j2, *_parts(theta))


def compare_with_rational(theta: ExactNumber, r: Rational) -> int:
    """Exact sign of theta - r: the sign of v*theta - u for r = u/v."""
    return compare_affine(0, r.denominator, r.numerator, 0, theta)


# ---------------------------------------------------------------------------
# Generation


def _floor_times(x: int, a: int, b: int, d: int, c: int) -> int:
    """Exact floor(x*theta) for an integer x >= 1."""
    if b == 0:
        return x * a // c
    # x*b*sqrt(d) is irrational for x >= 1: its floor is isqrt(x*x*b*b*d)
    # for b > 0 and -isqrt(x*x*b*b*d) - 1 for b < 0.
    r = math.isqrt(x * x * b * b * d)
    return (x * a + (r if b > 0 else -r - 1)) // c


def _runs(a: int, b: int, d: int, c: int) -> Iterator[tuple[list[int], list[int]]]:
    """The runs of :func:`signature_runs` for theta = (a + b*sqrt(d))/c."""
    if surd_sign(a, b, d) <= 0:
        raise ValueError("theta must be positive")
    # Pair u = (m, k) has key m - k*theta; equal keys put the larger m first.
    by_key = cmp_to_key(lambda u, v: _compare(u[0], -u[1], v[0], -v[1], a, b, d, c) or v[0] - u[0])
    short = _floor_times(1, a, b, d, c)  # pairs in a short row

    def blocks() -> Iterator[tuple[list[int], list[int]]]:
        rows: list[tuple[int, int]] = []  # (first m, k), by first key
        longs = lo = 0  # longs counts the long rows, which come first
        for j in count(1):
            hi = _floor_times(j, a, b, d, c)
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
    return _runs(*_parts(theta))


def generate_signature(theta, n_terms: int) -> list[AnnotatedTerm]:
    """First ``n_terms`` annotated terms of the signature of theta."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    runs = signature_runs(theta)
    return list(islice(chain.from_iterable(map(AnnotatedTerm, v, r) for v, r in runs), n_terms))


def _diverge(t1: tuple, t2: tuple, max_terms: int) -> Optional[int]:
    """:func:`first_divergence` of two parameters given as four integers each."""
    if _key(*t1) == _key(*t2):
        raise ValueError("parameters must be distinct")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    v1, v2 = (chain.from_iterable(v for v, _ in _runs(*t)) for t in (t1, t2))
    for h, (x, y) in enumerate(islice(zip(v1, v2), max_terms), start=1):
        if x != y:
            return h
    return None


def first_divergence(theta1, theta2, max_terms: int) -> Optional[int]:
    """Smallest 1-based index where two signatures differ.

    Distinct parameters always diverge eventually; ``max_terms`` bounds
    the search, and None reports agreement through that horizon.
    """
    return _diverge(_parts(theta1), _parts(theta2), max_terms)


def brute_force_signature(theta, n_terms: int) -> list[AnnotatedTerm]:
    """Independent oracle: enumerate a value box, sort, take a prefix.

    All pairs (i, j) with i + j*theta <= V are collected for a cutoff V
    grown until the box holds at least ``n_terms`` pairs; anything
    outside the box exceeds V, so the sorted prefix is complete.  The
    sort uses :func:`compare_affine` with the same tie rule as the lazy
    generator but shares none of its block machinery.
    """
    a, b, d, c = _parts(theta)
    if surd_sign(a, b, d) <= 0:
        raise ValueError("theta must be positive")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    V = _floor_times(1, a, b, d, c) + 3  # any start above theta; V doubles until full
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


def _theta(text: str) -> tuple[int, int, int, int]:
    """The four integers of the positive parameter ``text`` writes, as
    :func:`parse_theta` reads it."""
    s = text.strip()
    if not s:
        raise ValueError("empty theta expression")
    if _DECIMAL_RE.fullmatch(s):
        raise ValueError(f"decimal theta {s!r} not supported; use p/q or (a+b*sqrt(d))/c")

    if "sqrt" not in s:
        m = _RATIONAL_RE.fullmatch(s)
        if not m:
            raise ValueError(f"malformed theta expression: {text!r}")
        a, b, d, c = int(m.group(1)), 0, 0, m.group(2)
    else:
        m = _SURD_PAREN_RE.fullmatch(s) or _SURD_BARE_RE.fullmatch(s)
        if not m:
            raise ValueError(f"malformed theta expression: {text!r}")
        if m.group("a") is not None and m.re is _SURD_BARE_RE and m.group("c"):
            raise ValueError(f"ambiguous theta {text!r}: parenthesize as (a+b*sqrt(d))/c")
        a = int(m.group("a")) if m.group("a") else 0
        b = int(m.group("b")) if m.group("b") else 1
        if m.group("op") == "-":
            b = -b
        d, c = int(m.group("d")), m.group("c")
    c = int(c) if c else 1
    if c == 0:
        raise ValueError("zero denominator")
    a, b, d, c = _normal(a, b, d, c)

    if surd_sign(a, b, d) <= 0:
        raise ValueError(f"theta must be positive: {text!r}")
    return a, b, d, c


def parse_theta(text: str) -> ExactNumber:
    """Parse a positive exact parameter.

    Accepted forms: ``7``, ``13/2``, ``sqrt(13)``, ``3*sqrt(2)``,
    ``1+sqrt(2)``, ``sqrt(13)/2``, ``(1+2*sqrt(5))/3``.  Decimal
    notation is rejected: a float cannot say which exact number it
    means, and nearby parameters have different signatures.  A rational,
    ``sqrt(4)`` included, is a ``Fraction``; any other value a :class:`Surd`.
    """
    return Surd.make(*_theta(text))
