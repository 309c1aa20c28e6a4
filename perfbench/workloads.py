"""Seeded operation pools for the three benchmark workloads, and the
oracles that check each operation's output.

A pool is a list of :class:`Op`: every operation a run makes, once.
Sizes (counts, prefix lengths, block counts) sit on fixed stratified
grids, so every seed asks for the same amount of work; the seed draws the
content that fills them: parameters, corruption kinds and positions,
divergence partners, branch bits.  A pool of ``passes`` passes gives each
slot of a stratum ``passes`` sizes spread evenly through the stratum, so
the sizes of a run tile the whole range on a fine grid.  Its latencies
then form a continuous spread with no gaps between clusters of repeats
for a percentile to straddle, which keeps run-to-run spread down to the
host's noise while each seed still produces different outputs.

Every oracle runs in the benchmark process, after the timed loop, and
goes through none of the code an operation's timed path uses:
``brute_force_signature`` for ``generate`` and ``diverge``; the
full-prefix ``check_doubly_fractal_prefix`` for ``check`` and
``construct``; regeneration from an interval's witness for ``invert``
and ``construct``; reference trims written here for ``trim``.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from fractalseq import (Surd, ThetaInterval, brute_force_signature,
                        check_doubly_fractal_prefix, generate_signature,
                        parse_theta, theta_interval_from_prefix)

_FORMAT_FLAGS = {"plain": [], "ranks": ["--ranks"], "json": ["--json"],
                 "bfile": ["--bfile"]}
FORMATS = tuple(_FORMAT_FLAGS)
_DIVERGE_MAX = 10 ** 5
# A --json line costs about three plain ones to render, so a --json op
# takes a third of its slot's count: every op of a stratum then costs
# about the same, and the tail percentile of a run rests on many similar
# ops instead of a few --json outliers.
_JSON_COST = 3

# verify(stdout, exit code) -> (error or None, terms handled)
Verify = Callable[[bytes, int], tuple[Optional[str], int]]


@dataclass
class Op:
    """One CLI invocation: ``fractalseq <argv>``, checked by ``verify``."""

    kind: str
    argv: list[str]
    verify: Verify
    props: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(self.argv)


def log_grid(lo_exp: float, hi_exp: float, k: int, scale: float = 1.0) -> list[int]:
    """Midpoints of k equal strata of [10^lo_exp, 10^hi_exp] in log space."""
    return [log_point(lo_exp, hi_exp, (i + 0.5) / k, scale) for i in range(k)]


def log_point(lo_exp: float, hi_exp: float, u: float, scale: float = 1.0) -> int:
    """The point a share u of the way through [10^lo_exp, 10^hi_exp] in log space."""
    return max(1, round(scale * 10 ** (lo_exp + (hi_exp - lo_exp) * u)))


def fine_position(k: int, strata: int, j: int, passes: int, s: int = 0, slots: int = 1) -> float:
    """Share of the range for pass j of slot s in stratum k: the centre of
    one of the strata * passes * slots equal cells, each used once."""
    return (k + (j * slots + s + 0.5) / (passes * slots)) / strata


class BruteForce:
    """``brute_force_signature(theta, n)`` for every n up to ``limit``,
    from one call: the oracle sorts a complete box of terms, so a shorter
    prefix is a prefix of the longer one."""

    def __init__(self, theta, limit: int) -> None:
        self.theta, self.limit = theta, limit

    @functools.cached_property
    def terms(self) -> list:
        return brute_force_signature(self.theta, self.limit)


def random_rational(rng, slot: int) -> Fraction:
    """p/q with p, q <= 50; slots cycle through integers, 1/k and general p/q."""
    if slot % 4 == 0:
        return Fraction(rng.randint(1, 50))
    if slot % 4 == 1:
        return Fraction(1, rng.randint(2, 50))
    return Fraction(rng.randint(1, 50), rng.randint(1, 50))


def random_surd(rng) -> Surd:
    """(a + b*sqrt(d))/c drawn like the test suite's parameter sample."""
    while True:
        t = Surd.make(rng.randint(-5, 9), rng.randint(1, 6),
                      rng.choice([2, 3, 5, 7, 13]), rng.randint(1, 8))
        if isinstance(t, Surd) and t.sign() > 0:
            return t


def theta_arg(theta) -> str:
    text = str(theta)
    if parse_theta(text) != theta:
        raise ValueError(f"theta {theta!r} does not round-trip through {text!r}")
    return text


def values(theta, n: int) -> list[int]:
    return [t.value for t in generate_signature(theta, n)]


def _ints(out: bytes) -> list[int]:
    return [int(tok) for tok in out.split()]


# ---------------------------------------------------------------------------
# generate


def render(fmt: str, terms) -> bytes:
    """The CLI's output for a list of annotated terms, one line per term."""
    if fmt == "json":
        lines = (f'{{"index":{h},"value":{t.value},"rank":{t.rank}}}'
                 for h, t in enumerate(terms, start=1))
    elif fmt == "bfile":
        lines = (f"{h} {t.value}" for h, t in enumerate(terms, start=1))
    elif fmt == "ranks":
        lines = (f"{t.value} {t.rank}" for t in terms)
    else:
        lines = (str(t.value) for t in terms)
    return "".join(line + "\n" for line in lines).encode("ascii")


def generate_op(oracle: BruteForce, count: int, fmt: str) -> Op:
    theta = oracle.theta

    def verify(out: bytes, code: int):
        if code != 0:
            return f"exit code {code}", count
        if out != render(fmt, oracle.terms[:count]):
            return "output differs from brute_force_signature", count
        return None, count

    kind = "rational" if isinstance(theta, Fraction) else "surd"
    argv = ["generate", f"--theta={theta_arg(theta)}", "--count", str(count)]
    return Op("generate", argv + _FORMAT_FLAGS[fmt], verify,
              {"theta_kind": kind, "format": fmt})


def build_generate(rng, workdir: Path, passes: int, scale: float = 1.0) -> list[Op]:
    """16 ops a pass: 8 count strata, each with one rational slot (counts
    over [10^3, 10^4.75]) and one surd slot (counts over [10^2.5, 10^4.25]).
    A surd term costs about three times a rational one, so this gives the
    two kinds alike costs per stratum and one continuous spread of
    latencies instead of two interleaved clusters.  A slot keeps its
    parameter across passes, so one brute-force call at its largest count
    checks all of its outputs; each pass moves it to a fresh count in its
    stratum and the next output format, so no format sticks to the
    largest counts.  A --json op takes a fraction 1/_JSON_COST of its
    count."""
    ops = []
    for k in range(8):
        for s, (theta, lo) in enumerate([(random_rational(rng, k), 3.0),
                                         (random_surd(rng), 2.5)]):
            hi = lo + 1.75
            oracle = BruteForce(theta, log_point(lo, hi, (k + 1) / 8, scale))
            for j in range(passes):
                count = log_point(lo, hi, fine_position(k, 8, j, passes, s, 2), scale)
                fmt = FORMATS[(k + 2 * s + j) % 4]
                if fmt == "json":
                    count = max(1, count // _JSON_COST)
                ops.append(generate_op(oracle, count, fmt))
    return ops


# ---------------------------------------------------------------------------
# analyze: check, invert, trim, diverge


def reference_upper_trim(seq: list[int]) -> list[int]:
    seen: set[int] = set()
    out = []
    for t in seq:
        if t in seen:
            out.append(t)
        seen.add(t)
    return out


def reference_lower_trim(seq: list[int]) -> list[int]:
    return [t - 1 for t in seq if t != 1]


def corrupt(rng, seq: list[int]) -> tuple[list[int], str]:
    """Swap two adjacent distinct terms or bump one term, in the second half."""
    seq = list(seq)
    pos = rng.randrange(len(seq) // 2, len(seq) - 1)
    if rng.random() < 0.5 and seq[pos] != seq[pos + 1]:
        seq[pos], seq[pos + 1] = seq[pos + 1], seq[pos]
        return seq, "swap"
    seq[pos] += 1
    return seq, "bump"


def check_op(path: str, seq: list[int]) -> Op:
    def verify(out: bytes, code: int):
        report = check_doubly_fractal_prefix(seq)
        expected = (f"upper_ok: {str(report.upper_ok).lower()}\n"
                    f"lower_ok: {str(report.lower_ok).lower()}\n")
        if report.first_violation_index is not None:
            expected += f"first_violation_index: {report.first_violation_index}\n"
        if code != (0 if report.ok else 1) or out != expected.encode("ascii"):
            return "report differs from the full-prefix checker", len(seq)
        return None, len(seq)

    return Op("check", ["check", path], verify)


_INTERVAL_RE = re.compile(r"([\[(])(\S+), (\S+)([\])])")


def parse_interval(text: str) -> ThetaInterval:
    m = _INTERVAL_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not an interval: {text!r}")
    hi = None if m.group(3) == "oo" else Fraction(m.group(3))
    return ThetaInterval(Fraction(m.group(2)), m.group(1) == "[", hi, m.group(4) == "]")


def regenerates_up_to_ties(seq: list[int], r: Fraction) -> bool:
    """True when seq is the signature of the rational r except for the
    order of terms with equal i + j*r, the freedom the module notes of
    ``inverse`` leave at a rational endpoint."""
    p, q = r.numerator, r.denominator
    counts: dict[int, int] = {}
    mine = []
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
        mine.append((v * q + counts[v] * p, v, counts[v]))
    if any(a[0] > b[0] for a, b in zip(mine, mine[1:])):
        return False
    last = mine[-1][0]
    n = len(seq)
    while True:
        gen = [(t.value * q + t.rank * p, t.value, t.rank) for t in generate_signature(r, n)]
        if gen[-1][0] > last:
            break
        n *= 2
    return ({x for x in mine if x[0] < last} == {x for x in gen if x[0] < last}
            and {x for x in mine if x[0] == last} <= {x for x in gen if x[0] == last})


def invert_op(path: str, seq: list[int], theta, corrupted: bool) -> Op:
    props = {"corrupted": corrupted}

    def verify(out: bytes, code: int):
        if code != 0:
            return f"exit code {code}", len(seq)
        text = out.decode("ascii").strip()
        if text == "EMPTY":
            # No witness to regenerate from; only an intact prefix is
            # known to have a consistent parameter.
            return ("EMPTY for an intact prefix" if not corrupted else None), len(seq)
        try:
            interval = parse_interval(text)
        except ValueError as exc:
            return str(exc), len(seq)
        if values(interval.witness(), len(seq)) != seq:
            # A point interval has no interior witness; its one point must
            # still produce the prefix up to the order of tied terms.
            if not (interval.is_point and regenerates_up_to_ties(seq, interval.lo)):
                return f"witness of {text} does not regenerate the prefix", len(seq)
            props["tie_order_point"] = True
        if not corrupted and not interval.contains(theta):
            return f"{text} misses the source theta {theta}", len(seq)
        return None, len(seq)

    return Op("invert", ["invert", path], verify, props)


def trim_op(path: str, seq: list[int], which: str) -> Op:
    reference = reference_upper_trim if which == "--upper" else reference_lower_trim

    def verify(out: bytes, code: int):
        expected = "".join(f"{t}\n" for t in reference(seq)).encode("ascii")
        if code != 0 or out != expected:
            return "output differs from the reference trim", len(seq)
        return None, len(seq)

    return Op("trim", ["trim", which, path], verify)


def _gap(inner: ThetaInterval, outer: ThetaInterval, above: bool):
    """Open interval of outer minus inner on one side, or None."""
    if above:
        if inner.hi is None:
            return None
        hi = outer.hi if outer.hi is not None else inner.hi + 2
        return (inner.hi, hi) if hi > inner.hi else None
    return (outer.lo, inner.lo) if inner.lo > outer.lo else None


def _surd_in(theta: Surd, lo: Fraction, hi: Fraction) -> Optional[Surd]:
    """theta + s for a rational s that puts it strictly inside (lo, hi)."""
    approx = (theta.a + theta.b * math.sqrt(theta.d)) / theta.c
    s = Fraction((lo + hi) / 2 - Fraction(approx)).limit_denominator(10 ** 12)
    cand = Surd.make(theta.a * s.denominator + s.numerator * theta.c,
                     theta.b * s.denominator, theta.d, theta.c * s.denominator)
    if isinstance(cand, Surd) and ThetaInterval(lo, False, hi, False).contains(cand):
        return cand
    return None


def diverge_pair(rng, depth: int, partner: str):
    """A surd and a partner whose signatures first differ in (n_in, depth].

    The partner lies inside the exact interval of the surd's n_in-term
    prefix but outside that of its depth-term prefix, so the first n_in
    terms agree and some term up to ``depth`` differs.
    """
    while True:
        theta = random_surd(rng)
        seq = values(theta, depth)
        iv_depth = theta_interval_from_prefix(seq)
        for frac in (0.9, 0.75, 0.5):
            n_in = max(1, int(frac * depth))
            iv_agree = theta_interval_from_prefix(seq[:n_in])
            above = rng.random() < 0.5
            gap = _gap(iv_depth, iv_agree, above) or _gap(iv_depth, iv_agree, not above)
            if gap is None:
                continue
            other = _surd_in(theta, *gap) if partner == "surd" else (gap[0] + gap[1]) / 2
            if other is not None:
                return theta, other, n_in


def diverge_op(theta, other, limit: int, max_terms: int) -> Op:
    """``limit`` bounds the answer: depth for index ops, --max for NONE ops."""
    def verify(out: bytes, code: int):
        a = brute_force_signature(theta, limit)
        b = brute_force_signature(other, limit)
        first = next((h for h, (x, y) in enumerate(zip(a, b), start=1)
                      if x.value != y.value), None)
        if first is None and limit < max_terms:
            return f"oracle found no divergence within {limit} terms", limit
        expected = f"{first if first is not None else 'NONE'}\n".encode("ascii")
        if code != 0 or out != expected:
            return f"expected {expected!r}", limit
        return None, first if first is not None else max_terms

    argv = ["diverge", "--max", str(max_terms), "--", theta_arg(theta), theta_arg(other)]
    kind = "rational" if isinstance(other, Fraction) else "surd"
    return Op("diverge", argv, verify,
              {"partner": kind, "none": max_terms == limit})


def build_analyze(rng, workdir: Path, passes: int, scale: float = 1.0) -> list[Op]:
    """42 ops a pass: 8 prefix strata over [10^4, 10^5] terms, every odd
    stratum corrupted, each prefix read by check, invert and both trims;
    plus 10 diverge ops with depths over [10^3, 3*10^4], every third one
    stopped by --max before its depth.  Each pass gives a prefix slot a
    fresh parameter of the slot's kind, a fresh length in its stratum and,
    where the stratum is corrupted, a fresh corruption; the diverge ops,
    whose oracle is the costly brute force, repeat."""
    ops = []
    for k in range(8):
        corrupted = k % 2 == 1
        for j in range(passes):
            theta = random_rational(rng, k) if (k // 2) % 2 == 0 else random_surd(rng)
            length = max(20, log_point(4, 5, fine_position(k, 8, j, passes), scale))
            seq = values(theta, length)
            props = {"theta_kind": "rational" if isinstance(theta, Fraction) else "surd",
                     "corrupted": corrupted}
            if corrupted:
                seq, props["corruption"] = corrupt(rng, seq)
            path = workdir / f"prefix{k}_{j}.txt"
            path.write_text("".join(f"{t}\n" for t in seq), encoding="ascii")
            arg = str(path)
            for op in (check_op(arg, seq), invert_op(arg, seq, theta, corrupted),
                       trim_op(arg, seq, "--upper"), trim_op(arg, seq, "--lower")):
                op.props.update(props)
                ops.append(op)
    diverges = []
    for i, depth in enumerate(log_grid(3, math.log10(3e4), 10, scale)):
        depth = max(depth, 20)
        theta, other, n_in = diverge_pair(rng, depth, "rational" if i % 2 == 0 else "surd")
        if i % 3 == 2:
            diverges.append(diverge_op(theta, other, n_in, n_in))
        else:
            diverges.append(diverge_op(theta, other, depth, _DIVERGE_MAX))
    return ops + diverges * passes


# ---------------------------------------------------------------------------
# construct


def _check_sequence(seq: list[int]) -> Optional[str]:
    if not check_doubly_fractal_prefix(seq).ok:
        return "output fails the full-prefix checker"
    interval = theta_interval_from_prefix(seq)
    if interval.is_empty or values(interval.witness(), len(seq)) != seq:
        return f"output does not regenerate from the witness of {interval}"
    return None


def construct_op(n: int, blocks: int, bits: Optional[list[int]], type2: bool) -> Op:
    def verify(out: bytes, code: int):
        seq = _ints(out)
        if code != 0:
            return f"exit code {code}", len(seq)
        if not type2 and seq.count(1) != blocks:
            return f"{seq.count(1)} blocks, expected {blocks}", len(seq)
        return _check_sequence(seq), len(seq)

    argv = ["construct", "--n", str(n), "--blocks", str(blocks)]
    if bits is not None:
        argv += ["--branches", ",".join(map(str, bits))]
    if type2:
        argv.append("--type2")
    return Op("construct", argv, verify,
              {"n": n, "blocks": blocks, "seeded_branches": bits is not None,
               "type2": type2})


def enumerate_op(n: int, blocks: int, type2: bool) -> Op:
    def verify(out: bytes, code: int):
        rows = [line.split("\t") for line in out.decode("ascii").splitlines()]
        total = sum(len(r[1].split()) for r in rows if len(r) == 2)
        if code != 0 or not rows or any(len(r) != 2 for r in rows):
            return "malformed enumeration", total
        if len({bits for bits, _ in rows}) != len(rows):
            return "repeated branch path", total
        for _, terms in rows:
            err = _check_sequence([int(t) for t in terms.split()])
            if err:
                return err, total
        return None, total

    argv = ["construct", "--n", str(n), "--blocks", str(blocks), "--enumerate"]
    return Op("construct", argv + (["--type2"] if type2 else []), verify,
              {"n": n, "blocks": blocks, "enumerate": True, "type2": type2})


def build_construct(rng, workdir: Path, passes: int, scale: float = 1.0) -> list[Op]:
    """18 ops a pass: 16 block strata over [20, 150] with n cycling down
    through 9..2, so the cost, which grows like (n-1) * blocks^3, stays
    within a few times of its top instead of one op dominating the pass;
    even slots on seeded branch bits (one per block), every fourth slot
    --type2; plus two --enumerate ops at small (n, blocks), which repeat.
    Each pass moves a slot to a fresh block count in its stratum and, on
    seeded slots, to fresh branch bits."""
    ops = []
    for k in range(16):
        n = 9 - k % 8
        for j in range(passes):
            u = fine_position(k, 16, j, passes)
            blocks = max(3, round((20 + 130 * u) * math.sqrt(scale)))
            bits = [rng.randint(0, 1) for _ in range(blocks)] if k % 2 == 0 else None
            ops.append(construct_op(n, blocks, bits, type2=k % 4 == 3))
    small = [(2, 14), (5, 10), (3, 12), (4, 11)]
    enumerates = [enumerate_op(n, max(3, round(blocks * math.sqrt(scale))), type2=j == 1)
                  for j, (n, blocks) in enumerate(rng.sample(small, 2))]
    return ops + enumerates * passes


WORKLOADS = {"generate": build_generate, "analyze": build_analyze,
             "construct": build_construct}
