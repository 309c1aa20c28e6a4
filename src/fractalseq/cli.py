"""Command-line front end.

Commands compose over pipes: sequences are read as whitespace-separated
integers from a file or stdin and written one term per line, so
``fractalseq generate ... | fractalseq check`` works as expected.
Output is deterministic byte by byte for identical inputs.

Exit codes: 0 success, 1 domain error (a failed check, an EMPTY
interval under --expect-nonempty, an impossible construction), 2 usage
error (malformed theta, bad counts, unreadable input).
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

# construct_ones is unused here; perfbench/tracer.py looks up cli.construct_ones.
from .construction import (Branch, ConstructionError, construct_ramp_state,
                           construct_ones, enumerate_ramp)
from .inverse import first_divergence, theta_interval_from_prefix
from .seqcore import (check_doubly_fractal_prefix, lower_trim, parse_terms,
                      rank_stream, upper_trim)
from .signature import generate_signature, parse_theta

_DEFAULT_MAX_TERMS = 10 ** 6


def _max_terms() -> int:
    raw = os.environ.get("FRACTALSEQ_MAX_TERMS", "")
    if not raw:
        return _DEFAULT_MAX_TERMS
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"FRACTALSEQ_MAX_TERMS: {exc}") from None


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


class _UsageError(Exception):
    pass


def _read_terms(path: Optional[str]) -> list[int]:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read input: {exc}") from None
    try:
        return parse_terms(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_branches(text: Optional[str]) -> Optional[list[Branch]]:
    if text is None:
        return None
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in ("0", "1"):
            raise _UsageError(f"branch bits must be 0 or 1, got {tok!r}")
        out.append(Branch(int(tok)))
    return out


def _branch_bits(log) -> str:
    return ",".join(str(b.value) for b in log) if log else "-"


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_generate(args) -> int:
    cap = _max_terms()
    if args.count > cap:
        raise _UsageError(f"count {args.count} exceeds the cap of {cap} "
                          "(override with FRACTALSEQ_MAX_TERMS)")
    try:
        theta = parse_theta(args.theta)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    terms = generate_signature(theta, args.count)
    out = sys.stdout
    if args.json:
        out.writelines(f'{{"index":{h},"value":{v},"rank":{r}}}\n'
                       for h, (v, r) in enumerate(terms, start=1))
    elif args.bfile:
        out.writelines(f"{h} {v}\n" for h, (v, _) in enumerate(terms, start=1))
    elif args.ranks:
        out.writelines(f"{v} {r}\n" for v, r in terms)
    else:
        out.writelines(f"{v}\n" for v, _ in terms)
    return 0


def _cmd_trim(args) -> int:
    terms = _read_terms(args.input)
    out = upper_trim(terms) if args.upper else lower_trim(terms)
    sys.stdout.writelines(f"{t}\n" for t in out)
    return 0


def _cmd_check(args) -> int:
    terms = _read_terms(args.input)
    report = check_doubly_fractal_prefix(terms)
    print(f"upper_ok: {'true' if report.upper_ok else 'false'}")
    print(f"lower_ok: {'true' if report.lower_ok else 'false'}")
    if report.first_violation_index is not None:
        print(f"first_violation_index: {report.first_violation_index}")
    return 0 if report.ok else 1


def _cmd_construct(args) -> int:
    branches = _parse_branches(args.branches)
    if args.enumerate and branches is not None:
        raise _UsageError("--enumerate and --branches are mutually exclusive")
    if args.n < 2:
        raise _UsageError(f"need --n >= 2, got {args.n}")
    cap = _max_terms()
    if args.n * args.blocks > cap:  # every block holds 1..n
        raise _UsageError(f"--n {args.n} times --blocks {args.blocks} exceeds the cap "
                          f"of {cap} (override with FRACTALSEQ_MAX_TERMS)")

    if args.enumerate:
        for log, terms in enumerate_ramp(args.n, args.blocks):
            if args.type2:
                terms = rank_stream(terms)
            print(f"{_branch_bits(log)}\t{' '.join(map(str, terms))}")
        return 0

    terms = construct_ramp_state(args.n, args.blocks, branches).terms
    if args.type2:
        terms = rank_stream(terms)
    sys.stdout.writelines(f"{t}\n" for t in terms)
    return 0


def _cmd_invert(args) -> int:
    terms = _read_terms(args.input)
    if not terms:
        raise _UsageError("cannot invert an empty sequence")
    interval = theta_interval_from_prefix(terms)
    print(interval)
    if args.expect_nonempty and interval.is_empty:
        return 1
    return 0


def _cmd_diverge(args) -> int:
    cap = _max_terms()
    if args.max > cap:
        raise _UsageError(f"--max {args.max} exceeds the cap of {cap} "
                          "(override with FRACTALSEQ_MAX_TERMS)")
    try:
        t1, t2 = parse_theta(args.theta1), parse_theta(args.theta2)
        index = first_divergence(t1, t2, args.max)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(index if index is not None else "NONE")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalseq",
        description="Signature sequences, trimming operators, block "
                    "constructions, and parameter recovery.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit the signature of an exact theta")
    p.add_argument("--theta", required=True,
                   help="exact parameter: 7, 13/2, sqrt(13), (1+2*sqrt(5))/3")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--ranks", action="store_true",
                   help="print 'value rank' instead of just values")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help='JSON lines {"index":h,"value":s,"rank":a}')
    fmt.add_argument("--bfile", action="store_true",
                     help="OEIS b-file lines 'index value'")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("trim", help="apply one trimming operator")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--upper", action="store_true",
                       help="drop the first occurrence of every value")
    which.add_argument("--lower", action="store_true",
                       help="subtract 1 everywhere and drop zeros")
    p.add_argument("input", nargs="?", default=None, help="file, or - for stdin")
    p.set_defaults(func=_cmd_trim)

    p = sub.add_parser("check", help="doubly-fractal prefix report")
    p.add_argument("input", nargs="?", default=None, help="file, or - for stdin")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="build a sequence block by block")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="number of main terms (>= 2)")
    p.add_argument("--blocks", type=_positive_int, default=5)
    p.add_argument("--branches", default=None,
                   help="comma-separated fork choices, 0=one-first 1=fresh-first")
    p.add_argument("--type2", action="store_true",
                   help="emit the ones-seeded variant (rank translation)")
    p.add_argument("--enumerate", action="store_true",
                   help="emit every branch outcome as 'bits<TAB>terms'")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("invert", help="recover the consistent theta interval")
    p.add_argument("input", nargs="?", default=None, help="file, or - for stdin")
    p.add_argument("--expect-nonempty", action="store_true",
                   help="exit 1 when the interval is EMPTY")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("diverge", help="first index where two signatures differ")
    p.add_argument("theta1")
    p.add_argument("theta2")
    p.add_argument("--max", type=_positive_int, default=1000)
    p.set_defaults(func=_cmd_diverge)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
