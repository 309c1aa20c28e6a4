"""Command-line front end.

Commands compose over pipes: sequences are read, from a file or stdin
alike, as ASCII whitespace-separated integers and written one per line, so
``fractalseq generate ... | fractalseq check`` works as expected.
``check``, ``invert`` and ``trim`` read the input as bytes and fold over
it slice by slice (``seqcore.term_slices``), calling ``parse_terms`` once
per slice, so none of them holds a list of every term.  ``trim`` writes
as it goes only when a scan of the bytes has shown that no slice can
fail to parse; otherwise it parses everything first, so that an error
leaves stdout empty.
Output is deterministic byte by byte for identical inputs.  Long
outputs go out in chunks of 256 joined lines, one write each: with
PYTHONUNBUFFERED set, writing line by line costs one write(2) per line,
and larger chunks raise peak memory for no measurable speed.

Exit codes: 0 success, 1 domain error (a failed check, an EMPTY
interval under --expect-nonempty, a ``ConstructionError``), 2 usage
error (any other ``ValueError``: malformed theta, bad counts, unreadable
input, output above the ``FRACTALSEQ_MAX_TERMS`` cap).

Only ``seqcore`` loads eagerly, as a command is mostly interpreter
start-up.  ``main`` binds a command's names from ``_COMMAND_NAMES`` just
before it runs it and keeps a name already bound: perfbench/tracer.py
reads them through the module ``__getattr__`` and rebinds them first.
The tracer's wrappers take lists, so a fold over slices is handed to the
package's own binding of a name instead.
"""
from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice
from typing import Iterable, Iterator, Optional

# check_doubly_fractal_prefix is here only for the tracer.
from .seqcore import (ASCII_SPACE, ConstructionError, PrefixChecker,
                      check_doubly_fractal_prefix, lower_trim, parse_terms, rank_stream,
                      term_slices, upper_trim)

# What each command takes from construction, inverse and signature;
# generate_signature, construct_ones and theta_interval_from_prefix are
# here only for the tracer.
_COMMAND_NAMES = {
    "generate": ("generate_signature", "parse_theta", "signature_runs"),
    "construct": ("Branch", "construct_ones", "construct_ramp_state", "enumerate_ramp"),
    "invert": ("theta_interval_from_prefix",),
    "diverge": ("first_divergence", "parse_theta"),
}


def __getattr__(name: str):
    if any(name in names for names in _COMMAND_NAMES.values()):
        return getattr(sys.modules[__package__], name)  # loads the module on first use
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_DEFAULT_MAX_TERMS = 10 ** 6
_CHUNK_LINES = 256


def _require_within_cap(terms: int, what: str) -> None:
    raw = os.environ.get("FRACTALSEQ_MAX_TERMS", "")
    try:
        cap = _positive_int(raw) if raw else _DEFAULT_MAX_TERMS
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"FRACTALSEQ_MAX_TERMS: {exc}") from None
    if terms > cap:
        raise ValueError(f"{what} {terms} exceeds the cap of {cap} "
                         "(override with FRACTALSEQ_MAX_TERMS)")


def _positive_int(text: str) -> int:
    try:
        if not text.isascii() or "_" in text:  # int() also reads '1_0' and non-ASCII digits
            raise ValueError
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _read_input(path: Optional[str]) -> bytes:
    try:
        if path is None or path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        if not data.isascii():
            data.decode("ascii")  # raises, naming the first non-ASCII byte
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read input: {exc}") from None
    return data


def _parsed_slices(data: bytes) -> Iterator[list[int]]:
    return (parse_terms(part.decode("ascii")) for part in term_slices(data))


# A token of 639 or more digits fills a whole aligned block; int() may refuse
# any token above 640 digits, the least limit Python allows it.
_DIGIT_BLOCK = 320


def _parses_cleanly(data: bytes) -> bool:
    """True when every token is a digit 1-9 and fewer than 639 more digits,
    so that no slice of ``data`` can fail to parse.  Each scan runs in C;
    the block test makes one call per block."""
    return (not data.translate(None, b"0123456789" + ASCII_SPACE)
            and not data.startswith(b"0")
            and not any(bytes((c, 48)) in data for c in ASCII_SPACE if c in data)
            and not any(data[k:k + _DIGIT_BLOCK].isdigit()
                        for k in range(0, len(data) - _DIGIT_BLOCK + 1, _DIGIT_BLOCK)))


def _parse_branches(text: Optional[str]) -> Optional[list[Branch]]:
    if text is None:
        return None
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in ("0", "1"):
            raise ValueError(f"branch bits must be 0 or 1, got {tok!r}")
        out.append(Branch(int(tok)))
    return out


def _branch_bits(log) -> str:
    return ",".join(str(b.value) for b in log) if log else "-"


def _emit(lines: Iterable[str]) -> None:
    # sys.stdout is looked up per chunk, so a replaced stream is honoured.
    lines = iter(lines)
    while chunk := "".join(islice(lines, _CHUNK_LINES)):
        sys.stdout.write(chunk)


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_generate(args) -> int:
    _require_within_cap(args.count, "count")
    runs = signature_runs(parse_theta(args.theta))
    terms = islice(chain.from_iterable(zip(v, r) for v, r in runs), args.count)
    if args.json:
        _emit(f'{{"index":{h},"value":{v},"rank":{r}}}\n'
              for h, (v, r) in enumerate(terms, start=1))
    elif args.bfile:
        _emit(f"{h} {v}\n" for h, (v, _) in enumerate(terms, start=1))
    elif args.ranks:
        _emit(f"{v} {r}\n" for v, r in terms)
    else:
        _emit(f"{v}\n" for v, _ in terms)
    return 0


def _cmd_trim(args) -> int:
    data = _read_input(args.input)
    if _parses_cleanly(data):
        slices = _parsed_slices(data)
    else:  # such as '+5' or '007': parse all of it before writing anything
        slices = [parse_terms(data.decode("ascii"))]
    seen: set[int] = set()
    _emit(chain.from_iterable(
        [f"{t}\n" for t in (upper_trim(terms, seen) if args.upper else lower_trim(terms))]
        for terms in slices))
    return 0


def _cmd_check(args) -> int:
    checker = PrefixChecker()
    for terms in _parsed_slices(_read_input(args.input)):
        checker.feed(terms)
    report = checker.report()
    print(f"upper_ok: {'true' if report.upper_ok else 'false'}")
    print(f"lower_ok: {'true' if report.lower_ok else 'false'}")
    if report.first_violation_index is not None:
        print(f"first_violation_index: {report.first_violation_index}")
    return 0 if report.ok else 1


def _cmd_construct(args) -> int:
    branches = _parse_branches(args.branches)
    if args.n < 2:
        raise ValueError(f"need --n >= 2, got {args.n}")
    # Block j holds at least 1 + (n-1)*j terms, so no run that fits is refused.
    _require_within_cap(args.blocks + (args.n - 1) * args.blocks * (args.blocks + 1) // 2,
                        f"--n {args.n} and --blocks {args.blocks}: least run length")

    if args.enumerate:
        rows = enumerate_ramp(args.n, args.blocks)
        _require_within_cap(sum(len(terms) for _, terms in rows), "--enumerate: total length")
        if args.type2:
            rows = ((log, rank_stream(terms)) for log, terms in rows)
        _emit(f"{_branch_bits(log)}\t{' '.join(map(str, terms))}\n" for log, terms in rows)
        return 0

    terms = construct_ramp_state(args.n, args.blocks, branches).terms
    if args.type2:
        terms = rank_stream(terms)
    _emit(f"{t}\n" for t in terms)
    return 0


def _cmd_invert(args) -> int:
    terms = chain.from_iterable(_parsed_slices(_read_input(args.input)))
    first = next(terms, None)
    if first is None:
        raise ValueError("cannot invert an empty sequence")
    # The package's binding: the tracer wraps this module's name for lists only.
    fold = __getattr__("theta_interval_from_prefix")
    interval = fold(chain((first,), terms))
    print(interval)
    if args.expect_nonempty and interval.is_empty:
        return 1
    return 0


def _cmd_diverge(args) -> int:
    _require_within_cap(args.max, "--max")
    index = first_divergence(parse_theta(args.theta1), parse_theta(args.theta2), args.max)
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
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--ranks", action="store_true",
                     help="print 'value rank' instead of just values")
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
    runs = p.add_mutually_exclusive_group()  # apart, so --help keeps its order
    runs.add_argument("--branches", default=None,
                      help="comma-separated fork choices, 0=one-first 1=fresh-first")
    p.add_argument("--type2", action="store_true",
                   help="emit the ones-seeded variant (rank translation)")
    runs.add_argument("--enumerate", action="store_true",
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
    for name in _COMMAND_NAMES.get(args.command, ()):
        globals().setdefault(name, __getattr__(name))  # keeps a traced rebinding
    try:
        return args.func(args)
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
