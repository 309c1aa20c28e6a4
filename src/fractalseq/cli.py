"""Command-line front end.

Commands compose over pipes: sequences are read, from a file or stdin
alike, as ASCII whitespace-separated integers and written one per line, so
``fractalseq generate ... | fractalseq check`` works as expected.
``check``, ``invert`` and ``trim`` read the input as it streams, one slice
of ``seqcore.term_slices`` at a time, and parse each slice once, so
``check`` (folding with ``seqcore.check_doubly_fractal_slices``) and
``invert`` hold neither the input nor a list of its terms.  ``trim`` keeps
each slice's output and writes it once the last slice has parsed, so that
an error leaves stdout empty.  ``construct`` writes each piece of
``ramp_pieces`` as it comes, once ``ramp_leaf`` has given a ``--branches``
run's length, so it holds no run either; ``--enumerate`` grows and
writes one row at a time, once ``ramp_leaves`` has given the total
length of them all.
Output is deterministic byte by byte for identical inputs.  Long
outputs go out in chunks of 256 joined lines (``trim``: one per slice),
one write each: with PYTHONUNBUFFERED set, writing line by line costs one
write(2) per line, and larger chunks raise peak memory for no measurable speed.

Exit codes: 0 success, 1 domain error (a failed check, an EMPTY
interval under --expect-nonempty, a ``ConstructionError``), 2 usage
error (any other ``ValueError``: malformed theta, bad counts, unreadable
input, output above the ``FRACTALSEQ_MAX_TERMS`` cap) or unwritable
output; a closed pipe ends quietly with 0, buffered or not.

The grammar is one table, ``_COMMANDS``, with two readers.
``_read_argv`` reads a well-formed argv (the command, each of its options
in full and at most once, exactly its positionals) into the namespace
argparse would give, and never imports argparse: importing it and
building the six subparsers (whose ``HelpFormatter`` loads ``shutil``,
``bz2`` and ``lzma``) cost every command milliseconds and about 0.4 MB
of max-RSS, to read an argv that takes microseconds.  Any other argv
(``--help``, an abbreviation, a repeated option, a usage error) goes to
``_build_parser``, which imports argparse and builds its parser from the
same table, so help, messages and exit codes stay argparse's.

Only ``seqcore`` loads eagerly, as a command is mostly interpreter
start-up.  ``construct`` reads names from ``construction`` as attributes
of this module (``_cli.ramp_pieces``): a name bound here is the one
called, and an unbound one comes from the module ``__getattr__``, which
serves exactly the package's ``__all__`` and loads a name's module on
first use.  ``generate``, ``diverge`` and ``invert`` import private names
of their module when they run, and build no ``Fraction``, so no command
loads ``fractions`` or with it ``decimal`` (about 0.4 MB of max-RSS).
``generate`` and ``diverge`` hold theta as the four integers (a, b, d, c)
of (a + b*sqrt(d))/c: ``signature._theta`` parses it, ``signature._runs``
generates from it and ``signature._diverge`` compares two of them.
``invert`` calls ``inverse._bounds``, the integer fold, and prints through
``inverse._text``, the formatter of ``ThetaInterval.__str__``.
"""
from __future__ import annotations

import os
import sys
from itertools import chain, islice
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional

from .seqcore import (ConstructionError, check_doubly_fractal_slices, lower_trim, parse_terms,
                      positive_int as _positive_int, rank_stream, term_slices, upper_trim)

_cli = sys.modules[__name__]


def __getattr__(name: str):
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)  # loads the module on first use
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_DEFAULT_MAX_TERMS = 10 ** 6
_CHUNK_LINES = 256


def _require_within_cap(terms: int, what: str) -> None:
    raw = os.environ.get("FRACTALSEQ_MAX_TERMS", "")
    try:
        cap = _positive_int(raw) if raw else _DEFAULT_MAX_TERMS
    except ValueError as exc:
        raise ValueError(f"FRACTALSEQ_MAX_TERMS: {exc}") from None
    if terms > cap:
        raise ValueError(f"{what} {terms} exceeds the cap of {cap} "
                         "(override with FRACTALSEQ_MAX_TERMS)")


def _parsed_slices(path: Optional[str]) -> Iterator[list[int]]:
    """The terms of a file or stdin, parsed one slice of ``term_slices`` at a
    time.  A non-ASCII byte anywhere is the error, named at its position in
    the input, so after a bad token the rest is read before its error is raised."""
    bad: Optional[ValueError] = None
    at, stream = 0, None
    try:
        stream = sys.stdin.buffer if path is None or path == "-" else open(path, "rb")
        for part in term_slices(stream):
            try:
                text = part.decode("ascii")
            except UnicodeDecodeError as exc:  # named as the decoder names it in the whole input
                raise ValueError(f"cannot read input: 'ascii' codec can't decode byte 0x"
                                 f"{part[exc.start]:02x} in position {at + exc.start}: "
                                 f"{exc.reason}") from None
            at += len(part)
            if bad is None:
                try:
                    terms = parse_terms(text)
                except ValueError as exc:
                    bad = exc
                else:
                    yield terms
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}") from None
    finally:
        if stream not in (None, sys.stdin.buffer):  # stdin is never closed
            stream.close()
    if bad is not None:
        raise bad


def _parse_branches(text: Optional[str]) -> Optional[list]:
    if text is None:
        return None
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in ("0", "1"):
            raise ValueError(f"branch bits must be 0 or 1, got {tok!r}")
        out.append(_cli.Branch(int(tok)))
    return out


def _emit(lines: Iterable[str]) -> None:
    # sys.stdout is looked up per chunk, so a replaced stream is honoured.
    lines = iter(lines)
    while chunk := "".join(islice(lines, _CHUNK_LINES)):
        sys.stdout.write(chunk)


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_generate(args) -> int:
    _require_within_cap(args.count, "count")
    from .signature import _runs, _theta  # theta as four integers: no Fraction is built
    runs = _runs(*_theta(args.theta))
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
    # Every slice parses before any is written, so that an error leaves stdout empty.
    seen: set[int] = set()
    trimmed = (upper_trim(terms, seen) if args.upper else lower_trim(terms)
               for terms in _parsed_slices(args.input))
    chunks = ["".join([f"{t}\n" for t in part]) for part in trimmed]
    for chunk in filter(None, chunks):
        sys.stdout.write(chunk)
    return 0


def _cmd_check(args) -> int:
    report = check_doubly_fractal_slices(_parsed_slices(args.input))
    print(f"upper_ok: {'true' if report.upper_ok else 'false'}")
    print(f"lower_ok: {'true' if report.lower_ok else 'false'}")
    if report.first_violation_index is not None:
        print(f"first_violation_index: {report.first_violation_index}")
    return 0 if report.ok else 1


def _cmd_construct(args) -> int:
    branches = _parse_branches(args.branches)
    if args.n < 2:
        raise ValueError(f"need --n >= 2, got {args.n}")
    # The leaves name every run without growing one; the first is the shortest.
    leaves = _cli.ramp_leaves(args.n, args.blocks)
    least = next(leaves)[1]
    _require_within_cap(least, f"--n {args.n} and --blocks {args.blocks}: least run length")

    if args.enumerate:
        _require_within_cap(least + sum(length for _, length in leaves),
                            "--enumerate: total length")
        runs = (_cli.construct_ramp_state(args.n, args.blocks, path)
                for path, _ in _cli.ramp_leaves(args.n, args.blocks))
        rows = ((",".join(str(b.value) for b in run.branch_log) or "-",
                 rank_stream(run.terms) if args.type2 else run.terms) for run in runs)
        _emit(f"{bits}\t{' '.join(map(str, terms))}\n" for bits, terms in rows)
        return 0

    if branches is not None:  # the leaf names the run's choices and length, growing nothing
        branches, length = _cli.ramp_leaf(args.n, args.blocks, branches)
        _require_within_cap(length, f"--n {args.n} and --blocks {args.blocks}: run length")
    pieces = _cli.ramp_pieces(args.n, args.blocks, branches)
    if args.type2:
        counts: dict[int, int] = {}
        pieces = (rank_stream(piece, counts) for piece in pieces)
    _emit(f"{t}\n" for t in chain.from_iterable(pieces))
    return 0


def _cmd_invert(args) -> int:
    # The fold's integers and their text: no Fraction, so neither fractions nor decimal loads.
    from .inverse import _bounds, _text
    bounds = _bounds(chain.from_iterable(_parsed_slices(args.input)))
    print(_text(bounds))
    return 1 if args.expect_nonempty and bounds is None else 0


def _cmd_diverge(args) -> int:
    _require_within_cap(args.max, "--max")
    from .signature import _diverge, _theta
    index = _diverge(_theta(args.theta1), _theta(args.theta2), args.max)
    print(index if index is not None else "NONE")
    return 0


# ---------------------------------------------------------------------------
# Grammar

# Per command: its handler, its help and its arguments in --help order, each
# as add_argument's name and keywords, plus "group" naming a mutually
# exclusive group, which is required when its members are.
_INPUT = ("input", {"nargs": "?", "help": "file, or - for stdin"})
_COMMANDS = {
    "generate": (_cmd_generate, "emit the signature of an exact theta", [
        ("--theta", {"required": True,
                     "help": "exact parameter: 7, 13/2, sqrt(13), (1+2*sqrt(5))/3"}),
        ("--count", {"type": _positive_int, "required": True}),
        ("--ranks", {"action": "store_true", "group": "format",
                     "help": "print 'value rank' instead of just values"}),
        ("--json", {"action": "store_true", "group": "format",
                    "help": 'JSON lines {"index":h,"value":s,"rank":a}'}),
        ("--bfile", {"action": "store_true", "group": "format",
                     "help": "OEIS b-file lines 'index value'"}),
    ]),
    "trim": (_cmd_trim, "apply one trimming operator", [
        ("--upper", {"action": "store_true", "group": "which", "required": True,
                     "help": "drop the first occurrence of every value"}),
        ("--lower", {"action": "store_true", "group": "which", "required": True,
                     "help": "subtract 1 everywhere and drop zeros"}),
        _INPUT,
    ]),
    "check": (_cmd_check, "doubly-fractal prefix report", [_INPUT]),
    "construct": (_cmd_construct, "build a sequence block by block", [
        ("--n", {"type": _positive_int, "required": True, "help": "number of main terms (>= 2)"}),
        ("--blocks", {"type": _positive_int, "default": 5}),
        ("--branches", {"group": "runs",
                        "help": "comma-separated fork choices, 0=one-first 1=fresh-first"}),
        ("--type2", {"action": "store_true",
                     "help": "emit the ones-seeded variant (rank translation)"}),
        ("--enumerate", {"action": "store_true", "group": "runs",
                         "help": "emit every branch outcome as 'bits<TAB>terms'"}),
    ]),
    "invert": (_cmd_invert, "recover the consistent theta interval", [
        _INPUT,
        ("--expect-nonempty", {"action": "store_true",
                               "help": "exit 1 when the interval is EMPTY"}),
    ]),
    "diverge": (_cmd_diverge, "first index where two signatures differ", [
        ("theta1", {}),
        ("theta2", {}),
        ("--max", {"type": _positive_int, "default": 1000}),
    ]),
}


def _read_argv(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives ``argv`` when ``argv`` is well formed, else None.

    Well formed: a command name, then its options spelled in full, each at
    most once, as ``--opt value`` with a value not starting with '-' or as
    ``--opt=value`` (a flag bare); exactly its positionals, '-' among them;
    at most one ``--``, with only positionals after it and, as argparse
    requires, one still to come before it; every required option, and at
    most one option of a group.  A value that ``_positive_int`` refuses is
    not well formed either, so that argparse words every error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    options = {name: spec for name, spec in arguments if name.startswith("-")}
    slots = [spec for name, spec in arguments if name not in options]
    given: dict[str, object] = {}
    values: list[str] = []
    taken = 0  # positionals read before the last option
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            values += tokens
            if taken == len(slots) or "--" in values:
                return None
        elif token.startswith("-") and token != "-":
            name, eq, value = token.partition("=")
            spec = options.get(name)
            if spec is None or name in given or eq and "action" in spec:
                return None
            if not eq and "action" not in spec:
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
            try:
                given[name] = True if "action" in spec else spec.get("type", str)(value)
            except ValueError:
                return None
            taken = len(values)
        else:
            values.append(token)
    groups = [options[name]["group"] for name in given if "group" in options[name]]
    if (not sum("nargs" not in spec for spec in slots) <= len(values) <= len(slots)
            or len(groups) > len(set(groups))
            or any(spec.get("required") and name not in given and spec.get("group") not in groups
                   for name, spec in options.items())):
        return None
    fill = iter(values)
    args = {"command": argv[0], "func": func}
    for name, spec in arguments:
        if name in options:
            default = False if "action" in spec else spec.get("default")
            args[name.lstrip("-").replace("-", "_")] = given.get(name, default)
        else:
            args[name] = next(fill, None)
    return SimpleNamespace(**args)


def _build_parser():
    """The ``argparse.ArgumentParser`` of ``_COMMANDS``, which reads every argv
    that ``_read_argv`` does not: --help, abbreviations and usage errors."""
    import argparse

    def positive_int(text):
        try:
            return _positive_int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None

    class Parser(argparse.ArgumentParser):  # the subparsers' class too
        def print_help(self, file=None):
            # argparse's own write drops an OSError; this one reaches main.
            (file or sys.stdout).write(self.format_help())

    parser = Parser(
        prog="fractalseq",
        description="Signature sequences, trimming operators, block "
                    "constructions, and parameter recovery.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        groups = {}
        for name, spec in arguments:
            kwargs = dict(spec)
            if kwargs.get("type") is _positive_int:
                kwargs["type"] = positive_int
            holder = p
            if "group" in kwargs:
                required, group = kwargs.pop("required", False), kwargs.pop("group")
                if group not in groups:
                    groups[group] = p.add_mutually_exclusive_group(required=required)
                holder = groups[group]
            holder.add_argument(name, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _read_argv(argv) or _build_parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()  # output still buffered would fail at exit, past these handlers
        return code
    except ValueError as exc:  # a ConstructionError is a domain error, any other a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConstructionError) else 2
    except OSError as exc:  # only writing stdout raises it: input errors are ValueErrors
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        # What the failed write left buffered is flushed again at exit: send it nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0 if isinstance(exc, BrokenPipeError) else 2


if __name__ == "__main__":
    sys.exit(main())
