"""Byte parity of the ``fractalseq`` CLI between this checkout and a base tree.

    python tools/parity.py --base REV [--quick]
    python tools/parity.py --base-src DIR [--quick]

One fixed, seeded corpus of command lines, environments and inputs runs
against the ``src`` of this checkout and against a base: ``--base REV``
checks REV out with ``git worktree add`` under ``tools/work/`` and removes
the worktree afterwards; ``--base-src DIR`` takes a ``src`` directory as it
is.  Each case runs as ``python -m fractalseq`` with ``PYTHONPATH`` set to
the tree's ``src``, and its stdout, stderr and exit code must be equal byte
for byte.  Every case that reads term input runs once more in process with
``seqcore._SLICE_CHARS = 16`` (through ``python -c``), so that tokens span
many reads.  The runner prints the number of cases and runs, then the first
run that differs with a unified diff, and exits 1 if any run differs.
``--quick`` runs a small subset of the corpus.

The input prefixes are generated here from the definition, apart from the
package: a surd is replaced by a rational within 10^-20 of it, which orders
the pairs of a few thousand terms the same way.
"""
from __future__ import annotations

import argparse
import difflib
import os
import random
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
SMALL_SLICES = ("import sys; from fractalseq import cli, seqcore; "
                "seqcore._SLICE_CHARS = 16; sys.exit(cli.main())")


class Case(NamedTuple):
    argv: tuple[str, ...]
    input: Optional[str] = None  # a key of the inputs
    via: Optional[str] = None  # "stdin", "file" or "missing"
    env: tuple[tuple[str, str], ...] = ()  # FRACTALSEQ_MAX_TERMS, when set
    quick: bool = False

    def label(self) -> str:
        argv = [a if len(a) <= 40 else f"{a[:8]}...<{len(a)} chars>" for a in self.argv]
        env = [f"{k}={shlex.quote(v[:40])}" for k, v in self.env]
        where = {"stdin": f"< {self.input}", "file": f"{self.input}.txt",
                 "missing": "missing.txt"}.get(self.via, "")
        return " ".join(env + ["fractalseq", shlex.join(argv), where]).strip()


def signature(theta: Fraction, count: int) -> list[int]:
    """The first ``count`` terms of the signature of ``theta``: the i of each
    pair (i, j) of positive integers in increasing order of i + j*theta,
    the larger i first on a tie."""
    p, q = theta.numerator, theta.denominator
    bound = p + q
    while True:  # every pair with i*q + j*p <= bound, until there are enough
        pairs = [(i * q + j * p, -i) for j in range(1, (bound - q) // p + 1)
                 for i in range(1, (bound - j * p) // q + 1)]
        if len(pairs) >= count:
            return [-i for _, i in sorted(pairs)[:count]]
        bound *= 2


def surd(a: int, b: int, d: int, c: int) -> Fraction:
    """(a + b*sqrt(d))/c, within 10^-20."""
    return Fraction(a * 10 ** 20 + b * isqrt(d * 10 ** 40), c * 10 ** 20)


def lines(terms: list[int]) -> bytes:
    return "".join(f"{t}\n" for t in terms).encode()


def build_inputs(rng: random.Random) -> dict[str, bytes]:
    sqrt13 = signature(surd(0, 1, 13, 1), 30000)
    prefixes = {"sqrt13-1000": sqrt13[:1000], "7over2-500": signature(Fraction(7, 2), 500),
                "golden-2000": signature(surd(1, 1, 5, 2), 2000)}
    inputs = {f"sqrt13-{n}": lines(sqrt13[:n]) for n in (1, 2, 5, 40, 30000)}
    inputs.update({name: lines(terms) for name, terms in prefixes.items()})
    inputs["golden-2000"] = " ".join(map(str, prefixes["golden-2000"])).encode() + b"\n"
    inputs["1over7-300"] = lines(signature(Fraction(1, 7), 300))
    inputs["sqrt2over1000-400"] = lines(signature(surd(0, 1, 2, 1000), 400))
    n = 5  # the ramp seed and its second block, in closed form
    inputs["ramp-5"] = lines([*range(1, n + 1), 1,
                              *(v for i in range(1, n) for v in (n + i, i + 1))])
    inputs.update({  # one per shape of interval and per route to EMPTY, as invert prints it
        "interval-open-lo": b"1 1\n", "interval-closed": b"1 1 2\n", "interval-point": b"1 2 1 2\n",
        "empty-frontier-tie": b"2\n", "empty-adjacency-tie": b"2 1\n", "empty-crossed": b"2 2\n",
        "ramp-3000-unbounded": lines(list(range(1, 3001)))})
    for name, terms in prefixes.items():  # faulty prefixes, at seeded places
        k = rng.randrange(1, len(terms) - 1)
        while terms[k] == terms[k + 1]:
            k += 1
        swapped = terms[:k] + [terms[k + 1], terms[k]] + terms[k + 2:]
        k = rng.randrange(len(terms))
        bumped = terms[:k] + [terms[k] + 1] + terms[k + 1:]
        a = rng.randrange(1, 4)
        relabel = {a: a + 1, a + 1: a}
        inputs[f"{name}-swap"] = lines(swapped)
        inputs[f"{name}-bump"] = lines(bumped)
        inputs[f"{name}-relabel"] = lines([relabel.get(t, t) for t in terms])
        inputs[f"{name}-odd"] = lines([2 * t - 1 for t in terms])
    inputs.update({
        "empty": b"", "blank": b" \n\t \r\n\x0b\x0c", "crlf": b"1\r\n2\r\n1\r\n3\r\n",
        "no-newline": b"1 2 1 3", "fs-separators": b"1\x1c2\x1d3\x1e4\x1f1 5\n",
        "plus": b"+1 2 3 4 +1 5\n", "leading-zeros": b"1 2 3 4 1 5 2 6 3 007 4\n",
        "nul": b"1 2\x00 1 3\n", "zero": b"1 2 0 3\n", "negative": b"1 -2\n",
        "underscore": b"1 1_0\n", "decimal": b"1 2.0\n", "nbsp": "1\u00a02\n".encode(),
        "non-ascii-then-bad": b"1 \xff 2 x\n", "bad-then-non-ascii": b"1 x 2 \xff\n",
        "digits-4300": b"1 " + b"9" * 4300 + b"\n", "digits-4301": b"1 " + b"9" * 4301 + b"\n",
        "late-bad": lines(sqrt13) + b"x\n", "late-non-ascii": lines(sqrt13) + b"\xc3\xa9\n",
    })
    return inputs


# Strings that every integer the program reads, wherever it comes from, keeps one rule for.
INTEGER_STRINGS = ["5", "+5", "007", "0", "-3", "1_0", "\u0663", "\uff15", "x", "1.0", "0x5",
                   "", "9" * 4301]
INPUT_COMMANDS = [("check",), ("invert",), ("invert", "--expect-nonempty"), ("trim", "--upper"),
                  ("trim", "--lower")]
QUICK_INPUTS = [("sqrt13-40", ("check",), "stdin"), ("plus", ("trim", "--lower"), "stdin"),
                ("7over2-500-swap", ("invert", "--expect-nonempty"), "file")]


def build_corpus(rng: random.Random, inputs: dict[str, bytes]) -> list[Case]:
    """Every case, in a fixed order; adds the integer strings' inputs to ``inputs``."""
    cases = []
    for name in inputs:
        for command, via in [(c, "stdin") for c in INPUT_COMMANDS] + [
                (c, "file") for c in INPUT_COMMANDS[::2]]:
            cases.append(Case(command, name, via, quick=(name, command, via) in QUICK_INPUTS))
    cases += [Case(command, via="missing", quick=command == ("check",))
              for command in INPUT_COMMANDS]
    for text in INTEGER_STRINGS:
        name = "token " + (ascii(text) if len(text) < 20 else f"'{text[0]}' * {len(text)}")
        inputs[name] = f"1 2 3 4 {text}\n".encode()
        cases.append(Case(("check",), name, "stdin"))
        cases += [Case(("generate", "--theta", "2", f"--count={text}"), quick=text == "1_0"),
                  Case(("construct", "--n", "3", f"--blocks={text}")),
                  Case(("diverge", "2", "3", f"--max={text}")),
                  Case(("generate", "--theta", "2", "--count", "6"),
                       env=(("FRACTALSEQ_MAX_TERMS", text),))]

    formats = [(), ("--ranks",), ("--json",), ("--bfile",)]
    for theta in ["sqrt(13)", "7/2", "(1+sqrt(5))/2", "1/7", "7", "13/2", "(1+2*sqrt(5))/3",
                  "3*sqrt(2)", "1+sqrt(2)", "sqrt(13)/2"]:
        for fmt in formats:
            for count in (1, rng.randint(2, 400)):
                cases.append(Case(("generate", "--theta", theta, "--count", str(count), *fmt),
                                  quick=(theta, fmt, count) == ("sqrt(13)", ("--json",), 1)))
    for theta in ["1000000", "1/1000", "1/1000000", "sqrt(2)/1000000", "9" * 4000,
                  "1/" + "9" * 4000]:
        for count in (3, 300):
            cases.append(Case(("generate", "--theta", theta, "--count", str(count))))
    cases.append(Case(("generate", "--theta", "sqrt(" + "1" + "0" * 38 + "121)", "--count", "3")))
    for theta in ["abc", "0", "-1", "1.5", "sqrt(-2)", "1/0", "sqrt(4)", "", "(1+sqrt(5))/0",
                  "sqrt(13)/2/3", "1+sqrt(2)/3"]:
        cases.append(Case(("generate", "--theta", theta, "--count", "5")))
    # Signs, spaces, square radicands that collapse to rationals, and values that are not
    # positive, however written.
    for theta in ["+7", " 13 / 2 ", "(1+sqrt(9))/2", "2*sqrt(9)/3", "(-1+sqrt(2))/1",
                  "(3-sqrt(9))/2", "(6-2*sqrt(9))/4", "sqrt(0)", "-7/2"]:
        cases.append(Case(("generate", f"--theta={theta}", "--count", "6")))

    for n in ("2", "3", "4", "5"):
        for blocks in ("1", "2", "3", "6"):
            cases.append(Case(("construct", "--n", n, "--blocks", blocks)))
    cases += [Case(("construct", "--n", "4")), Case(("construct", "--n", "1")),
              Case(("construct", "--n", "2", "--blocks", "300")),
              Case(("construct", "--n", "2", "--blocks", "30", "--type2"))]
    for n, blocks, bits in [("4", "5", "0,1"), ("3", "6", "1,0,1,1"), ("2", "8", "0,0,0,0,0,0"),
                            ("3", "7", "0"), ("3", "5", "0,1,1,1,1,1"), ("4", "5", "2"),
                            ("4", "5", "0, 1"), ("4", "5", "")]:
        for type2 in ((), ("--type2",)):
            cases.append(Case(("construct", "--n", n, "--blocks", blocks, "--branches", bits,
                               *type2), quick=(bits, type2) == ("0,1", ())))
    # A run of 691,793 terms named by a 16-choice leaf, and a list one choice short of its
    # leaf near the cap, which exits 1 before anything is written.
    cases += [Case(("construct", "--n", "2", "--blocks", "1000", "--branches",
                    ",".join(["0,1"] * 8), *type2)) for type2 in ((), ("--type2",))]
    cases.append(Case(("construct", "--n", "2", "--blocks", "1400", "--branches",
                       ",".join("0" * 1397))))
    for n, blocks in [("3", "4"), ("3", "6"), ("2", "8"), ("4", "1")]:
        for type2 in ((), ("--type2",)):
            cases.append(Case(("construct", "--n", n, "--blocks", blocks, "--enumerate", *type2),
                              quick=(n, blocks, type2) == ("3", "4", ())))
    # Refused by the total of their rows, and accepted with 938,012 terms in 604 rows.
    cases += [Case(("construct", "--n", "2", "--blocks", blocks, "--enumerate"))
              for blocks in ("60", "100")]
    cases += [Case(("construct", "--n", "2", "--blocks", "45", "--enumerate", *type2))
              for type2 in ((), ("--type2",))]

    for pair in [("sqrt(13)", "7/2"), ("sqrt(2)", "3/2"), ("2", "3"), ("1/7", "1/8"),
                 ("(1+sqrt(5))/2", "8/5"), ("sqrt(8)", "2*sqrt(2)"), ("7/2", "14/4"),
                 ("sqrt(2)", "sqrt(3)"), ("sqrt(13)", "abc"), ("sqrt(4)", "2"),
                 ("(1+sqrt(9))/2", "2"), ("sqrt(12)", "2*sqrt(3)"), ("1/7", "2/14"),
                 ("sqrt(2)", "(2+sqrt(2))/2")]:
        cases.append(Case(("diverge", *pair), quick=pair == ("sqrt(13)", "7/2")))
    cases += [Case(("diverge", "sqrt(13)", "3605551/1000000", "--max", "1000")),
              Case(("diverge", "sqrt(13)", "7/2", "--max", "56")),
              Case(("diverge", "sqrt(13)", "7/2", "--max=57"))]

    cases += [Case(argv) for argv in [
        ("--help",), ("-h",), (), ("frobnicate",), ("generate", "--cou", "3", "--theta", "2"),
        ("generate", "--theta", "2", "--count", "3", "--count", "4"),
        ("construct", "--n", "3", "--n", "4"), ("generate", "--theta=2", "--count=3"),
        ("diverge", "--", "2", "3"), ("diverge", "2", "--", "3"), ("diverge", "--", "--", "3"),
        ("generate", "--theta", "2"), ("trim",), ("trim", "--upper", "--lower"),
        ("check", "a", "b"), ("construct", "--blocks", "3"), ("invert", "--bogus"),
        ("diverge", "2"), ("generate", "--theta", "2", "--count", "3", "--ranks", "--json"),
        ("construct", "--n", "4", "--enumerate", "--branches", "0")]]
    cases += [Case((command, "--help"), quick=command == "construct") for command in
              ("generate", "trim", "check", "construct", "invert", "diverge")]

    capped = [(("generate", "--theta", "2", "--count", "1000001"), None),
              (("generate", "--theta", "2", "--count", "10"), "10"),
              (("generate", "--theta", "2", "--count", "11"), "10"),
              (("construct", "--n", "3", "--blocks", "3"), "14"),
              (("construct", "--n", "3", "--blocks", "3"), "15"),
              (("construct", "--n", "2", "--blocks", "12", "--branches", ",".join("1" * 10)),
               "145"),
              (("construct", "--n", "3", "--blocks", "8", "--enumerate"), "200"),
              (("construct", "--n", "3", "--blocks", "20", "--enumerate"), "63059"),
              (("construct", "--n", "3", "--blocks", "20", "--enumerate"), "63060"),
              (("diverge", "2", "3", "--max", "11"), "10"),
              (("diverge", "2", "3", "--max", "10"), "10")]
    capped += [(("generate", "--theta", "2", "--count", "3"), raw)
               for raw in ("abc", "-5", " 7 ", "1e3", "\u0661\u0660")]
    cases += [Case(argv, env=() if raw is None else (("FRACTALSEQ_MAX_TERMS", raw),),
                   quick=raw == "10" and argv[0] == "generate")
              for argv, raw in capped]
    return cases


def run(src: Path, case: Case, small_slices: bool, inputs: dict[str, bytes], workdir: str):
    """stdout, stderr and exit code of ``case`` on the tree at ``src``."""
    argv = list(case.argv) + {"file": [f"{case.input}.txt"],
                              "missing": ["missing.txt"]}.get(case.via, [])
    command = ["-c", SMALL_SLICES] if small_slices else ["-m", "fractalseq"]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FRACTALSEQ_MAX_TERMS")}
    # No .pyc is written into either tree, so a changed source is never shadowed by a stale one.
    env.update(case.env, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
    proc = subprocess.run([sys.executable, *command, *argv], cwd=workdir, env=env,
                          input=inputs[case.input] if case.via == "stdin" else b"",
                          capture_output=True, timeout=600, check=False)
    return proc.stdout, proc.stderr, proc.returncode


def report(case: Case, small_slices: bool, base, head) -> None:
    mode = " (in process, 16-byte slices)" if small_slices else ""
    print(f"first difference: {case.label()}{mode}")
    for name, old, new in zip(("stdout", "stderr"), base, head):
        diff = list(difflib.unified_diff(
            old.decode(errors="backslashreplace").splitlines(keepends=True),
            new.decode(errors="backslashreplace").splitlines(keepends=True),
            f"base {name}", f"head {name}"))
        sys.stdout.writelines(line if line.endswith("\n") else line + "\n" for line in diff[:60])
    if base[2] != head[2]:
        print(f"exit code: base {base[2]}, head {head[2]}")


def compare(base_src: Path, quick: bool) -> int:
    head_src = ROOT / "src"
    inputs = build_inputs(random.Random(30))
    cases = [c for c in build_corpus(random.Random(31), inputs) if c.quick or not quick]
    runs = [(case, False) for case in cases] + [(case, True) for case in cases if case.via]
    print(f"parity: {len(cases)} cases, {len(runs)} runs; base {base_src}, head {head_src}",
          flush=True)
    with tempfile.TemporaryDirectory(prefix="parity-") as workdir:
        for name in {case.input for case in cases if case.via == "file"}:
            Path(workdir, f"{name}.txt").write_bytes(inputs[name])

        def both(item):
            return [run(src, *item, inputs, workdir) for src in (base_src, head_src)]

        pool = ThreadPoolExecutor(min(4, os.cpu_count() or 1))
        try:
            for (case, small_slices), (base, head) in zip(runs, pool.map(both, runs)):
                if base != head:
                    report(case, small_slices, base, head)
                    return 1
        finally:
            pool.shutdown(cancel_futures=True)
    print("parity: stdout, stderr and exit code identical in every run")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--base", metavar="REV", help="a git revision of this repository")
    which.add_argument("--base-src", metavar="DIR", type=Path, help="a tree's src directory")
    parser.add_argument("--quick", action="store_true", help="run a small subset of the corpus")
    args = parser.parse_args()
    if args.base_src is not None:
        return compare(args.base_src.resolve(), args.quick)
    work = ROOT / "tools" / "work" / f"base-{os.getpid()}"
    if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                       str(work), args.base], check=False).returncode:
        return 2  # git has said why
    try:
        return compare(work / "src", args.quick)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(work)],
                       check=False)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
