import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

from itertools import chain, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fractalseq
from fractalseq import (Branch, ConstructionError, check_doubly_fractal_prefix,
                        construct_ramp_state, enumerate_ramp, generate_signature, lower_trim,
                        parse_terms, parse_theta, rank_stream, signature_runs,
                        theta_interval_from_prefix, upper_trim)
from fractalseq import cli, seqcore
from fractalseq.cli import main

from fixtures import RAMP4_RANK_STREAM, RAMP4_TERMS, SQRT13_PREFIX


def as_bytes(data):
    """Bytes as they are, or a str in UTF-8."""
    return data if isinstance(data, bytes) else data.encode()


def stdin_bytes(data):
    """A stdin whose ``buffer`` holds ``data``, as a pipe delivers it."""
    return io.TextIOWrapper(io.BytesIO(as_bytes(data)))


def run_cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", stdin_bytes(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- generate -------------------------------------------------------------

def test_generate_plain(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["generate", "--theta", "sqrt(13)", "--count", "23"])
    assert code == 0 and err == ""
    assert out == "".join(f"{v}\n" for v in SQRT13_PREFIX)


def test_generate_ranks(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["generate", "--theta", "1/7", "--count", "2", "--ranks"])
    assert code == 0
    assert out == "1 1\n1 2\n"


def test_generate_json_lines(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["generate", "--theta", "13/2", "--count", "3", "--json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"index": 1, "value": 1, "rank": 1},
                    {"index": 2, "value": 2, "rank": 1},
                    {"index": 3, "value": 3, "rank": 1}]


def test_generate_bfile(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["generate", "--theta", "sqrt(2)", "--count", "4", "--bfile"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    for h, line in enumerate(lines, start=1):
        idx, val = line.split()
        assert int(idx) == h and int(val) >= 1


def test_generate_rejects_bad_theta(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["generate", "--theta", "0.5", "--count", "3"])
    assert code == 2 and out == "" and err.startswith("error:")


def test_generate_respects_cap(capsys, monkeypatch):
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", "10")
    code, _, err = run_cli(capsys, monkeypatch,
                           ["generate", "--theta", "2", "--count", "11"])
    assert code == 2 and "cap" in err


# Every integer the program reads, from argv, the environment or the input,
# keeps one rule: each string maps to the value read or to the refusal's end.
INTEGER_RULE = {"5": 5, "+5": 5, "007": 7, "0": "must be >= 1, got 0",
                "-3": "must be >= 1, got -3",
                **{s: f"not an integer: {s!r}"
                   for s in ["1_0", "\u0663", "\uff15", "x", "1.0", "0x5", "", "9" * 4301]}}


def value_or_error(err, pattern):
    """The value that ``pattern`` finds in ``err``, else ``err`` itself."""
    found = re.search(pattern, err)
    return int(found.group(1)) if found else err


@pytest.mark.parametrize("text", INTEGER_RULE, ids=lambda s: ascii(s)[:12])
def test_one_integer_rule_at_every_entry_point(capsys, monkeypatch, text):
    rule = INTEGER_RULE[text]
    # A cap of 1 refuses every value read from argv, with a message that names it.
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", "1")
    for argv, pattern in [(["generate", "--theta", "2", f"--count={text}"], r"count (\d+) "),
                          (["construct", "--n", "3", f"--blocks={text}"], r"--blocks (\d+):"),
                          (["diverge", "2", "3", f"--max={text}"], r"--max (\d+) ")]:
        code, out, err = run_cli(capsys, monkeypatch, argv)
        assert (code, out) == (2, "")
        if isinstance(rule, int):
            assert value_or_error(err, pattern) == rule
        else:
            assert err.endswith(f": error: argument {argv[-1].partition('=')[0]}: {rule}\n")

    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", text)
    code, out, err = run_cli(capsys, monkeypatch,
                             ["generate", "--theta", "2", "--count", "1000001"])
    assert (code, out) == (2, "")
    cap = value_or_error(err, r"cap of (\d+) ")
    assert cap == (10 ** 6 if text == "" else rule if isinstance(rule, int)
                   else f"error: FRACTALSEQ_MAX_TERMS: {rule}\n")
    monkeypatch.delenv("FRACTALSEQ_MAX_TERMS")

    # In the input, the empty string is no token, and a non-ASCII byte fails decoding first.
    checked = run_cli(capsys, monkeypatch, ["check"], f"1 2 3 4 {text}\n")
    if isinstance(rule, int) or text == "":
        canonical = f"1 2 3 4 {rule if text else ''}\n"
        assert checked == run_cli(capsys, monkeypatch, ["check"], canonical)
        assert parse_terms(text) == ([rule] if text else [])
    else:
        code, out, err = checked
        terms = "terms " if rule.startswith("must") else ""
        assert (code, out) == (2, "")
        assert err == (f"error: {terms}{rule}\n" if text.isascii() else
                       f"error: {UNDECODABLE}0x{text.encode()[0]:02x} in position 8{ASCII_RANGE}\n")
        with pytest.raises(ValueError) as refused:
            parse_terms(text)
        assert str(refused.value) == terms + rule


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
@pytest.mark.parametrize("argv", [["generate", "--theta", "2", "--count", "3"],
                                  ["diverge", "sqrt(2)", "3/2"],
                                  ["construct", "--n", "4"]])
def test_malformed_max_terms_is_usage_error(capsys, monkeypatch, raw, argv):
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", raw)
    code, out, err = run_cli(capsys, monkeypatch, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "FRACTALSEQ_MAX_TERMS" in err


def test_generate_deterministic_bytes(capsys, monkeypatch):
    args = ["generate", "--theta", "(1+2*sqrt(5))/3", "--count", "50", "--json"]
    _, out1, _ = run_cli(capsys, monkeypatch, args)
    _, out2, _ = run_cli(capsys, monkeypatch, args)
    assert out1 == out2


# Each output format, rendered line by line from a list of (value, rank).
RENDER = {
    "plain": lambda terms: [f"{v}\n" for v, _ in terms],
    "--ranks": lambda terms: [f"{v} {r}\n" for v, r in terms],
    "--json": lambda terms: [f'{{"index":{h},"value":{v},"rank":{r}}}\n'
                             for h, (v, r) in enumerate(terms, start=1)],
    "--bfile": lambda terms: [f"{h} {v}\n" for h, (v, _) in enumerate(terms, start=1)],
}

ORACLE_THETAS = ["sqrt(13)", "1/7", "7/2", "3", "1", "22/7", "13/2", "1000000", "1/50",
                 "sqrt(2)", "2*sqrt(3)", "sqrt(13)/2", "(1+2*sqrt(5))/3", "(5-sqrt(2))/3"]


def counts_inside_runs(theta, limit):
    """Counts up to ``limit`` that stop in the middle of a run."""
    counts, done = [], 0
    for values, _ in signature_runs(theta):
        if done + len(values) > limit:
            return counts
        if len(values) > 1:
            counts.append(done + len(values) // 2)
        done += len(values)


@pytest.mark.parametrize("text", ORACLE_THETAS)
def test_generate_matches_the_list_oracle(capsys, monkeypatch, text):
    theta = parse_theta(text)
    terms = generate_signature(theta, 3001)
    inside = counts_inside_runs(theta, 3001)
    counts = [1, 2, 3, 17, 500, 3001] + inside[:1] + inside[len(inside) // 2:][:1] + inside[-1:]
    for fmt, render in RENDER.items():
        for n in counts:
            argv = ["generate", "--theta", text, "--count", str(n)]
            code, out, err = run_cli(capsys, monkeypatch, argv + [fmt] * (fmt != "plain"))
            assert (code, err) == (0, "") and out == "".join(render(terms[:n])), (fmt, n)


class Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def traced_peak(argv, code=0):
    """The peak of the memory tracemalloc traces while ``main(argv)`` runs;
    it must exit with ``code``."""
    tracemalloc.start()
    try:
        assert main(argv) == code
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_memory_does_not_grow_with_count(monkeypatch):
    argv = ["generate", "--theta", "sqrt(13)", "--count", "400000"]
    monkeypatch.setattr(sys, "stdout", Discard())
    assert main(argv) == 0  # loads the modules before anything is traced
    peak = traced_peak(argv)
    # A list of the 400,000 terms alone would take about 40 MB.
    assert peak < 2 ** 20


# --- trim / check ------------------------------------------------------------

def test_trim_lower_all_ones_is_silent(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["trim", "--lower"], stdin="1 1 1\n")
    assert code == 0 and out == "" and err == ""


def test_trim_upper_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["trim", "--upper"],
                           stdin="1 2 3 4 1 5 2 6 3 7 4")
    assert code == 0 and out == "1\n2\n3\n4\n"


def test_trim_reads_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "seq.txt"
    path.write_text("1 1 1 1 2\n")
    code, out, _ = run_cli(capsys, monkeypatch, ["trim", "--lower", str(path)])
    assert code == 0 and out == "1\n"


def test_trim_missing_file(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["trim", "--lower", "/no/such/file"])
    assert code == 2 and "error:" in err


def test_check_passing(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["check"],
                           stdin=" ".join(map(str, RAMP4_TERMS)))
    assert code == 0
    assert out == "upper_ok: true\nlower_ok: true\n"


def test_check_failing(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["check"], stdin="1 3")
    assert code == 1
    assert "lower_ok: false" in out and "first_violation_index: 1" in out


def test_generate_pipes_into_check(capsys, monkeypatch):
    for theta in ("sqrt(13)", "1/7", "22/7"):
        _, out, _ = run_cli(capsys, monkeypatch,
                            ["generate", "--theta", theta, "--count", "300"])
        code, _, _ = run_cli(capsys, monkeypatch, ["check"], stdin=out)
        assert code == 0, theta


# --- construct ------------------------------------------------------------------

def test_construct_golden_run(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["construct", "--n", "4", "--blocks", "5",
                            "--branches", "0,1"])
    assert code == 0
    assert [int(x) for x in out.split()] == RAMP4_TERMS


def test_construct_type2_golden_run(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["construct", "--n", "4", "--blocks", "5",
                            "--branches", "0,1", "--type2"])
    assert code == 0
    assert [int(x) for x in out.split()] == RAMP4_RANK_STREAM


def test_construct_type2_is_rank_stream_of_plain_run(capsys, monkeypatch):
    rng = random.Random(2024)
    exhausted = 0
    for n in range(2, 7):
        for _ in range(6):
            bits = ",".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
            argv = ["construct", "--n", str(n), "--blocks", str(rng.randint(3, 40)),
                    "--branches", bits]
            plain = run_cli(capsys, monkeypatch, argv)
            type2 = run_cli(capsys, monkeypatch, argv + ["--type2"])
            if plain[0] == 1:
                exhausted += 1
                assert plain[1] == "" and plain[2].startswith("error: branch list exhausted")
                assert type2 == plain
            else:
                ranks = rank_stream([int(x) for x in plain[1].split()])
                assert type2 == (0, "".join(f"{r}\n" for r in ranks), "")
    assert 0 < exhausted < 30


def test_construct_branch_lists_near_the_fork_count(capsys, monkeypatch):
    # A run forks at most once a block, from the third on: a list of
    # blocks - 3 choices may run out, and then nothing may be written.
    rng = random.Random(26)
    outcomes = set()
    for n in (2, 4, 7):
        for blocks in (4, 9, 25):
            for length in (blocks - 3, blocks - 2, blocks):
                for bits in ([Branch.FRESH_FIRST] * length,
                             [rng.choice(list(Branch)) for _ in range(length)]):
                    argv = ["construct", "--n", str(n), "--blocks", str(blocks),
                            "--branches", ",".join(str(b.value) for b in bits)]
                    try:
                        terms = construct_ramp_state(n, blocks, bits).terms
                    except ConstructionError:
                        terms = None
                    outcomes.add(terms is None)
                    for flag, render in (([], list), (["--type2"], rank_stream)):
                        code, out, err = run_cli(capsys, monkeypatch, argv + flag)
                        if terms is None:
                            assert code == 1 and out == "", argv + flag
                            assert err.startswith("error: branch list exhausted")
                        else:
                            expected = "".join(f"{t}\n" for t in render(terms))
                            assert (code, out, err) == (0, expected, ""), argv + flag
    assert outcomes == {True, False}


@pytest.mark.parametrize("blocks", [["700"], ["1400"],
                                    ["1000", "--branches", ",".join(["0,1"] * 8)]],
                         ids=["700", "1400", "1000 --branches 0,1 x8"])
@pytest.mark.parametrize("flag", [[], ["--type2"]], ids=["plain", "type2"])
def test_construct_memory_does_not_grow_with_blocks(monkeypatch, blocks, flag):
    monkeypatch.setattr(sys, "stdout", Discard())
    assert main(["construct", "--n", "2", "--blocks", "3"] + flag) == 0  # loads the modules
    peak = traced_peak(["construct", "--n", "2", "--blocks", *blocks] + flag)
    # Holding the whole run peaked at 2 MiB (700 blocks, 246,050 terms) to
    # 36 MiB (1400 blocks, 982,100 terms, --type2), and at 5.4 MiB for a
    # --branches list of 16 choices at 1000 blocks (691,793 terms).
    assert peak < 2 ** 20


def test_construct_default_blocks_is_five(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["construct", "--n", "4", "--branches", "0,1"])
    assert code == 0
    assert [int(x) for x in out.split()] == RAMP4_TERMS


def test_construct_enumerate(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["construct", "--n", "3", "--blocks", "4", "--enumerate"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert [line.split("\t")[0] for line in lines] == ["0,0", "0,1", "1,0", "1,1"]
    for line in lines:
        bits, terms = line.split("\t")
        assert all(int(x) >= 1 for x in terms.split())


def test_construct_enumerate_without_forks(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["construct", "--n", "3", "--blocks", "2", "--enumerate"])
    assert code == 0
    assert out == "-\t1 2 3 1 4 2 5 3\n"


def test_construct_too_few_branches_is_domain_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch,
                           ["construct", "--n", "4", "--blocks", "5",
                            "--branches", "0"])
    assert code == 1 and "error:" in err


def test_construct_rejects_small_n(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, monkeypatch, ["construct", "--n", "1"])
    assert code == 2


def test_construct_rejects_bad_branch_bits(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch,
                           ["construct", "--n", "4", "--branches", "0,2"])
    assert code == 2 and "branch bits" in err


def test_construct_refuses_more_than_cap_main_terms(capsys, monkeypatch):
    # Block j holds at least 1 + (n-1)*j terms: 7 blocks with n = 3 take 63.
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", "20")
    code, out, err = run_cli(capsys, monkeypatch,
                             ["construct", "--n", "3", "--blocks", "7"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "cap of 20" in err


@pytest.mark.parametrize("n, blocks, cap", [("2", "500", "1000"), ("4", "5", "49")])
def test_construct_refuses_by_least_run_length(capsys, monkeypatch, n, blocks, cap):
    # n = 2 and 500 blocks make at least 125,750 terms, far above n * blocks.
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", cap)
    code, out, err = run_cli(capsys, monkeypatch, ["construct", "--n", n, "--blocks", blocks])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"cap of {cap}" in err


def test_construct_accepts_exactly_cap_main_terms(capsys, monkeypatch):
    # A run is capped by its exact length: 50, the least length of 5 blocks
    # with n = 4, for the default choices, 52 for these, and 145 for ten
    # fresh-first choices at 12 blocks with n = 2.
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", "50")
    code, out, err = run_cli(capsys, monkeypatch, ["construct", "--n", "4", "--blocks", "5"])
    assert (code, err, len(out.split())) == (0, "", 50)
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", "52")
    code, out, err = run_cli(capsys, monkeypatch,
                             ["construct", "--n", "4", "--blocks", "5",
                              "--branches", "0,1"])
    assert (code, err) == (0, "")
    assert [int(x) for x in out.split()] == RAMP4_TERMS
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", "145")
    code, out, err = run_cli(capsys, monkeypatch, ["construct", "--n", "2", "--blocks", "12",
                                                   "--branches", ",".join("1" * 10)])
    assert (code, err, len(out.splitlines())) == (0, "", 145)


# --- invert / diverge --------------------------------------------------------------

def test_invert_ramp_seed(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["invert"], stdin="1 2 3 4 1 5\n")
    assert code == 0 and out == "[3, 4]\n"


def test_invert_empty_result(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["invert"], stdin="1 3\n")
    assert code == 0 and out == "EMPTY\n"


def test_invert_expect_nonempty(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["invert", "--expect-nonempty"], stdin="1 3\n")
    assert code == 1 and out == "EMPTY\n"


def test_invert_rejects_empty_input(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["invert"], stdin="\n")
    assert code == 2 and "error:" in err


def test_generate_pipes_into_invert(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, monkeypatch,
                        ["generate", "--theta", "sqrt(13)", "--count", "100"])
    code, out, _ = run_cli(capsys, monkeypatch, ["invert"], stdin=out)
    assert code == 0 and out != "EMPTY\n"


def test_diverge(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["diverge", "1/7", "13/2", "--max", "10"])
    assert code == 0 and out == "2\n"


def test_diverge_none(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["diverge", "7/2", "sqrt(13)", "--max", "10"])
    assert code == 0 and out == "NONE\n"


def test_diverge_equal_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["diverge", "3/2", "3/2"])
    assert code == 2 and "error:" in err


def test_diverge_equal_surds_written_two_ways(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["diverge", "sqrt(8)", "2*sqrt(2)"])
    assert (code, out) == (2, "")
    assert err == "error: parameters must be distinct\n"


# --- error paths -------------------------------------------------------------------

GEN = ["generate", "--count", "3", "--theta"]
OVERRIDE = " (override with FRACTALSEQ_MAX_TERMS)"
UNDECODABLE = "cannot read input: 'ascii' codec can't decode byte "
ASCII_RANGE = ": ordinal not in range(128)"


@pytest.mark.parametrize("argv, stdin, env, code, err", [
    (GEN + ["0.5"], "", None, 2,
     "decimal theta '0.5' not supported; use p/q or (a+b*sqrt(d))/c"),
    (GEN + ["1+sqrt(2)/3"], "", None, 2,
     "ambiguous theta '1+sqrt(2)/3': parenthesize as (a+b*sqrt(d))/c"),
    (GEN + ["3/0"], "", None, 2, "zero denominator"),
    (GEN[:-1] + ["--theta=-3/2"], "", None, 2, "theta must be positive: '-3/2'"),
    (GEN + ["abc"], "", None, 2, "malformed theta expression: 'abc'"),
    (GEN + ["\u0661\u0663/\u0662"], "", None, 2,
     "malformed theta expression: '\u0661\u0663/\u0662'"),
    (["diverge", "3/2", "6/4"], "", None, 2, "parameters must be distinct"),
    (["diverge", "3/2", "x"], "", None, 2, "malformed theta expression: 'x'"),
    (["trim", "--lower"], "1 x 3", None, 2, "not an integer: 'x'"),
    (["trim", "--lower"], "1 2 1_0", None, 2, "not an integer: '1_0'"),
    (["check"], "1 \u0662 1", None, 2,
     UNDECODABLE + "0xd9 in position 2" + ASCII_RANGE),
    (["check"], "1\xa02 1 3", None, 2,
     UNDECODABLE + "0xc2 in position 1" + ASCII_RANGE),
    (["check"], "1 0 \u0662", None, 2,
     UNDECODABLE + "0xd9 in position 4" + ASCII_RANGE),
    (["trim", "--lower", "/no/such/file"], "", None, 2,
     "cannot read input: [Errno 2] No such file or directory: '/no/such/file'"),
    (["check", "{nonascii}"], "", None, 2,
     UNDECODABLE + "0xd9 in position 2" + ASCII_RANGE),
    (["invert"], "\n", None, 2, "cannot invert an empty sequence"),
    (["construct", "--n", "4", "--branches", "0,2"], "", None, 2,
     "branch bits must be 0 or 1, got '2'"),
    (["construct", "--n", "1"], "", None, 2, "need --n >= 2, got 1"),
    (["construct", "--n", "4", "--branches", "0"], "", None, 1,
     "branch list exhausted: the construction forked more often than choices were given"),
    (["generate", "--theta", "2", "--count", "11"], "", "10", 2,
     "count 11 exceeds the cap of 10" + OVERRIDE),
    (["diverge", "3/2", "8/5", "--max", "11"], "", "10", 2,
     "--max 11 exceeds the cap of 10" + OVERRIDE),
    (["construct", "--n", "3", "--blocks", "7"], "", "20", 2,
     "--n 3 and --blocks 7: least run length 63 exceeds the cap of 20" + OVERRIDE),
    (["construct", "--n", "3", "--blocks", "20", "--enumerate"], "", "1000", 2,
     "--enumerate: total length 63060 exceeds the cap of 1000" + OVERRIDE),
    (["construct", "--n", "3", "--blocks", "20", "--enumerate", "--type2"], "", "63059", 2,
     "--enumerate: total length 63060 exceeds the cap of 63059" + OVERRIDE),
    (GEN + ["2"], "", "abc", 2, "FRACTALSEQ_MAX_TERMS: not an integer: 'abc'"),
    (GEN + ["2"], "", "1_0", 2, "FRACTALSEQ_MAX_TERMS: not an integer: '1_0'"),
    (GEN + ["2"], "", "\u0661\u0660", 2,
     "FRACTALSEQ_MAX_TERMS: not an integer: '\u0661\u0660'"),
    (GEN + ["2"], "", "0", 2, "FRACTALSEQ_MAX_TERMS: must be >= 1, got 0"),
    (["check"], b"1 \xff 1", None, 2,
     UNDECODABLE + "0xff in position 2" + ASCII_RANGE),
    (GEN + ["sqrt(2)/0"], "", None, 2, "zero denominator"),
    (GEN + ["(1+sqrt(2))/0"], "", None, 2, "zero denominator"),
    (["diverge", "sqrt(2)/0", "1"], "", None, 2, "zero denominator"),
    (["construct", "--n", "2", "--blocks", "12", "--branches", ",".join("1" * 10)], "", "100", 2,
     "--n 2 and --blocks 12: run length 145 exceeds the cap of 100" + OVERRIDE),
])
def test_error_exits_with_one_line(tmp_path, capsys, monkeypatch, argv, stdin, env, code, err):
    nonascii = tmp_path / "nonascii.txt"
    nonascii.write_bytes("1 \u0662 1\n".encode())
    argv = [a.format(nonascii=nonascii) for a in argv]
    if env is not None:
        monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", env)
    expected = (code, "", f"error: {err}\n")
    assert run_cli(capsys, monkeypatch, argv, stdin) == expected
    if stdin:  # the same bytes read from a file fail the same way
        path = tmp_path / "input.txt"
        path.write_bytes(as_bytes(stdin))
        assert run_cli(capsys, monkeypatch, argv + [str(path)]) == expected


@pytest.mark.parametrize("argv, clash", [
    (GEN + ["2", "--ranks", "--json"], "argument --json: not allowed with argument --ranks"),
    (GEN + ["2", "--ranks", "--bfile"], "argument --bfile: not allowed with argument --ranks"),
    (["generate", "--theta", "2", "--count", "1_0"], "argument --count: not an integer: '1_0'"),
    (["generate", "--theta", "2", "--count", "\u0663"],
     "argument --count: not an integer: '\u0663'"),
    (["construct", "--n", "4", "--enumerate", "--branches", "0"],
     "argument --branches: not allowed with argument --enumerate"),
    (["construct", "--n", "4", "--branches", "0", "--enumerate"],
     "argument --enumerate: not allowed with argument --branches"),
])
def test_parser_refuses(capsys, monkeypatch, argv, clash):
    code, out, err = run_cli(capsys, monkeypatch, argv)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: {clash}\n")


def test_enumerate_at_exactly_the_cap_prints_every_row(capsys, monkeypatch):
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", "63060")
    code, out, err = run_cli(capsys, monkeypatch,
                             ["construct", "--n", "3", "--blocks", "20", "--enumerate"])
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 120
    assert sum(len(row.split("\t")[1].split()) for row in rows) == 63060

# --- folds over slices of the input ---------------------------------------------------

FOLDED = [["trim", "--upper"], ["trim", "--lower"], ["check"], ["invert"]]


def list_oracle(argv, text):
    """What a command printed when it parsed the whole text into one list."""
    terms = parse_terms(text)
    if argv[0] == "trim":
        return "".join(f"{t}\n" for t in (upper_trim if argv[1] == "--upper" else lower_trim)(terms))
    if argv[0] == "invert":
        return f"{theta_interval_from_prefix(terms)}\n"
    report = check_doubly_fractal_prefix(terms)
    lines = [f"upper_ok: {str(report.upper_ok).lower()}", f"lower_ok: {str(report.lower_ok).lower()}"]
    if report.first_violation_index is not None:
        lines.append(f"first_violation_index: {report.first_violation_index}")
    return "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("argv", FOLDED, ids=" ".join)
@pytest.mark.parametrize("bad, err", [
    ("x", "not an integer: 'x'"),
    ("0", "terms must be >= 1, got 0"),
    ("-3", "terms must be >= 1, got -3"),
    ("9" * 5000, "not an integer: '" + "9" * 5000 + "'"),
], ids=["letter", "zero", "negative", "5000 digits"])
def test_a_bad_token_in_the_last_slice_writes_nothing(capsys, monkeypatch, argv, bad, err):
    monkeypatch.setattr(seqcore, "_SLICE_CHARS", 16)
    text = "".join(PLAIN_10K[:3000]) + bad + "\n1\n"
    assert run_cli(capsys, monkeypatch, argv, text) == (2, "", f"error: {err}\n")


ODD_INPUTS = {
    "plus": "1 2 +5 1 3",
    "leading zeros": "1 007 2 1 3\n010",
    "file separators": "1\x1c2\x1d1\x1e3\x1f2 4\x1c",
    "plus and zeros": "+1\n2\n1\n03\n2\n",
}


@pytest.mark.parametrize("argv", FOLDED, ids=" ".join)
@pytest.mark.parametrize("text", ODD_INPUTS.values(), ids=list(ODD_INPUTS))
def test_odd_but_valid_input_prints_what_the_list_did(capsys, monkeypatch, argv, text):
    want = list_oracle(argv, text)
    code, out, err = run_cli(capsys, monkeypatch, argv, text)
    assert (out, err) == (want, "") and code in (0, 1)


def test_odd_input_golden(capsys, monkeypatch):
    assert run_cli(capsys, monkeypatch, ["trim", "--lower"], "1 007 2 +5\x1c3") == (
        0, "6\n1\n4\n2\n", "")
    assert run_cli(capsys, monkeypatch, ["check"], "1\x1c2\x1d1\x1e3") == (
        0, "upper_ok: true\nlower_ok: true\n", "")


@pytest.mark.parametrize("text", ["", "\x1c", " \n\x1f\t"], ids=repr)
def test_invert_of_only_whitespace_is_empty(capsys, monkeypatch, text):
    assert run_cli(capsys, monkeypatch, ["invert"], text) == (
        2, "", "error: cannot invert an empty sequence\n")


@pytest.mark.parametrize("which", ["--upper", "--lower"])
def test_trim_parses_each_slice_exactly_once(capsys, monkeypatch, which):
    monkeypatch.setattr(seqcore, "_SLICE_CHARS", 16)
    argv, text = ["trim", which], "+" + "".join(PLAIN_10K[:300])
    k = len(list(seqcore.term_slices(io.BytesIO(text.encode()))))
    real, calls = cli.parse_terms, []

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(cli, "parse_terms", counting)
    assert run_cli(capsys, monkeypatch, argv, text) == (0, list_oracle(argv, text), "")
    assert k > 10 and len(calls) == k
    # A bad token in a later slice still writes nothing.
    assert run_cli(capsys, monkeypatch, argv, text + "x\n1\n") == (
        2, "", "error: not an integer: 'x'\n")


@pytest.mark.parametrize("argv", FOLDED, ids=" ".join)
def test_small_slices_change_no_output(capsys, monkeypatch, argv):
    text = "".join(PLAIN_10K[:2000])
    broken = text.replace("\n1\n", "\n2\n", 1)
    for stdin in (text, broken, "1 1 1 1 2 " * 50):
        want = run_cli(capsys, monkeypatch, argv, stdin)
        with monkeypatch.context() as mp:
            mp.setattr(seqcore, "_SLICE_CHARS", 5)
            assert run_cli(capsys, monkeypatch, argv, stdin) == want
        assert want[1] == list_oracle(argv, stdin)


@pytest.fixture(scope="module")
def sqrt13_400k():
    values = chain.from_iterable(v for v, _ in signature_runs(parse_theta("sqrt(13)")))
    return "".join(f"{v}\n" for v in islice(values, 400_000)).encode()


def plus_led(data):  # an odd but valid first token: trim writes the same bytes
    return b"+" + data


def relabelled(data):  # v -> 2v-1: the lower trim fails at term 1, the upper trim passes
    return b"".join(b"%d\n" % (2 * v - 1) for v in map(int, data.split()))


def bumped(data):  # one term bumped mid-way: both trims fail
    start = data.index(b"\n", len(data) // 2) + 1
    end = data.index(b"\n", start)
    return data[:start] + b"%d" % (int(data[start:end]) + 1) + data[end:]


@pytest.mark.parametrize("argv, edit, code", [
    pytest.param(["check"], bytes, 0, id="check"),
    pytest.param(["check"], relabelled, 1, id="relabelled check"),
    pytest.param(["check"], bumped, 1, id="bumped check"),
    pytest.param(["invert"], bytes, 0, id="invert"),
    pytest.param(["trim", "--lower"], bytes, 0, id="trim --lower"),
    pytest.param(["trim", "--upper"], plus_led, 0, id="+ trim --upper"),
    pytest.param(["trim", "--lower"], plus_led, 0, id="+ trim --lower"),
])
def test_folds_hold_the_input_and_little_more(monkeypatch, sqrt13_400k, argv, edit, code):
    data = edit(sqrt13_400k)
    monkeypatch.setattr(sys, "stdout", Discard())
    monkeypatch.setattr(sys, "stdin", stdin_bytes("1 2 3 4 1 5\n"))
    main(argv)  # loads the modules before anything is traced
    monkeypatch.setattr(sys, "stdin", stdin_bytes(data))
    peak = traced_peak(argv, code)
    # Parsing every term into one list first peaked at 12.5 MB (invert) to
    # 24 MB (check); a fold that kept the terms behind a failed trim's
    # cursor, at 13 MB on failing input.
    assert peak < len(data) + 2 * 2 ** 20

@pytest.mark.parametrize("argv", [["check"], ["invert"]], ids=" ".join)
def test_check_and_invert_memory_does_not_grow_with_the_input(
        monkeypatch, tmp_path, sqrt13_400k, argv):
    monkeypatch.setattr(sys, "stdout", Discard())
    monkeypatch.setattr(sys, "stdin", stdin_bytes("1 2 3 4 1 5\n"))
    main(argv)  # loads the modules before anything is traced
    lines = sqrt13_400k.splitlines(keepends=True)
    for count in (100_000, 400_000):
        path = tmp_path / f"{count}.txt"
        path.write_bytes(b"".join(lines[:count]))
        peak = traced_peak(argv + [str(path)])
        # Reading all the bytes first peaked at 0.91 (check) and 0.80 MiB
        # (invert) at 10^5 terms, and at 2.21 and 2.04 MiB at 4*10^5.
        assert peak < 2 ** 20, (count, peak)


def whole_input_error(data):
    """The error that decoding ``data`` whole, then parsing it, gives."""
    try:
        parse_terms(data.decode("ascii"))
    except UnicodeDecodeError as exc:
        return f"cannot read input: {exc}"
    except ValueError as exc:
        return str(exc)
    raise AssertionError("valid input")


SPAN = b"1 2 3 4 5 6 7 8\n" * 300  # 4,800 bytes: 300 reads of 16


@pytest.mark.parametrize("argv", FOLDED, ids=" ".join)
@pytest.mark.parametrize("data", [
    b"1 x 2\n" + SPAN + b"3 \xd9\xa2 4\n",
    b"1 x 2\n" + SPAN + b"9" * 5000 + b"\xff" + b"9" * 5000 + b"\n1\n",
    b"1 2 " + b"9" * 2 ** 20 + b"\n1\n",
], ids=["non-ASCII after a bad token", "non-ASCII inside a long token", "1 MiB token"])
def test_errors_keep_their_order_across_reads(capsys, monkeypatch, tmp_path, argv, data):
    # A non-ASCII byte anywhere wins over a bad token before it, and a token
    # that spans many reads is carried whole (in linear time) to its error.
    monkeypatch.setattr(seqcore, "_SLICE_CHARS", 16)
    expected = (2, "", f"error: {whole_input_error(data)}\n")
    assert run_cli(capsys, monkeypatch, argv, data) == expected
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    assert run_cli(capsys, monkeypatch, argv + [str(path)]) == expected


# --- chunked output ---------------------------------------------------------------

class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def run_counting_writes(monkeypatch, argv, stdin=""):
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdin", stdin_bytes(stdin))
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    return out.getvalue(), out.writes


def assert_chunked(out, writes, lines):
    """``out`` is the per-line rendering, sent in one write per chunk."""
    assert out == "".join(lines)
    assert writes == -(-len(lines) // cli._CHUNK_LINES)


SQRT13_10K = generate_signature(parse_theta("sqrt(13)"), 10_000)
GENERATE_RENDERINGS = {fmt: render(SQRT13_10K) for fmt, render in RENDER.items()}
PLAIN_10K = GENERATE_RENDERINGS["plain"]


@pytest.mark.parametrize("fmt", sorted(GENERATE_RENDERINGS))
def test_generate_chunks_match_per_line_rendering(monkeypatch, fmt):
    argv = ["generate", "--theta", "sqrt(13)", "--count", "10000"]
    out, writes = run_counting_writes(monkeypatch, argv + ([] if fmt == "plain" else [fmt]))
    assert_chunked(out, writes, GENERATE_RENDERINGS[fmt])


@pytest.mark.parametrize("which, trim", [("--upper", upper_trim), ("--lower", lower_trim)])
def test_trim_chunks_match_per_line_rendering(monkeypatch, which, trim):
    text = "".join(PLAIN_10K)
    out, writes = run_counting_writes(monkeypatch, ["trim", which], stdin=text)
    assert out == "".join(f"{t}\n" for t in trim(v for v, _ in SQRT13_10K))
    # One write per slice that has output.
    seen: set[int] = set()
    parts = [parse_terms(p.decode()) for p in seqcore.term_slices(io.BytesIO(text.encode()))]
    assert writes == sum(bool(upper_trim(p, seen) if which == "--upper" else lower_trim(p))
                         for p in parts) > 1


@pytest.mark.parametrize("type2", [False, True])
def test_construct_chunks_match_per_line_rendering(monkeypatch, type2):
    terms = construct_ramp_state(4, 100).terms
    out, writes = run_counting_writes(
        monkeypatch, ["construct", "--n", "4", "--blocks", "100"] + ["--type2"] * type2)
    assert_chunked(out, writes, [f"{t}\n" for t in (rank_stream(terms) if type2 else terms)])


@pytest.mark.parametrize("type2", [False, True])
def test_enumerate_chunks_match_per_line_rendering(monkeypatch, type2):
    # 42 rows: a chunk of 5 lines puts rows on both sides of every boundary.
    monkeypatch.setattr(cli, "_CHUNK_LINES", 5)
    rows = [(",".join(str(b.value) for b in log),
             rank_stream(terms) if type2 else terms)
            for log, terms in enumerate_ramp(3, 12)]
    out, writes = run_counting_writes(
        monkeypatch, ["construct", "--n", "3", "--blocks", "12", "--enumerate"]
        + ["--type2"] * type2)
    assert_chunked(out, writes, [f"{bits}\t{' '.join(map(str, t))}\n" for bits, t in rows])


def test_unbuffered_subprocess_matches_per_line_rendering():
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "fractalseq", "generate",
         "--theta", "sqrt(13)", "--count", "10000", "--json"],
        capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "".join(GENERATE_RENDERINGS["--json"])


# --- plumbing ------------------------------------------------------------------------

COMMANDS = ["generate", "trim", "check", "construct", "invert", "diverge"]
USAGE = "usage: fractalseq [-h] {generate,trim,check,construct,invert,diverge} ...\n"


def test_no_command_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, monkeypatch, [])
    assert (code, out) == (2, "")
    assert err == USAGE + "fractalseq: error: the following arguments are required: command\n"


def test_unknown_command_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, monkeypatch, ["nope", "--theta", "2"])
    assert (code, out) == (2, "")
    assert err == USAGE + ("fractalseq: error: argument command: invalid choice: 'nope' (choose "
                           "from 'generate', 'trim', 'check', 'construct', 'invert', 'diverge')\n")


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"] for command in COMMANDS],
                         ids=" ".join)
def test_help_exits_zero(capsys, monkeypatch, argv):
    code, out, err = run_cli(capsys, monkeypatch, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: fractalseq")


@pytest.mark.parametrize("argv, out", [
    (["generate", "--theta", "2", "--count", "3", "--count", "4"], "1\n2\n3\n1\n"),
    (["generate", "--cou", "3", "--theta", "2"], "1\n2\n3\n"),
])
def test_the_last_of_repeated_options_and_abbreviations_are_read(capsys, monkeypatch, argv, out):
    assert run_cli(capsys, monkeypatch, argv) == (0, out, "")


def test_a_theta_after_dashes_is_still_checked(capsys, monkeypatch):
    assert run_cli(capsys, monkeypatch, ["diverge", "--", "-1", "2"]) == (
        2, "", "error: theta must be positive: '-1'\n")


# Every argv form the benchmark runs, restated, and every one this file runs
# to an exit of 0 or 1: the strict reader takes each of them.
WELL_FORMED = [
    ["generate", "--theta=sqrt(13)", "--count", "1000"],
    ["generate", "--theta=(1+2*sqrt(5))/3", "--count", "1000", "--ranks"],
    ["generate", "--theta=7/2", "--count", "1000", "--json"],
    ["generate", "--theta=7/2", "--count", "1000", "--bfile"],
    ["generate", "--theta=-1+6*sqrt(13)", "--count", "1000", "--bfile"],
    ["check", "terms.txt"],
    ["invert", "terms.txt"],
    ["trim", "--upper", "terms.txt"],
    ["trim", "--lower", "terms.txt"],
    ["diverge", "--max", "30000", "--", "sqrt(13)", "3605551/1000000"],
    ["diverge", "--max", "9006", "--", "-5+5*sqrt(13)", "963/74"],
    ["construct", "--n", "9", "--blocks", "20"],
    ["construct", "--n", "5", "--blocks", "150", "--branches", "0,1,1,0"],
    ["construct", "--n", "5", "--blocks", "150", "--type2"],
    ["construct", "--n", "5", "--blocks", "150", "--branches", "0,1,1,0", "--type2"],
    ["construct", "--n", "3", "--blocks", "12", "--enumerate"],
    ["construct", "--n", "3", "--blocks", "12", "--enumerate", "--type2"],
    ["generate", "--theta", "1", "--count", "1"],
    ["generate", "--theta", "sqrt(13)", "--count", "23"],
    ["generate", "--theta", "1/7", "--count", "2", "--ranks"],
    ["generate", "--theta", "13/2", "--count", "3", "--json"],
    ["generate", "--theta", "sqrt(2)", "--count", "4", "--bfile"],
    ["trim", "--lower"],
    ["trim", "--upper"],
    ["check"],
    ["invert"],
    ["invert", "--expect-nonempty"],
    ["construct", "--n", "4"],
    ["construct", "--n", "4", "--branches", "0,1"],
    ["construct", "--n", "4", "--blocks", "5", "--branches", "0,1", "--type2"],
    ["construct", "--n", "2", "--blocks", "3", "--type2"],
    ["construct", "--n", "3", "--blocks", "4", "--enumerate"],
    ["diverge", "sqrt(2)", "3/2"],
    ["diverge", "1/7", "13/2", "--max", "10"],
]


def argparse_namespace(argv):
    """``vars()`` of what argparse reads from ``argv``."""
    return vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_read_argv_takes_every_form_in_use(argv):
    args = cli._read_argv(argv)
    assert args is not None
    assert vars(args) == argparse_namespace(argv)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["nope"], ["generate", "-h"], ["generate", "--cou", "3", "--theta", "2"],
    ["generate", "--theta", "2", "--count", "3", "--count", "3"],
    ["generate", "--theta", "-1", "--count", "3"], ["generate", "--theta", "2", "--count", "0"],
    ["generate", "--theta", "2", "--count", "3", "--ranks=1"],
    ["generate", "--theta", "2", "--count", "3", "--ranks", "--json"],
    ["generate", "--theta", "2"],
    ["generate", "--theta", "2", "--count", "3", "--"], ["trim", "f", "--upper", "--"],
    ["invert", "f", "--expect-nonempty", "--"], ["diverge", "a", "b", "--max", "5", "--"],
    ["check", "--", "--"], ["check", "f", "g"], ["trim", "f"], ["diverge", "a"],
], ids=" ".join)
def test_read_argv_leaves_the_rest_to_argparse(argv):
    assert cli._read_argv(argv) is None


OPTIONS = ["--theta", "--count", "--ranks", "--json", "--bfile", "--upper", "--lower", "--n",
           "--blocks", "--branches", "--type2", "--enumerate", "--expect-nonempty", "--max"]
VALUES = ["1", "0", "-1", "1_0", "\u0663", "sqrt(13)", "7/2", "terms.txt"]
TOKENS = (COMMANDS + ["nope", "-h", "--help", "--", "-"] + VALUES + OPTIONS
          + [name[:5] for name in OPTIONS if len(name) > 5]
          + [f"{name}={v}" for name in OPTIONS for v in VALUES])


# An argv holds its command's required arguments, up to three more of its
# own options, each once, and up to two tokens of any kind, in random order,
# so that many argv are well formed.
OWN = {"generate": ["--theta", "--count", "--ranks", "--json", "--bfile"],
       "trim": ["--upper", "--lower"], "check": [],
       "construct": ["--n", "--blocks", "--branches", "--type2", "--enumerate"],
       "invert": ["--expect-nonempty"], "diverge": ["--max"], "nope": []}
REQUIRED = {"generate": [["--theta", "2"], ["--count", "3"]], "trim": [["--upper"]],
            "construct": [["--n", "3"]], "diverge": [["sqrt(2)"], ["3/2"]]}
SPELLINGS = [lambda o, v: [o], lambda o, v: [o, v], lambda o, v: [f"{o}={v}"]]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS + ["nope"]))
    own = draw(st.permutations(OWN[command]))[:draw(st.integers(0, 3))]
    pieces = REQUIRED.get(command, []) + [
        draw(st.sampled_from(SPELLINGS))(name, draw(st.sampled_from(VALUES))) for name in own]
    token = st.sampled_from(["--", "-"] + VALUES) | st.sampled_from(TOKENS)
    pieces += draw(st.lists(token.map(lambda t: [t]), max_size=3))
    return [command] + [token for piece in draw(st.permutations(pieces)) for token in piece]


@given(argvs())
@settings(max_examples=1000, deadline=None)
def test_read_argv_agrees_with_argparse(argv):
    args = cli._read_argv(argv)
    if args is not None:
        parsed = argparse_namespace(argv)
        assert vars(args) == parsed and args.func is parsed["func"]


def test_subprocess_entry_point(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "fractalseq", "generate",
         "--theta", "sqrt(13)", "--count", "5"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0
    assert proc.stdout == "1\n2\n3\n4\n1\n"


@pytest.mark.parametrize("argv", [["generate", "--theta", "sqrt(13)", "--count", "1000000"],
                                  ["trim", "--upper"]], ids=" ".join)
def test_a_closed_pipe_ends_the_output_quietly(tmp_path, sqrt13_400k, argv):
    # As `... | head -c 10`: both commands write far more than a pipe holds.
    terms = tmp_path / "terms.txt"
    terms.write_bytes(sqrt13_400k)
    with open(terms, "rb") as stdin:
        proc = subprocess.Popen([sys.executable, "-m", "fractalseq", *argv], stdin=stdin,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize("argv, refusal", [
    (["--blocks", "200", "--enumerate"], "--enumerate: total length 366388876"),
    (["--blocks", "1000", "--enumerate"], "--enumerate: total length 228071995896"),
    (["--blocks", "1000000000"],
     "--n 2 and --blocks 1000000000: least run length 500000001500000000"),
    (["--blocks", "1412", "--branches", ",".join("1" * 1410)],
     "--n 2 and --blocks 1412: run length 1993745"),
    (["--blocks", "1400", "--branches", ",".join(["0,1"] * 10)],
     "--n 2 and --blocks 1400: run length 1355460"),
], ids=["--blocks 200 --enumerate", "--blocks 1000 --enumerate", "--blocks 1000000000",
        "--blocks 1412 --branches 1 x1410", "--blocks 1400 --branches 0,1 x10"])
def test_a_refusal_costs_bounded_work(argv, refusal):
    # Every length comes from the leaf walk before any run is built, and the
    # first leaf's length is read without its B-2 fork choices.
    env = {k: v for k, v in SRC_ENV.items() if k != "FRACTALSEQ_MAX_TERMS"}
    proc = subprocess.run([sys.executable, "-m", "fractalseq", "construct", "--n", "2", *argv],
                          capture_output=True, text=True, env=env, timeout=5, check=False)
    err = f"error: {refusal} exceeds the cap of 1000000{OVERRIDE}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


WRITERS = [["generate", "--theta", "sqrt(13)", "--count", "500"], ["trim", "--upper", "in.txt"],
           ["check", "in.txt"], ["construct", "--n", "3"], ["invert", "in.txt"],
           ["diverge", "2", "3"]]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, target", [(argv, "closed pipe") for argv in WRITERS + [["--help"]]]
                         + [(argv, "/dev/full")
                            for argv in WRITERS + [["--help"], ["generate", "--help"]]],
                         ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_a_write_error_ends_every_command_cleanly(tmp_path, argv, target, unbuffered):
    # Block-buffered output is written at the flush, which must come inside main.
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    (tmp_path / "in.txt").write_text("1 2 3 4 1 5 2 6 3 7 4\n")
    if target == "closed pipe":
        read, stdout = os.pipe()
        os.close(read)
        expected = (0, b"")
    elif not os.path.exists(target):
        pytest.skip(f"no {target}")
    else:
        stdout = os.open(target, os.O_WRONLY)
        expected = (2, b"error: cannot write output: [Errno 28] No space left on device\n")
    try:
        proc = subprocess.run([sys.executable, "-m", "fractalseq", *argv], stdin=subprocess.DEVNULL,
                              stdout=stdout, stderr=subprocess.PIPE, cwd=tmp_path, env=env,
                              timeout=60, check=False)
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == expected


# --- lazy loading ------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
SRC_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_tracer_reads_every_cli_name_before_main():
    # A fresh process: no command has run, so nothing is bound yet.
    script = ("import sys; sys.path.insert(0, sys.argv[1]); from tracer import TRACED; "
              "from fractalseq import cli; "
              "names = [a for m, a, *_ in TRACED if m == 'cli']; "
              "print(len(names), [a for a in names if not callable(getattr(cli, a, None))])")
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=SRC_ENV, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "11 []\n"


# A dotted name is a private name that the handler imports from its module when it runs.
@pytest.mark.parametrize("name, argv, stdin", [
    ("signature._theta", ["generate", "--theta", "sqrt(13)", "--count", "3"], ""),
    ("signature._runs", ["generate", "--theta", "sqrt(13)", "--count", "3"], ""),
    ("ramp_pieces", ["construct", "--n", "4"], ""),
    ("parse_terms", ["invert"], "1 2 3 4 1 5\n"),
    ("signature._diverge", ["diverge", "sqrt(2)", "3/2"], ""),
    ("parse_terms", ["check"], "1 2 1 3\n"),
    ("upper_trim", ["trim", "--upper"], "1 2 1 3\n"),
    ("lower_trim", ["trim", "--lower"], "1 2 1 3\n"),
    ("ramp_leaves", ["construct", "--n", "3", "--blocks", "4", "--enumerate"], ""),
    ("Branch", ["construct", "--n", "4", "--blocks", "5", "--branches", "0,1"], ""),
    ("ramp_leaf", ["construct", "--n", "4", "--blocks", "5", "--branches", "0,1"], ""),
])
def test_main_keeps_a_rebound_name(capsys, monkeypatch, name, argv, stdin):
    owner, _, name = name.rpartition(".")
    module = getattr(fractalseq, owner) if owner else cli
    real, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    code, _, err = run_cli(capsys, monkeypatch, argv, stdin)
    assert (code, err) == (0, "") and calls


def test_invert_folds_past_a_name_rebound_for_lists(capsys, monkeypatch):
    def takes_a_list(terms):
        len(terms)
        return theta_interval_from_prefix(terms)

    monkeypatch.setattr(cli, "theta_interval_from_prefix", takes_a_list)
    assert run_cli(capsys, monkeypatch, ["invert"], "1 2 3 4 1 5\n") == (0, "[3, 4]\n", "")


INVERT_BUILDS_NO_FRACTION = """
import sys
from fractalseq import cli
codes = [cli.main(["invert", path]) for path in sys.argv[1:]]
sys.stdout.flush()
assert codes == [0, 0] and not {"fractions", "decimal"} & set(sys.modules), codes
from fractions import Fraction
from fractalseq import EMPTY_INTERVAL, theta_interval_from_prefix
iv = theta_interval_from_prefix([1, 2, 3, 4, 1, 5])
assert type(iv.lo) is Fraction and type(iv.hi) is Fraction, iv
assert theta_interval_from_prefix([1, 3]) is EMPTY_INTERVAL
"""


def test_invert_prints_its_interval_without_loading_fractions(tmp_path):
    # A fresh interpreter: pytest's own plugins load decimal.
    paths = [tmp_path / "prefix.txt", tmp_path / "empty.txt"]
    paths[0].write_text(" ".join(map(str, SQRT13_PREFIX)))
    paths[1].write_text("1 3\n")
    proc = subprocess.run([sys.executable, "-S", "-c", INVERT_BUILDS_NO_FRACTION, *map(str, paths)],
                          capture_output=True, text=True, env=SRC_ENV, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{theta_interval_from_prefix(SQRT13_PREFIX)}\nEMPTY\n"


def test_cli_serves_exactly_the_public_names():
    assert all(getattr(cli, name) is getattr(fractalseq, name) for name in fractalseq.__all__)
    for name in ("no_such_name", "__path__", "_MODULE_OF", "import_module"):
        with pytest.raises(AttributeError, match="fractalseq.cli"):
            getattr(cli, name)


LOADED_BY = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["fractalseq"] + sys.argv[1:]
try:
    runpy.run_module("fractalseq", run_name="__main__")
except SystemExit as exc:
    code = exc.code
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


# The package modules each command loads.  runpy runs fractalseq.__main__
# without adding it to sys.modules, so it is not listed.
CORE = {"fractalseq", "fractalseq.cli", "fractalseq.seqcore"}
MODULES_OF = {"generate": CORE | {"fractalseq.signature"}, "check": CORE, "trim": CORE,
              "construct": CORE | {"fractalseq.construction"},
              "invert": CORE | {"fractalseq.inverse"},
              "diverge": CORE | {"fractalseq.signature"}}


# argparse, and what it loads, serve only --help and the argv the strict reader refuses.
ARGPARSE = {"argparse", "gettext", "shutil"}


# No command builds a Fraction: importing fractions loads decimal.
NO_FRACTION = {"fractions", "decimal"}
# Equal parameters, refused in integers: exit 2 and nothing on stdout.
REFUSED = ["diverge", "7/2", "14/4"]


@pytest.mark.parametrize("argv, stdin, absent", [
    (["generate", "--theta", "sqrt(13)", "--count", "5"], "", ARGPARSE | NO_FRACTION),
    (["check"], "1 2 1 3\n", ARGPARSE | {"fractions"}),
    (["trim", "--upper"], "1 2 1 3\n", ARGPARSE | {"fractions"}),
    (["construct", "--n", "4"], "", ARGPARSE | {"fractions"}),
    (["invert"], "1 2 3 4 1 5\n", ARGPARSE | {"fractions"}),
    (["diverge", "sqrt(2)", "3/2"], "", ARGPARSE | NO_FRACTION),
    (["generate", "--theta", "7/2", "--count", "5", "--json"], "", ARGPARSE | NO_FRACTION),
    (["construct", "--n", "3", "--blocks", "4", "--enumerate", "--type2"], "",
     ARGPARSE | {"fractions"}),
    (["invert", "--expect-nonempty"], "1 3\n", ARGPARSE | {"fractions"}),
    (["check"], "1 2 3 3\n", ARGPARSE | {"fractions"}),
    (["generate", "--theta=-1+2*sqrt(7)", "--count", "5", "--bfile"], "",
     ARGPARSE | NO_FRACTION),
    (["generate", "--help"], "", set()),
    (["generate", "--cou", "3", "--theta", "2"], "", set()),
    (REFUSED, "", ARGPARSE | NO_FRACTION),
])
def test_each_command_loads_only_what_it_runs(argv, stdin, absent):
    # -S keeps site hooks of the environment out of the picture.
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED_BY] + argv, input=stdin,
                          capture_output=True, text=True, env=SRC_ENV, check=False)
    loaded = set(proc.stderr.split())
    # --help exits before the handler loads its module.
    modules = CORE if "--help" in argv else MODULES_OF[argv[0]]
    assert {m for m in loaded if m.startswith("fractalseq")} == modules
    if argv == REFUSED:
        assert (proc.returncode, proc.stdout) == (2, "")
    else:
        assert proc.stdout
    assert not loaded & ({"dataclasses", "inspect"} | absent)
    if not absent & ARGPARSE:  # a row that argparse reads
        assert ARGPARSE <= loaded
