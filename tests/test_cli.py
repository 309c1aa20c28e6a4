import io
import json
import os
import random
import subprocess
import sys

import pytest

from fractalseq import rank_stream
from fractalseq.cli import main

from fixtures import RAMP4_RANK_STREAM, RAMP4_TERMS, SQRT13_PREFIX


def run_cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
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
                assert plain[2].startswith("error: branch list exhausted")
                assert type2 == plain
            else:
                ranks = rank_stream([int(x) for x in plain[1].split()])
                assert type2 == (0, "".join(f"{r}\n" for r in ranks), "")
    assert 0 < exhausted < 30


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
    # Every block holds 1..n, so a run has at least n * blocks terms.
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", "20")
    code, out, err = run_cli(capsys, monkeypatch,
                             ["construct", "--n", "3", "--blocks", "7"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "cap of 20" in err


def test_construct_accepts_exactly_cap_main_terms(capsys, monkeypatch):
    monkeypatch.setenv("FRACTALSEQ_MAX_TERMS", "20")
    code, out, err = run_cli(capsys, monkeypatch,
                             ["construct", "--n", "4", "--blocks", "5",
                              "--branches", "0,1"])
    assert (code, err) == (0, "")
    assert [int(x) for x in out.split()] == RAMP4_TERMS


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


# --- plumbing ------------------------------------------------------------------------

def test_no_command_is_usage_error(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, monkeypatch, [])
    assert code == 2


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
