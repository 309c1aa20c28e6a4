"""``tools/parity.py``, the byte-parity gate, on a copy of ``src/``."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parity_quick(base_src):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py"),
                           "--base-src", str(base_src), "--quick"],
                          capture_output=True, text=True, timeout=120, check=False)


def test_parity_finds_a_copy_identical_and_names_a_one_character_change(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    same = parity_quick(copy)
    assert (same.returncode, same.stderr) == (0, "")
    assert same.stdout.startswith("parity: 12 cases, 16 runs; ")
    assert same.stdout.endswith("\nparity: stdout, stderr and exit code identical in every run\n")

    cli = copy / "fractalseq" / "cli.py"
    source = cli.read_text()
    cli.write_text(source.replace('"upper_ok: ', '"upper_oK: ', 1))
    assert cli.read_text() != source
    changed = parity_quick(copy)
    assert (changed.returncode, changed.stderr) == (1, "")
    assert "\nfirst difference: fractalseq check < sqrt13-40\n" in changed.stdout
    assert "\n-upper_oK: true\n+upper_ok: true\n" in changed.stdout
