import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import fractalseq
from fractalseq import ConstructionState, FractalCheck, SeamMerge, Surd, ThetaInterval
from fractalseq import construction, inverse, seqcore, signature

PUBLIC_NAMES = [
    "AnnotatedTerm", "Branch", "ConstructionError", "ConstructionState",
    "EMPTY_INTERVAL", "ExactNumber", "FractalCheck", "SeamMerge",
    "SegmentKind", "Surd", "ThetaInterval", "annotate_ranks",
    "brute_force_signature", "check_doubly_fractal_prefix", "compare_affine",
    "construct_ones", "construct_ramp_state", "enumerate_ramp",
    "extend_next_block", "extend_second_block", "first_divergence",
    "generate_signature", "init_ramp", "lower_trim", "merge_seams",
    "needs_branch", "parse_terms", "parse_theta", "ramp_leaf", "ramp_leaves", "ramp_pieces",
    "rank_stream", "seam_above", "seam_below", "seed_interval", "signature_runs",
    "theta_interval_from_prefix", "upper_trim",
]


def test_public_names_are_unchanged():
    assert fractalseq.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fractalseq import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(fractalseq, name) for name in PUBLIC_NAMES)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        fractalseq.no_such_name


ROOT = Path(__file__).resolve().parents[1]
LOADED = "sorted(m for m in sys.modules if m.startswith('fractalseq'))"


def run_fresh(script):
    """stdout of ``script`` in a fresh interpreter; -S keeps site hooks out."""
    proc = subprocess.run([sys.executable, "-S", "-c", "import sys\n" + script],
                          capture_output=True, text=True, check=False,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


@pytest.mark.parametrize("leaf", ["signature", "construction", "inverse"])
def test_a_leaf_module_imports_only_seqcore(leaf):
    loaded = run_fresh(f"import fractalseq.{leaf}\nprint({LOADED})")
    assert loaded == f"{sorted(['fractalseq', 'fractalseq.seqcore', f'fractalseq.{leaf}'])}\n"


def test_an_interval_loads_signature_only_to_test_membership():
    out = run_fresh(f"""from fractions import Fraction
from fractalseq import theta_interval_from_prefix
iv = theta_interval_from_prefix([1, 2, 3, 4, 1, 5])
print(iv, {LOADED})
print(iv.contains(Fraction(7, 2)), {LOADED})""")
    assert out == ("[3, 4] ['fractalseq', 'fractalseq.inverse', 'fractalseq.seqcore']\n"
                   "True ['fractalseq', 'fractalseq.inverse', 'fractalseq.seqcore', "
                   "'fractalseq.signature']\n")


def test_moved_names_are_served_from_their_modules():
    assert fractalseq.first_divergence is signature.first_divergence
    assert fractalseq.SegmentKind is inverse.SegmentKind


def test_every_public_annotation_resolves():
    # Annotations are strings under `from __future__ import annotations`;
    # each must name something its module imports, private definitions
    # included.  Methods that NamedTuple generates come from another
    # module and are skipped; __main__ runs the CLI when imported.
    modules = [fractalseq] + [importlib.import_module(f"fractalseq.{info.name}")
                              for info in pkgutil.iter_modules(fractalseq.__path__)
                              if info.name != "__main__"]
    annotated = []
    for module in modules:
        defined = [(name, obj) for name, obj in vars(module).items()
                   if (inspect.isclass(obj) or inspect.isfunction(obj))
                   and obj.__module__ == module.__name__]
        for name, obj in defined:
            annotated.append((f"{module.__name__}.{name}", obj))
            for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member) and member.__module__ == obj.__module__:
                    annotated.append((f"{module.__name__}.{name}.{attr}", member))
    unresolved = []
    for label, obj in annotated:
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{label}: {exc}")
    assert "fractalseq.cli._parse_branches" in dict(annotated)
    assert unresolved == []


def test_construction_error_is_one_class():
    assert construction.ConstructionError is seqcore.ConstructionError
    assert fractalseq.ConstructionError is seqcore.ConstructionError


VALUES = [
    Surd.sqrt(13),
    ThetaInterval(Fraction(1, 4), True, Fraction(1, 3), True),
    FractalCheck(True, False, 3),
    SeamMerge(6, (6, 3, 1), 2),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_fields_are_read_only(value):
    for name in ("a", "b", "d", "c") if isinstance(value, Surd) else value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_reprs_keep_their_format():
    assert repr(VALUES[0]) == "Surd(a=0, b=1, d=13, c=1)"
    assert repr(VALUES[1]) == ("ThetaInterval(lo=Fraction(1, 4), lo_closed=True, "
                               "hi=Fraction(1, 3), hi_closed=True)")


def test_surd_survives_copy_and_pickle():
    theta = Surd.make(1, 2, 5, 3)
    for twin in (copy.copy(theta), copy.deepcopy(theta), pickle.loads(pickle.dumps(theta))):
        assert twin == theta and hash(twin) == hash(theta) and repr(twin) == repr(theta)


def test_construction_state_defaults_are_fresh():
    a, b = (ConstructionState(2) for _ in range(2))
    assert a.branch_log == [] and a.branch_log is not b.branch_log
    assert a.cursors == (0, 1, 3) and a.fresh == 3
    with pytest.raises(AttributeError):
        a.extra = 0


def test_readme_library_example_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    run, iv, regen = namespace["run"], namespace["iv"], namespace["regen"]
    assert namespace["check_doubly_fractal_prefix"](run).ok
    assert str(iv) == "[10/3, 7/2]"
    assert [t.value for t in regen] == run
