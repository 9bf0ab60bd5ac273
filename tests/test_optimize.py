"""Proof bookkeeping must survive `python -O`.

`-O` strips `assert` statements, so no check in `src/isf` may be one: the
first test parses every module and fails on any `assert`.  The second
replays the whole golden corpus in one `python -O` process and compares
each output byte for byte with the recorded stdout.  The public surface
of `isf` is pinned too, with the names it no longer has.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isf

PACKAGE = Path(isf.__file__).resolve().parent
GOLDEN = Path(__file__).parent / "golden"


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _calls_itself(func, call) -> bool:
    """True iff call names func: `f(...)`, or `self.f(...)`/`cls.f(...)`."""
    target = call.func
    if isinstance(target, ast.Attribute):
        if getattr(target.value, "id", None) not in ("self", "cls"):
            return False  # a method of another object, e.g. a.to_json()
        return target.attr == func.name
    return getattr(target, "id", None) == func.name


def test_no_function_in_the_package_calls_itself():
    # every loop is explicit, so no input can exhaust the recursion limit
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{call.lineno} {func.name}"
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for call in ast.walk(func)
            if isinstance(call, ast.Call) and _calls_itself(func, call)
        ]
    assert found == []


PUBLIC = [
    "CyclicInput", "Forest", "IndexViolation",
    "InputError", "InvariantViolation", "MultiPoly",
    "NonCanonicalCycle", "NotASubset", "NotInGraph", "NotInImage",
    "NotIncreasing", "OrderedGraph", "Permutation", "PsiTrace",
    "SizeViolation", "StirlingRow", "TPoly", "a_poly", "brackets",
    "broken_circuits", "chromatic", "chromatic_polynomial",
    "complete_graph", "enumerate_if", "enumeration", "errors",
    "forest_to_permutation", "graphs", "injection", "is_admissible_goodvertex",
    "isf_counts", "isf_factorization_check", "isf_tpoly",
    "movable_edge_search", "peo_isf_check", "permutation_psi",
    "permutation_to_forest", "phi", "phi_inverse", "phi_reversed",
    "polynomials", "psi", "spanning_forests", "stirling", "stirling_row",
    "strong_logconcavity_check", "subset_pair_map", "verify_psi",
    "whitney_check",
]

# (old module, class or None, name): public names that no command reached
REMOVED = [
    ("injection", None, "select_j"),
    ("stirling", "Permutation", "identity"),
    ("stirling", "Permutation", "from_mapping"),
    ("polynomials", "MultiPoly", "variable"),
    ("polynomials", "MultiPoly", "__neg__"),
    ("polynomials", "MultiPoly", "__sub__"),
    ("polynomials", "MultiPoly", "from_json"),
    ("errors", None, "BadDegree"),
    ("chromatic", None, "has_perfect_elimination_order"),
    ("chromatic", None, "is_nbc"),
    ("polynomials", None, "elementary_symmetric"),
    ("chromatic", None, "BrokenCircuitConvention"),
    ("chromatic", None, "circuits"),
    ("chromatic", None, "IntPoly"),
    ("graphs", "Forest", "components"),
    ("polynomials", "MultiPoly", "is_zero"),
    ("graphs", "OrderedGraph", "sorted_edges"),
    ("polynomials", "MultiPoly", "zero"),
    ("polynomials", "MultiPoly", "one"),
    ("stirling", "Permutation", "cycle_count"),
]


def test_public_surface_is_pinned():
    assert sorted(isf.__all__) == PUBLIC


@pytest.mark.parametrize("module, owner, name", REMOVED)
def test_removed_names_are_gone(module, owner, name):
    for where in (isf, getattr(isf, module)):
        if owner is not None:
            where = getattr(where, owner)
        with pytest.raises(AttributeError):
            getattr(where, name)


REPLAY = """
import contextlib, io, json, os, sys
from isf.cli import main
if __debug__:
    sys.exit("asserts are still on")
os.chdir(sys.argv[1])
with open("cases.json") as fh:
    cases = json.load(fh)
differ = []
for case in sorted(cases):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(cases[case])
    with open(case + ".stdout", "rb") as fh:
        if status != 0 or out.getvalue().encode() != fh.read():
            differ.append(case)
print(json.dumps({"cases": len(cases), "differ": differ}))
"""


def test_golden_corpus_is_byte_identical_under_optimize_flag():
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", REPLAY, str(GOLDEN)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    cases = json.loads((GOLDEN / "cases.json").read_text())
    assert json.loads(done.stdout) == {"cases": len(cases), "differ": []}
