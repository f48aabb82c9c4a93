"""Source-level guarantees: no bare asserts, one suite table, no caller of
the n^3 median scan, one caller of the majority round, a local median
certificate, and no theorem check inside the computing core."""

import ast
from pathlib import Path

import pytest

import cubetact
from cubetact import median as md
from cubetact import verify
from cubetact.errors import NotMedian

SOURCES = sorted(Path(cubetact.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_source(path):
    """Checks must raise, not assert: asserts vanish under python -O."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_run_suites_dispatches_every_suite_by_name(monkeypatch):
    for name in verify.SUITES:
        func = "suite_" + name.replace("-", "_")
        monkeypatch.setattr(verify, func, lambda *a, _n=name, **k: _n)
    assert verify.run_suites(verify.SUITES) == list(verify.SUITES)
    with pytest.raises(ValueError):
        verify.run_suites(["bogus"])


def test_no_source_module_calls_the_triple_scan():
    """Every complex is certified by the local certificate of validate_complex
    or by the majority kernel.  The n^3 median scan stays defined in median.py, where the benchmark's traced
    run measures it, only as the reference of tests/test_oracle.py."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        uses = [
            node.lineno for node in ast.walk(tree)
            if "median_triple_defects" in (getattr(node, "id", None),
                                           getattr(node, "attr", None))
            or isinstance(node, ast.alias) and node.name == "median_triple_defects"
        ]
        assert not uses, f"{path.name} uses median_triple_defects at lines {uses}"


def test_majority_round_is_called_only_by_majority_closure():
    """The random generator and the ball closure share one kernel; outside
    input is certified without it."""
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if "_majority_round" in (getattr(node, "id", None),
                                         getattr(node, "attr", None)):
                    callers.add((path.name, getattr(top, "name", "<module>")))
    assert callers == {("median.py", "majority_closure")}


def test_validate_complex_reaches_neither_the_kernel_nor_the_classes(monkeypatch):
    """validate_complex certifies by the pair table alone: the majority
    round and the Djokovic-Winkler classes are never computed on its path."""
    X = md.random_median_complex(5, 6, 3)  # built with the kernel, before the patch

    def unreachable(*args, **kwargs):
        raise AssertionError("validate_complex reached a forbidden function")

    monkeypatch.setattr(md, "_majority_round", unreachable)
    monkeypatch.setattr(md, "compute_hyperplanes", unreachable)
    for name in md.BUILTIN_COMPLEXES:
        md.builtin_complex(name)
    assert md.validate_complex(X.vertices, X.edges).squares == X.squares
    for edges in (["ab", "bc", "ca"], ["ab", "bc", "cd", "de", "ef", "fa"],
                  ["ac", "ad", "ae", "bc", "bd", "be"]):
        with pytest.raises(NotMedian):
            md.validate_complex(sorted(set("".join(edges))), edges)


def test_no_ladder_walk_is_left():
    """Certified input never fails the class check, so its ladder walk is gone."""
    for path in SOURCES:
        assert "_ladder" not in path.read_text(encoding="utf-8"), path.name


@pytest.mark.parametrize("module, func", [
    ("contact", "_relation"),
    ("reconstruction", "clique_atlas"),
    ("reconstruction", "kernel_subgroup"),
])
def test_core_functions_only_compute(module, func):
    """Theorem checks live in the verify suites, not on the computing path."""
    path = Path(cubetact.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func]
    raised = [
        node.lineno for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and "LemmaViolation" in ast.unparse(node)
    ]
    assert not raised, f"{module}.{func} raises LemmaViolation at lines {raised}"
