"""Source-level guarantees: no bare asserts, one suite table, no caller of
the n^3 median scan."""

import ast
from pathlib import Path

import pytest

import cubetact
from cubetact import verify

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
    """Every complex is certified by Θ-classes and the majority kernel.  The
    n^3 median scan stays defined in median.py, where the benchmark's traced
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
