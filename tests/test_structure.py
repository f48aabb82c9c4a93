"""Source-level guarantees: no bare asserts, one suite table, one user of
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


def test_only_validate_complex_reaches_the_triple_scan():
    """The n^3 median scan is for outside input; generated complexes are
    certified by median.certified_complex instead."""
    def refs(tree):
        return sum(
            "median_triple_defects" in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None) if isinstance(node, ast.alias) else None,
            )
            for node in ast.walk(tree)
        )

    inside = 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = sum(
            refs(fn) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "validate_complex"
            and path.name == "median.py"
        )
        assert refs(tree) == allowed, f"{path.name} reaches median_triple_defects"
        inside += allowed
    assert inside >= 1
