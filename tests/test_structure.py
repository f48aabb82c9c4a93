"""Source-level guarantees: no bare asserts, one suite table, no caller of
the n^3 median scan, one caller of the majority round, the kernel only
where medians may be missing, a local median certificate with one
quadrangle check, one all-sources BFS, no interval tensor, no theorem
check inside the computing core, no unused import, one blocking kernel
and one extremality count, and every function the benchmark tracer pins by
name still public."""

import ast
import dataclasses
import importlib
import inspect
import json
from pathlib import Path

import pytest

import cubetact
from cubetact import cli
from cubetact import contact as ct
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


def users(name):
    """(file, top-level definition) pairs of src/ whose code names `name`."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if name in (getattr(node, "id", None), getattr(node, "attr", None)):
                    found.add((path.name, getattr(top, "name", "<module>")))
    return found


def test_majority_round_is_called_only_by_majority_closure():
    """The random generator and the ball closure share one kernel; outside
    input is certified without it."""
    assert users("_majority_round") == {("median.py", "majority_closure")}


def test_majority_closure_runs_only_where_medians_may_be_missing():
    """Random points are closed by the kernel; a ball reaches it only through
    median_closure, after its local test fails."""
    assert users("majority_closure") == {
        ("median.py", "random_median_complex"), ("ragroups.py", "median_closure")}
    assert users("majority_closed_locally") == {("ragroups.py", "median_closure")}


def test_one_quadrangle_check():
    """A quadrangle check reads the common neighbours of the distance-2 pairs.
    They are read only by the squares and links, the convexity check and
    _quadrangle_failure, which validate_complex and the ball test share;
    validate_complex builds the table first, for its K_{2,3} check."""
    assert users("_quadrangle_failure") == {
        ("median.py", "validate_complex"), ("median.py", "majority_closed_locally")}
    assert users("_pair_arrays") == {
        ("median.py", "_nonconvex"), ("median.py", "_quadrangle_failure")}
    assert users("pair_table") == {
        ("median.py", "CubeComplex"), ("median.py", "_pair_arrays"),
        ("median.py", "link_graph"), ("median.py", "validate_complex")}


def test_only_validate_complex_computes_all_pairs_distances():
    """Outside input is the one place where distances come from a BFS of
    every source; generated complexes take their Hamming distances."""
    assert users("_all_distances") == {("median.py", "validate_complex")}


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


def test_no_interval_tensor_is_left():
    """Convexity is checked locally, so no n^3 interval tensor or its cache
    stays in the package; the tensor is the reference of tests/test_oracle.py."""
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        assert "_interval_tensor" not in text and "_itensor" not in text, path.name


# the guards without which a construction's object is not defined, each
# matched by a phrase of its text
GUARDS = {
    "halfspace_twist": ("changes the length",),
    "davis_phi": ("straddles", "ill-defined"),
}


@pytest.mark.parametrize("module, func", [
    ("contact", "_relation"),
    ("contact", "_reduced_classes"),
    ("contact", "build_contact_family"),
    ("reconstruction", "clique_atlas"),
    ("reconstruction", "kernel_subgroup"),
    ("ragroups", "_segment_classes"),
    ("ragroups", "halfspace_twist"),
    ("ragroups", "davis_phi"),
])
def test_core_functions_only_compute(module, func):
    """Theorem checks live in the verify suites, not on the computing path;
    a construction raises LemmaViolation only at its guards."""
    guards = GUARDS.get(func, ())
    path = Path(cubetact.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func]
    raised = [
        node.lineno for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and "LemmaViolation" in ast.unparse(node)
        and not any(g in ast.unparse(node) for g in guards)
    ]
    assert not raised, f"{module}.{func} raises LemmaViolation at lines {raised}"


def test_constructions_do_not_certify_themselves():
    """The twist suite checks the automorphism; ragroups never calls the
    check or imports reconstruction, and the relation keeps no T @ T."""
    assert all(f != "ragroups.py" for f, _ in users("verify_automorphism"))
    path = Path(cubetact.__file__).parent / "ragroups.py"
    imported = {
        name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for name in [node.module] + [alias.name for alias in node.names]
    }
    assert "reconstruction" not in imported
    assert "common" not in {f.name for f in dataclasses.fields(ct._Relation)}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a module imports at top level is used in it; __init__.py
    is the re-export module and is exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} imports unused names {unused}"


def test_one_blocking_kernel():
    """The blocking predicate of the reconstruction and the adjacency
    criterion is one row kernel, read by its three callers."""
    assert users("_joined") == {
        ("reconstruction.py", "reconstruct"),
        ("reconstruction.py", "adjacency_criterion"),
        ("verify.py", "_criterion"),
    }


def median_users(name):
    """(file, top-level definition) pairs of src/ that call median's `name`:
    by its bare name, or as an attribute of the median module."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                bare = isinstance(node, ast.Name) and node.id == name
                attr = (isinstance(node, ast.Attribute) and node.attr == name
                        and ast.unparse(node.value) in ("_median", "median"))
                if bare or attr:
                    found.add((path.name, getattr(top, "name", "<module>")))
    return found


def test_extremality_builds_no_link_graph():
    """Extremality is one count over the squares.  The link graph is built
    only by check_ball_links, which no package code calls; is_cone and
    is_extremal stay public for callers outside the package."""
    assert median_users("link_graph") == {("ragroups.py", "check_ball_links")}
    assert users("check_ball_links") == set()
    assert median_users("is_cone") == set()
    assert median_users("is_extremal") == set()
    assert median_users("extremality") == {
        ("median.py", "is_extremal"), ("reconstruction.py", "clique_atlas"),
        ("verify.py", "_cone_links")}


def test_analyze_and_verify_reach_no_link_graph(monkeypatch, tmp_path, capsys):
    """analyze, and the verify suites that read extremality, run with the
    link-graph functions patched to raise."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a link graph was built")

    for name in ("link_graph", "is_cone", "is_extremal"):
        monkeypatch.setattr(md, name, unreachable)
    doc = tmp_path / "tripod.json"
    doc.write_text(json.dumps(md.complex_to_json(md.builtin_complex("TRIPOD"))))
    assert cli.main(["analyze", "--in", str(doc), "--dot"]) == 0
    assert cli.main(["verify", "--builtin", "DOMINO", "--builtin", "TRIPOD",
                     "--graph", "C5", "--suite", "cliques", "--suite", "cone-links",
                     "--suite", "criterion", "--suite", "roundtrip"]) == 0
    capsys.readouterr()


def tracer_pins():
    """The names perfbench/tracer.py wraps by name: HOT and the hook keys."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    pins = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) in ("HOT", "hooks")):
            continue
        value = node.value
        if isinstance(value, ast.Call):  # HOT = frozenset({...})
            value = value.args[0]
        keys = value.keys if isinstance(value, ast.Dict) else value.elts
        pins |= {ast.literal_eval(k) for k in keys}
    return sorted(pins)


def test_tracer_pins_public_functions():
    """A traced benchmark run stops when a pinned name is gone, so each is
    a public function of its cubetact module."""
    pins = tracer_pins()
    assert "median.link_graph" in pins and "median.validate_complex" in pins
    for pin in pins:
        module, _, func = pin.partition(".")
        mod = importlib.import_module(f"cubetact.{module}")
        fn = getattr(mod, func, None)
        assert inspect.isfunction(fn) and not func.startswith("_"), pin
        assert fn.__module__ == mod.__name__, pin
