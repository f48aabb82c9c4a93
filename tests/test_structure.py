"""Source-level guarantees: no bare asserts, one suite table, no caller of
the n^3 median scan, no majority kernel, one closure per instance source,
a local median certificate with one quadrangle check, read also by the
ball closure, one distance-2 pair table as index arrays and no dict, one
all-sources BFS, no interval tensor, no unused import,
one blocking kernel and one extremality count, one union-find and no
normal-form walk for the runs of a ball's edge labels, no check that
cannot fail, one read-only helper, no attribute set on
a frozen object, no indented json encoding outside the tests, no
hyperplane record, record cache or edge map beside the side and carrier
matrices, contact, crossing and reduced graphs held as bool matrices with
no dict-of-sets copy, the skeleton held as one bool matrix X.adjacency
(test_skeleton_is_a_matrix) read from the one stored form of the edges,
the index array X.edges (test_the_skeleton_is_stored_once), the derived data of a complex cached as cached
properties, the contact graph and I read from the one cached relation, the
Davis reflection mapped once, and every function the benchmark tracer pins by name
still public.  Two scans cover the whole package: every `raise LemmaViolation`
outside verify.py is one of the listed guards of a construction, and every
public function that no package code calls is listed with its reason."""

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import edge_names

import cubetact
from cubetact import cli
from cubetact import contact as ct
from cubetact import median as md
from cubetact import ragroups as rg
from cubetact import reconstruction as rc
from cubetact import verify
from cubetact.errors import NotMedian

SOURCES = sorted(Path(cubetact.__file__).parent.glob("*.py"))
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


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
    assert verify.run_suites(verify.SUITES, gamma="G") == list(verify.SUITES)
    # without a graph the group suites are not dispatched but reported skipped
    report = verify.run_suites(verify.SUITES)
    for name, entry in zip(verify.SUITES, report):
        if name in verify.GROUP_SUITES:
            assert entry["lemmaId"] == name and entry["skipped"] == "needs --graph"
        else:
            assert entry == name
    with pytest.raises(ValueError):
        verify.run_suites(["bogus"])


def test_no_source_module_calls_the_triple_scan():
    """Every complex is certified by the local certificate of validate_complex
    or by certified_complex on closed rows.  The n^3 median scan stays
    defined in median.py, where the benchmark's traced run measures it,
    only as the reference of tests/test_oracle.py."""
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


def test_no_majority_kernel_is_left():
    """The rows of both instance sources are closed without the n^3 majority
    kernel, which is the reference of tests/test_oracle.py only."""
    gone = ("_majority_round", "majority_closure", "majority_closed_locally", "_PAIRS", "_KS")
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        assert not [name for name in gone if re.search(rf"\b{name}\b", text)], path.name


def test_no_hyperplane_record_is_left():
    """A hyperplane is an int id with a row of sides, a row of carriers and
    its edges in edge_labels; the frozenset records, their cache and the
    edge map are the reference of tests/test_oracle.py only."""
    gone = (r"class Hyperplane\b", r"\b_records\b", r"\b_edge_to_h\b",
            r"\._hyperplanes\b", r"\.hyperplanes\b", r"\.hyperplane\(")
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        assert not [p for p in gone if re.search(p, text)], path.name
    assert not hasattr(cubetact, "Hyperplane") and not hasattr(md, "Hyperplane")


def test_contact_graphs_are_matrices():
    """The contact family's graphs are its bool matrices: contact builds no
    dict of sets from them (_adjacency) and writes no edge list from one
    (_graph_json), and no package call hands the skeleton's dict X.adj to
    the automorphism check or the clique search, which read matrices."""
    assert not hasattr(ct, "_adjacency") and not hasattr(ct, "_graph_json")
    for name in md.BUILTIN_COMPLEXES:
        F = ct.build_contact_family(md.builtin_complex(name))
        for M in (F.contact, F.crossing, F.reduced, F.class_of):
            assert isinstance(M, np.ndarray), name
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", None) == "_witness":  # verify's _witness(f, *args)
                func = node.args[0]
            if (isinstance(node, ast.Call) and getattr(func, "attr", getattr(func, "id", None))
                    in ("verify_automorphism", "maximal_cliques")):
                calls.append(node)
                args = node.args + [k.value for k in node.keywords]
                adj = [a for a in args for n in ast.walk(a) if getattr(n, "attr", None) == "adj"]
                assert not adj, f"{path.name}:{node.lineno} passes X.adj"
    assert len(calls) >= 6


def test_majority_closure_runs_only_where_medians_may_be_missing():
    """Random codes are closed by their pairwise projections; a ball's rows
    are closed by quadrangle repair, which only median_closure runs."""
    assert users("_projection_closure") == {("median.py", "random_median_complex")}
    assert users("_repair_quadrangles") == {("ragroups.py", "median_closure")}


def test_one_quadrangle_check():
    """A quadrangle check reads the common neighbours of the distance-2 pairs.
    Their arrays are read only by the squares, links and extremality, the
    convexity check and the generator _quadrangle_failures, read in turn only by
    validate_complex (its first item) and the ball closure (each round's
    repairs).  _pair_table builds them from X.adjacency: in validate_complex
    first, for its K_{2,3} check, or on first access."""
    assert users("_quadrangle_failures") == {
        ("median.py", "validate_complex"), ("median.py", "_repair_quadrangles")}
    assert users("pair_table") == {
        ("median.py", "CubeComplex"), ("median.py", "link_graph"), ("median.py", "extremality"),
        ("median.py", "_nonconvex"), ("median.py", "_quadrangle_failures"),
        ("median.py", "validate_complex")}
    assert users("_pair_table") == {("median.py", "CubeComplex")}


def test_skeleton_is_a_matrix():
    """The skeleton is one read-only bool matrix, X.adjacency: a complex keeps
    no dict of sets (X.adj) and median.py has no second builder
    (_adjacency_matrix); the pair table, extremality and the convexity
    check read its arcs and compute no == 1.  The reconstruction and the
    syllable graph are bool matrices too: the only BFS loop of ragroups.py
    is build_ball's word BFS, and syllable_distance walks its matrix with
    median._distances."""
    X = md.builtin_complex("Q3")
    assert not hasattr(X, "adj") and not hasattr(md, "_adjacency_matrix")
    assert X.adjacency.dtype == bool and not X.adjacency.flags.writeable
    tree = ast.parse(Path(md.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("pair_table", "_pair_table", "extremality", "_nonconvex"):
        ones = [node.lineno for node in ast.walk(defs[name]) if isinstance(node, ast.Compare)
                and any(isinstance(op, ast.Eq) for op in node.ops)
                and any(getattr(c, "value", None) == 1 for c in node.comparators)]
        assert not ones, f"{name} computes == 1 at lines {ones}"
    assert users("deque") == {("ragroups.py", "build_ball")}
    assert ("ragroups.py", "syllable_distance") in median_users("_distances")
    ball = rg.build_ball(rg.builtin_defining_graph("EDGE2"), rg.ARTIN, 2)
    for M in (rc.reconstruct(rc.clique_atlas(ball.complex).cliques), rg._syllable_graph(ball)):
        assert isinstance(M, np.ndarray) and M.dtype == bool


def test_the_skeleton_is_stored_once():
    """A complex stores its edges once, as X.edges: the read-only (m, 2)
    intp array of index pairs, each with the smaller name first, rows in
    sorted-name order.  No other edge form is left: no set-order pairs
    (_pairs), no name-ordered copy (_ends), no name-tuple list
    (_edge_list), no frozenset view, no second matrix builder
    (_edge_matrix), no label per ball edge (Ball.edge_label).  The
    constructor takes index pairs in either orientation, repeated, or
    X.edges itself, and refuses an index outside range(n) and a self-loop.
    X.adjacency has the one source: given a metric whose distance-1 pairs
    are not the edges, it is still the matrix of the edges.
    X.edge_labels[0] is X.edges, and X.squares is an index array too."""
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        gone = [name for name in (r"_edge_list", r"_edge_matrix", r"\bedge_label\b",
                                  r"\b_pairs\b", r"\b_ends\b") if re.search(name, text)]
        assert not gone, f"{path.name} names {gone}"
    assert "edge_label" not in {f.name for f in dataclasses.fields(rg.Ball)}
    path = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    X = md.CubeComplex("cab", [(2, 1), [1, 2], np.array([1, 2])], path)
    assert X.edges.tolist() == [[1, 2]] and X.edges.dtype == np.intp
    assert X.adjacency.tolist() == [[False, False, False], [False, False, True],
                                    [False, True, False]]
    X = md.CubeComplex("dcba", np.array([(0, 1), (2, 1), (3, 2)]), None)
    assert X.edges.tolist() == [[3, 2], [2, 1], [1, 0]]  # ab, bc, cd
    for edges, text in (([(0, 4)], r"edge \[0, 4\] has an index outside range\(4\)"),
                        ([(0, 1), (-1, 0)], r"edge \[-1, 0\] has an index outside range"),
                        ([(2, 2)], r"^self-loop at 'b'; the graph must be simple$")):
        with pytest.raises(ValueError, match=text):
            md.CubeComplex("dcba", edges, None)
    for X in (md.builtin_complex("SQUARE"), md.random_median_complex(5, 6, 3)):
        ends, label = X.edge_labels
        assert ends is X.edges and label.dtype == np.intp and ends.shape == (len(label), 2)
        assert not X.edges.flags.writeable and not X.squares.flags.writeable
        assert X.squares.dtype == np.intp and X.squares.shape[1] == 4
        Y = md.CubeComplex(X.vertices, X.edges, X._dist, X.squares)
        assert np.array_equal(Y.edges, X.edges) and np.array_equal(Y.squares, X.squares)
        assert edge_names(X) == sorted(tuple(sorted(e)) for e in edge_names(X))


def test_no_dict_pair_table_is_left():
    """The distance-2 pair table is one pair of index arrays: median.py
    builds no dict of lists (the common neighbours of each pair), and no
    module copies one into arrays by _pair_arrays; the dict builder is the
    reference of tests/test_oracle.py."""
    path = Path(md.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lists = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault"
        and len(node.args) == 2 and isinstance(node.args[1], ast.List)
    ]
    assert not lists, f"median.py builds a dict of lists at lines {lists}"
    for path in SOURCES:
        assert not re.search(r"\b_pair_arrays\b", path.read_text(encoding="utf-8")), path.name
    for X in (md.builtin_complex("Q3"), md.random_median_complex(5, 6, 3)):
        vw, common = X.pair_table
        assert vw.shape == common.shape == (len(vw), 2) and vw.dtype == common.dtype == np.intp


def test_only_validate_complex_computes_all_pairs_distances():
    """Outside input is the one place where distances come from a BFS of
    every source; generated complexes take their Hamming distances."""
    assert users("_all_distances") == {("median.py", "validate_complex")}


def test_validate_complex_reaches_neither_the_kernel_nor_the_classes(monkeypatch):
    """validate_complex certifies by the pair table alone: neither closure
    kernel (the projections, the quadrangle repair) nor the Djokovic-Winkler
    classes are computed on its path."""
    X = md.random_median_complex(5, 6, 3)  # built before the patch

    def unreachable(*args, **kwargs):
        raise AssertionError("validate_complex reached a forbidden function")

    monkeypatch.setattr(md, "_projection_closure", unreachable)
    monkeypatch.setattr(md, "_repair_quadrangles", unreachable)
    monkeypatch.setattr(md, "compute_hyperplanes", unreachable)
    for name in md.BUILTIN_COMPLEXES:
        md.builtin_complex(name)
    assert np.array_equal(md.validate_complex(X.vertices, edge_names(X)).squares, X.squares)
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


# (file, top-level definition) -> its guards: the raises of LemmaViolation
# without which the object being built is not defined
GUARDS = {
    ("ragroups.py", "median_closure"): 1,  # the named median has the majority walls
    ("ragroups.py", "davis_phi"): 1,  # an image for each A+ plane
}


def lemma_raises():
    """(file, top-level definition) -> number of `raise LemmaViolation` in
    it, over every module of src/ but verify.py."""
    found = Counter()
    for path in SOURCES:
        if path.name == "verify.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Raise):
                    continue
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if "LemmaViolation" in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                    found[path.name, getattr(top, "name", "<module>")] += 1
    return dict(found)


def test_core_raises_lemma_violation_only_at_its_guards():
    """Theorem checks live in the verify suites and the tests, not on the
    computing path: outside verify.py, LemmaViolation is raised only by the
    guards of a construction."""
    assert lemma_raises() == GUARDS


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
    """The same scan, read for the computing core function by function."""
    key = (f"{module}.py", func)
    assert lemma_raises().get(key, 0) == GUARDS.get(key, 0)


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


def definition(module, name):
    """The ast of the top-level definition name in src/cubetact/module.py."""
    path = Path(cubetact.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (top,) = [node for node in tree.body if getattr(node, "name", None) == name]
    return top


@pytest.mark.parametrize("module, name, kinds", [
    ("verify", "_iw", (ast.Yield, ast.YieldFrom)),  # the I0 and dimension claims
    ("verify", "_kernel", (ast.Yield, ast.YieldFrom)),  # order two
    ("contact", "pushforward_reduced", (ast.Raise,)),  # classes go onto classes
    ("ragroups", "syllable_distance", (ast.If, ast.Raise)),  # every vertex is reached
])
def test_checks_that_cannot_fail_are_gone(module, name, kinds):
    """Each claim follows from a check before it or from how its object is
    built; the proof is in the docstring, and a test pins the invariant."""
    nodes = [node for node in ast.walk(definition(module, name)) if isinstance(node, kinds)]
    assert not nodes, [node.lineno for node in nodes]


def test_one_read_only_helper():
    """An array is made read-only in one place, median._frozen."""
    assert users("writeable") == {("median.py", "_frozen")}
    assert users("setflags") == set()


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


def test_no_attribute_set_on_frozen_objects():
    """No frozen dataclass, a Ball above all, carries a hidden cache."""
    for path in SOURCES:
        assert "object.__setattr__" not in path.read_text(encoding="utf-8"), path.name


def test_runs_take_no_normal_form_walk():
    """Segment classes, the syllable graph and the extension graph read the
    ball's edge labels; none of them multiplies normal forms."""
    runs = {"_segment_classes", "_syllable_graph", "syllable_distance",
            "extension_graph_ball", "interior_reduced_classes"}
    assert not {("ragroups.py", f) for f in runs} & users("nf_mult")


def test_one_union_find():
    """One union-find helper, read by the segment classes and the syllable
    graph; no other definition keeps a parent map or a find."""
    assert users("_components") == {
        ("ragroups.py", "_segment_classes"), ("ragroups.py", "_syllable_graph")}
    finders = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                named = getattr(node, "id", None) or getattr(node, "name", None) or ""
                if re.fullmatch(r"_?(parent|find|union)", named):
                    finders.add((path.name, getattr(top, "name", "<module>")))
    assert finders == {("ragroups.py", "_components")}


def test_no_indented_json_dumps_in_source():
    """The CLI writes its indented layout with cli._encode alone; the
    standard library's indented encoder is its oracle in the tests."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls = [
            node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] in ("dump", "dumps", "JSONEncoder")
            and any(k.arg == "indent" for k in node.keywords)
        ]
        assert not calls, f"{path.name} encodes indented json at lines {calls}"


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
    """Extremality is one count over the pair table.  No package code builds a
    link graph; link_graph, is_cone and is_extremal stay public for callers
    outside the package."""
    assert median_users("link_graph") == set()
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


CACHED = ("adjacency", "pair_table", "squares", "ids_at", "dimension")


def test_derived_data_have_one_cache():
    """The lazy data of a complex are cached properties, with no slot of
    their own; the only attribute caches are the hyperplane slots that
    compute_hyperplanes fills and the slot of contact._relation."""
    for name in CACHED:
        assert isinstance(inspect.getattr_static(md.CubeComplex, name),
                          functools.cached_property), name
    X = md.builtin_complex("DOMINO")
    for name in CACHED:
        getattr(X, name)
    assert set(CACHED) <= set(vars(X))
    assert {k for k in vars(X) if k.startswith("_")} == {
        "_dist", "_sides", "_carriers", "_edge_label", "_relation"}


def test_contact_graph_and_I_are_read_from_the_relation(monkeypatch, x_c5_r2, y_c5_r3):
    """The atlas, a total iota, the kernel, iw and roundtrip suites and the
    star-inclusion check read the contact matrix and I of contact._relation:
    they run with the contact family and the interaction-set records patched
    to raise."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a contact family or an interaction-set record was built")

    monkeypatch.setattr(ct, "build_contact_family", unreachable)
    monkeypatch.setattr(ct, "interaction_sets", unreachable)
    X = md.builtin_complex("DOMINO")
    assert rc.clique_atlas(X).cliques
    assert rc.induce_iota(X, {v: v for v in X.vertices}) == {
        h: h for h in range(len(X.sides))}
    instances = [("domino", X), ("square", md.builtin_complex("SQUARE"))]
    for entry in (verify.suite_kernel(instances), verify.suite_iw(instances),
                  verify.suite_roundtrip([("C5", x_c5_r2)])):
        assert entry["violations"] == [] and "refused" not in entry, entry["lemmaId"]
    assert rg.star_inclusion_I_check(y_c5_r3)["mismatches"] == []


def test_davis_maps_the_reflection_once(monkeypatch):
    """The davis suite reads the reflection's hyperplane map from davis_phi
    (DavisPhi.reflected): one davis item translates the ball once."""
    real, calls = rg._translation, []
    monkeypatch.setattr(rg, "_translation", lambda *a: calls.append(a) or real(*a))
    entry = verify.suite_davis(rg.builtin_defining_graph("P4"), 4, "a", "b")
    assert entry["violations"] == [] and len(calls) == 1


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


def uncalled_public_functions():
    """(module, name) of the public module-level functions of src/ that no
    other definition of the package names: by its bare name in its own
    module or in one that imports it, or as an attribute of its module."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.name != "__init__.py"}
    public = {(m, top.name) for m, tree in trees.items() for top in tree.body
              if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")}
    called = set()
    for m, tree in trees.items():
        module_of, source_of = {}, {}  # local name -> module, -> (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        module_of[local] = alias.name
                    else:
                        source_of[local] = (node.module, alias.name)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    target = source_of.get(node.id, (m, node.id))
                elif (isinstance(node, ast.Attribute)
                      and getattr(node.value, "id", None) in module_of):
                    target = (module_of[node.value.id], node.attr)
                else:
                    continue
                if target != (m, getattr(top, "name", None)):
                    called.add(target)
    return public - called


TRACER_PIN = "pinned by name in perfbench/tracer.py"
SUITE = "a verify suite, dispatched by name by verify.run_suites"
UNCALLED = {
    ("contact", "interaction"): TRACER_PIN,
    ("median", "is_cone"): TRACER_PIN,
    ("median", "is_convex_set"): TRACER_PIN,
    ("median", "is_extremal"): TRACER_PIN,
    ("median", "link_graph"): TRACER_PIN,
    ("median", "separating"): TRACER_PIN,
    ("ragroups", "definitional_I"): TRACER_PIN,
    ("ragroups", "parse_word"): TRACER_PIN,
    ("ragroups", "syllable_distance"): TRACER_PIN,
    ("reconstruction", "adjacency_criterion"): TRACER_PIN,
    ("reconstruction", "rho_vertex"): TRACER_PIN,
    ("median", "median_triple_defects"):
        "the tracer counts its spans, and tests/test_oracle.py's n^3 reference",
    ("ragroups", "star_inclusion_I_check"): "the README example",
    ("contact", "all_interaction_sets"):
        "tests/test_oracle.py compares analyze's interaction section with it",
    ("ragroups", "syllable_shuffle"): "acceptance criterion 10",
    ("median", "hyperplane_complex"): "a kept construction: a hyperplane's cube complex",
    ("contact", "pushforward_reduced"):
        "a kept construction: a crossing automorphism on the reduced graph",
    **{("verify", "suite_" + name.replace("-", "_")): SUITE for name in verify.SUITES},
}


def test_every_uncalled_public_function_has_a_reason():
    """A public function no package code calls is dead unless it is listed
    here with its reason; each tracer pin is in the tracer's list."""
    assert uncalled_public_functions() == set(UNCALLED)
    pins = set(tracer_pins())
    for (module, func), reason in UNCALLED.items():
        assert reason != TRACER_PIN or f"{module}.{func}" in pins, (module, func)
    root = Path(__file__).resolve().parent.parent
    assert "median.median_triple_defects" in (root / "perfbench" / "tracer.py").read_text()
    assert "star_inclusion_I_check" in (root / "README.md").read_text()
