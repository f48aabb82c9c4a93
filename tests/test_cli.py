"""End-to-end runs of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubetact import cli

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_builtin_q3(capsys):
    code, out, _ = run(capsys, "generate", "--builtin", "Q3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 8


def test_generate_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "generate", "--random", "6", "5", "42")
    code2, out2, _ = run(capsys, "generate", "--random", "6", "5", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "generate", "--random", "6", "5", "43")
    assert code3 == 0 and out3 != out1


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """main builds the parser on its first call and reads it on the later
    ones, so the outputs do not change from call to call."""
    calls = []

    def counted():
        calls.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        outs = [run(capsys, "generate", "--random", "6", "5", "42") for _ in range(3)]
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1 and outs[0][0] == 0 and outs.count(outs[0]) == 3


def test_generate_ball(capsys):
    code, out, _ = run(capsys, "generate", "--ball", "EDGE2", "artin", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "artin" and doc["radius"] == 2
    assert len(doc["vertices"]) == 13


def test_generate_ball_rejects_unknown_kind(capsys):
    code, out, err = run(capsys, "generate", "--ball", "C5", "foo", "1")
    assert code == 2 and "kind" in err and out == ""


def test_generate_requires_source(capsys):
    code, _, err = run(capsys, "generate")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv, named", [
    (["--builtin", "EDGE", "--random", "3", "2", "1"], "--builtin and --random"),
    (["--random", "3", "2", "1", "--ball", "P4", "coxeter", "2"], "--random and --ball"),
    (["--ball", "P4", "coxeter", "2", "--builtin", "EDGE"], "--builtin and --ball"),
    (["--builtin", "EDGE", "--random", "3", "2", "1", "--ball", "P4", "coxeter", "2"],
     "--builtin and --random"),
])
def test_generate_refuses_two_instance_sources(capsys, argv, named):
    """Two of --builtin, --random and --ball exit 2 with a message naming
    both (the first two of three), instead of dropping the later ones."""
    code, out, err = run(capsys, "generate", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named} are two instance sources; give one\n"


def test_analyze_domino(tmp_path, capsys):
    src = tmp_path / "domino.json"
    code, out, _ = run(capsys, "generate", "--builtin", "DOMINO", "--out", str(src))
    assert code == 0
    dst = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", "--in", str(src), "--out", str(dst), "--dot")
    assert code == 0
    doc = json.loads(dst.read_text())
    assert doc["dimension"] == 2
    assert len(doc["contact_family"]["contact"]["edges"]) == 3
    assert len(doc["reconstruction"]["vertices"]) == 1
    assert len(doc["reconstruction"]["diagnostics"]["extremal_vertices"]) == 6
    assert "graph contact {" in doc["dot"]["contact"]


def test_analyze_rejects_non_median(tmp_path, capsys):
    bad = tmp_path / "k3.json"
    bad.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
    }))
    code, _, err = run(capsys, "analyze", "--in", str(bad))
    assert code == 2 and "median" in err


def test_analyze_names_edges_by_their_vertices(tmp_path, capsys):
    """An edge written [1.0, 2] joins the vertices 1 and 2, and every part of
    the report names them as the vertex list does."""
    src = tmp_path / "mixed.json"
    src.write_text(json.dumps({"vertices": [1, 2], "edges": [[1.0, 2]]}))
    code, out, _ = run(capsys, "analyze", "--in", str(src), "--dot")
    assert code == 0
    doc = json.loads(out)
    assert doc["complex"] == {"vertices": ["1", "2"], "edges": [["1", "2"]]}
    assert doc["hyperplanes"][0]["edges"] == [["1", "2"]]
    assert '"1" -- "2"' in doc["dot"]["skeleton"] and "1.0" not in out


def test_analyze_single_vertex(tmp_path, capsys):
    """The empty link is a cone without an apex: the vertex is not extremal."""
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"vertices": ["a"], "edges": []}))
    code, out, _ = run(capsys, "analyze", "--in", str(src))
    assert code == 0
    doc = json.loads(out)
    assert doc["atlas"] == {"a": {"clique": [], "extremal": False}}
    assert doc["reconstruction"]["vertices"] == [[]]


def test_verify_cone_links_single_vertex(tmp_path, capsys):
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"vertices": ["a"], "edges": []}))
    code, out, _ = run(capsys, "verify", "--suite", "cone-links", "--in", str(src))
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("edge, message", [
    (["a", "a"], "self-loop at 'a'"),
    (["a", "b", "c"], "not a list of two vertex names"),
    ("ab", "not a list of two vertex names"),
    ([["a"], "b"], "not a list of two vertex names"),
    ([True, "b"], "not a list of two vertex names"),
])
def test_analyze_rejects_malformed_edge(tmp_path, capsys, edge, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [edge]}))
    code, out, err = run(capsys, "analyze", "--in", str(bad))
    assert code == 2 and out == "" and message in err


MIXED = "vertex names must be all strings or all numbers"
NOT_LISTS = "an object with 'vertices' and 'edges' lists"
GENERATOR = "is not a non-empty string"
EDGE = "is not a list of two generator names"


@pytest.mark.parametrize("argv, doc, message", [
    (["analyze", "--in"], {"vertices": [1, "a"], "edges": [[1, "a"]]}, MIXED),
    (["verify", "--in"], {"vertices": [1, "a"], "edges": [[1, "a"]]}, MIXED),
    (["analyze", "--in"], {"vertices": [[1], "a"], "edges": []}, MIXED),
    (["analyze", "--in"], {"vertices": [True, 2], "edges": [[True, 2]]}, MIXED),
    (["analyze", "--in"], [1, 2], NOT_LISTS),
    (["analyze", "--in"], {"vertices": "ab", "edges": []}, NOT_LISTS),
    (["analyze", "--in"], {"vertices": ["a", "b"]}, NOT_LISTS),
    (["generate", "--ball"], [1, 2], NOT_LISTS),
    (["generate", "--ball"], {"vertices": "ab", "edges": []}, NOT_LISTS),
    (["generate", "--ball"], {"vertices": [1, 2], "edges": [[1, 2]]}, GENERATOR),
    (["generate", "--ball"], {"vertices": [True, "a"], "edges": []}, GENERATOR),
    (["generate", "--ball"], {"vertices": ["a", "b", "a.b"], "edges": []}, GENERATOR),
    (["generate", "--ball"], {"vertices": [""], "edges": []}, GENERATOR),
    (["verify", "--suite", "davis", "--graph"], {"vertices": [["a"]], "edges": []}, GENERATOR),
    (["generate", "--ball"], {"vertices": ["a", "b", "c"], "edges": ["ab", {"b": 1, "c": 2}]},
     "edge 'ab' " + EDGE),
    (["generate", "--ball"], {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]},
     "edge ['a', 'b', 'c'] " + EDGE),
    (["generate", "--ball"], {"vertices": ["a", "b"], "edges": [["a", 1]]}, EDGE),
    (["generate", "--ball"], {"vertices": ["a", "b"], "edges": [["a", "z"]]},
     "error: edge ['a', 'z'] names the unknown generator 'z'"),
])
def test_malformed_documents_exit_2(tmp_path, capsys, argv, doc, message):
    """A document that is not an object with vertex and edge lists, or whose
    vertex names are not all strings or all numbers, or a defining graph
    whose generator names are not non-empty strings without "." or "^", or
    with an edge that is not a list of two generator names (a string or an
    object of two items would unpack) or that names an unknown generator,
    is invalid input."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    extra = ["coxeter", "2"] if argv[0] == "generate" else []
    code, out, err = run(capsys, *argv, str(bad), *extra)
    assert code == 2 and out == "" and err.startswith("error:") and message in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent.json")
    assert code == 2 and "error" in err


def test_verify_builtin_suites(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite", "helly", "--suite", "cliques", "--suite", "iw",
        "--builtin", "Q3", "--builtin", "DOMINO",
        "--random-count", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [e["lemmaId"] for e in doc["suites"]] == ["helly", "cliques", "iw"]
    assert all(e["instancesChecked"] == 4 for e in doc["suites"])
    assert all(e["violations"] == [] for e in doc["suites"])


def test_verify_ball_suites(tmp_path, capsys):
    dst = tmp_path / "verify.json"
    code, _, _ = run(
        capsys,
        "verify",
        "--suite", "twist", "--suite", "extension-graph",
        "--graph", "C5", "--kind", "artin", "--radius", "2",
        "--out", str(dst),
    )
    assert code == 0
    doc = json.loads(dst.read_text())
    assert doc["pass"] is True


def test_verify_reports_a_refused_suite_and_exits_2(tmp_path, capsys, monkeypatch):
    """The Helly check of SQUARE is refused under a 1 MiB limit; the report
    is written and does not pass, and the other suite still runs."""
    monkeypatch.setattr(cli._median, "_ALLOC_LIMIT", 1 << 20)
    dst = tmp_path / "verify.json"
    code, out, err = run(capsys, "verify", "--builtin", "SQUARE", "--suite", "helly",
                         "--suite", "cone-links", "--out", str(dst))
    assert code == 2 and out == err == ""
    doc = json.loads(dst.read_text())
    assert doc["pass"] is False
    helly, cone_links = doc["suites"]
    assert [r["instance"] for r in helly["refused"]] == ["SQUARE"]
    assert helly["violations"] == [] and "refused" not in cone_links
    assert cone_links["instancesChecked"] == 1 and cone_links["violations"] == []


def test_verify_refuses_a_roundtrip_ball_over_the_cap(tmp_path, capsys, monkeypatch):
    """Over CUBETACT_CAP_VERTICES, roundtrip's ball is refused like the
    twist and extension-graph balls, not raised before the suites: the
    report is written, lists each refusal and does not pass, and the run
    exits 2."""
    monkeypatch.setenv("CUBETACT_CAP_VERTICES", "50")
    dst = tmp_path / "verify.json"
    code, out, err = run(capsys, "verify", "--graph", "C5", "--suite", "roundtrip",
                         "--suite", "twist", "--suite", "extension-graph", "--out", str(dst))
    assert code == 2 and out == err == ""
    doc = json.loads(dst.read_text())
    assert doc["pass"] is False
    roundtrip, twist, extension = doc["suites"]
    assert roundtrip["refused"] == [{"instance": "C5", "reason": "ball exceeds 50 vertices"}]
    for entry in (twist, extension):
        assert entry["refused"] == [{"reason": "ball exceeds 50 vertices"}]
    for entry in doc["suites"]:
        assert entry["violations"] == [] and entry["instancesChecked"] == 1


def test_unknown_builtin_message_is_unquoted(capsys):
    code, out, err = run(capsys, "verify", "--builtin", "nope")
    assert code == 2 and out == ""
    assert err == "error: unknown builtin complex 'NOPE'\n"


def test_verify_needs_graph(capsys):
    code, _, err = run(capsys, "verify", "--suite", "davis")
    assert code == 2 and "--graph" in err


def test_verify_default_suites_skip_the_group_suites_without_graph(capsys):
    """With no --suite and no --graph, the instance suites run and each
    group suite is reported skipped, in the order of the suite table."""
    code, out, err = run(capsys, "verify", "--builtin", "SQUARE")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [e["lemmaId"] for e in doc["suites"]] == list(cli._verify.SUITES)
    for entry in doc["suites"]:
        assert entry["violations"] == []
        if entry["lemmaId"] in cli._verify.GROUP_SUITES:
            assert entry["skipped"] == "needs --graph"
            assert entry["instancesChecked"] == 0
        else:
            assert "skipped" not in entry and entry["instancesChecked"] == 1


def test_bare_verify_has_nothing_to_verify(capsys):
    """No suite, no graph and no instance source: refused, not a vacuous pass."""
    code, out, err = run(capsys, "verify")
    assert code == 2 and out == "" and "nothing to verify" in err


@pytest.mark.parametrize("argv", [["--random-count", "-2", "--builtin", "EDGE"],
                                  ["--random-count", "-2"], ["--random-count", "x"]])
def test_verify_random_count_must_be_a_count(capsys, argv):
    """A negative or non-int --random-count is refused when the arguments
    are parsed, with exit 2: not read as zero draws beside the other
    instances, nor as nothing to verify."""
    with pytest.raises(SystemExit) as ex:
        cli.main(["verify", *argv])
    out, err = capsys.readouterr()
    assert ex.value.code == 2 and out == ""
    assert "argument --random-count:" in err and "nothing to verify" not in err
    assert ("must be >= 0, not -2" if argv[1] == "-2" else "invalid int value: 'x'") in err


def test_verify_random_count_zero_adds_no_draw(capsys):
    code, out, _ = run(capsys, "verify", "--random-count", "0", "--builtin", "EDGE",
                       "--suite", "helly")
    assert code == 0 and json.loads(out)["suites"][0]["instancesChecked"] == 1


@pytest.mark.parametrize("suite", ["davis", "twist", "roundtrip"])
@pytest.mark.parametrize("radius", ["0", "-1"])
def test_verify_radius_below_one_is_invalid(capsys, suite, radius):
    """--radius 0 is refused like --radius -1, not read as the default."""
    code, out, err = run(capsys, "verify", "--graph", "P4", "--radius", radius,
                         "--suite", suite)
    assert code == 2 and out == "" and "radius must be >= 1" in err


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "bogus"])
    capsys.readouterr()


@pytest.mark.parametrize("suite, runs", [
    # success, a ball too small for the construction, no generator pair (skipped)
    ("davis", [("P4", "3"), ("P4", "1"), ("C5", "3")]),
    ("twist", [("C5", "2"), ("F2", "1"), ("EDGE2", "2")]),
])
def test_verify_group_suite_keeps_its_anchor(capsys, suite, runs):
    anchors, codes = set(), []
    for graph, radius in runs:
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--graph", graph, "--radius", radius)
        (entry,) = json.loads(out)["suites"]
        anchors.add(entry["anchor"])
        codes.append(code)
    assert codes == [0, 2, 0]
    assert anchors == {cli._verify._TABLE[suite][0]}


@pytest.mark.parametrize("suite, graph, radius, reason", [
    ("davis", "P4", "1", "no a,b square at base '1'"),
    ("davis", "P4", "2", "a-hyperplane 0 not interior at margin 2"),
    ("twist", "C5", "1", "radius >= 2 needed to witness a nontrivial twist"),
])
def test_verify_refuses_a_ball_too_small_for_the_construction(capsys, suite, graph,
                                                              radius, reason):
    """The statement was not checked, so nothing was violated: the ball is
    listed under "refused" with the construction's message, and the run
    exits 2 without passing."""
    code, out, _ = run(capsys, "verify", "--suite", suite, "--graph", graph,
                       "--radius", radius)
    report = json.loads(out)
    (entry,) = report["suites"]
    assert code == 2 and report["pass"] is False
    assert entry["violations"] == []
    assert entry["refused"] == [{"reason": reason}]


def test_python_m_cubetact_runs_the_cli():
    """python -m cubetact works from a checkout, with PYTHONPATH=src."""
    done = subprocess.run(
        [sys.executable, "-m", "cubetact", "verify", "--builtin", "EDGE", "--suite", "helly"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"] is True
