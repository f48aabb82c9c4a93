"""End-to-end runs of the command-line interface."""

import json

import pytest

from cubetact import cli


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
])
def test_analyze_rejects_malformed_edge(tmp_path, capsys, edge, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [edge]}))
    code, out, err = run(capsys, "analyze", "--in", str(bad))
    assert code == 2 and out == "" and message in err


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


def test_verify_needs_graph(capsys):
    code, _, err = run(capsys, "verify", "--suite", "davis")
    assert code == 2 and "--graph" in err


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "bogus"])
    capsys.readouterr()
