"""Command-line surface: generate instances, analyze complexes, run suites.

Exit codes: 0 success, 1 verification found violations, 2 invalid input
or a verify run that refused an instance: one over a size or clique limit,
or a ball too small for a group suite's construction.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from json.encoder import INFINITY as _INF
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from . import contact as _contact
from . import median as _median
from . import ragroups as _rg
from . import reconstruction as _rec
from . import verify as _verify
from .errors import CubetactError, NotMedian

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2


def _emit(doc, out):
    text = _encode(doc) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _encode(obj, pad="\n"):
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, with sets
    and frozensets as lists sorted by str.

    The standard library falls back to its pure-Python encoder whenever an
    indent is set; this one builds each container as one join of its items
    and reads the leaves with the C string escape.  pad is the newline and
    indent before the container's closing bracket.  Keys are sorted as they
    are, then written as json writes them, so keys that do not compare raise
    TypeError as json.dumps does.  No cycle check: a document that holds
    itself raises RecursionError.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            _key(key) + ": " + _encode(value, inner)
            for key, value in sorted(obj.items(), key=itemgetter(0))
        ]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, obj))
        if kinds == {str}:
            items = map(_quote, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_encode(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (set, frozenset)):
        return _encode(sorted(obj, key=str), pad)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(key):
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return _quote(_encode(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _load_graph(source):
    name = source.upper()
    if name in _rg.BUILTIN_GRAPHS:
        return _rg.builtin_defining_graph(name)
    with open(source, encoding="utf-8") as fh:
        return _rg.graph_from_json(json.load(fh))


def cmd_generate(args):
    given = [f"--{name}" for name in ("builtin", "random", "ball")
             if getattr(args, name) is not None]
    if len(given) > 1:
        raise CubetactError(f"{given[0]} and {given[1]} are two instance sources; give one")
    if args.builtin:
        name = args.builtin.upper()
        if name in _median.BUILTIN_COMPLEXES:
            doc = _median.complex_to_json(_median.builtin_complex(name))
        elif name in _rg.BUILTIN_GRAPHS:
            doc = _rg.graph_to_json(_rg.builtin_defining_graph(name))
        else:
            raise CubetactError(f"unknown builtin {args.builtin!r}")
    elif args.random:
        dim, seeds, seed = args.random
        X = _median.random_median_complex(dim, seeds, seed)
        doc = _median.complex_to_json(X)
    elif args.ball:
        graph, kind, radius = args.ball
        ball = _rg.build_ball(_load_graph(graph), kind, int(radius))
        doc = _rg.ball_to_json(ball)
    else:
        raise CubetactError("one of --builtin, --random, --ball is required")
    _emit(doc, args.out)
    return EXIT_OK


def cmd_analyze(args):
    with open(args.infile, encoding="utf-8") as fh:
        doc = json.load(fh)
    X = _median.complex_from_json(doc)
    F = _contact.build_contact_family(X, mode=args.reduced_mode)
    atlas = _rec.clique_atlas(X)
    I = _contact._relation(X).I  # column w of I is I(w); of I & I.T, I0(w)
    cliques, R = atlas.cliques, _rec.reconstruct(atlas.cliques)
    out = {
        "complex": _median.complex_to_json(X),
        "dimension": X.dimension,
        "hyperplanes": _median.hyperplane_report(X),
        "contact_family": _contact.family_to_json(F),
        "atlas": {
            str(v): {
                "extremal": atlas.extremal[v],
                "clique": sorted(atlas.clique_of[v]),
            }
            for v in X.vertices
        },
        "interaction": {
            str(h): {"I": iw, "I0": i0}
            for h, (iw, i0) in enumerate(zip(_median._true_columns(I.T),
                                             _median._true_columns(I & I.T)))
        },
        "reconstruction": {
            "vertices": [list(cl) for cl in cliques],
            "edges": [[list(cliques[i]), list(cliques[j])] for i, j in _contact._edges(R)],
            "diagnostics": {
                "extremal_vertices": sorted(
                    str(v) for v in X.vertices if atlas.extremal[v]
                ),
            },
        },
    }
    if args.dot:
        out["dot"] = {
            "skeleton": _median.complex_to_dot(X),
            "contact": _contact.graph_to_dot(F.contact, "contact"),
            "crossing": _contact.graph_to_dot(F.crossing, "crossing"),
        }
    _emit(out, args.out)
    return EXIT_OK


def _verify_instances(args):
    instances = []
    if args.builtin:
        for name in args.builtin:
            instances.append((name, _median.builtin_complex(name)))
    if args.infile:
        with open(args.infile, encoding="utf-8") as fh:
            instances.append((args.infile, _median.complex_from_json(json.load(fh))))
    for seed in range(1, (args.random_count or 0) + 1):
        instances.append(
            (f"random-{seed}", _median.random_median_complex(args.dim, args.seeds, seed))
        )
    return instances


def cmd_verify(args):
    """Run the named suites, or all of them.  The group suites need --graph:
    named without it they make the run invalid; left to the default, each
    is reported skipped.  A run with a refused instance writes its report,
    which does not pass, and exits 2."""
    suites = args.suite or list(_verify.SUITES)
    gamma = _load_graph(args.graph) if args.graph else None
    if gamma is None and args.suite and _verify.GROUP_SUITES & set(suites):
        raise CubetactError("--graph is required for the selected suites")
    instances = _verify_instances(args)
    if gamma is None and not args.suite and not instances:
        raise CubetactError(
            "nothing to verify: give --builtin, --in, --random-count or --graph"
        )
    balls = []
    if gamma is not None and "roundtrip" in suites:
        radius = 3 if args.radius is None else args.radius
        # built by the runner, which lists a ball over the cap as refused
        balls.append((args.graph, partial(_rg.build_ball, gamma, args.kind, radius)))
    report = {
        "suites": _verify.run_suites(
            suites,
            instances=instances,
            balls=balls,
            gamma=gamma,
            radius=args.radius,
        ),
    }
    violations = sum(len(e["violations"]) for e in report["suites"])
    refused = any("refused" in e for e in report["suites"])
    report["pass"] = violations == 0 and not refused
    _emit(report, args.out)
    if refused:
        return EXIT_INVALID
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubetact",
        description="hyperplane graphs of finite median complexes and "
        "right-angled group balls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an instance as JSON")
    g.add_argument("--builtin", help="builtin complex or defining graph name")
    g.add_argument("--random", nargs=3, type=int,
                   metavar=("DIM", "SEEDS", "SEED"))
    g.add_argument("--ball", nargs=3, metavar=("GRAPH", "KIND", "RADIUS"))
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="full hyperplane analysis of a complex")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out")
    a.add_argument("--dot", action="store_true")
    a.add_argument("--reduced-mode", default="self-exclusive",
                   choices=_contact.REDUCED_MODES)
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", action="append", choices=_verify.SUITES)
    v.add_argument("--builtin", action="append")
    v.add_argument("--in", dest="infile")
    v.add_argument("--random-count", type=int, default=0)
    v.add_argument("--dim", type=int, default=6)
    v.add_argument("--seeds", type=int, default=5)
    v.add_argument("--graph")
    v.add_argument("--kind", default=_rg.COXETER,
                   choices=(_rg.ARTIN, _rg.COXETER))
    v.add_argument("--radius", type=int)
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)
    return parser


@cache
def _parser():
    """build_parser(), built on main's first call and read by the later ones."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NotMedian as ex:
        print(f"error: not a median graph: {ex}", file=sys.stderr)
        return EXIT_INVALID
    except (CubetactError, OSError, ValueError, KeyError, json.JSONDecodeError) as ex:
        # str() of a KeyError is the repr of its key; print its message
        message = ex.args[0] if isinstance(ex, KeyError) and ex.args else ex
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
