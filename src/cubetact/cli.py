"""Command-line surface: generate instances, analyze complexes, run suites.

Exit codes: 0 success, 1 verification found violations, 2 invalid input
or a verify run that refused an instance: one over a size or clique limit,
or a ball too small for a group suite's construction.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache, partial
from itertools import chain
from json.encoder import INFINITY as _INF
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import numpy as np

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
    """Write doc as _encode writes it, and a newline, in the pieces of
    _chunks, each in slices: the report is never held whole, nor the text
    of a table or an array, only a block of its rows, and the file's
    encoder copies a slice, not the report."""
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        for text in _chunks(doc, "\n", _Quoted()):
            for i in range(0, len(text), _SLICE):
                fh.write(text[i:i + _SLICE])
        fh.write("\n")


_SLICE = 1 << 16


class _Quoted(dict):
    """str -> its JSON text, quoted on the first lookup of each string."""

    __slots__ = ()

    def __missing__(self, s):
        text = self[s] = _quote(s)
        return text


def _encode(obj, pad="\n", quoted=None):
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, with sets
    and frozensets as lists sorted by str, and numpy arrays and row tables
    as their tolist().

    The standard library falls back to its pure-Python encoder whenever an
    indent is set; this one builds each container as one join of its items
    and reads the leaves with the C string escape.  pad is the newline and
    indent before the container's closing bracket.  quoted is the memo of
    the str items of lists, arrays and tables, shared by one call's whole
    document, so a vertex name that appears in many lists is escaped once.
    Keys are sorted as they are, then written as json writes them, so keys
    that do not compare raise TypeError as json.dumps does.  No cycle
    check: a document that holds itself raises RecursionError.
    """
    if quoted is None:
        quoted = _Quoted()
    if isinstance(obj, (dict, np.ndarray, _median.RowTable)):
        return "".join(_chunks(obj, pad, quoted))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, obj))
        if kinds == {str}:
            items = map(quoted.__getitem__, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_encode(item, inner, quoted) for item in obj]
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
        return _encode(sorted(obj, key=str), pad, quoted)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _chunks(obj, pad, quoted):
    """The text of obj as _encode writes it, in pieces: a dict an entry at
    a time, a row table or an array a block of rows at a time, and any
    other value whole."""
    if isinstance(obj, _median.RowTable):
        yield from _table(obj, pad, quoted)
    elif isinstance(obj, np.ndarray):
        yield from _array(obj, pad, quoted)
    elif isinstance(obj, dict):
        inner, head = pad + "  ", "{"
        for key, value in sorted(obj.items(), key=itemgetter(0)):
            yield head + inner + _key(key) + ": "
            yield from _chunks(value, inner, quoted)
            head = ","
        yield pad + "}" if obj else "{}"
    else:
        yield _encode(obj, pad, quoted)


def _array(a, pad, quoted):
    """The 1-d or 2-d int or str array a, as _encode writes a.tolist(), a
    block of _BLOCK rows at a time.

    Each block is one % template, the row's template repeated, filled with
    all of the block's items at once: ints by %d, and strs (an object
    array) by %s from the quoted memo; a 1-d str array's block is one join
    of its quoted items instead, which is faster than the template.
    Another shape or dtype, or an object array that holds a non-str,
    raises TypeError.
    """
    if a.ndim not in (1, 2) or a.dtype.kind not in "iuO":
        raise TypeError(f"cannot serialize a {a.ndim}-d array of {a.dtype}")
    if not len(a):
        yield "[]"
        return
    inner = pad + "  "
    head, sep = "[" + inner, "," + inner
    row = "%s" if a.dtype.kind == "O" else "%d"
    if a.ndim == 2:
        cell = inner + "  "
        row = ("[" + cell + ("," + cell).join([row] * a.shape[1]) + inner + "]"
               if a.shape[1] else "[]")
    for i in range(0, len(a), _BLOCK):
        block = a[i:i + _BLOCK]
        items = block.ravel().tolist()
        if a.dtype.kind == "O":
            items = map(quoted.__getitem__, items)
        text = (sep.join(items) if a.ndim == 1 and a.dtype.kind == "O"
                else sep.join([row] * len(block)) % tuple(items))
        yield head + text
        head = sep
    yield pad + "]"


_BLOCK = 1 << 12  # rows of an array, or tokens of a row table, per block


def _table(t, pad, quoted):
    """The RowTable t, as _encode writes t.tolist(), a block of rows of
    about _BLOCK tokens at a time.

    Each column's vocabulary is turned into its JSON tokens once, through
    the quoted memo for strs.  A block then gathers each column's tokens
    with one numpy index, joins each row's list of them (a list of pairs
    first fills one % template per pair), and fills the row's % frame, the
    names and brackets of one row, with its values.  A vocabulary of
    floats or other objects, or an object one that holds a non-str, raises
    TypeError.
    """
    n, (start, end) = len(t), "[]" if t.keys is None else "{}"
    if not n:
        yield start + end
        return
    inner = pad + "  "
    cell = inner + "  "
    cols = t.columns
    if isinstance(cols, _median.Column):
        frame, cell, cols = "%s", inner, (cols,)
    elif isinstance(cols, dict):
        names = sorted(cols)
        frame = "{" + cell + ("," + cell).join(
            [_quote(name).replace("%", "%%") + ": %s" for name in names]) + inner + "}"
        cols = [cols[name] for name in names]
    else:
        frame = "[" + cell + ("," + cell).join(["%s"] * len(cols)) + inner + "]"
    if t.keys is not None:
        frame = "%s: " + frame
    sizes, writers = zip(*(_column(c, cell, quoted) for c in cols))
    size = sum(sizes)
    first = (np.cumsum(size) - size) // _BLOCK  # the block of each row's first token
    cuts = [0, *(np.flatnonzero(np.diff(first)) + 1).tolist(), n]
    head, sep = start + inner, "," + inner
    for lo, hi in zip(cuts, cuts[1:]):
        values = [cells(lo, hi) for cells in writers]
        if t.keys is not None:
            values.insert(0, map(quoted.__getitem__, t.keys[lo:hi].tolist()))
        yield head + sep.join(map(frame.__mod__, zip(*values)))
        head = sep
    yield pad + end


def _column(c, pad, quoted):
    """(sizes, cells) for the Column c of a table with n rows: the tokens in
    each row, an (n,) array, and the function of (lo, hi) that gives the
    texts of c's values in rows lo to hi, each at the given pad."""
    tokens = _tokens(c.vocab, quoted)
    if c.lengths is None:
        return np.ones(len(c.index), dtype=np.intp), lambda lo, hi: tokens[c.index[lo:hi]].tolist()
    inner = pad + "  "
    start, sep, end = "[" + inner, "," + inner, pad + "]"
    ends = np.concatenate(([0], np.cumsum(c.lengths)))
    item, w = None, 1
    if c.index.ndim == 2:  # each item a list of w tokens, by one % template
        cell, w = inner + "  ", c.index.shape[1]
        item = "[" + cell + ("," + cell).join(["%s"] * w) + inner + "]" if w else "[]"

    def cells(lo, hi):
        first = ends[lo]
        items = tokens[c.index[first:ends[hi]]].tolist()
        if item:
            items = list(map(item.__mod__, map(tuple, items)))
        cuts = (ends[lo:hi + 1] - first).tolist()
        return [start + sep.join(items[i:j]) + end if i < j else "[]"
                for i, j in zip(cuts, cuts[1:])]

    return np.asarray(c.lengths) * max(1, w), cells


_BOOLS = {False: "false", True: "true"}


def _tokens(vocab, quoted):
    """The JSON texts of the items of the 1-d array vocab, an object array:
    strs through the quoted memo, ints by repr, and bools.  Another dtype,
    or an object array that holds a non-str, raises TypeError."""
    kind, items = vocab.dtype.kind, vocab.tolist()
    if kind == "O":
        texts = map(quoted.__getitem__, items)
    elif kind in "iu":
        texts = map(int.__repr__, items)
    elif kind == "b":
        texts = map(_BOOLS.__getitem__, items)
    else:
        raise TypeError(f"cannot serialize a vocabulary of {vocab.dtype}")
    return np.array(list(texts), dtype=object)


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
    named, order = _median._sorted_names(X)  # the atlas keys, in str order
    extremal = np.fromiter(map(atlas.extremal.__getitem__, X.vertices), bool, len(X))
    ids = np.arange(len(I))
    by_str = sorted(range(len(I)), key=str)  # the interaction keys' order
    cliques = atlas.cliques
    members = _median.Column(ids, np.fromiter(chain.from_iterable(cliques), np.intp),
                             np.fromiter(map(len, cliques), np.intp, len(cliques)))
    entries = _median._true_entries
    out = {
        "complex": _median._complex_arrays(X),
        "dimension": X.dimension,
        "hyperplanes": _median.hyperplane_report(X),
        "contact_family": _contact.family_to_json(F),
        "atlas": _median.RowTable({
            "extremal": _median.Column(extremal, order),
            "clique": entries(ids, X.carriers.T[order]),
        }, named),
        "interaction": _median.RowTable({
            "I": entries(ids, I.T[by_str]),
            "I0": entries(ids, (I & I.T)[by_str]),
        }, np.array([str(h) for h in by_str], dtype=object)),
        "reconstruction": {
            "vertices": _median.RowTable(members),
            "edges": _median.RowTable(tuple(
                _runs_at(members, ends) for ends in _contact._edges(_rec.reconstruct(cliques)).T)),
            "diagnostics": {"extremal_vertices": named[extremal[order]]},
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


def _runs_at(c, rows):
    """The Column whose row k is row rows[k] of the list Column c."""
    lengths = c.lengths[rows]
    starts = (np.cumsum(c.lengths) - c.lengths)[rows]
    at = np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return _median.Column(c.vocab, c.index[at], lengths)


def _verify_instances(args):
    instances = []
    if args.builtin:
        for name in args.builtin:
            instances.append((name, _median.builtin_complex(name)))
    if args.infile:
        with open(args.infile, encoding="utf-8") as fh:
            instances.append((args.infile, _median.complex_from_json(json.load(fh))))
    for seed in range(1, args.random_count + 1):
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


def _count(text):
    """An argparse type: the int of text, which must be >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {n}")
    return n


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
    v.add_argument("--random-count", type=_count, default=0)
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
