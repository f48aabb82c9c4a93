"""Spans around the public functions of the cubetact modules, for traced runs.

The layer is the module: median, contact, reconstruction, ragroups, verify
and cli.  `Tracer.install` wraps every public module-level function and
rebinds every name that refers to it, including names imported into other
modules (``hyperplanes_at`` in contact and reconstruction, say), so calls
made inside the package are seen too.

Each wrapped call records a span: name, start, end, the enclosing span and
the benchmark item it belongs to.  Spans stay in memory and are written
once, at the end of the run.  The functions in HOT are called hundreds of
thousands of times per pass; they only add to a call count and a total
time, so the tracer stays cheap.  Either kind charges its duration to the
enclosing span, so a span's self time is its duration minus the time of
the calls made inside it.

Recording is on only while an item runs (`begin_item` .. `end_item`), so
the benchmark's own output checks are not counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import weakref
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("median", "contact", "reconstruction", "ragroups", "verify", "cli")

HOT = frozenset({
    "median.hyperplanes_at",
    "median.link_graph",
    "median.is_cone",
    "median.is_extremal",
    "median.is_convex_set",
    "median.separating",
    "median.dual_edge_id",
    "contact.interaction",
    "contact.interaction_sets",
    "reconstruction.adjacency_criterion",
    "reconstruction.verify_automorphism",
    "reconstruction.rho_vertex",
    "ragroups.nf_mult",
    "ragroups.nf_inverse",
    "ragroups.normal_form",
    "ragroups.word_length",
    "ragroups.format_word",
    "ragroups.parse_word",
    "ragroups.initial_letters",
    "ragroups.ambient_median",
    "ragroups.syllable_distance",
    "ragroups.definitional_I",
})

NS = 1e-9
HEAVY_SECONDS = 0.5  # items at least this long get a per-layer breakdown


def public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


def metric_prefix(name):
    """`verify.suite_cone_links` -> `verify.suite.cone-links`; others unchanged."""
    module, _, func = name.partition(".")
    if module == "verify" and func.startswith("suite_"):
        return "verify.suite." + func[len("suite_"):].replace("_", "-")
    return name


class Tracer:
    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, child_ns, item)
        self.stack = []  # open calls: [child_ns, index of nearest open span]
        self.hot = {}  # name -> [calls, ns, depth]
        self.span_names = []
        self.counts = defaultdict(int)
        self._counted = weakref.WeakSet()
        self._item_start = 0
        self._hot_before = {}
        self.item_hot = {}  # item -> {hot name: seconds}, for heavy items

    # -- installation -------------------------------------------------------

    def install(self):
        import cubetact  # noqa: F401  (loads every module listed in MODULES)

        hooks = {
            "median.validate_complex": _count_result_complex,
            "ragroups.build_ball": _count_ball,
            "median.compute_hyperplanes": _count_hyperplanes,
            "reconstruction.maximal_cliques": _count_cliques,
            "ragroups.median_closure": _count_closure,
            "contact.build_contact_family": _count_pairs,
        }
        wrapped = {}
        for short in MODULES:
            module = sys.modules[f"cubetact.{short}"]
            for func, fn in public_functions(module):
                name = f"{short}.{func}"
                if name in HOT:
                    wrapped[fn] = self._hot_wrapper(name, fn)
                else:
                    self.span_names.append(name)
                    wrapped[fn] = self._span_wrapper(name, fn, hooks.get(name))
        missing = (set(hooks) | HOT) - set(self.span_names) - set(self.hot)
        if missing:
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")
        for modname, module in list(sys.modules.items()):
            if modname != "cubetact" and not modname.startswith("cubetact."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _span_wrapper(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            frame = [0, index]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                spans[index] = (name, t0, t1, parent, frame[0], self.item)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn):
        stack = self.stack
        agg = self.hot.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append([0, stack[-1][1] if stack else -1])
            agg[2] += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                agg[0] += 1
                agg[2] -= 1
                if agg[2] == 0:  # recursive calls are inside the outer one's time
                    agg[1] += dt

        return wrapper

    # -- recording ----------------------------------------------------------

    def begin_item(self, item, complex_=None):
        self.item = item
        if complex_ is not None:
            self.count_complex(complex_)
        self._hot_before = {name: agg[1] for name, agg in self.hot.items()}
        self._item_start = perf_counter_ns()
        self.enabled = True

    def end_item(self):
        self.enabled = False
        if (perf_counter_ns() - self._item_start) * NS >= HEAVY_SECONDS:
            self.item_hot[self.item] = {
                name: (agg[1] - self._hot_before[name]) * NS
                for name, agg in self.hot.items()
                if agg[1] > self._hot_before[name]
            }

    def count_complex(self, X):
        if X in self._counted:
            return
        self._counted.add(X)
        self.counts["median.vertices"] += len(X.vertices)
        self.counts["median.edges"] += len(X.edges)
        self.counts["median.squares"] += len(X.squares)

    # -- reporting ----------------------------------------------------------

    def _has_same_name_ancestor(self, span):
        name, parent = span[0], span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, passes):
        """Every layer metric, as a per-pass average over the run."""
        totals = defaultdict(float)
        for name in self.span_names:
            for key in ("s", "self_s", "calls"):
                totals[f"{metric_prefix(name)}.{key}"] = 0.0
        rounds = 0
        for span in self.spans:
            name, t0, t1, parent, child_ns, _ = span
            prefix = metric_prefix(name)
            totals[f"{prefix}.calls"] += 1
            totals[f"{prefix}.self_s"] += (t1 - t0 - child_ns) * NS
            if not self._has_same_name_ancestor(span):
                totals[f"{prefix}.s"] += (t1 - t0) * NS
            if (
                name == "median.median_triple_defects"
                and parent >= 0
                and self.spans[parent][0] == "ragroups.median_closure"
            ):
                rounds += 1
        for name, (calls, ns, _) in self.hot.items():
            totals[f"{name}.calls"] = calls
            totals[f"{name}.s"] = ns * NS
        for key in ("median.vertices", "median.edges", "median.squares",
                    "median.hyperplanes", "reconstruction.cliques"):
            totals[key] = self.counts[key]
        totals["ragroups.median_closure.rounds"] = rounds
        ambient = totals["ragroups.ambient_median.calls"]
        totals["ragroups.median_closure.useful_ratio"] = (
            self.counts["closure_added"] / ambient if ambient else 0.0
        )
        pairs = self.counts["hyperplane_pairs"]
        totals["contact.interaction.calls_per_pair"] = (
            totals["contact.interaction.calls"] / pairs if pairs else 0.0
        )
        ratios = {
            "ragroups.median_closure.useful_ratio",
            "contact.interaction.calls_per_pair",
        }
        return {
            key: value if key in ratios else value / passes
            for key, value in totals.items()
        }

    def heavy_items(self):
        """Time per layer inside each item that took at least HEAVY_SECONDS."""
        out = {}
        for span in self.spans:
            name, t0, t1, parent, _, item = span
            if item not in self.item_hot or self._has_same_name_ancestor(span):
                continue
            layers = out.setdefault(item, dict(self.item_hot[item]))
            layers[name] = layers.get(name, 0.0) + (t1 - t0) * NS
        return {
            item: dict(sorted(layers.items(), key=lambda kv: -kv[1]))
            for item, layers in out.items()
        }

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "child_ns", "item"],
            "spans": self.spans,
            "hot": {
                name: {"calls": calls, "s": ns * NS}
                for name, (calls, ns, _) in self.hot.items()
            },
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# Count hooks: called with (tracer, args, kwargs, result) after a traced call.

def _count_result_complex(tracer, args, kwargs, X):
    tracer.count_complex(X)


def _count_ball(tracer, args, kwargs, ball):
    tracer.count_complex(ball.complex)


def _count_hyperplanes(tracer, args, kwargs, hyperplanes):
    tracer.counts["median.hyperplanes"] += len(hyperplanes)


def _count_cliques(tracer, args, kwargs, cliques):
    tracer.counts["reconstruction.cliques"] += len(cliques)


def _count_closure(tracer, args, kwargs, result):
    elements = args[2] if len(args) > 2 else kwargs["elements"]
    tracer.counts["closure_added"] += len(result[0]) - len(set(elements))


def _count_pairs(tracer, args, kwargs, family):
    h = len(family.contact)
    tracer.counts["hyperplane_pairs"] += h * (h - 1) // 2
