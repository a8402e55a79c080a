"""Spans around the program's public functions, for the traced run only.

Wrappers are installed on the module attribute each caller looks up, so a
name imported by value (``memo_key`` in ``kappa`` and ``tutte``,
``kappa_partition_bruteforce`` in ``collapse`` and ``cli``) is wrapped in
every namespace that calls it.  Spans are kept in flat arrays and written
out once, at the end of the run.  A traced name or counted field that the
program no longer has stops the run with TracingError, so that a renamed
function cannot read as a layer that got faster.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# span name -> (defining module, attribute, other modules that import it by value)
FUNCTIONS = {
    "graphs.parse": ("graphs", "parse_edge_list", ("cli", "")),
    "graphs.memo_key": ("graphs", "memo_key", ("kappa", "tutte", "")),
    "kappa.kappa": ("kappa", "kappa", ("cli", "collapse", "")),
    "kappa.kappa_with_trace": ("kappa", "kappa_with_trace", ("cli", "")),
    "tutte.polynomial": ("tutte", "tutte_polynomial", ("cli", "")),
    "orientations.partition": ("orientations", "kappa_partition_bruteforce", ("cli", "collapse", "")),
    "orientations.cut_classes": ("orientations", "cut_equivalence_classes", ("cli", "")),
    "orientations.unique_source": ("orientations", "unique_source_orientations", ("cli", "")),
    "orientations.normalize": ("orientations", "normalize_to_unique_source", ("cli", "")),
    "orientations.enumerate": ("orientations", "enumerate_acyclic", ("cli", "")),
    "collapse.build": ("collapse", "build_collapse_graph", ("cli", "")),
    "collapse.verify": ("collapse", "verify_collapse_structure", ("cli", "")),
    "cli.main": ("cli", "main", ()),
}

# span name -> (module, class, method)
METHODS = {
    "graphs.simplify": ("graphs", "Multigraph", "simplify"),
    "graphs.classify_edges": ("graphs", "Multigraph", "classify_edges"),
    "graphs.cycle_subgraph": ("graphs", "Multigraph", "cycle_subgraph"),
    "graphs.split_components": ("graphs", "Multigraph", "split_components"),
    "graphs.connected_components": ("graphs", "Multigraph", "connected_components"),
    "graphs.drop_isolated": ("graphs", "Multigraph", "drop_isolated"),
    "graphs.contract_edge": ("graphs", "Multigraph", "contract_edge"),
    "graphs.delete_edge": ("graphs", "Multigraph", "delete_edge"),
    "tutte.add": ("tutte", "TuttePolynomial", "__add__"),
    "tutte.mul": ("tutte", "TuttePolynomial", "__mul__"),
}

# per-layer time metric -> the spans whose self time it sums
TIME_METRICS = {
    "graphs.parse_s": ("graphs.parse",),
    "graphs.memo_key_s": ("graphs.memo_key",),
    "graphs.simplify_s": ("graphs.simplify",),
    "graphs.bridges_s": ("graphs.classify_edges", "graphs.cycle_subgraph"),
    "graphs.components_s": (
        "graphs.split_components",
        "graphs.connected_components",
        "graphs.drop_isolated",
    ),
    "graphs.contract_delete_s": ("graphs.contract_edge", "graphs.delete_edge"),
    "kappa.self_s": ("kappa.kappa", "kappa.kappa_with_trace"),
    "tutte.eval_y0_self_s": ("tutte.eval_y0",),
    "tutte.polynomial_self_s": ("tutte.polynomial",),
    "tutte.arith_s": ("tutte.add", "tutte.mul"),
    "orientations.partition_s": ("orientations.partition",),
    "orientations.cut_classes_s": ("orientations.cut_classes",),
    "orientations.transversal_s": ("orientations.unique_source", "orientations.normalize"),
    "orientations.enumerate_s": ("orientations.enumerate",),
    "collapse.build_s": ("collapse.build",),
    "collapse.verify_s": ("collapse.verify",),
    "cli.self_s": ("cli.main",),
}

COUNT_METRICS = (
    "graphs.built",
    "graphs.memo_key_calls",
    "kappa.memo_hits",
    "kappa.memo_misses",
    "orientations.masks_tried",
    "orientations.masks_acyclic",
    "orientations.built",
    "cli.output_bytes",
)

RATIO_METRICS = {
    "kappa.memo_hit_ratio": ("kappa.memo_hits", "kappa.memo_misses"),
    "orientations.acyclic_ratio": ("orientations.masks_acyclic", "orientations.masks_tried"),
}


def _module(name):
    return importlib.import_module(f"kappatools.{name}" if name else "kappatools")


class TracingError(RuntimeError):
    """The program no longer has what a per-layer metric is read from."""


def _lookup(owner, attr, metric):
    """owner.attr, or a clear error naming the traced metric that needs it."""
    try:
        return getattr(owner, attr)
    except AttributeError:
        raise TracingError(
            f"traced run: {getattr(owner, '__name__', owner)} has no {attr!r}, needed for {metric}"
        ) from None


def _simple_edges(edges):
    """Edge list of simplify(g), computed without calling the program."""
    seen = {}
    for a, b in edges:
        if a != b:
            seen.setdefault((min(a, b), max(a, b)), None)
    return tuple(seen)


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.enumerated = set()

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name, fn, after=None):
        nid = self._name_id(name)
        spans = (self.span_name, self.span_parent, self.span_start, self.span_end)
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            index = len(spans[0])
            spans[0].append(nid)
            spans[1].append(stack[-1])
            spans[2].append(start)
            spans[3].append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[3][index] = perf_counter()
                stack.pop()
            if after is not None:
                try:
                    after(args, result)
                except Exception as exc:
                    raise TracingError(f"traced run: counting {name} failed: {exc!r}") from exc
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function and method; call once, after setup."""
        after = {
            "graphs.memo_key": lambda a, r: self._count("graphs.memo_key_calls", 1),
            "kappa.kappa": self._after_kappa,
            "kappa.kappa_with_trace": self._after_kappa,
            "orientations.partition": lambda a, r: self._masks(
                r.graph.edges, sum(len(c) for c in r.classes)
            ),
            "orientations.cut_classes": lambda a, r: self._masks(
                _simple_edges(a[0].edges), sum(len(c) for c in r)
            ),
            "orientations.enumerate": lambda a, r: self._masks(a[0].edges, len(r)),
        }
        # A traced name the program no longer has stops the run: a metric
        # that silently read 0 would pass for an improvement.
        for name, (home, attr, importers) in FUNCTIONS.items():
            original = _lookup(_module(home), attr, name)
            if name == "cli.main":
                wrapped = self._cli_main(original)
            else:
                wrapped = self.span(name, original, after.get(name))
            for module in (home,) + importers:
                if getattr(_module(module), attr, None) is original:
                    setattr(_module(module), attr, wrapped)
        original_eval = _lookup(_module("tutte"), "tutte_eval", "tutte.eval")
        eval_y0 = self.span("tutte.eval_y0", original_eval)
        eval_other = self.span("tutte.eval", original_eval)

        def tutte_eval(g, x, y, cap=None):
            return (eval_y0 if y == 0 else eval_other)(g, x, y, cap)

        for module in ("tutte", "cli", ""):
            if getattr(_module(module), "tutte_eval", None) is original_eval:
                setattr(_module(module), "tutte_eval", tutte_eval)
        for name, (home, cls, method) in METHODS.items():
            klass = _lookup(_module(home), cls, name)
            setattr(klass, method, self.span(name, _lookup(klass, method, name)))
        self._count_constructions("graphs", "Multigraph", "graphs.built")
        self._count_constructions("orientations", "Orientation", "orientations.built")

    def _count(self, metric, amount):
        self.counts[metric] += amount

    def _count_constructions(self, home, cls, metric):
        klass = _lookup(_module(home), cls, metric)
        original = klass.__init__
        counts = self.counts

        def init(obj, *args, **kwargs):
            counts[metric] += 1
            original(obj, *args, **kwargs)

        klass.__init__ = init

    def snapshot(self):
        return dict(self.counts)

    def _after_kappa(self, args, result):
        self._count("kappa.memo_hits", result.cache_stats.hits)
        self._count("kappa.memo_misses", result.cache_stats.misses)

    def _masks(self, simple_edges, acyclic):
        """Masks are peeled once per distinct graph value (the program
        caches them per value), so count each simplified graph once."""
        if simple_edges in self.enumerated:
            return
        self.enumerated.add(simple_edges)
        self._count("orientations.masks_tried", 1 << len(simple_edges))
        self._count("orientations.masks_acyclic", acyclic)

    def _cli_main(self, original):
        """cli.main, also counting what it prints to a captured stdout."""
        traced = self.span("cli.main", original)
        counts = self.counts

        def main(argv=None):
            before = sys.stdout.tell()
            try:
                return traced(argv)
            finally:
                counts["cli.output_bytes"] += sys.stdout.tell() - before

        return main

    def close_open_spans(self):
        """After an exception escaped a case, unwind the span stack."""
        del self.stack[1:]

    def metrics(self, passes):
        """Per-layer metrics, each per pass over the case list."""
        n = len(self.span_name)
        child_time = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += self.span_end[i] - self.span_start[i]
        self_time = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            own = self.span_end[i] - self.span_start[i] - child_time[i]
            self_time[name] = self_time.get(name, 0.0) + own
        out = {}
        for metric, names in TIME_METRICS.items():
            total = sum(self_time.get(name, 0.0) for name in names)
            out[metric] = {"value": total / passes, "unit": "s"}
        for metric in COUNT_METRICS:
            unit = "B" if metric == "cli.output_bytes" else "count"
            out[metric] = {"value": self.counts[metric] / passes, "unit": unit}
        for metric, (num, other) in RATIO_METRICS.items():
            a, b = self.counts[num], self.counts[other]
            if metric == "kappa.memo_hit_ratio":
                b = a + b
            out[metric] = {"value": a / b if b else 0.0, "unit": "ratio"}
        return out

    def write(self, path):
        """All spans as CSV: name, start, end, parent index (-1 at top)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]}\n"
                )
