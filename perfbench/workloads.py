"""The four workloads: their case lists, the timed call, and the checks.

Every case list is built from the run's seed alone.  A case whose graph
is a scrambled labelling carries that labelling's seed in its name, as
``grid4x4~<seed>``.  Cases that share a ``base`` are labellings of one
graph, so their values must agree with each other and with the base's
reference.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass

import families as F
import reference as R


@dataclass(frozen=True)
class Case:
    name: str
    base: str  # cases with one base are labellings of one graph
    graph: tuple  # (n, edges) as handed to the program
    family: str | None = None  # set when reference.closed_form knows it
    size: int = 0
    op: str | None = None
    arg: object = None


def _module(name):
    """Engines are looked up on their module at call time, so that the
    traced run's wrappers are the ones called."""
    return importlib.import_module(f"kappatools.{name}")


def _seeded(rng):
    return rng.randrange(2**32)


def _labelled(cases, name, graph, rng, scrambles, **kw):
    """The natural labelling of a graph, then `scrambles` seeded ones."""
    cases.append(Case(name, name, graph, **kw))
    for _ in range(scrambles):
        s = _seeded(rng)
        cases.append(Case(f"{name}~{s}", name, F.scramble(graph, s)[0], **kw))


def _contract(graph, e):
    """Own contraction of edge e: its larger endpoint merges into the smaller."""
    n, edges = graph
    u, v = sorted(edges[e])
    relabel = [x if x < v else (u if x == v else x - 1) for x in range(n)]
    rest = edges[:e] + edges[e + 1 :]
    return n - 1, tuple((relabel[a], relabel[b]) for a, b in rest)


class References:
    """Reference values per base graph, in JSON-ready form.

    run.py computes them in a process of their own before the workload
    starts, so that their memory is not counted in the workload's peak.
    """

    def __init__(self, values=None):
        self.values = {} if values is None else values

    def _get(self, what, case, compute):
        key = f"{what}:{case.base}"
        if key not in self.values:
            self.values[key] = compute()
        return self.values[key]

    def kappa_alpha(self, case):
        def compute():
            known = R.closed_form(case.family, case.size)
            return list(known if known else R.kappa_alpha(case.graph))

        return tuple(self._get("kappa_alpha", case, compute))

    def tutte(self, case):
        """Coefficients as a dict {(i, j): c}."""

        def compute():
            return sorted([i, j, c] for (i, j), c in R.tutte_coefficients(case.graph).items())

        return {(i, j): c for i, j, c in self._get("tutte", case, compute)}

    def trees(self, case):
        return self._get("trees", case, lambda: R.spanning_trees(case.graph))

    def collapse(self, case):
        """kappa after deleting, and after contracting, the collapse edge."""

        def compute():
            n, edges = case.graph
            e = F.non_bridge_edge(case.graph)
            deleted = (n, edges[:e] + edges[e + 1 :])
            return [R.kappa_alpha(deleted)[0], R.kappa_alpha(_contract(case.graph, e))[0]]

        return tuple(self._get("collapse", case, compute))


def _multigraph(graph):
    from kappatools.graphs import Multigraph

    return Multigraph(graph[0], graph[1])


class Recursion:
    """kappa() and tutte_eval(g, 2, 0) on mid-size graphs."""

    name = "recursion"

    def cases(self, seed):
        rng = random.Random(f"recursion:{seed}")
        cases = []
        for r, c in ((4, 4), (4, 5), (5, 5)):
            scrambles = 3 if (r, c) == (4, 4) else 0
            _labelled(cases, f"grid{r}x{c}", F.grid(r, c), rng, scrambles)
        for n in (8, 10, 12, 14):
            _labelled(cases, f"W{n}", F.wheel(n), rng, 3, family="wheel", size=n)
        for n in (8, 9, 10, 11):
            _labelled(cases, f"K{n}", F.complete(n), rng, 3, family="complete", size=n)
        _labelled(cases, "petersen", F.petersen(), rng, 3, family="petersen")
        for n in (100, 200, 300):
            scrambles = 1 if n == 100 else 0
            _labelled(cases, f"C{n}", F.cycle(n), rng, scrambles, family="cycle", size=n)
        # Fails today: the recursion is deeper than the interpreter allows.
        cases.append(Case("C400", "C400", F.cycle(400), family="cycle", size=400))
        for _ in range(6):
            s = _seeded(rng)
            g = F.gnp(random.Random(s), 9, 0.7, 25, 28)
            _labelled(cases, f"gnp9#{s}", g, rng, 1)
        return cases

    def references(self, case, refs):
        refs.kappa_alpha(case)

    def prepare(self, case, rnd):
        return _multigraph(case.graph)

    def run(self, g):
        return _module("kappa").kappa(g).value, _module("tutte").tutte_eval(g, 2, 0, cap=g.m)

    def check(self, case, g, out, refs):
        expected = refs.kappa_alpha(case)
        if out != expected:
            return [f"(kappa, alpha) = {out}, expected {expected}"]
        return []


POINTS = ((1, 0), (2, 0), (1, 1), (2, 2), (0, 2), (3, 1), (2, 1), (1, 2))


class Polynomial:
    """The full Tutte polynomial, then its value at POINTS."""

    name = "polynomial"

    def cases(self, seed):
        rng = random.Random(f"polynomial:{seed}")
        cases = []
        for n, scrambles in ((5, 2), (6, 2), (7, 2), (8, 2), (10, 1)):
            _labelled(cases, f"W{n}", F.wheel(n), rng, scrambles, family="wheel", size=n)
        # A clique costs the same under every labelling, and the fifteen
        # labellings of K6 sit mid-list, so that case_p50_ms falls among
        # them whatever the seeded graphs and scramblings cost.
        for n, scrambles in ((6, 14), (7, 2)):
            _labelled(cases, f"K{n}", F.complete(n), rng, scrambles, family="complete", size=n)
        _labelled(cases, "petersen", F.petersen(), rng, 2, family="petersen")
        _labelled(cases, "grid3x4", F.grid(3, 4), rng, 2)
        _labelled(cases, "grid4x4", F.grid(4, 4), rng, 0)
        for _ in range(2):
            s = _seeded(rng)
            g = F.gnp(random.Random(s), 8, 0.7, 19, 20)
            _labelled(cases, f"gnp8#{s}", g, rng, 1)
        return cases

    def references(self, case, refs):
        refs.kappa_alpha(case)
        refs.tutte(case)
        refs.trees(case)

    def prepare(self, case, rnd):
        return _multigraph(case.graph)

    def run(self, g):
        poly = _module("tutte").tutte_polynomial(g, cap=g.m)
        return poly, tuple(poly.evaluate(x, y) for x, y in POINTS)

    def check(self, case, g, out, refs):
        poly, values = out
        problems = []
        coeffs = {(i, j): c for i, j, c in poly.terms()}
        if coeffs != refs.tutte(case):
            problems.append("coefficients differ from the subset expansion")
        expected = tuple(R.evaluate(refs.tutte(case), x, y) for x, y in POINTS)
        if values != expected:
            problems.append(f"values {values}, expected {expected}")
        at = dict(zip(POINTS, values))
        if at[(1, 1)] != refs.trees(case):
            problems.append(f"T(1,1) = {at[(1, 1)]}, spanning trees {refs.trees(case)}")
        if at[(2, 2)] != 2 ** len(case.graph[1]):
            problems.append(f"T(2,2) = {at[(2, 2)]}, expected 2^m")
        if (at[(1, 0)], at[(2, 0)]) != refs.kappa_alpha(case):
            problems.append("T(1,0), T(2,0) differ from kappa, alpha")
        return problems


class Enumeration:
    """Brute-force orientations and collapse graphs on 10 to 18 edges.

    Each case runs on a labelling drawn afresh every pass, so the masks the
    program caches per graph value start cold, as in a CLI process.
    """

    name = "enumeration"

    def cases(self, seed):
        rng = random.Random(f"enumeration:{seed}")
        # Five labellings of K6 and the other calls on K6 and grid 3x3 cost
        # alike and sit mid-list, so that case_p50_ms falls among them
        # whatever the seeded graphs cost.
        plan = [("partition", "K6", F.complete(6), "complete", 6)] * 5 + [
            ("partition", "C14", F.cycle(14), "cycle", 14),
            ("partition", "C16", F.cycle(16), "cycle", 16),
            ("partition", "W9", F.wheel(9), "wheel", 9),
            ("cut", "K5", F.complete(5), "complete", 5),
            ("cut", "K6", F.complete(6), "complete", 6),
            ("cut", "W7", F.wheel(7), "wheel", 7),
            ("cut", "W8", F.wheel(8), "wheel", 8),
            ("cut", "grid3x3", F.grid(3, 3), None, 0),
            ("transversal", "C14", F.cycle(14), "cycle", 14),
            ("transversal", "K6", F.complete(6), "complete", 6),
            ("transversal", "petersen", F.petersen(), "petersen", 0),
            ("collapse", "C12", F.cycle(12), "cycle", 12),
            ("collapse", "K5", F.complete(5), "complete", 5),
            ("collapse", "K6", F.complete(6), "complete", 6),
            ("collapse", "W7", F.wheel(7), "wheel", 7),
            ("collapse", "grid3x3", F.grid(3, 3), None, 0),
        ]
        s = _seeded(rng)
        g = F.gnp(random.Random(s), 7, 0.5, 10, 12)
        for op in ("partition", "cut", "transversal", "collapse"):
            plan.append((op, f"gnp7#{s}", g, None, 0))
        return [
            Case(f"{op}:{name}", name, g, family, size, op, _seeded(rng))
            for op, name, g, family, size in plan
        ]

    def references(self, case, refs):
        refs.kappa_alpha(case)
        if case.op == "collapse":
            refs.collapse(case)

    def prepare(self, case, rnd):
        graph, where = F.scramble(case.graph, f"{case.arg}:{rnd}")
        edge = where[F.non_bridge_edge(case.graph)] if case.op == "collapse" else None
        return case.op, graph, _multigraph(graph), edge

    def run(self, inp):
        op, graph, g, edge = inp
        orientations = _module("orientations")
        if op == "partition":
            return orientations.kappa_partition_bruteforce(g)
        if op == "cut":
            return orientations.cut_equivalence_classes(g)
        if op == "transversal":
            found = orientations.unique_source_orientations(g, 0)
            every = (1 << g.m) - 1
            back = [
                orientations.normalize_to_unique_source(
                    orientations.Orientation(g, o.bits ^ every), 0
                )[0]
                for o in found
            ]
            return found, back
        collapse = _module("collapse")
        cg = collapse.build_collapse_graph(g, edge)
        return cg, collapse.verify_collapse_structure(cg)

    def check(self, case, inp, out, refs):
        graph = inp[1]
        kappa, alpha = refs.kappa_alpha(case)
        if case.op == "partition":
            return R.check_classes(graph, out.as_bit_classes(), kappa, alpha, 0)
        if case.op == "cut":
            return R.check_classes(graph, out, kappa, alpha, 0)
        if case.op == "transversal":
            found, back = out
            masks = [o.bits for o in found]
            problems = R.check_unique_source(graph, masks, kappa, 0)
            if not {o.bits for o in back} <= set(masks):
                problems.append("normalising a reversed orientation left the transversal")
            return problems
        cg, report = out
        got = (report.ok, len(cg.nodes), report.counts["components"], len(cg.edges))
        expected = (True, kappa) + refs.collapse(case)
        if got != expected:
            return [f"(ok, nodes, components, edges) = {got}, expected {expected}"]
        return []


SWEEP_COMMANDS = ("kappa", "alpha", "eval", "tutte", "classes", "transversal", "verify")
SWEEP_GRAPHS = 280


def sweep_graphs(seed):
    """(command, graph) pairs; verify gets the smaller graphs, as it runs
    every engine and tries every vertex as a source."""
    rng = random.Random(f"sweep:{seed}")
    out = []
    for i in range(SWEEP_GRAPHS):
        command = SWEEP_COMMANDS[i % len(SWEEP_COMMANDS)]
        max_n, max_m = (6, 8) if command == "verify" else (8, 12)
        n = rng.randint(3, max_n)
        m = rng.randint(n - 1, max_m)
        out.append((command, F.small_connected_multigraph(rng, n, m)))
    return out


def sweep_dir(root, seed):
    return os.path.join(root, "perfbench", "out", f"sweep-{seed}")


def write_sweep_inputs(root, seed):
    """Write every sweep graph as an edge-list file; returns the directory."""
    directory = sweep_dir(root, seed)
    os.makedirs(directory, exist_ok=True)
    for i, (_, (n, edges)) in enumerate(sweep_graphs(seed)):
        text = f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)
        with open(os.path.join(directory, f"g{i:03d}.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return directory


class Sweep:
    """Hundreds of small graphs through kappatools.cli.main, in-process."""

    name = "sweep"

    def __init__(self, root):
        self.root = root

    def cases(self, seed):
        directory = sweep_dir(self.root, seed)
        rng = random.Random(f"sweep-args:{seed}")
        cases = []
        for i, (command, graph) in enumerate(sweep_graphs(seed)):
            path = os.path.join(directory, f"g{i:03d}.txt")
            if not os.path.exists(path):
                raise FileNotFoundError(path)
            argv = [command, path, "--format", "json"]
            arg = None
            if command == "eval":
                arg = rng.choice(POINTS)
                argv += ["--point", str(arg[0]), str(arg[1])]
            elif command == "transversal":
                arg = rng.randrange(graph[0])
                argv += ["--vertex", str(arg)]
            cases.append(Case(f"{command}:g{i:03d}", f"g{i:03d}", graph, op=command, arg=(argv, arg)))
        return cases

    def references(self, case, refs):
        refs.kappa_alpha(case)
        if case.op in ("tutte", "eval"):
            refs.tutte(case)

    def prepare(self, case, rnd):
        return case.arg[0]

    def run(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = _module("cli").main(argv)
        return code, buffer.getvalue()

    def check(self, case, argv, out, refs):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        report = json.loads(text)
        if report.get("schema") != 1 or report.get("command") != case.op:
            return ["report lacks schema 1 or names another command"]
        kappa, alpha = refs.kappa_alpha(case)
        op, arg = case.op, case.arg[1]
        if op == "kappa":
            got, expected = report["value"], kappa
        elif op == "alpha":
            got = (report["bruteforce"], report["tutte"], report["ok"])
            expected = (alpha, alpha, True)
        elif op == "eval":
            got, expected = report["value"], R.evaluate(refs.tutte(case), *arg)
        elif op == "tutte":
            got = {(i, j): c for i, j, c in report["coefficients"]}
            expected = refs.tutte(case)
        elif op == "classes":
            got = (report["class_count"], sum(c["size"] for c in report["classes"]))
            expected = (kappa, alpha)
        elif op == "transversal":
            masks = [int(h, 16) for h in report["orientations"]]
            return R.check_unique_source(case.graph, masks, kappa, arg)
        else:
            checks = report["graphs"][0]["checks"]
            got = (
                report["ok"],
                tuple(checks["kappa_triple"][k] for k in ("bruteforce", "recursion", "tutte_1_0")),
                (checks["alpha"]["bruteforce"], checks["alpha"]["tutte_2_0"]),
            )
            expected = (True, (kappa,) * 3, (alpha, alpha))
        if got != expected:
            return [f"{op}: got {got}, expected {expected}"]
        return []


def workload(name, root):
    if name == "sweep":
        return Sweep(root)
    return {"recursion": Recursion, "polynomial": Polynomial, "enumeration": Enumeration}[name]()


WORKLOADS = ("recursion", "polynomial", "enumeration", "sweep")
