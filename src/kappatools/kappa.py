"""Fast click-class counting, no orientation enumeration.

One deletion/contraction engine evaluates the Tutte polynomial on the
line y = 0: `_Engine(x=1)` gives the class count kappa = T(1, 0), and
`tutte_eval(g, x, 0)` runs the same engine at any integer x (x = 2
counts acyclic orientations).  The value for a graph is the value after
deleting a cycle-edge plus the value after contracting it.  Three
prunings keep the recursion small: parallel edges collapse, each bridge
contributes a factor x, and disjoint pieces multiply.  A piece that is a
cycle C_m is answered in closed form, x + x^2 + ... + x^(m-1) (m - 1 at
x = 1), without a memo key or a recursion; traces skip this rule so they
keep the complete unfolded recursion.  Other pieces are memoized on a
normalized graph key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapExceededError, GraphInputError
from .graphs import memo_key

TRACE_LEAF_CAP = 10_000


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


@dataclass(frozen=True)
class TraceNode:
    """One step of the unfolded recursion, for explainability."""

    key: str
    rule: str  # "base" | "product" | "bridge-prune" | "recursion"
    edge: tuple | None
    value: int
    children: tuple

    def to_json(self):
        return {
            "key": self.key,
            "rule": self.rule,
            "edge": None if self.edge is None else list(self.edge),
            "value": self.value,
            "children": [c.to_json() for c in self.children],
        }

    def leaf_count(self):
        if not self.children:
            return 1
        return sum(c.leaf_count() for c in self.children)


@dataclass
class KappaResult:
    value: int
    trace: TraceNode | None = None
    cache_stats: CacheStats = field(default_factory=CacheStats)


def _cycle_value(m, x):
    """T(C_m; x, 0) = x + x^2 + ... + x^(m-1)."""
    if x == 1:
        return m - 1
    return (x**m - x) // (x - 1)


class _Engine:
    """T(g; x, 0) by deletion/contraction; memo values are only valid for one x."""

    def __init__(self, memo, rng, build_trace, x=1):
        self.memo = memo  # None disables caching entirely
        self.rng = rng
        self.build_trace = build_trace
        self.x = x
        self.stats = CacheStats()

    def solve(self, g):
        """Value of an arbitrary loop-free multigraph, plus its trace node."""
        s = g.simplify().graph
        core = s.cycle_subgraph().drop_isolated()
        bridge_factor = self.x ** (s.m - core.m)
        if core.m == 0:
            node = (
                TraceNode(memo_key(core), "base", None, 1, ())
                if self.build_trace
                else None
            )
            return bridge_factor, node
        value, node = self._solve_core(core)
        if self.build_trace and s.m != core.m:
            node = TraceNode(memo_key(s), "bridge-prune", None, value, (node,))
        return bridge_factor * value, node

    def _solve_core(self, core):
        pieces = core.split_components()
        if len(pieces) > 1:
            value = 1
            children = []
            for piece in pieces:
                v, child = self._solve_component(piece)
                value *= v
                if self.build_trace:
                    children.append(child)
            node = (
                TraceNode(memo_key(core), "product", None, value, tuple(children))
                if self.build_trace
                else None
            )
            return value, node
        return self._solve_component(core)

    def _solve_component(self, c):
        """c is connected, simple, bridge-free, with at least one edge."""
        if c.m == c.n_vertices and not self.build_trace:
            return _cycle_value(c.m, self.x), None
        key = memo_key(c)
        if self.memo is not None and key in self.memo:
            self.stats.hits += 1
            return self.memo[key], None
        self.stats.misses += 1
        if self.rng is None:
            eid = min(range(c.m), key=lambda i: c.edges[i])
        else:
            eid = self.rng.randrange(c.m)
        v1, n1 = self.solve(c.delete_edge(eid).graph)
        v2, n2 = self.solve(c.contract_edge(eid).graph)
        value = v1 + v2
        if self.memo is not None:
            self.memo[key] = value
        node = (
            TraceNode(key, "recursion", c.edges[eid], value, (n1, n2))
            if self.build_trace
            else None
        )
        return value, node


def kappa(g, *, rng=None):
    """Number of click-equivalence classes of acyclic orientations of g.

    Parallel edges are fine (they collapse); loops are rejected.  Pass an
    rng to recurse on randomly chosen cycle-edges instead of the
    lexicographically least one (the value must not change; differential
    tests rely on this).  Each call memoizes into a fresh cache; its hits
    and misses are returned as `cache_stats`.  Cycle pieces are answered
    in closed form and never reach the cache, so they count as neither
    hits nor misses.
    """
    if g.has_loops:
        raise GraphInputError("graph has loops; loops admit no acyclic orientation")
    engine = _Engine({}, rng, build_trace=False)
    value, _ = engine.solve(g)
    return KappaResult(value, None, engine.stats)


def kappa_with_trace(g, *, rng=None):
    """Like kappa, but cache-free and with the full recursion tree attached.

    Caching and the closed-form cycle rule are off, so the trace is the
    complete unfolded recursion.  Every leaf is a base case worth 1 and
    every product factor is at least 2, so the tree has at most kappa
    leaves; kappa(g) is computed first, and a value above TRACE_LEAF_CAP
    raises CapExceededError instead of building the tree.
    """
    value = kappa(g).value
    if value > TRACE_LEAF_CAP:
        raise CapExceededError("trace", value, TRACE_LEAF_CAP, unit="possible leaves")
    engine = _Engine(None, rng, build_trace=True)
    value, node = engine.solve(g)
    return KappaResult(value, node, engine.stats)
