"""Fast click-class counting, no orientation enumeration.

One deletion/contraction engine evaluates the Tutte polynomial on the
line y = 0: `_Engine(1)` gives the class count kappa = T(1, 0), and
`tutte_eval(g, x, 0)` runs the same engine at any integer x (x = 2
counts acyclic orientations).  The value for a graph is the value after
deleting a cycle-edge plus the value after contracting it.  Three
prunings keep the recursion small: parallel edges collapse, each bridge
contributes a factor x, and disjoint pieces multiply.  A piece that is a
cycle C_m is answered in closed form, x + x^2 + ... + x^(m-1) (m - 1 at
x = 1), without a memo key or a recursion.  Other pieces are memoized on
a normalized graph key.

`kappa_with_trace` runs a separate recursion, `_trace`: the same
deletion/contraction at x = 1, unmemoized and without the cycle rule, so
its tree is the complete unfolded recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

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


def _least_edge(c):
    return min(range(c.m), key=lambda i: c.edges[i])


class _Engine:
    """T(g; x, 0) by deletion/contraction, memoized for one x."""

    def __init__(self, x):
        self.x = x
        self.memo = {}
        self.stats = CacheStats()

    def solve(self, g):
        """Value of an arbitrary loop-free multigraph."""
        s = g.simplify()
        core = s.cycle_subgraph().drop_isolated()
        value = self.x ** (s.m - core.m)
        for piece in core.split_components():
            value *= self._solve_component(piece)
        return value

    def _solve_component(self, c):
        """c is connected, simple, bridge-free, with at least one edge."""
        if c.m == c.n_vertices:
            return _cycle_value(c.m, self.x)
        key = memo_key(c)
        if key in self.memo:
            self.stats.hits += 1
            return self.memo[key]
        self.stats.misses += 1
        eid = _least_edge(c)
        value = self.solve(c.delete_edge(eid)) + self.solve(c.contract_edge(eid))
        self.memo[key] = value
        return value


def _trace(g):
    """The unfolded recursion tree of g at x = 1."""
    s = g.simplify()
    core = s.cycle_subgraph().drop_isolated()
    if core.m == 0:
        return TraceNode(memo_key(core), "base", None, 1, ())
    pieces = core.split_components()
    if len(pieces) == 1:
        node = _trace_component(core)
    else:
        children = tuple(_trace_component(p) for p in pieces)
        value = prod(c.value for c in children)
        node = TraceNode(memo_key(core), "product", None, value, children)
    if s.m != core.m:
        node = TraceNode(memo_key(s), "bridge-prune", None, node.value, (node,))
    return node


def _trace_component(c):
    """c is connected, simple, bridge-free, with at least one edge."""
    eid = _least_edge(c)
    children = (_trace(c.delete_edge(eid)), _trace(c.contract_edge(eid)))
    value = children[0].value + children[1].value
    return TraceNode(memo_key(c), "recursion", c.edges[eid], value, children)


def kappa(g):
    """Number of click-equivalence classes of acyclic orientations of g.

    Parallel edges are fine (they collapse); loops are rejected.  The
    recursion splits the lexicographically least cycle-edge.  Each call
    memoizes into a fresh cache; its hits and misses are returned as
    `cache_stats`.  Cycle pieces are answered in closed form and never
    reach the cache, so they count as neither hits nor misses.
    """
    if g.has_loops:
        raise GraphInputError("graph has loops; loops admit no acyclic orientation")
    engine = _Engine(1)
    value = engine.solve(g)
    return KappaResult(value, None, engine.stats)


def kappa_with_trace(g):
    """Like kappa, but with the full recursion tree attached.

    The tree comes from a separate recursion that has no memo and no
    closed-form cycle rule, so it is the complete unfolded recursion and
    its `cache_stats` stay zero.  Every leaf is a base case worth 1 and
    every product factor is at least 2, so the tree has at most kappa
    leaves; kappa(g) is computed first, and a value above TRACE_LEAF_CAP
    raises CapExceededError instead of building the tree.
    """
    value = kappa(g).value
    if value > TRACE_LEAF_CAP:
        raise CapExceededError("trace", value, TRACE_LEAF_CAP, unit="possible leaves")
    node = _trace(g)
    return KappaResult(node.value, node)
