"""Fast click-class counting, no orientation enumeration.

One engine evaluates the Tutte polynomial on the line y = 0: `_Engine(1)`
gives the class count kappa = T(1, 0), and `tutte_eval(g, x, 0)` runs the
same engine at any integer x (x = 2 counts acyclic orientations).  Three
prunings come first: parallel edges collapse, each bridge contributes a
factor x, and disjoint pieces multiply.  A piece that is a cycle C_m is
answered in closed form, x + x^2 + ... + x^(m-1) (m - 1 at x = 1).  A
sparse piece, one with fewer than DENSE_SHARE of all vertex pairs as
edges, is answered by `frontier_sum`; a dense one by
`_partition_counts`.

`frontier_sum` is one walk over all edge subsets A with one integer
weight per partition of the frontier vertices (Sekine, Imai and Tani,
ISAAC 1995).  `tutte._subset_counts` runs the same walk with other
weights to build the full polynomial.

`_partition_counts` works on vertices instead: p_k, the number of
partitions of the n vertices into k independent sets, gives the chromatic
polynomial sum_k p_k L(L-1)...(L-k+1), and with Tutte's
chi(L) = (-1)^(n-1) L T(1-L, 0) for a connected graph,
T(x, 0) = (-1)^(n-1) sum_k p_k prod_{i=1..k-1} (1 - x - i)
(Greene and Zaslavsky, Trans. AMS 1983).  The p_k come from a memoized
DP over vertex subsets (Björklund, Husfeldt and Koivisto, SIAM J. Comput.
2009); a dense piece has few independent sets, so the DP reaches few
subsets.

`kappa_with_trace` runs a separate recursion, `_trace`: the paper's
deletion/contraction at x = 1, unmemoized, without the cycle rule, the
frontier sum or the subset DP, so its tree is the complete unfolded
recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, prod
from operator import mul

from .errors import CapExceededError, GraphInputError
from .graphs import bfs_order, memo_key

TRACE_LEAF_CAP = 10_000

# Pieces with at least this share of all vertex pairs as edges go to the
# subset DP; sparser ones to the frontier sum.
DENSE_SHARE = 0.5


@dataclass
class CacheStats:
    """Hits and misses in the subset DP's tables."""

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


def frontier_sum(g, take, close, scale=mul):
    """Sum over the edge subsets A of a loop-free g of
    take^|A| * close^closed(A), where closed(A) = c(A) - c(E) and c counts
    the components of (V, A) over the vertices that touch an edge.

    Those vertices are taken in `graphs.bfs_order`, each edge at its later
    endpoint, and a vertex leaves the frontier after its last edge.  For
    every canonical partition of the frontier vertices (block labels in
    order of first occurrence) one integer holds the summed weight of the
    subsets reaching it.  Taking an edge scales a weight by `take`.  A
    block that leaves the frontier while other blocks remain open scales
    it by `close`; the last block of a component does not, since the
    breadth-first order keeps each component contiguous.  A weight that
    becomes 0 is dropped.  `scale` is the scaling: `mul`, or `lshift`
    when take and close are shift amounts.
    """
    degree = g.degrees
    order = [v for v in bfs_order(g) if degree[v]]
    pos = [0] * g.n_vertices
    for i, v in enumerate(order):
        pos[v] = i
    edges = sorted((max(pos[a], pos[b]), min(pos[a], pos[b])) for a, b in g.edges)
    last = {}
    for i, (hi, lo) in enumerate(edges):
        last[hi] = last[lo] = i
    states = {(): 1}
    frontier = []
    i = 0
    for p in range(len(order)):
        frontier.append(p)
        states = {
            blocks + (max(blocks, default=-1) + 1,): weight
            for blocks, weight in states.items()
        }
        while i < len(edges) and edges[i][0] == p:
            ia, ib = frontier.index(edges[i][1]), len(frontier) - 1
            out = dict(states)
            for blocks, weight in states.items():
                lo, hi = blocks[ia], blocks[ib]
                if lo != hi:
                    if lo > hi:
                        lo, hi = hi, lo
                    blocks = tuple([lo if b == hi else b - (b > hi) for b in blocks])
                out[blocks] = out.get(blocks, 0) + scale(weight, take)
            states = out
            for v in edges[i]:
                if last[v] == i:
                    states = _retire(states, frontier.index(v), close, scale)
                    frontier.remove(v)
            i += 1
    return sum(states.values())


def _retire(states, j, close, scale):
    """Drop frontier slot j from every partition.  A block that loses its
    last frontier vertex while other blocks remain is scaled by `close`."""
    out = {}
    for blocks, weight in states.items():
        b = blocks[j]
        rest = blocks[:j] + blocks[j + 1 :]
        if b not in rest:
            if rest:
                weight = scale(weight, close)
                if not weight:
                    continue
            rest = tuple([x - (x > b) for x in rest])
        elif b not in blocks[:j]:
            relabel = {}
            rest = tuple([relabel.setdefault(x, len(relabel)) for x in rest])
        out[rest] = out.get(rest, 0) + weight
    return out


def _partition_counts(c, stats):
    """[p_0, ..., p_n] for a simple graph c on n vertices: p_k counts the
    partitions of its vertices into k independent sets.

    P(S) = sum_k p_k(S) z^k, the counts for the subgraph induced on S, is
    the sum of z * P(S - I) over the independent sets I of S that hold its
    first vertex, with P({}) = 1.  The vertices are taken by falling degree, so
    that the first vertex of S has few non-neighbours to branch on.  P(S)
    is packed into one integer, p_k in the bits from k * width up; no
    count exceeds the Bell number of n, which is at most n!, so the slots
    never carry.  Each subset is computed once; `stats` counts the lookups
    that found it already computed as hits and the others as misses.
    """
    n = c.n_vertices
    degree = c.degrees
    bit = [0] * n
    for i, v in enumerate(sorted(range(n), key=lambda v: -degree[v])):
        bit[v] = 1 << i
    adjacent = dict.fromkeys(bit, 0)
    for a, b in c.edges:
        adjacent[bit[a]] |= bit[b]
        adjacent[bit[b]] |= bit[a]
    width = factorial(n).bit_length()
    table = {}

    def count(s):
        packed = table.get(s)
        if packed is not None:
            stats.hits += 1
            return packed
        stats.misses += 1
        first = s & -s
        rest = s ^ first
        total = 0
        # each independent I of s holding `first`, as the set s - I it leaves
        stack = [(rest, rest & ~adjacent[first])]
        while stack:
            left, free = stack.pop()
            if free:
                u = free & -free
                free ^= u
                stack.append((left, free))
                stack.append((left ^ u, free & ~adjacent[u]))
            else:
                total += count(left) if left else 1
        packed = table[s] = total << width
        return packed

    packed = count((1 << n) - 1)
    mask = (1 << width) - 1
    return [(packed >> k * width) & mask for k in range(n + 1)]


class _Engine:
    """T(g; x, 0) for one x: pruning, closed-form cycles, the frontier sum
    on sparse pieces and the subset DP on dense ones."""

    def __init__(self, x):
        self.x = x
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
        n = c.n_vertices
        if c.m == n:
            return _cycle_value(c.m, self.x)
        if 2 * c.m < DENSE_SHARE * n * (n - 1):
            # T(c; x, 0) = (-1)^(n+1) sum over A of (-1)^|A| (1-x)^(c(A)-1)
            value = frontier_sum(c, -1, 1 - self.x)
        else:
            # T(c; x, 0) = (-1)^(n+1) sum over k of p_k prod_{i<k} (1-x-i)
            value, weight = 0, 1
            for k, count in enumerate(_partition_counts(c, self.stats)[1:], 1):
                value += count * weight
                weight *= 1 - self.x - k
        return value if n % 2 else -value


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

    Parallel edges are fine (they collapse); loops are rejected.  Dense
    pieces go to the subset DP, with a fresh table per piece and call; the
    hits and misses of those tables are returned as `cache_stats`.  Cycle
    pieces (closed form) and sparse pieces (the frontier sum) never reach
    a table, so they count as neither hits nor misses.
    """
    if g.has_loops:
        raise GraphInputError("graph has loops; loops admit no acyclic orientation")
    engine = _Engine(1)
    value = engine.solve(g)
    return KappaResult(value, None, engine.stats)


def kappa_with_trace(g):
    """Like kappa, but with the full recursion tree attached.

    The tree comes from a separate recursion that has no memo, no subset
    DP and no closed-form cycle rule, so it is the complete unfolded
    recursion and its `cache_stats` stay zero.  Every leaf is a base case
    worth 1 and every product factor is at least 2, so the tree has at
    most kappa leaves; kappa(g) is computed first, and a value above
    TRACE_LEAF_CAP raises CapExceededError instead of building the tree.
    """
    value = kappa(g).value
    if value > TRACE_LEAF_CAP:
        raise CapExceededError("trace", value, TRACE_LEAF_CAP, unit="possible leaves")
    node = _trace(g)
    return KappaResult(node.value, node)
