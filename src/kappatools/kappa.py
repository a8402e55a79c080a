"""Fast click-class counting, no orientation enumeration.

One function, `_solve`, evaluates the Tutte polynomial on the line
y = 0: `kappa` runs it at x = 1, and `tutte_eval(g, x, 0)` at any integer
x (x = 2 counts acyclic orientations).  Parallel edges collapse, and
T multiplies over blocks, the 2-connected pieces that cut vertices
separate: `_blocks` relabels the blocks of `Multigraph.blocks`, and each
bridge contributes a factor x.  A simple input that is one block, such
as a cycle, wheel, grid, clique or the Petersen graph, is taken as it
stands, so `kappa(g)` and `tutte_eval(g, x, 0)` build no graph and reuse
the blocks and degrees that g caches; a graph of several blocks still
gets one relabelled graph per block.  A block that is a cycle C_m is
answered in closed form, x + x^2 + ... + x^(m-1) (m - 1 at x = 1).  A
sparse block, one with fewer than DENSE_SHARE of all vertex pairs as
edges, is answered by `frontier_sum`; a dense one by `_partition_counts`.

`frontier_sum` is one walk over all edge subsets A with one integer
weight per partition of the frontier vertices (Sekine, Imai and Tani,
ISAAC 1995), each partition a `bytes` key of one label per vertex, so
no walk runs past a frontier of FRONTIER_CAP vertices.  It takes the
edges in `Multigraph.walk_order`, which the graph keeps, so `kappa(g)`
and `tutte_eval(g, x, 0)` on an input taken in place order it once.
The walk steps through every vertex but the last two; those two close
in one product pass per state signature, the multiset of edge counts
that they send into each frontier block, so on a clique the Bell(n)
partitions of the last steps are never built.  `tutte.tutte_polynomial`
runs the same walk once, at a point where its value packs the whole
polynomial.

`_partition_counts` works on vertices instead: p_k, the number of
partitions of the n vertices into k independent sets, gives the chromatic
polynomial sum_k p_k L(L-1)...(L-k+1), and with Tutte's
chi(L) = (-1)^(n-1) L T(1-L, 0) for a connected graph,
T(x, 0) = (-1)^(n-1) sum_k p_k prod_{i=1..k-1} (1 - x - i)
(Greene and Zaslavsky, Trans. AMS 1983).  The p_k come from a DP over
vertex subsets (Björklund, Husfeldt and Koivisto, SIAM J. Comput. 2009),
run as one forward pass that takes the subsets by falling size; a dense
piece has few independent sets, so the DP reaches few subsets.

`kappa_with_trace` runs a separate recursion, `_trace`: the paper's
deletion/contraction at x = 1, unmemoized, without the cycle rule, the
frontier sum or the subset DP, so its tree is the complete unfolded
recursion, and the one path here that recurses in Python.  It prunes
bridges and splits components by `_core`, not into blocks, and names
each node by the `memo_key` of the graph it meets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import factorial, prod
from operator import lshift

from .errors import CapExceededError, GraphInputError
from .graphs import Multigraph, memo_key

TRACE_LEAF_CAP = 10_000

# Pieces with at least this share of all vertex pairs as edges go to the
# subset DP; sparser ones to the frontier sum.
DENSE_SHARE = 0.5

# A frontier partition holds one block label per byte.
FRONTIER_CAP = 255


@dataclass
class CacheStats:
    """Arrivals at vertex subsets in the subset DP: a miss reaches a
    subset the first time, a hit reaches it again."""

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


def frontier_sum(g, take, close):
    """Sum over the edge subsets A of a loop-free g of
    take^|A| * close^closed(A), where closed(A) = c(A) - c(E) and c counts
    the components of (V, A) over the vertices that touch an edge.

    Those vertices are taken in `graphs.bfs_order` and the edges in
    `Multigraph.walk_order`, each at its later endpoint, and a vertex
    leaves the frontier after its last edge.  For every canonical
    partition of the frontier vertices one integer holds the summed
    weight of the subsets reaching it.  A partition is a `bytes` key, one
    block label per frontier slot, labels numbered in order of first
    occurrence; a vertex's first edge back appends its slot, with a new
    label if the edge is skipped and the other end's if it is taken, and
    merging or dropping blocks is one `bytes.translate`.
    Taking an edge multiplies a weight by `take`.  A block that leaves
    the frontier while other blocks remain open multiplies it by `close`;
    the last block of a component does not, since the breadth-first order
    keeps each component contiguous.  A weight that becomes 0 is dropped.
    A walk whose frontier would pass FRONTIER_CAP vertices raises
    CapExceededError before it starts.

    The walk ends in closed form, with one product pass per state
    signature instead of the steps of the last two vertices u and p.
    Write t and c for the multipliers, take and close.  Before u is
    placed, every edge still to come runs from u or p, to a frontier slot
    or between u and p; a state's blocks B get du_B and dp_B of them from
    u and from p, and delta edges join u and p.  The rest of the walk
    multiplies the state by the sum over the
    subsets S of those edges of t^|S| c^(k(S) - 1), k(S) the number of
    components the blocks, u and p form under S (every one closes but the
    last).  A block B is tied to u, with weight a_B = (1 + t)^du_B - 1
    (some edge from u taken), or not, with weight 1; and to p, with
    weight g_B - 1 where g_B = (1 + t)^dp_B, or not.  Counted as if u and
    p stayed apart, a block weighs
    c + a_B + (g_B - 1) + a_B (g_B - 1) = f_B + a_B g_B, with
    f_B = c - 1 + g_B, and all subsets sum to
    N = c^2 (1 + t)^delta prod_B (f_B + a_B g_B), one factor c too many
    wherever u and p end joined.  The subsets that leave them apart take
    no u-p edge and tie no block to both, so there a block weighs
    f_B + a_B and they sum to M = c^2 prod_B (f_B + a_B).  The sum of
    c^k(S) is M + (N - M) / c, and dividing out the last component's c
    gives

        L = (c - 1) prod_B (f_B + a_B) + (1 + t)^delta prod_B (f_B + a_B g_B).

    L depends only on the multiset of the pairs (du_B, dp_B), the state's
    signature, so `_close_last_two` first sums the weights per signature
    and then multiplies each sum out once.
    """
    edges = g.walk_order  # (later, earlier, id)
    placed = g.n_vertices - g.degrees.count(0)
    last = [0] * placed
    for i, (hi, lo, _) in enumerate(edges):
        last[hi] = last[lo] = i
    width = _frontier_width(edges, last)
    if width > FRONTIER_CAP:
        raise CapExceededError("frontier", width, FRONTIER_CAP, unit="vertices")
    if not edges:
        return 1
    states = {b"": 1}
    frontier = []
    i = 0
    for p in range(placed - 2):
        frontier.append(p)
        if i == len(edges) or edges[i][0] != p:
            # the first vertex of a component: no edge back, a block of its own
            states = {
                blocks + _LABEL[max(blocks, default=-1) + 1]: weight
                for blocks, weight in states.items()
            }
        first = True
        while i < len(edges) and edges[i][0] == p:
            q = edges[i][1]
            ia = frontier.index(q)
            out = {}
            if first:
                for blocks, weight in states.items():
                    out[blocks + _LABEL[max(blocks) + 1]] = weight
                    out[blocks + blocks[ia : ia + 1]] = weight * take
                first = False
            else:
                out.update(states)
                for blocks, weight in states.items():
                    lo, hi = blocks[ia], blocks[-1]
                    if lo != hi:
                        if lo > hi:
                            lo, hi = hi, lo
                        blocks = blocks.translate(_MERGE[lo << 8 | hi])
                    taken = weight * take
                    old = out.get(blocks)
                    out[blocks] = taken if old is None else old + taken
            states = out
            for v in (p, q):
                if last[v] == i:
                    states = _retire(states, frontier.index(v), close)
                    frontier.remove(v)
            i += 1
    return _close_last_two(states, frontier, edges[i:], placed - 2, take, close)


def _close_last_two(states, frontier, edges, u, take, close):
    """The rest of the walk from the step of u, the last vertex but one:
    the sum over the states of weight * L (see `frontier_sum`), where
    `edges` are the `Multigraph.walk_order` triples still to come, each
    from u or from the last vertex p.

    The weights are summed first per integer key that holds the blocks'
    packed (du_B, dp_B) pairs in label order, and then per sorted tuple of
    pairs, the signature.  Each signature's sum is multiplied
    block by block by f_B + a_B = c + (1 + t)^du_B + (1 + t)^dp_B - 2 and
    f_B + a_B g_B = c + (1 + t)^(du_B + dp_B) - 1, each factor computed
    once per pair.  The two factors differ only for a block that both u
    and p reach, so the two products share one chain over the other
    blocks.
    """
    power = [1]  # power[k] = (1 + take)^k
    for _ in edges:
        power.append(power[-1] * (1 + take))
    # slot j's edges from u and from p, packed as du_j * base + dp_j, so
    # that the sum over a block's slots packs (du_B, dp_B) the same way
    base = len(edges) + 1
    pair = [0] * len(frontier)
    slot = {v: j for j, v in enumerate(frontier)}
    delta = 0
    for hi, lo, _ in edges:
        if lo == u:
            delta += 1
        else:
            pair[slot[lo]] += base if hi == u else 1
    # the packed pairs in label order as one integer, a field per label
    field = (base * base).bit_length()
    shift = field.__mul__
    by_order = {}
    for blocks, weight in states.items():
        key = sum(map(lshift, pair, map(shift, blocks)))
        old = by_order.get(key)
        by_order[key] = weight if old is None else old + weight
    by_signature = {}
    mask = (1 << field) - 1
    for key, weight in by_order.items():
        signature = []
        while key:  # every block has an edge to come, so no field is 0
            signature.append(key & mask)
            key >>= field
        signature = tuple(sorted(signature))
        old = by_signature.get(signature)
        by_signature[signature] = weight if old is None else old + weight
    terms = {}
    apart = joined = 0
    for signature, weight in by_signature.items():
        both = []
        for s in signature:
            if s not in terms:
                du, dp = divmod(s, base)
                terms[s] = (close + power[du] + power[dp] - 2, close + power[du + dp] - 1)
            x, y = terms[s]
            if x == y:
                weight *= x
            else:
                both.append((x, y))
        a = j = weight
        for x, y in both:
            a *= x
            j *= y
        apart += a
        joined += j
    return (close - 1) * apart + power[delta] * joined


def _frontier_width(edges, last):
    """The most vertices the walk's frontier holds at once: vertex q holds
    a slot from its own step to the step of its last edge's later end."""
    delta = [0] * (len(last) + 1)
    for q, i in enumerate(last):
        delta[q] += 1
        delta[edges[i][0] + 1] -= 1
    return max(accumulate(delta))


class _Tables(dict):
    """`bytes.translate` tables, each built on first use, one per label
    pair (a, b) under the key a << 8 | b."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        a, b = divmod(key, 256)
        table = self[key] = bytes([self.make(a, b, x) for x in range(256)])
        return table


# block b joins block a <= b, and the labels above b move down one
_MERGE = _Tables(lambda a, b, x: a if x == b else x - (x > b))
# block b moves past the t blocks b+1..b+t, which move down one
_ROTATE = _Tables(lambda b, t, x: b + t if x == b else x - (b < x <= b + t))
_LABEL = [bytes([x]) for x in range(256)]


def _retire(states, j, close):
    """Drop frontier slot j from every partition.  A block that loses its
    last frontier vertex while other blocks remain is multiplied by `close`;
    one whose first slot was j moves behind the blocks first seen before
    its next slot."""
    out = {}
    for blocks, weight in states.items():
        b = blocks[j]
        rest = blocks[:j] + blocks[j + 1 :]
        k = rest.find(b)
        if k < 0:
            if rest:
                weight *= close
                if not weight:
                    continue
                rest = rest.translate(_MERGE[b << 8 | b])
        elif k > j:
            t = max(rest[j:k]) - b
            if t > 0:
                rest = rest.translate(_ROTATE[b << 8 | t])
        old = out.get(rest)
        out[rest] = weight if old is None else old + weight
    return out


def _partition_counts(c, stats):
    """[p_0, ..., p_n] for a simple graph c on n vertices: p_k counts the
    partitions of its vertices into k independent sets.

    P(S) = sum_k p_k(S) z^k, the counts for the subgraph induced on S, is
    the sum of z * P(S - I) over the independent sets I of S that hold its
    first vertex, with P({}) = 1.  One forward pass unrolls it: the weight
    of S sums z^j over the chains of j such steps from V down to S, and
    P(V) is what reaches the empty set.  A step only removes vertices, so
    with the subsets taken by falling size a weight is final when it is
    taken (and dropped).  The vertices are taken by falling degree, so
    that the first vertex of S has few non-neighbours to branch on.  A
    weight is packed into one integer, the z^k count in the bits from
    k * width up; no count exceeds the Bell number of n, at most n!, so
    the slots never carry.  `stats` counts the first arrival at a nonempty
    subset (the full set included) as a miss, every later one as a hit.
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
    weight = [{} for _ in range(n + 1)]  # weight[k]: the subsets of size k
    weight[n][(1 << n) - 1] = 1
    total = arrivals = taken = 0
    for level in reversed(weight[1:]):
        while level:
            s, packed = level.popitem()
            taken += 1
            packed <<= width
            first = s & -s
            rest = s ^ first
            # each independent I of s holding `first`, as the set s - I it leaves
            stack = [(rest, rest & ~adjacent[first])]
            while stack:
                left, free = stack.pop()
                if free:
                    u = free & -free
                    free ^= u
                    stack.append((left, free))
                    stack.append((left ^ u, free & ~adjacent[u]))
                elif left:
                    arrivals += 1
                    below = weight[left.bit_count()]
                    below[left] = below.get(left, 0) + packed
                else:
                    total += packed
    stats.misses += taken
    stats.hits += arrivals - (taken - 1)
    mask = (1 << width) - 1
    return [(total >> k * width) & mask for k in range(n + 1)]


def _core(g):
    """simplify(g) and its bridgeless core, without isolated vertices."""
    s = g.simplify()
    return s, s.cycle_subgraph().drop_isolated()


def _blocks(g):
    """The blocks of simplify(g), its 2-connected pieces and bridges, from
    `Multigraph.blocks`.

    Returns the number of bridges and one graph per block with two or
    more edges, its vertices relabelled in ascending order and its edges
    in simplify(g)'s order.  A block's parallel copies collapse to the
    first; a block left with one edge is a bridge of simplify(g).

    A g that is its own one block, with no parallel edge and no edgeless
    vertex, is returned itself: relabelling and collapsing would rebuild
    an equal graph, and the cycle rule, the walk and the subset DP then
    read the degrees that g has already cached.  A g of several blocks still
    gets a relabelled graph per block, since the subset DP gives each
    vertex of its piece a bit and the walk sizes its tables by the
    piece's vertex count, not by g's.
    """
    blocks = g.blocks
    if (
        len(blocks) == 1
        and len(blocks[0]) == g.m > 1
        and 0 not in g.degrees
        and len(set(g.edges)) == g.m
    ):
        return 0, [g]
    bridges = 0
    pieces = []
    for ids in blocks:
        edges = list(dict.fromkeys(g.edges[e] for e in ids))
        if len(edges) == 1:
            bridges += 1
            continue
        vertices = sorted({x for e in edges for x in e})
        label = {x: i for i, x in enumerate(vertices)}
        pieces.append(
            Multigraph(len(vertices), tuple((label[a], label[b]) for a, b in edges))
        )
    return bridges, pieces


def _solve(g, x, stats):
    """T(g; x, 0) of a loop-free multigraph; `stats` counts the subset DP."""
    bridges, blocks = _blocks(g)
    value = x**bridges
    for c in blocks:
        n = c.n_vertices
        if c.m == n:
            value *= _cycle_value(n, x)
            continue
        if 2 * c.m < DENSE_SHARE * n * (n - 1):
            # T(c; x, 0) = (-1)^(n+1) sum over A of (-1)^|A| (1-x)^(c(A)-1)
            piece = frontier_sum(c, -1, 1 - x)
        else:
            # T(c; x, 0) = (-1)^(n+1) sum over k of p_k prod_{i<k} (1-x-i)
            piece, factor = 0, 1
            for k, count in enumerate(_partition_counts(c, stats)[1:], 1):
                piece += count * factor
                factor *= 1 - x - k
        value *= piece if n % 2 else -piece
    return value


def _trace(g):
    """The unfolded recursion tree of g at x = 1."""
    s, core = _core(g)
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
    """c is connected, simple, bridge-free, with at least one edge; the
    recursion splits it at its least edge."""
    eid = min(range(c.m), key=c.edges.__getitem__)
    children = (_trace(c.delete_edge(eid)), _trace(c.contract_edge(eid)))
    value = children[0].value + children[1].value
    return TraceNode(memo_key(c), "recursion", c.edges[eid], value, children)


def kappa(g):
    """Number of click-equivalence classes of acyclic orientations of g.

    Parallel edges are fine (they collapse); loops are rejected.  Dense
    blocks go to the subset DP, one forward pass per block; the subsets it
    reached the first time (misses) and again (hits), summed over the
    blocks of this call, are returned as `cache_stats`.  Cycle blocks
    (closed form) and sparse blocks (the frontier sum) never reach the DP,
    so they count as neither hits nor misses.  Nothing here recurses in
    Python, so no graph raises RecursionError; a sparse block whose
    frontier would pass FRONTIER_CAP vertices raises CapExceededError.
    """
    if g.has_loops:
        raise GraphInputError("graph has loops; loops admit no acyclic orientation")
    stats = CacheStats()
    return KappaResult(_solve(g, 1, stats), None, stats)


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
