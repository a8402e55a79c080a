"""Fast click-class counting, no orientation enumeration.

One function, `_solve`, evaluates the Tutte polynomial on the line
y = 0: `kappa` runs it at x = 1, and `tutte_eval(g, x, 0)` at any integer
x (x = 2 counts acyclic orientations).  Parallel edges collapse, and
T multiplies over blocks, the 2-connected pieces that cut vertices
separate: `_blocks` reads them from `Multigraph.blocks`, and each bridge
contributes a factor x.  A simple input that is one block, such
as a cycle, wheel, grid, clique or the Petersen graph, is taken as it
stands, so `kappa(g)` and `tutte_eval(g, x, 0)` build no graph and reuse
the blocks and degrees that g caches; a graph of several blocks gets one
relabelled graph per block, which it keeps as `Multigraph.block_graphs`,
so the second of those calls builds none.  A block that is a cycle C_m
is answered in closed form, x + x^2 + ... + x^(m-1) (m - 1 at x = 1).
Every other block is answered from its line, the coefficients of
T(x, 0), which `_line` computes once and keeps on the block graph: on g
itself when g is taken in place and on its `block_graphs` pieces
otherwise.  A sparse block, one with fewer than DENSE_SHARE of all
vertex pairs as edges, reads every coefficient off one `frontier_sum`
walk at x = 2^k (a Kronecker substitution, Harvey, J. Symbolic Comput.
2009); a dense block turns the counts of `_partition_counts` into
coefficients.  So `kappa(g)` followed by `tutte_eval(g, x, 0)` at any x
walks each sparse block once and runs the subset DP once per dense
block; the list lives and dies with its graph, and an equal graph built
anew computes it again.  DENSE_SHARE decides only how a line is
computed.

The packed walk's weights run to (n - 1) k bits on a block of n vertices,
so its cost grows like the square of the rank, while a walk at one point
keeps small weights.  A sparse block past LINE_BITS = 4096 bits walks at
each x instead and keeps no line.  Measured on one block each (medians of
15 walks, 2-core x86-64, Python 3.11.7):

    block         (n - 1) k   packed walk   walk at x = 1 / x = 2
    Petersen            144       0.47 ms          0.44 / 0.44 ms
    grid 4x4            480       0.49             0.43 / 0.48
    grid 5x5          1,152       2.10             1.78 / 1.87
    grid 6x6          2,240       8.18             6.86 / 7.25
    grid 7x7          4,224       33.1             26.4 / 27.9
    grid 3x20         6,136       3.11             2.27 / 2.45
    grid 3x30        13,528       6.54             3.78 / 3.97
    ladder 2x100     60,496       8.56             1.97 / 2.14
    grid 3x100      150,696        149             12.8 / 14.1

Under the bound one packed walk costs 1.0-1.15 times a walk at x = 2, and
the second point is free; past it the first point costs more, up to
1.65 times at 13.5 kbit, where the packed walk costs as much as two.

`frontier_sum` is one walk over all edge subsets A with one integer
weight per partition of the frontier vertices (Sekine, Imai and Tani,
ISAAC 1995), each partition a `bytes` key that labels each frontier slot
by the first slot of its block, so no walk runs past a frontier of
FRONTIER_CAP vertices.  It takes the edges in `Multigraph.walk_order`,
which the graph keeps, so the engine and `tutte.tutte_polynomial` on an
input taken in place order it once.  The walk steps through every vertex
but the last two; those two close in one product pass per state
signature, the multiset of edge counts that they send into each frontier
block, so on a clique the Bell(n) partitions of the last steps are never
built.  `tutte.tutte_polynomial` runs the same walk once, at a point
where its value packs the whole polynomial.

`_partition_counts` works on vertices instead: p_k, the number of
partitions of the n vertices into k independent sets, gives the chromatic
polynomial sum_k p_k L(L-1)...(L-k+1), and with Tutte's
chi(L) = (-1)^(n-1) L T(1-L, 0) for a connected graph,
T(x, 0) = (-1)^(n-1) sum_k p_k prod_{i=1..k-1} (1 - x - i)
(Greene and Zaslavsky, Trans. AMS 1983), which `_line` expands into the
coefficients of the line.  The p_k come from a DP over
vertex subsets (Björklund, Husfeldt and Koivisto, SIAM J. Comput. 2009),
run as one forward pass that takes the subsets by falling size; a dense
piece has few independent sets, so the DP reaches few subsets.

`kappa_with_trace` runs the paper's recursion, kappa(G) = kappa(G - e) +
kappa(G/e) for an edge e on a cycle, memoised by `graphs.memo_key`, a
sound key: each distinct key is one node, which splits the graph its key
spells.  It shares the engine's split, `_blocks` (a graph of several
blocks is their product), but none of its counting: no cycle rule,
frontier sum or subset DP, so its value is a second count.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from math import factorial, prod
from operator import lshift

from .errors import CapExceededError, GraphInputError, InternalInvariantError
from .graphs import memo_entry

TRACE_NODE_CAP = 10_000

# Pieces with at least this share of all vertex pairs as edges go to the
# subset DP; sparser ones to the frontier sum.
DENSE_SHARE = 0.5

# A frontier partition holds one block label per byte.
FRONTIER_CAP = 255

# A sparse block on n vertices keeps its line T(x, 0), n fields of k bits,
# when (n - 1) k is at most this; a longer one walks once per point (the
# module docstring has the table that sets it).
LINE_BITS = 4096


@dataclass
class CacheStats:
    """Memo arrivals: at vertex subsets in the subset DP, at node keys in
    the trace recursion.  A miss reaches one the first time, a hit
    reaches it again."""

    hits: int = 0
    misses: int = 0


@dataclass(frozen=True)
class TraceNode:
    """One distinct node of the memoised recursion: its key, the rule
    that splits the graph the key spells, the edge it splits at, its
    value and its children's keys."""

    key: str
    rule: str  # "base" | "blocks" | "recursion"
    edge: tuple | None
    value: int
    children: tuple

    def to_json(self):
        return {**vars(self), "edge": self.edge and list(self.edge), "children": [*self.children]}


@dataclass
class KappaResult:
    value: int
    trace: tuple | None = None  # every distinct TraceNode, the root first
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
    block label per frontier slot, and a block's label is the index of
    its first slot (Kawahara, Inoue, Iwashita and Minato, IEICE Trans.
    Fundamentals 2017), so a placed vertex appends its own slot index to
    every key, an edge that joins two blocks maps the larger label to the
    smaller, and dropping a slot moves its label to the next slot of its
    block and the later labels down one; each is one `bytes.translate`.
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
        # p enters as a block of its own, labelled by its slot
        label = _LABEL[len(frontier)]
        frontier.append(p)
        states = {blocks + label: weight for blocks, weight in states.items()}
        while i < len(edges) and edges[i][0] == p:
            q = edges[i][1]
            ia = frontier.index(q)
            out = states.copy()
            for blocks, weight in states.items():
                lo, hi = blocks[ia], blocks[-1]
                if lo != hi:
                    if lo > hi:
                        lo, hi = hi, lo
                    blocks = blocks.translate(_JOIN[lo << 8 | hi])
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

    The weights are summed first per integer key that holds each block's
    packed (du_B, dp_B) pair in the field of its label, and then per
    sorted tuple of pairs, the signature.  Each signature's sum is multiplied
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
    # the packed pairs as one integer, a field per slot: a block's pair in
    # the field of its label, 0 in the field of a slot that leads no block
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
        while key:  # every block has an edge to come, so its field is not 0
            if key & mask:
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
    """`bytes.translate` tables, each built on first use, one per pair
    (a, b) of labels or slots under the key a << 8 | b."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        a, b = divmod(key, 256)
        table = self[key] = bytes([self.make(a, b, x) for x in range(256)])
        return table


# the block labelled b joins the block labelled a < b
_JOIN = _Tables(lambda a, b, x: a if x == b else x)
# slot j leaves, slot k now leads j's block, and the later slots move down one
_RETIRE = _Tables(lambda j, k, x: k if x == j else x - (x > j))
_LABEL = [bytes([x]) for x in range(256)]


def _retire(states, j, close):
    """Drop frontier slot j from every partition, each key by one
    `bytes.translate` through the table of j and k, the slot that now
    leads j's block: the labels above j move down one, and label j, if
    slot j led its block, becomes k.  A block that loses its last frontier
    vertex while other blocks remain is multiplied by `close`."""
    out = {}
    for blocks, weight in states.items():
        rest = blocks[:j] + blocks[j + 1 :]
        k = rest.find(blocks[j])
        if k < 0:
            if rest:
                weight *= close
                if not weight:
                    continue
            k = j
        rest = rest.translate(_RETIRE[j << 8 | k])
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


def _blocks(g):
    """The blocks of simplify(g), its 2-connected pieces and bridges:
    `Multigraph.block_graphs`, the number of bridges and one relabelled
    graph per block with two or more edges, which g keeps, so that a
    second call on g builds no graph.

    A g that is its own one block, with no parallel edge and no edgeless
    vertex, is returned itself and keeps nothing: relabelling and
    collapsing would rebuild an equal graph, and the cycle rule, the walk
    and the subset DP then read the degrees that g has already cached.  A
    g of several blocks still gets a relabelled graph per block, since
    the subset DP gives each vertex of its piece a bit and the walk sizes
    its tables by the piece's vertex count, not by g's.
    """
    blocks = g.blocks
    if (
        len(blocks) == 1
        and len(blocks[0]) == g.m > 1
        and 0 not in g.degrees
        and not g._has_parallels
    ):
        return 0, [g]
    return g.block_graphs


def _unpack(packed, count, size):
    """The `count` fields of `size` bytes that sit side by side in
    `packed`, the lowest first: a Kronecker substitution read back.  A
    packed value that is not positive, or that needs more fields, raises
    InternalInvariantError."""
    length = count * size
    if not 0 < packed < 1 << 8 * length:
        raise InternalInvariantError(
            f"the frontier sum is not a packed polynomial of {count} {8 * size}-bit fields"
        )
    data = packed.to_bytes(length, "little")
    fields = [data[i : i + size] for i in range(0, length, size)]
    return list(map(int.from_bytes, fields, repeat("little")))


def _line(c, stats):
    """[t_0, ..., t_(n-1)], the coefficients of T(c; x, 0) for a block c
    on n vertices that is not a cycle, or None for a sparse block past
    LINE_BITS; either is kept on c, so that an evaluation at any later x
    runs no subset DP and walks nothing.  `stats` counts the subset DP,
    which only the call that computes a dense block's line runs.

    A dense block turns the p_k of `_partition_counts` into the line by
    T(c; x, 0) = (-1)^(n+1) sum_k p_k prod_{i<k} (1 - x - i), each product
    a list of coefficients.  A sparse block walks once at x = 2^k, where
    (-1)^(n+1) frontier_sum(c, -1, 1 - x) = T(c; x, 0) holds each t_i in
    the k-bit field i.  Every t_i is nonnegative and at most T(c; 1, 0),
    which is at most 2^m and at most the product of the degrees
    (`tutte.tutte_polynomial` bounds its coefficients the same way), so k
    is the bit length of the smaller bound, rounded up to whole bytes.
    The walk's weights then run to about (n - 1) k bits; past LINE_BITS
    their arithmetic costs more than a walk at one point, whose weights
    stay small.
    """
    kept = vars(c)
    if "y0_line" not in kept:
        n = c.n_vertices
        line = None
        if 2 * c.m >= DENSE_SHARE * n * (n - 1):
            # factor holds (-1)^(n+1) prod_{i<k} (1 - x - i), the sign first
            line, factor = [0] * n, [(-1) ** (n + 1)]
            for k, count in enumerate(_partition_counts(c, stats)[1:], 1):
                for i, a in enumerate(factor):
                    line[i] += count * a
                factor = [(1 - k) * a - b for a, b in zip(factor + [0], [0] + factor)]
        # a field takes a byte at least, so a longer block skips the product
        elif (n - 1) * 8 <= LINE_BITS:
            size = (min(1 << c.m, prod(c.degrees)).bit_length() + 7) // 8
            if (n - 1) * 8 * size <= LINE_BITS:
                packed = frontier_sum(c, -1, 1 - (1 << 8 * size))
                line = _unpack(packed if n % 2 else -packed, n, size)
        kept["y0_line"] = line
    return kept["y0_line"]


def _solve(g, x, stats):
    """T(g; x, 0) of a loop-free multigraph; `stats` counts the subset DP
    that this call runs.

    A cycle block is answered in closed form.  Any other block evaluates
    the line that `_line` keeps on it by Horner's rule (at x = 1, its
    sum), so only the first call on g runs its subset DP or its walk: on
    g itself when g is taken in place, otherwise on the pieces that g
    keeps as `Multigraph.block_graphs`.  A sparse block past LINE_BITS
    keeps no line and walks at x on every call (see the table in the
    module docstring).
    """
    bridges, blocks = _blocks(g)
    value = x**bridges
    for c in blocks:
        n = c.n_vertices
        if c.m == n:
            value *= _cycle_value(n, x)
            continue
        line = _line(c, stats)
        if line is None:
            # T(c; x, 0) = (-1)^(n+1) sum over A of (-1)^|A| (1-x)^(c(A)-1)
            piece = frontier_sum(c, -1, 1 - x)
            value *= piece if n % 2 else -piece
            continue
        piece = 0
        for t in reversed(line):
            piece = piece * x + t
        value *= piece
    return value


def _trace(g, nodes, stats):
    """The key of g's node, once it and all below it are in `nodes`, a
    dict from key to TraceNode in the order first met.  The node splits
    h, the graph its key spells, by `_blocks`: with no block h is a base
    case worth 1; if h is its own one block, simple and 2-connected, h
    splits at its least edge e into h - e and h/e, whose values add;
    otherwise its blocks are its children, whose values multiply.
    """
    key, h = memo_entry(g)
    if key in nodes:
        stats.hits += 1
        return key
    if len(nodes) == TRACE_NODE_CAP:
        raise CapExceededError("trace", len(nodes) + 1, TRACE_NODE_CAP, unit="nodes")
    stats.misses += 1
    nodes[key] = None  # holds the node's place before its children's
    _, blocks = _blocks(h)
    rule, edge, parts = "blocks" if blocks else "base", None, blocks[::-1]
    if blocks and blocks[0] is h:
        rule, edge, parts = "recursion", h.edges[0], [h.contract_edge(0), h.delete_edge(0)]
    del g, h, blocks  # parts, reversed, go as they are traced: a waiting frame holds no more
    children = []
    while parts:  # a loop, not a comprehension: one frame per level
        children.append(_trace(parts.pop(), nodes, stats))
    values = [nodes[k].value for k in children]
    value = sum(values) if rule == "recursion" else prod(values)
    nodes[key] = TraceNode(key, rule, edge, value, tuple(children))
    return key


def kappa(g):
    """Number of click-equivalence classes of acyclic orientations of g.

    Parallel edges are fine (they collapse); loops are rejected.  Dense
    blocks go to the subset DP, one forward pass per block graph, which
    then keeps its line; the subsets that this call's passes reached the
    first time (misses) and again (hits) are returned as `cache_stats`.
    Cycle blocks (closed form), sparse blocks (the frontier sum) and dense
    blocks whose line an earlier call on g computed run no DP here, so
    they count as neither: a second call on g returns CacheStats(0, 0),
    and an equal graph built anew counts again.  Nothing here recurses in
    Python, so no graph raises RecursionError; a sparse block whose
    frontier would pass FRONTIER_CAP vertices raises CapExceededError.
    """
    if g.has_loops:
        raise GraphInputError("graph has loops; loops admit no acyclic orientation")
    stats = CacheStats()
    return KappaResult(_solve(g, 1, stats), None, stats)


def kappa_with_trace(g):
    """Like kappa, but by the memoised recursion `_trace` on g less its
    edgeless vertices: `trace` holds each distinct node once, the root
    first, and `cache_stats` counts the memo's misses (the nodes) and hits.
    A level takes an edge off a block (a blocks node only where it lost
    two), so the recursion nests no deeper than simplify(g)'s largest
    block has edges.  A larger block than the frames left under the
    recursion limit allow (a 1,200-cycle) raises CapExceededError before
    the first node, as does the node past TRACE_NODE_CAP."""
    if g.has_loops:
        raise GraphInputError("graph has loops; loops admit no acyclic orientation")
    if 0 in g.degrees:
        g = g.drop_isolated()
    frame, room = sys._getframe(), sys.getrecursionlimit() - 50  # 50 for calls below a node
    while frame is not None:
        frame, room = frame.f_back, room - 1
    depth = max((len({g.edges[e] for e in b}) for b in g.blocks), default=0)
    if depth > room:
        raise CapExceededError("trace's largest block", depth, room)
    nodes = {}
    stats = CacheStats()
    root = _trace(g, nodes, stats)
    return KappaResult(nodes[root].value, tuple(nodes.values()), stats)
