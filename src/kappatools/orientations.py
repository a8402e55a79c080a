"""Brute-force layer over acyclic orientations.

An orientation is one bit per edge-id: bit 0 directs the edge from its
smaller endpoint label to the larger, bit 1 the reverse.  The classes
here come from the full set of acyclic masks and are the ground truth the
fast engines are tested against; the unique-source transversal is
searched for directly.  The acyclic masks are generated, not
filtered: a depth-first search orients one edge at a time, and an edge
whose one direction would close a cycle is forced the other way.  One
direction is always open, so the work follows the number of acyclic
masks rather than 2^m (`_completions`).  On a sparse graph the search is
split once, at an edge position where few vertices have edges on both
sides (`_split_point`), in the input edge order or, where that order has
no narrow prefix, in the breadth-first edge order that the frontier walk
of `kappa` takes too (`Multigraph.walk_order`, chosen by `_walk_plan`):
the branches over the upper edges that leave the same reach relation
between those vertices have the same completions below, so each such
relation's completions are walked once per call (`_mask_walk`).  The
walk is keyed: it carries the sum of per-edge weights over the set bits
as it carries the bits, and groups the masks by that key as it makes
them.  With every
weight 0 it gives the acyclic masks (`_acyclic_masks`), and with the
weights of a packed ν key the click classes (`_nu_classes`).  `_peels`,
which peels sources off one mask, is the check for a single mask and the
oracle the search is tested against.
`_unique_source_masks` runs the same search but also
ends a branch at an edge into the chosen source or at a second source,
so it never builds the acyclic masks it would drop.  It keeps a walk of
its own, with no split: one walk shared by both searches was measured
about 10% slower on the benchmark's `enumeration`.  `_normalize_bits`
clicks one acyclic mask to its unique-source member.  The public entry
points check what comes from outside: they reject loops, which admit no
acyclic orientation, and check vertices, connectivity, acyclicity and the
cap.  The private cores check nothing, and the library hands them only
graphs and masks it has checked or produced.  Graphs with parallel edges
are partitioned after simplification (anti-parallel pairs are 2-cycles, so
co-direction is forced and nothing is lost).

Pretzel (Order 1986) shows that the click classes, the cut-equivalence
classes and the classes of ν on cycles agree; ν is additive over the cycle
space, so the fundamental cycles decide it.  Two algorithms get the classes.
`_nu_classes` groups the masks by a packed key of ν on the fundamental
cycles, inside the walk; its one caller is `kappa_partition_bruteforce`,
behind the `classes`, `nu` and `collapse` commands and
`cut_equivalence_classes`.  `_click_class_masks` closes the click graph;
it is `verify`'s second, independent leg and the test oracle for the
grouping.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import CapExceededError, GraphInputError, InternalInvariantError
from .graphs import Multigraph, UnionFind

DEFAULT_BRUTE_FORCE_CAP = 20


@lru_cache(maxsize=64)
def _bit_tables(g):
    """Per vertex: its edge bits as a source, and the mask of its edges.

    out[v] has bit 1 exactly on the edges where v is the larger endpoint,
    so the edges into v under `bits` are (bits ^ out[v]) & incident[v].
    """
    out = [0] * g.n_vertices
    incident = [0] * g.n_vertices
    for eid, (a, b) in enumerate(g.edges):
        out[b] |= 1 << eid
        incident[a] |= 1 << eid
        incident[b] |= 1 << eid
    return tuple(out), tuple(incident)


def _require_loop_free(g):
    if g.has_loops:
        raise GraphInputError("graph has loops; loops admit no acyclic orientation")


def _is_acyclic_bits(g, bits):
    return _peels(_bit_tables(g), (1 << g.m) - 1, bits)


def _peels(tables, active, bits):
    """Peel source vertices until no edge remains; a stall means a cycle."""
    out, incident = tables
    while active:
        removed = 0
        for v, edges in enumerate(incident):
            if edges & active and not (bits ^ out[v]) & edges & active:
                removed |= edges
        if not removed:
            return False
        active &= ~removed
    return True


def _check_cap(g, cap):
    cap = DEFAULT_BRUTE_FORCE_CAP if cap is None else cap
    if g.m > cap:
        raise CapExceededError("graph", g.m, cap)


def _acyclic_masks(g):
    """The acyclic masks of g, ascending, generated without trying the rest.

    This is `_mask_walk` with every weight 0, so all masks share one key
    and come out as one class, in the order and at the split `_walk_plan`
    picks.  Nothing is cached: `verify` hands the partition's own masks to
    the click closure, so no caller walks one graph twice.  Every caller
    rejects loops first.
    """
    return _mask_walk(g, [0] * g.m, *_walk_plan(g))[0]


def _walk_plan(g):
    """(order, split) for `_mask_walk` on g: order None walks the input
    edge order, and split 0 means no split.

    The walk splits only a graph with 7 or more edges and fewer than two
    per vertex with an edge (never K5 or a larger clique).  Elsewhere the
    table only adds work.  Below 7 edges its fixed cost, about 10 us,
    outweighs the walk it saves: on small connected multigraphs with
    m = 2..5 the split walk ran at 0.45-0.85 times the speed of the
    unsplit one, and at m = 6 even.  On denser graphs nearly every branch
    reaches the split with a key of its own: on cliques, and on wheels and
    G(7, 1/2) with a larger interface, the split walk ran at 0.6-0.95
    times the speed.  So below 7 edges and on dense graphs no order work
    is done at all.

    `_split_point` can only cut the edge order it is given at a prefix,
    and a scrambled order has no narrow prefix: scrambled C16 walked in
    27-30 ms against 8.7 ms for the natural one.  So the split is also
    sought in the edge ids of `Multigraph.walk_order`, the frontier walk's
    order, whose prefixes touch breadth-first prefixes of the vertices
    whatever the labels.  That narrow order is taken when it splits and
    the input order's split is refused, or when its split has no more
    interface vertices at a position no smaller, and is better in one of
    the two.  The position matters as well as the width: an order chosen
    by width alone sent the natural grid 4x4 to a split
    at 6 edges, whose walk ran 1.6x slower than the input order's at 12.
    And a scrambled W9 whose input order split at 4 edges with 3 interface
    vertices walked in 1.7 ms at the narrow order's split at 8, with 3
    too, against 3.0 ms at 4.
    """
    m = g.m
    if m < 7:
        return None, 0
    placed = len(g.degrees) - g.degrees.count(0)
    if m >= 2 * placed:
        return None, 0
    split, size = _split_point(g.edges, placed)
    order = [e for _, _, e in g.walk_order]
    narrow, width = _split_point([g.edges[e] for e in order], placed)
    better = (width, narrow) != (size, split) and width <= size and narrow >= split
    if narrow and (not split or better):
        return order, narrow
    return None, split


def _split_point(edges, placed):
    """(split, size): the edge position at which `_mask_walk` splits the
    edge sequence `edges` over `placed` vertices, and its interface size;
    split 0 when the split is refused.

    A vertex is on the interface at s when it has an edge below s and one
    at or above it, that is when its first position is below s and its
    last is not.  Among s in [m/4, m/2] the split takes the fewest
    interface vertices, the larger s on a tie, in O(m) from the first and
    last position of each vertex.  It is refused unless that interface
    holds fewer than two thirds of the placed vertices; `_walk_plan` says
    which graphs are tried at all.
    """
    m = len(edges)
    first, last = {}, {}
    for e, edge in enumerate(edges):
        for x in edge:
            first.setdefault(x, e)
            last[x] = e
    change = [0] * (m + 2)  # the interface size moves by change[s] at s
    for x, e in first.items():
        change[e + 1] += 1
        change[last[x] + 1] -= 1
    best, split, size = placed, 0, 0
    for s in range(m // 2 + 1):
        size += change[s]
        if 4 * s >= m and size <= best:
            best, split = size, s
    return (split if 3 * best < 2 * placed else 0), best


def _mask_walk(g, weights, order=None, split=0):
    """The acyclic masks of g grouped by key, as a tuple of classes: each
    class ascending, the classes ascending by their least mask.  A mask's
    key is the sum of weights[e] over its set bits e.  Every order (a
    permutation of the edge ids, None for the input order) and every
    split in 0..m gives the same tuple.

    The walk carries the key as it carries the bits.  With no order and
    no split it is one `_completions` walk.  Otherwise position i of the
    walk holds edge order[i], and the positions at or above the split are
    walked first, as in `_completions`.  A branch that reaches the split
    has oriented them all.  Its masks are its bits joined with each
    completion of the positions below, and those depend only on the reach
    relation between the vertices the lower edges touch.  That relation
    is fixed by its part on the `inner` vertices, the ones with edges on
    both sides: a vertex with lower edges only reaches no other vertex
    yet, and none reaches it.  The lower walk reads reach only between
    vertices the lower edges touch, and orienting a->b there adds the
    pairs (x, y) with x reaching a and b reaching y, all within that set,
    so the walk below is a function of the relation.  So the key
    tuple(reach[x] & inner_mask for x in inner) fixes the completions, and
    each key's completions are walked once, already grouped by their low
    key, into a table that lives for this call only.  A leaf with key hk
    then appends each whole group under hk + tk in one list comprehension,
    so no mask is keyed or hashed on its own past the table.  Each half
    indexes only the vertices its edges touch, the inner ones first in
    both, so a key is also the first rows of the lower walk's starting
    reach.

    In the input order the masks come out descending, and each class is
    reversed.  In another order a leaf's bits, and a table entry's masks
    once when the entry is made, go back to input edge ids through
    `_chunk_tables`, one set for the positions on each side of the split,
    so that a small graph builds two small tables rather than one of
    2^11 entries; and each class is sorted once.
    """
    if order is None and not split:
        placed = sorted({x for edge in g.edges for x in edge})
        pos = {x: i for i, x in enumerate(placed)}
        steps = _steps([(pos[a], pos[b]) for a, b in g.edges], weights)
        groups = _completions(steps, g.m, [1 << x for x in range(len(placed))])
    else:
        if order is None:
            edges = g.edges
            lower = upper = None
        else:
            edges = [g.edges[e] for e in order]
            weights = [weights[e] for e in order]
            lower = _chunk_tables([1 << e for e in order[:split]])
            upper = _chunk_tables([1 << e for e in order[split:]])
        below = {x for edge in edges[:split] for x in edge}
        above = {x for edge in edges[split:] for x in edge}
        inner = sorted(below & above)
        low = {x: i for i, x in enumerate(inner + sorted(below - above))}
        high = {x: i for i, x in enumerate(inner + sorted(above - below))}
        ends = [(low[a], low[b]) for a, b in edges[:split]]
        ends += [(high[a], high[b]) for a, b in edges[split:]]
        steps = _steps(ends, weights)
        k = len(inner)
        inner_mask = (1 << k) - 1
        alone = [1 << x for x in range(k, len(low))]
        tails = {}
        groups = defaultdict(list)

        def walk(e, bits, key, reach):
            while e > split:
                e -= 1
                a, b, abit, bbit, ebit, w = steps[e]
                if reach[b] & abit:
                    bits |= ebit
                    key += w
                elif not reach[a] & bbit:
                    head = reach[a]
                    walk(e, bits | ebit, key + w, [r | head if r & bbit else r for r in reach])
                    head = reach[b]
                    reach = [r | head if r & abit else r for r in reach]
            reach_key = tuple([r & inner_mask for r in reach[:k]])
            tail = tails.get(reach_key)
            if tail is None:
                tail = _completions(steps, split, [*reach_key, *alone]).items()
                if lower is not None:
                    tail = [
                        (tk, sorted([_translate(lower, t) for t in grp]))
                        for tk, grp in tail
                    ]
                tails[reach_key] = tail
            if upper is not None:
                bits = _translate(upper, bits >> split)
            for tk, grp in tail:
                groups[key + tk].extend([bits | t for t in grp])

        walk(g.m, 0, 0, [1 << x for x in range(len(high))])
        del walk  # walk's closure holds walk and the tables: free them now
    classes = []
    for masks in groups.values():
        if order is None:
            masks.reverse()
        else:
            masks.sort()  # ascending runs, one per leaf and group
        classes.append(tuple(masks))
        masks.clear()  # at most one class is held twice at a time
    classes.sort()  # classes are disjoint, so their least masks decide
    return tuple(classes)


def _translate(tables, bits):
    """The mask of input edge ids for a mask over a run of walk
    positions, from the `_chunk_tables` of those positions' edge bits."""
    out = 0
    for low, table in tables:
        out |= table[bits >> low & 0x7FF]
    return out


def _steps(ends, weights):
    """Per edge position e: (a, b, 1 << a, 1 << b, 1 << e, weights[e]),
    where ends[e] = (a, b), the walks' per-edge constants, made once per
    walk.  Unpacking them costs less than shifting at each visit: it made
    the keyed walk with every weight 0 no slower than the unkeyed one."""
    return [(a, b, 1 << a, 1 << b, 1 << e, w) for e, ((a, b), w) in enumerate(zip(ends, weights))]


def _completions(steps, e, reach):
    """Every way to orient the edges below e acyclically on top of reach,
    as masks over those edges grouped by key (the sum of the weights of
    the set bits): a dict from key to a descending list of masks.

    steps[i] is edge i's `_steps` entry, its ends as positions, smaller
    label first, and reach[x] is the bitset of positions that x reaches
    under the edges already oriented.  An edge {a, b} is forced b->a
    (bit 1) when b already reaches a, and a->b (bit 0) when a reaches b;
    both cannot hold in an acyclic partial orientation, so at least one
    direction is always open, every branch ends in a mask, and the work
    follows the number of masks, not 2^m.  Forced edges are taken in a
    loop, so only a free edge costs a frame.  A free edge adds a pair to
    the reach order, so a branch has at most n(n-1)/2 of them, while a
    graph with n vertices and c components has at least 2^(n-c) masks:
    the depth stays small on any graph the search can finish.  The bit-1
    branch goes first, so the masks come out descending.  `_peels` stays
    the check for a single mask and the oracle this is tested against.
    """
    groups = defaultdict(list)

    def walk(e, bits, key, reach):
        while e:
            e -= 1
            a, b, abit, bbit, ebit, w = steps[e]
            if reach[b] & abit:
                bits |= ebit
                key += w
            elif not reach[a] & bbit:
                if not e:  # the last edge: no reach is read after it
                    groups[key + w].append(bits | 1)
                    break
                head = reach[a]
                walk(e, bits | ebit, key + w, [r | head if r & bbit else r for r in reach])
                head = reach[b]
                reach = [r | head if r & abit else r for r in reach]
        groups[key].append(bits)

    walk(e, 0, 0, reach)
    del walk  # a cycle through walk's closure would keep the groups alive
    return groups


@dataclass(frozen=True)
class Orientation:
    """A direction for every edge of one specific graph, packed into bits."""

    graph: Multigraph
    bits: int

    def __post_init__(self):
        _require_loop_free(self.graph)
        if not (0 <= self.bits < (1 << self.graph.m)):
            raise GraphInputError(
                f"bitmask {self.bits:#x} out of range for {self.graph.m} edges"
            )

    def arc(self, e):
        """The (tail, head) pair edge e is directed as."""
        a, b = self.graph.edges[e]
        return (a, b) if not (self.bits >> e) & 1 else (b, a)

    @property
    def hex(self):
        return format(self.bits, "x")


def is_acyclic(o):
    """True iff the directed graph induced by o has no directed cycle."""
    return _is_acyclic_bits(o.graph, o.bits)


def acyclic_masks(g, cap=None):
    """The bitmasks of all acyclic orientations of g, ascending."""
    _require_loop_free(g)
    _check_cap(g, cap)
    return _acyclic_masks(g)


def enumerate_acyclic(g, cap=None):
    """All acyclic orientations of g, in ascending bitmask order."""
    return [Orientation(g, bits) for bits in acyclic_masks(g, cap)]


def click(o, v):
    """Source-to-sink step: reverse every edge at source v (degree >= 1)."""
    g = o.graph
    if not (0 <= v < g.n_vertices):
        raise GraphInputError(f"vertex {v} out of range")
    out, incident = _bit_tables(g)
    if not incident[v]:
        raise GraphInputError(f"vertex {v} is isolated and cannot be clicked")
    if (o.bits ^ out[v]) & incident[v]:
        raise GraphInputError(f"vertex {v} is not a source")
    return Orientation(g, o.bits ^ incident[v])


def apply_click_sequence(o, seq):
    """Left-to-right fold of click; reports the first violating position."""
    for i, v in enumerate(seq):
        try:
            o = click(o, v)
        except GraphInputError as exc:
            raise GraphInputError(f"click {i} (vertex {v}): {exc}") from None
    return o


def topological_order(o):
    """Smallest-label-first topological order of an acyclic orientation."""
    g = o.graph
    n = g.n_vertices
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for e in range(g.m):
        tail, head = o.arc(e)
        out[tail].append(head)
        indeg[head] += 1
    heap = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != n:
        raise GraphInputError("orientation is cyclic, no topological order")
    return tuple(order)


@dataclass(frozen=True)
class KappaPartition:
    """Acyclic orientations grouped into click-equivalence classes.

    Each class is a tuple of edge bitmasks; classes and their members are
    sorted ascending.  The representative of a class is its least member,
    handed out as an `Orientation`.
    """

    graph: Multigraph
    classes: tuple

    @cached_property
    def representatives(self):
        return tuple(Orientation(self.graph, cls[0]) for cls in self.classes)

    @property
    def class_count(self):
        return len(self.classes)

    @cached_property
    def _index(self):
        return {bits: i for i, cls in enumerate(self.classes) for bits in cls}

    def class_of_bits(self, bits):
        try:
            return self._index[bits]
        except KeyError:
            raise GraphInputError(f"bitmask {bits:#x} is not acyclic here") from None

    def class_of(self, o):
        if o.graph != self.graph:
            raise GraphInputError("orientation belongs to a different graph")
        return self.class_of_bits(o.bits)

    def as_bit_classes(self):
        """The classes themselves; `classes` already holds the masks."""
        return self.classes


def _click_class_masks(g, masks):
    """Connected components of the click graph over `masks`, the acyclic
    masks of g ascending.

    A click reverses every edge at a source, so it keeps the mask acyclic.
    g may have parallel edges (forced co-directed); the caller decides
    whether to simplify first, and checks loops and the cap.  Classes
    and masks come out ascending.  It is `verify`'s check on
    `_nu_classes`, which shares no step with it past the masks, and the
    tests' oracle.
    """
    out, incident = _bit_tables(g)
    clicks = [(incident[v], out[v]) for v in range(g.n_vertices) if incident[v]]
    index = {bits: i for i, bits in enumerate(masks)}
    uf = UnionFind(len(masks))
    for i, bits in enumerate(masks):
        for flip, source in clicks:
            if bits & flip == source:
                j = index.get(bits ^ flip)
                if j is None:
                    raise InternalInvariantError("a click left the acyclic set")
                uf.union(i, j)
    return tuple(tuple(masks[i] for i in block) for block in uf.groups())


def _chunk_tables(weights):
    """(low, table) per 11-bit chunk of a mask over len(weights) bits:
    table[c] is the sum of the weights of the bits set in the chunk value
    c, so a map that adds up per-bit weights reads a mask as
    Σ table[bits >> low & 0x7FF], one lookup per chunk."""
    tables = []
    for low in range(0, len(weights), 11):
        table = [0]
        for weight in weights[low:low + 11]:
            table += [key + weight for key in table]
        tables.append((low, table))
    return tables


def _nu_classes(s):
    """The acyclic masks of the simple graph s grouped by ν on its
    fundamental cycles, classes and members ascending: one keyed
    `_mask_walk` under `_nu_weights`, which groups the masks as it makes
    them, with no pass over the masks after the walk."""
    return _mask_walk(s, _nu_weights(s), *_walk_plan(s))


def _nu_weights(s):
    """Per edge of the simple graph s, its weight in the packed ν key.

    On a cycle with masks (up, down), g(bits) = |bits & down| - |bits & up|
    fixes ν = 2(|up| + g) - |up | down|, and g + |up| lies in 0..|up | down|.
    So cycle i gets a digit of |up | down|.bit_length() bits at `shift`, and
    an edge weighs +1 at the digit of each cycle it walks down and -1 at
    each it walks up.  A mask's key, the sum of its edges' weights, is then
    Σ g_i << shift_i; each g_i + |up_i| fits its digit, so equal keys mean
    equal ν on every fundamental cycle.
    """
    weights = [0] * s.m
    shift = 0
    for up, down in _fundamental_cycles(s):
        for e in range(s.m):
            weights[e] += ((down >> e & 1) - (up >> e & 1)) << shift
        shift += (up | down).bit_count().bit_length()
    return weights


def kappa_partition_bruteforce(g, cap=None):
    """Click-equivalence classes of simplify(g), by exhaustive enumeration.

    The masks are grouped by ν on fundamental cycles (`_nu_classes`), which
    gives the click classes (Pretzel, Order 1986) without trying a click.
    """
    _require_loop_free(g)
    s = g.simplify()
    _check_cap(s, cap)
    return KappaPartition(s, _nu_classes(s))


def cut_equivalence_classes(g, cap=None):
    """Transitive closure of cut-equivalence over simplify(g), as bit classes.

    Pretzel (Order 1986): the classes are those of ν on cycles, which are
    the click classes, so these are the classes of
    `kappa_partition_bruteforce`, in the sorted shape they hold there.
    """
    return kappa_partition_bruteforce(g, cap).classes


def _fundamental_cycles(s):
    """One (up, down) edge-mask pair, as `nu_bits` reads them, per non-tree
    edge of a breadth-first spanning forest of the simple graph s.

    up[v] and down[v] are the tree edges from v to its root that step to a
    larger and a smaller label.  A non-tree edge a < b is walked from a to
    b, then to the root and down to a; edges both root paths share cancel.
    """
    n = s.n_vertices
    up, down, seen = [0] * n, [0] * n, [False] * n
    tree = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for v in queue:
            for eid, w in s._incidence[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
                    bit = 1 << eid
                    tree |= bit
                    up[w] = up[v] | (bit if w < v else 0)
                    down[w] = down[v] | (0 if w < v else bit)
    cycles = []
    for eid, (a, b) in enumerate(s.edges):
        if not tree >> eid & 1:
            shared = (up[a] | down[a]) & (up[b] | down[b])
            cycles.append(((1 << eid | up[b] | down[a]) & ~shared, (down[b] | up[a]) & ~shared))
    return cycles


def _int_tuple(key, value):
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise GraphInputError(f"malformed path spec: {key} must be a list of integers")
    return tuple(value)


@dataclass(frozen=True)
class PathSpec:
    """A simple (possibly closed) path given by its vertex sequence.

    A closed path may be written either with the first vertex repeated at
    the end or with `closed=True` implying the wrap-around step.  When
    parallel edges make a step ambiguous, edge_choice must name the edge-id
    used for each step.
    """

    vertices: tuple
    closed: bool = False
    edge_choice: tuple | None = None

    @classmethod
    def from_json(cls, obj):
        """Read {"vertices": [int...], "closed": bool, "edges": [int...]}.

        Nothing is coerced: a float, string or bool where an integer
        belongs, or a non-bool `closed`, is malformed.
        """
        try:
            vertices = obj["vertices"]
        except (TypeError, KeyError) as exc:
            raise GraphInputError(f"malformed path spec: {exc}") from None
        closed = obj.get("closed", False)
        if not isinstance(closed, bool):
            raise GraphInputError("malformed path spec: closed must be true or false")
        edge_choice = _int_tuple("edges", obj["edges"]) if "edges" in obj else None
        return cls(_int_tuple("vertices", vertices), closed, edge_choice)

    def to_json(self):
        obj = {"vertices": list(self.vertices), "closed": self.closed}
        if self.edge_choice is not None:
            obj["edges"] = list(self.edge_choice)
        return obj

    def resolve(self, g):
        """Validate against g and return the steps as (from, to, edge_id)."""
        core = list(self.vertices)
        if self.closed and len(core) >= 2 and core[0] == core[-1]:
            core = core[:-1]
        if len(core) < 2:
            raise GraphInputError("path needs at least two distinct vertices")
        if len(set(core)) != len(core):
            raise GraphInputError("path repeats a vertex")
        for v in core:
            if not (0 <= v < g.n_vertices):
                raise GraphInputError(f"path vertex {v} out of range")
        pairs = list(zip(core, core[1:]))
        if self.closed:
            pairs.append((core[-1], core[0]))
        if self.edge_choice is not None and len(self.edge_choice) != len(pairs):
            raise GraphInputError(
                f"edge_choice has {len(self.edge_choice)} entries for {len(pairs)} steps"
            )
        joining = {}  # each vertex pair to the ids of its edges, ascending
        for eid, e in enumerate(g.edges):
            joining.setdefault(e, []).append(eid)
        steps = []
        used = set()
        for i, (x, y) in enumerate(pairs):
            candidates = joining.get((min(x, y), max(x, y)), [])
            if self.edge_choice is not None:
                eid = self.edge_choice[i]
                if eid not in candidates:
                    raise GraphInputError(
                        f"edge {eid} does not join {x} and {y}"
                    )
            elif not candidates:
                raise GraphInputError(f"no edge joins {x} and {y}")
            elif len(candidates) > 1:
                raise GraphInputError(
                    f"parallel edges join {x} and {y}; provide edge_choice"
                )
            else:
                eid = candidates[0]
            if eid in used:
                raise GraphInputError(f"path uses edge {eid} twice")
            used.add(eid)
            steps.append((x, y, eid))
        return tuple(steps)

    def edge_masks(self, g):
        """(up, down): the masks of the path's edges in g walked toward the
        larger label and toward the smaller one."""
        up = down = 0
        for x, y, eid in self.resolve(g):
            if x < y:
                up |= 1 << eid
            else:
                down |= 1 << eid
        return up, down


def nu_bits(bits, up, down):
    """Forward-minus-backward edge count of the orientation `bits` along a
    path with edge masks (up, down) from `PathSpec.edge_masks`.  An up edge
    is walked forward when its bit is 0, a down edge when it is 1."""
    return 2 * ((bits ^ up) & (up | down)).bit_count() - (up | down).bit_count()


def nu_path(o, p):
    """Forward-minus-backward edge count of o along the path p."""
    return nu_bits(o.bits, *p.edge_masks(o.graph))


def cut_equivalent(o1, o2):
    """True iff o1 and o2 differ on nothing, or exactly on an oriented cut.

    The disagreement edges must all cross one vertex bipartition, with
    every crossing edge directed the same way in o1 (hence the opposite
    way in o2).
    """
    if o1.graph != o2.graph:
        raise GraphInputError("orientations belong to different graphs")
    g = o1.graph
    disagree = o1.bits ^ o2.bits
    if not disagree:
        return True
    uf = UnionFind(g.n_vertices)
    for eid, (a, b) in enumerate(g.edges):
        if not (disagree >> eid) & 1:
            uf.union(a, b)
    polarity = {}
    for eid in range(g.m):
        if not (disagree >> eid) & 1:
            continue
        tail, head = o1.arc(eid)
        rt, rh = uf.find(tail), uf.find(head)
        if rt == rh:
            return False
        if polarity.get(rt) == -1 or polarity.get(rh) == +1:
            return False
        polarity[rt] = +1
        polarity[rh] = -1
    return True


def _unique_source_masks(g, v):
    """The acyclic masks of the connected graph g whose only source is v,
    ascending, found by an edge-by-edge search with two early cuts.

    The edges are oriented one at a time, highest id first, depth first,
    with `_completions`' reach bitsets: an edge whose other direction
    would close a cycle is forced, and costs no frame and no reach update.
    Two tests end a branch early.  A free edge is never chosen into v; a
    forced edge never enters v either, since it is forced into a vertex
    another one already reaches.  And every vertex w != v is checked at its
    lowest edge id, the last of its edges the search orients: if w then has
    no in-edge (`entered` holds the vertices that have one), it is a second
    source.  The kept masks are acyclic, no edge
    enters v and every other vertex has an in-edge, which is exactly "the
    only source is v".
    """
    n = g.n_vertices
    ends = g.edges
    lowest = [0] * n
    for e in range(g.m - 1, -1, -1):
        a, b = ends[e]
        lowest[a] = lowest[b] = e
    closing = [0] * g.m  # closing[e]: the vertices w != v whose lowest edge is e
    for w in range(n):
        if w != v:
            closing[lowest[w]] |= 1 << w
    masks = []

    def walk(e, bits, reach, entered):
        while e:
            e -= 1
            a, b = ends[e]
            abit, bbit = 1 << a, 1 << b
            if reach[b] & abit:  # forced b->a
                bits |= 1 << e
                entered |= abit
            elif reach[a] & bbit:  # forced a->b
                entered |= bbit
            else:
                into_a = a != v and not closing[e] & ~(entered | abit)
                into_b = b != v and not closing[e] & ~(entered | bbit)
                if into_a:
                    head = reach[a]
                    raised = [r | head if r & bbit else r for r in reach]
                    if not into_b:
                        bits |= 1 << e
                        entered |= abit
                        reach = raised
                        continue
                    walk(e, bits | 1 << e, raised, entered | abit)
                elif not into_b:
                    return
                head = reach[b]
                reach = [r | head if r & abit else r for r in reach]
                entered |= bbit
                continue
            if closing[e] & ~entered:
                return
        masks.append(bits)

    walk(g.m, 0, [1 << x for x in range(n)], 0)
    del walk  # a cycle through walk's closure would keep masks alive
    # The bit-1 branch of the highest undecided edge runs first, so the
    # masks arrive in descending order.
    masks.reverse()
    return tuple(masks)


def unique_source_orientations(g, v, cap=None):
    """Acyclic orientations of connected g whose only source is v,
    in ascending bitmask order (`_unique_source_masks`)."""
    _require_loop_free(g)
    if not (0 <= v < g.n_vertices):
        raise GraphInputError(f"vertex {v} out of range")
    if not g.is_connected:
        raise GraphInputError("graph must be connected")
    _check_cap(g, cap)
    return [Orientation(g, bits) for bits in _unique_source_masks(g, v)]


def _normalize_bits(g, bits, v):
    """Click non-v sources of the acyclic mask `bits` of connected g,
    smallest label first, until v is the only source; checks nothing.

    Returns the final mask and the click sequence used.  In-degrees are
    kept per vertex and the non-v sources in a min-heap: a click turns its
    source into a sink and can only free its neighbours, and no source is
    adjacent to another, so the heap never holds a stale entry and popping
    it gives the smallest current source.  Termination is guaranteed for
    connected graphs; a guard of 2^m * n iterations turns a failure to
    terminate into an internal-invariant error.
    """
    out, incident = _bit_tables(g)
    indeg = [((bits ^ out[w]) & incident[w]).bit_count() for w in range(g.n_vertices)]
    heap = [w for w, d in enumerate(indeg) if not d and w != v]  # ascending: a heap
    seq = []
    guard = (1 << g.m) * max(g.n_vertices, 1)
    while heap:
        src = heapq.heappop(heap)
        bits ^= incident[src]
        seq.append(src)
        if len(seq) > guard:
            raise InternalInvariantError(
                "source normalization failed to terminate within 2^m * n clicks"
            )
        neighbours = g._incidence[src]
        indeg[src] = len(neighbours)
        for _, w in neighbours:
            indeg[w] -= 1
            if not indeg[w] and w != v:
                heapq.heappush(heap, w)
    return bits, tuple(seq)


def normalize_to_unique_source(o, v):
    """Click non-v sources (smallest label first) until v is the only source.

    Returns the final orientation and the click sequence used
    (`_normalize_bits`), after checking v, connectivity and acyclicity.
    """
    g = o.graph
    if not (0 <= v < g.n_vertices):
        raise GraphInputError(f"vertex {v} out of range")
    if not g.is_connected:
        raise GraphInputError("graph must be connected")
    if not _is_acyclic_bits(g, o.bits):
        raise GraphInputError("orientation is not acyclic")
    bits, seq = _normalize_bits(g, o.bits, v)
    return Orientation(g, bits), seq


def orientation_from_permutation(g, perm):
    """Direct every edge from the earlier to the later vertex of perm."""
    _require_loop_free(g)
    if sorted(perm) != list(range(g.n_vertices)):
        raise GraphInputError("not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(perm)}
    bits = 0
    for eid, (a, b) in enumerate(g.edges):
        if pos[a] > pos[b]:
            bits |= 1 << eid
    return Orientation(g, bits)
