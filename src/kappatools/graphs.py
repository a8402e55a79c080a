"""Undirected multigraphs with stable edge identities.

Vertices are dense integer labels 0..n-1.  Edges are addressed by their
position in the edge list (edge-ids 0..m-1); parallel edges and loops are
permitted and each edge is stored canonically as (min, max).  All
operations are persistent: they return new graph values and never
renumber the edges of their input.

`Multigraph.blocks` is the one depth-first split of a graph into blocks
and bridges.  Edge classification, the bridgeless core and the y = 0
engine's split (`kappa._blocks`) all read it, and that split's
relabelled block graphs are built once per graph as
`Multigraph.block_graphs`.  `Multigraph.walk_order` is the one edge
order of the frontier walk, built from `bfs_order` once per graph;
`kappa.frontier_sum` and the acyclic-mask walk's split
(`orientations._walk_plan`) both read it.  `memo_key` orders its own
vertices by `bfs_order`, so the trace keys do not follow the walk order;
`memo_entry` gives a key with the graph it spells, built once per graph,
which the trace recursion splits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import EdgeListParseError, GraphInputError


class EdgeKind(Enum):
    BRIDGE = "bridge"
    CYCLE_EDGE = "cycle-edge"
    LOOP = "loop"


class UnionFind:
    """Disjoint sets over 0..size-1 with path compression; smaller root wins."""

    def __init__(self, size):
        self.parent = list(range(size))
        self.n_components = size

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.n_components -= 1
        return ra

    def groups(self):
        """Blocks as sorted lists, ordered by smallest member.

        Members are visited in ascending order and a root is its block's
        minimum, so each block fills sorted and the blocks arrive by root.
        """
        by_root = {}
        for x in range(len(self.parent)):
            by_root.setdefault(self.find(x), []).append(x)
        return list(by_root.values())


@dataclass(frozen=True)
class Multigraph:
    """Immutable labeled multigraph: vertex count plus an ordered edge list."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise GraphInputError(f"negative vertex count {self.n_vertices}")
        canonical = []
        for a, b in self.edges:
            if not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices):
                raise GraphInputError(
                    f"edge ({a}, {b}) out of range for {self.n_vertices} vertices"
                )
            canonical.append((a, b) if a <= b else (b, a))
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def m(self):
        return len(self.edges)

    @property
    def loop_count(self):
        return sum(1 for a, b in self.edges if a == b)

    @cached_property
    def has_loops(self):
        return any(a == b for a, b in self.edges)

    @cached_property
    def degrees(self):
        """Vertex degrees; a loop contributes 2 to its endpoint."""
        deg = [0] * self.n_vertices
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)

    @cached_property
    def _incidence(self):
        """Per vertex: list of (edge_id, other endpoint), loops excluded."""
        inc = [[] for _ in range(self.n_vertices)]
        for eid, (a, b) in enumerate(self.edges):
            if a != b:
                inc[a].append((eid, b))
                inc[b].append((eid, a))
        return inc

    def _check_edge_id(self, e):
        if not (0 <= e < self.m):
            raise GraphInputError(f"edge id {e} out of range for {self.m} edges")

    # ----- structural operations (all persistent) -----

    def delete_edge(self, e):
        """Remove edge e; survivors keep their relative order."""
        self._check_edge_id(e)
        return Multigraph(self.n_vertices, self.edges[:e] + self.edges[e + 1 :])

    def contract_edge(self, e):
        """Merge the endpoints of non-loop edge e by `contraction_map`.

        Survivors keep their relative order.  Parallel edges and loops
        created by the merge are retained.
        """
        self._check_edge_id(e)
        u, v = self.edges[e]
        if u == v:
            raise GraphInputError(f"edge {e} is a loop and cannot be contracted")
        vmap = contraction_map(self.n_vertices, u, v)
        return Multigraph(
            self.n_vertices - 1,
            tuple((vmap[a], vmap[b]) for a, b in self.edges[:e] + self.edges[e + 1 :]),
        )

    def simplify(self):
        """Drop loops and keep the first edge of each parallel class, in order."""
        return Multigraph(
            self.n_vertices, tuple(dict.fromkeys(p for p in self.edges if p[0] != p[1]))
        )

    # ----- classification and components -----

    @cached_property
    def blocks(self):
        """The blocks of the loop-free edges, each as its ascending edge
        ids, by one depth-first pass (Hopcroft and Tarjan, CACM 1973).

        A bridge is a block of its own.  Parallel copies share a block:
        each copy after the first is a back edge to the parent.  Each edge
        is stacked when the search first meets it; a vertex whose subtree
        reaches no higher than its parent closes a block, the edges stacked
        since the tree edge to it, and each tree edge notes the stack
        height it found.
        """
        n = self.n_vertices
        inc = self._incidence
        disc = [-1] * n
        low = [0] * n
        stacked = []
        blocks = []
        timer = 0
        for root in range(n):
            if disc[root] != -1:
                continue
            disc[root] = timer
            timer += 1
            # frames: (vertex, entering edge id, incidence iterator, stack height)
            stack = [(root, -1, iter(inc[root]), 0)]
            while stack:
                v, in_edge, it, height = stack[-1]
                for eid, w in it:
                    if disc[w] == -1:
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, eid, iter(inc[w]), len(stacked)))
                        stacked.append(eid)
                        break
                    if disc[w] < disc[v] and eid != in_edge:
                        stacked.append(eid)
                        if disc[w] < low[v]:
                            low[v] = disc[w]
                else:
                    stack.pop()
                    if not stack:
                        continue
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] < disc[u]:
                        continue
                    blocks.append(tuple(sorted(stacked[height:])))
                    del stacked[height:]
        return tuple(blocks)

    @cached_property
    def walk_order(self):
        """The edge order of the frontier walk, one (later, earlier, id)
        triple per edge.

        The vertices that have an edge are placed in `bfs_order`, and each
        edge is named by the places of its later and earlier end and its
        id; one sort of the triples orders the edges by later place, then
        earlier place, parallel copies by id.  `kappa.frontier_sum` walks
        the place pairs, and `orientations._walk_plan` splits the ids.  A
        prefix of the order touches a breadth-first prefix of the
        vertices, whose frontier is narrow on paths, cycles, grids and
        wheels whatever the labels.
        """
        degree = self.degrees
        order = [v for v in bfs_order(self) if degree[v]]
        place = [0] * self.n_vertices
        for i, v in enumerate(order):
            place[v] = i
        edges = []
        for e, (a, b) in enumerate(self.edges):
            a, b = place[a], place[b]
            edges.append((a, b, e) if a > b else (b, a, e))
        edges.sort()
        return tuple(edges)

    @cached_property
    def block_graphs(self):
        """The blocks of `simplify()` as graphs of their own: the number of
        bridges, and one graph per block with two or more edges, its
        vertices relabelled in ascending order and its edges in this
        graph's order.  A block's parallel copies collapse to the first; a
        block left with one edge is a bridge.
        """
        bridges = 0
        pieces = []
        for ids in self.blocks:
            edges = list(dict.fromkeys(self.edges[e] for e in ids))
            if len(edges) == 1:
                bridges += 1
                continue
            vertices = sorted({x for e in edges for x in e})
            label = {x: i for i, x in enumerate(vertices)}
            pieces.append(
                Multigraph(len(vertices), tuple((label[a], label[b]) for a, b in edges))
            )
        return bridges, pieces

    @cached_property
    def _memo_graph(self):
        """This graph as its `memo_key` spells it: the vertices relabelled
        by `bfs_order` and the edges sorted."""
        relabel = [0] * self.n_vertices
        for new, old in enumerate(bfs_order(self)):
            relabel[old] = new
        pairs = ((relabel[a], relabel[b]) for a, b in self.edges)
        return Multigraph(
            self.n_vertices, tuple(sorted((a, b) if a <= b else (b, a) for a, b in pairs))
        )

    @cached_property
    def _bridge_ids(self):
        """Edge ids of bridges: the blocks of one edge."""
        return frozenset(b[0] for b in self.blocks if len(b) == 1)

    def classify_edges(self):
        """One EdgeKind per edge-id: Loop, Bridge, or CycleEdge."""
        bridges = self._bridge_ids
        kinds = []
        for eid, (a, b) in enumerate(self.edges):
            if a == b:
                kinds.append(EdgeKind.LOOP)
            elif eid in bridges:
                kinds.append(EdgeKind.BRIDGE)
            else:
                kinds.append(EdgeKind.CYCLE_EDGE)
        return kinds

    def cycle_subgraph(self):
        """Delete every bridge; the vertex set is unchanged."""
        bridges = self._bridge_ids
        kept = tuple(e for i, e in enumerate(self.edges) if i not in bridges)
        return Multigraph(self.n_vertices, kept)

    def connected_components(self):
        """Vertex partition as sorted blocks, ordered by smallest member."""
        uf = UnionFind(self.n_vertices)
        for a, b in self.edges:
            uf.union(a, b)
        return uf.groups()

    @cached_property
    def is_connected(self):
        return len(self.connected_components()) <= 1

    def split_components(self):
        """One graph per connected component, relabeled densely; vertices
        and edges keep their relative order."""
        blocks = self.connected_components()
        piece_of = {}
        relabel = {}
        for i, block in enumerate(blocks):
            for new, old in enumerate(block):
                piece_of[old] = i
                relabel[old] = new
        edges = [[] for _ in blocks]
        for a, b in self.edges:
            edges[piece_of[a]].append((relabel[a], relabel[b]))
        return [Multigraph(len(b), tuple(e)) for b, e in zip(blocks, edges)]

    def drop_isolated(self):
        """Remove degree-0 vertices, relabeling the rest densely."""
        deg = self.degrees
        keep = [v for v in range(self.n_vertices) if deg[v] > 0]
        relabel = {old: new for new, old in enumerate(keep)}
        edges = tuple((relabel[a], relabel[b]) for a, b in self.edges)
        return Multigraph(len(keep), edges)

    # ----- serialization -----

    def to_edge_list_text(self):
        lines = [f"{self.n_vertices} {self.m}"]
        lines.extend(f"{a} {b}" for a, b in self.edges)
        return "\n".join(lines) + "\n"

    def sha256(self):
        return hashlib.sha256(self.to_edge_list_text().encode()).hexdigest()


def contraction_map(n, u, v):
    """Vertex relabelling of contracting {u, v}, u < v, on n vertices.

    v merges into u, and labels above v shift down by one.
    """
    return tuple(x if x < v else (u if x == v else x - 1) for x in range(n))


def bfs_order(g):
    """All vertices in breadth-first order by (degree, label).

    Each component starts at its vertex of least (degree, label) and
    neighbours are queued in (degree, label) order, which keeps the
    frontier narrow on paths, grids and wheels.  Isolated vertices are
    components of their own, so they come first.

    A vertex v is named by the integer key degree * n + v, which sorts as
    (degree, label), and each vertex holds the set of its neighbours'
    keys, so every sort is over plain integers and a key gives its vertex
    back as key % n.  A loop makes a vertex its own neighbour, which is
    already seen when its set is read.
    """
    n = g.n_vertices
    key = [d * n + v for v, d in enumerate(g.degrees)]
    neighbours = [set() for _ in range(n)]
    for a, b in g.edges:
        neighbours[a].add(key[b])
        neighbours[b].add(key[a])
    seen = [False] * n
    order = []
    for root in sorted(key):
        root %= n
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for w in sorted(neighbours[v]):
                w %= n
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
    return order


def memo_key(g):
    """The memo key of the trace recursion (`kappa.kappa_with_trace`):
    the graph `Multigraph._memo_graph` serialized, its vertex count and
    its sorted edge pairs.

    Equal keys spell the same relabelled edge multiset, so the graphs
    they come from are isomorphic and share every value of the Tutte
    polynomial: the key is a sound memo.  It is not a complete one, since
    isomorphic graphs can get different keys.  It calls `bfs_order`
    itself rather than reading `Multigraph.walk_order`, so that the walk
    order can change without changing the keys that `kappa --trace`
    prints.
    """
    h = g._memo_graph
    return f"{h.n_vertices}:" + ",".join(f"{a}-{b}" for a, b in h.edges)


def memo_entry(g):
    """`memo_key(g)` and the graph that key spells, g with its vertices
    relabelled by `bfs_order` and its edges sorted.  The trace recursion
    splits that graph, so a node's children follow from its key alone."""
    return memo_key(g), g._memo_graph


MAX_PARSED_VERTICES = 10**6


def parse_edge_list(text):
    """Parse the shared edge-list format: `n m`, then m lines `u v`.

    A line `u v` with u == v encodes a loop; duplicate lines encode
    parallel edges; line order defines edge-ids.  A header with more than
    MAX_PARSED_VERTICES vertices is rejected, since the engines allocate
    per-vertex tables.
    """
    lines = text.splitlines()
    if not lines:
        raise EdgeListParseError(1, "empty input, expected header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise EdgeListParseError(1, f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise EdgeListParseError(1, f"non-integer header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise EdgeListParseError(1, f"negative counts in header {lines[0]!r}")
    if n > MAX_PARSED_VERTICES:
        raise EdgeListParseError(
            1, f"{n} vertices exceeds the limit of {MAX_PARSED_VERTICES}"
        )
    edges = []
    lineno = 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if len(edges) == m:
            raise EdgeListParseError(lineno, f"more than {m} edge lines")
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer endpoints {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(
                lineno, f"endpoint out of range 0..{n - 1}: {line!r}"
            )
        edges.append((u, v))
    if len(edges) != m:
        raise EdgeListParseError(
            lineno + 1, f"expected {m} edge lines, found {len(edges)}"
        )
    return Multigraph(n, tuple(edges))
