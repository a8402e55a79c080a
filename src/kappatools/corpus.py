"""Graph families and seeded corpora for tests and `verify`."""

from __future__ import annotations

from .graphs import Multigraph


def path_graph(n):
    return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n):
    return Multigraph(n, tuple((a, b) for a in range(n) for b in range(a + 1, n)))


def star_graph(leaves):
    return Multigraph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def connected_simple_graphs(max_vertices=5):
    """Every labeled connected simple graph on 1..max_vertices vertices.

    Exhaustive over labeled edge subsets, so isomorphic graphs appear once
    per labeling.  For max_vertices=5 this yields 772 graphs.
    """
    out = []
    for n in range(1, max_vertices + 1):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for mask in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if (mask >> i) & 1)
            g = Multigraph(n, edges)
            if g.is_connected:
                out.append(g)
    return out


def random_connected_graph(rng, max_edges=12, max_vertices=8):
    """Connected simple graph: a random spanning tree plus random extras."""
    n = rng.randint(2, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = set(edges)
    pool = sorted(
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if (a, b) not in present
    )
    cap = min(max_edges, n * (n - 1) // 2)
    extra = rng.randint(0, cap - len(edges))
    edges.extend(rng.sample(pool, extra))
    return Multigraph(n, tuple(sorted(edges)))


def random_forest(rng, max_vertices=12):
    """Forest where each later vertex attaches to an earlier one or starts anew."""
    n = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.75:
            edges.append((rng.randrange(v), v))
    return Multigraph(n, tuple(edges))


GNP_MIN_VERTICES = 2
GNP_MAX_VERTICES = 8
GNP_P_LOW = 0.2
GNP_P_HIGH = 0.8
# `verify --random-corpus` reports the draw in these words.
GNP_DESCRIPTION = (
    f"gnp, n uniform in {GNP_MIN_VERTICES}..{GNP_MAX_VERTICES},"
    f" p uniform in {GNP_P_LOW}..{GNP_P_HIGH}"
)


def random_gnp_graph(rng, max_edges):
    """Simple graph with each pair present independently; returns (graph, params).

    n is uniform in GNP_MIN_VERTICES..GNP_MAX_VERTICES and p uniform in
    GNP_P_LOW..GNP_P_HIGH.  A graph with more than max_edges edges is drawn
    again from scratch (n and p included), so the result is G(n, p)
    conditioned on m <= max_edges.
    """
    if max_edges < 0:
        raise ValueError("max_edges must be nonnegative")
    while True:
        n = rng.randint(GNP_MIN_VERTICES, GNP_MAX_VERTICES)
        p = rng.uniform(GNP_P_LOW, GNP_P_HIGH)
        edges = tuple(
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < p
        )
        if len(edges) <= max_edges:
            return Multigraph(n, edges), {"model": "gnp", "n": n, "p": round(p, 6)}


def random_multigraph(rng, max_vertices=5, max_edges=10, allow_loops=True):
    """Multigraph with repeated endpoint draws; loops and parallels likely."""
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    if n == 1 and not allow_loops:
        m = 0
    edges = []
    for _ in range(m):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if not allow_loops:
            while b == a:
                b = rng.randrange(n)
        edges.append((min(a, b), max(a, b)))
    return Multigraph(n, tuple(edges))
