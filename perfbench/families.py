"""Graph families and seeded random graphs, built without kappatools.

A graph here is a plain pair ``(n, edges)``: a vertex count and a tuple of
``(u, v)`` pairs.  The benchmark turns these into ``Multigraph`` values
only when it hands them to the program, so a change to
``kappatools.corpus`` or ``kappatools.graphs`` cannot change what is
measured.
"""

from __future__ import annotations

import random


def cycle(n):
    return n, tuple((i, (i + 1) % n) for i in range(n))


def complete(n):
    return n, tuple((a, b) for a in range(n) for b in range(a + 1, n))


def wheel(n):
    """W_n: hub 0 joined to every vertex of the rim cycle 1..n-1."""
    k = n - 1
    spokes = tuple((0, i) for i in range(1, k + 1))
    rim = tuple((i, i % k + 1) for i in range(1, k + 1))
    return n, spokes + rim


def grid(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, tuple(edges)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, tuple(outer + spokes + inner)


def scramble(graph, seed):
    """The same graph under a seeded vertex permutation and edge order.

    Returns the new graph and, for each old edge id, its new edge id.
    """
    n, edges = graph
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    where = [0] * len(edges)
    for new, old in enumerate(order):
        where[old] = new
    out = tuple((perm[edges[old][0]], perm[edges[old][1]]) for old in order)
    return (n, out), where


def components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(n)})


def gnp(rng, n, p, m_low, m_high):
    """Connected G(n, p) conditioned on m_low <= m <= m_high, by rejection."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    while True:
        edges = tuple(e for e in pairs if rng.random() < p)
        if m_low <= len(edges) <= m_high and components(n, edges) == 1:
            return n, edges


def small_connected_multigraph(rng, n, m):
    """Connected graph on n vertices with exactly m edges, parallels allowed.

    A random spanning tree, then extra edges drawn from all pairs; one draw
    in four repeats an edge already present.
    """
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    while len(edges) < m:
        if rng.random() < 0.25:
            edges.append(rng.choice(edges))
        else:
            edges.append(rng.choice(pairs))
    rng.shuffle(edges)
    return n, tuple(edges)


def non_bridge_edge(graph):
    """Index of the first edge whose removal keeps its endpoints connected."""
    n, edges = graph
    for i, (a, b) in enumerate(edges):
        rest = edges[:i] + edges[i + 1 :]
        if a != b and components(n, rest + ((a, b),)) == components(n, rest):
            return i
    raise ValueError("graph has no cycle-edge")
