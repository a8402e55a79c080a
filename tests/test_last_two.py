"""The frontier walk's end: its last two vertices close in closed form.

`kappa.frontier_sum` steps through every vertex but the last two, u and
p, and then scales each state signature's summed weight once.  These
tests check it against references that share no code with the walk: a
direct sum over all edge subsets, the subset-expansion oracle
`tutte_oracle_rank_nullity`, the brute-force mask search (alpha), the
click classes (kappa) and closed forms on cliques.  The named shapes
pin the ends the closed form must handle: no u-p edge, parallel u-p
edges, a last component that is one (multi-)edge so that u has no edge
back, a walk of two vertices and isolated vertices.
"""

import importlib
import math
import random

import pytest

from kappatools.corpus import complete_graph, cycle_graph, random_multigraph
from kappatools.graphs import Multigraph, UnionFind, bfs_order
from kappatools.kappa import kappa
from kappatools.orientations import acyclic_masks, kappa_partition_bruteforce
from kappatools.tutte import tutte_eval, tutte_oracle_rank_nullity, tutte_polynomial

# the package re-exports the function `kappa` under the module's name
KAPPA_MODULE = importlib.import_module("kappatools.kappa")

# name: (graph, (vertices walked, u-p edges, u has an edge back))
SHAPES = {
    "K4": (complete_graph(4), (4, 1, True)),
    "K2,3, no u-p edge": (
        Multigraph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
        (5, 0, True),
    ),
    "theta, no u-p edge": (
        Multigraph(5, ((0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4))),
        (5, 0, True),
    ),
    "triangle, doubled u-p edge": (
        Multigraph(3, ((0, 1), (0, 2), (1, 2), (1, 2))),
        (3, 2, True),
    ),
    "last component a double edge": (
        Multigraph(5, ((0, 1), (1, 2), (0, 2), (3, 4), (3, 4))),
        (5, 2, False),
    ),
    "last component K2": (Multigraph(5, ((0, 1), (1, 2), (3, 4))), (5, 1, False)),
    "two vertices": (Multigraph(2, ((0, 1),)), (2, 1, False)),
    "two vertices, triple edge, isolated vertices": (
        Multigraph(6, ((1, 4), (1, 4), (4, 1))),
        (2, 3, False),
    ),
    "diamond, isolated vertices": (
        Multigraph(6, ((1, 2), (1, 3), (2, 3), (2, 5), (3, 5))),
        (4, 1, True),
    ),
}


def walk_end(g):
    """(vertices walked, u-p edges, whether u has an edge back) for the
    walk's order, from `bfs_order` alone."""
    degree = g.degrees
    order = [v for v in bfs_order(g) if degree[v]]
    u, p = order[-2:]
    before = set(order[:-2])
    delta = sum({a, b} == {u, p} for a, b in g.edges)
    back = any(a == u and b in before or b == u and a in before for a, b in g.edges)
    return len(order), delta, back


def seeded_multigraphs(count=300, seed=2026):
    """Loop-free multigraphs with parallel edges, isolated vertices and
    several components."""
    rng = random.Random(seed)
    return [
        random_multigraph(rng, max_vertices=8, max_edges=12, allow_loops=False)
        for _ in range(count)
    ]


def subset_counts(g):
    """{(|A|, closed(A)): number of edge subsets A}, every subset's
    components counted by UnionFind."""
    components = UnionFind(g.n_vertices)
    for a, b in g.edges:
        components.union(a, b)
    counts = {}
    for mask in range(1 << g.m):
        uf = UnionFind(g.n_vertices)
        for eid, (a, b) in enumerate(g.edges):
            if mask >> eid & 1:
                uf.union(a, b)
        key = mask.bit_count(), uf.n_components - components.n_components
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_weightings(g):
    """frontier_sum under five weightings against its definition."""
    counts = subset_counts(g)
    bits = g.m + 1
    for take, close in ((-1, 0), (-1, 1), (-1, -2), (3, 5)):
        expected = sum(n * take**size * close**closed for (size, closed), n in counts.items())
        assert KAPPA_MODULE.frontier_sum(g, take, close) == expected, (g, take, close)
    expected = sum(n << bits * size + bits * bits * closed for (size, closed), n in counts.items())
    assert KAPPA_MODULE.frontier_sum(g, 1 << bits, 1 << bits * bits) == expected, g


@pytest.mark.parametrize("name", SHAPES)
def test_shapes_have_the_end_they_name(name):
    g, end = SHAPES[name]
    assert walk_end(g) == end


def test_the_shapes_and_seeded_multigraphs_cover_every_end():
    graphs = seeded_multigraphs()
    assert any(0 in g.degrees for g in graphs)
    assert any(sum(1 for c in g.connected_components() if len(c) > 1) > 1 for g in graphs)
    ends = [walk_end(g) for g in graphs if g.m]
    assert any(delta == 0 for _, delta, _ in ends)
    assert any(delta >= 2 for _, delta, _ in ends)
    assert any(not back for _, _, back in ends)
    assert any(walked == 2 for walked, _, _ in ends)


@pytest.mark.parametrize("name", SHAPES)
def test_shapes_against_the_subset_sum_and_the_oracle(name):
    g, _ = SHAPES[name]
    check_weightings(g)
    assert tutte_polynomial(g) == tutte_oracle_rank_nullity(g)


def test_seeded_multigraphs_against_the_subset_sum():
    for g in seeded_multigraphs():
        check_weightings(g)


def test_polynomial_against_the_oracle_on_the_corpus(small_corpus):
    for g in small_corpus:
        assert tutte_polynomial(g) == tutte_oracle_rank_nullity(g), g


def test_polynomial_against_the_oracle_on_seeded_multigraphs():
    rng = random.Random(2027)
    graphs = seeded_multigraphs() + [
        random_multigraph(rng, max_vertices=7, max_edges=12) for _ in range(60)
    ]
    assert any(g.has_loops for g in graphs)
    for g in graphs:
        assert tutte_polynomial(g) == tutte_oracle_rank_nullity(g), g


def y0_graphs(small_corpus):
    return small_corpus[::4] + [g for g, _ in SHAPES.values()] + seeded_multigraphs(120, seed=2028)


def test_y0_values_against_brute_force_and_the_oracle(small_corpus):
    for g in y0_graphs(small_corpus):
        oracle = tutte_oracle_rank_nullity(g)
        polynomial = tutte_polynomial(g)
        classes = kappa_partition_bruteforce(g).class_count
        assert kappa(g).value == classes == oracle.evaluate(1, 0), g
        assert tutte_eval(g, 2, 0) == len(acyclic_masks(g)) == oracle.evaluate(2, 0), g
        for x in (-1, 0, 1, 2, 3):
            value = oracle.evaluate(x, 0)
            assert tutte_eval(g, x, 0) == polynomial.evaluate(x, 0) == value, (g, x)


@pytest.mark.parametrize("n", range(2, 12))
def test_cliques_close_every_slot_in_closed_form(n, monkeypatch):
    calls = []
    retire = KAPPA_MODULE._retire

    def counted(*args):
        calls.append(args[1])
        return retire(*args)

    monkeypatch.setattr(KAPPA_MODULE, "_retire", counted)
    g = complete_graph(n)
    t = tutte_polynomial(g, cap=g.m)
    assert t.evaluate(1, 1) == n ** (n - 2)
    assert t.evaluate(2, 0) == math.factorial(n)
    assert t.evaluate(1, 0) == math.factorial(n - 1)
    assert t.evaluate(2, 2) == 2**g.m
    assert calls == []
    # the counter sees the walk's own retires on a sparse graph
    tutte_polynomial(cycle_graph(6))
    assert calls
