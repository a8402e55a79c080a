"""The y=0 engine against the brute-force and Tutte routes."""

import random

import pytest

from kappatools.corpus import (
    complete_graph,
    connected_simple_graphs,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_forest,
)
from kappatools.errors import GraphInputError
from kappatools.graphs import Multigraph
from kappatools.kappa import CacheStats, kappa, kappa_with_trace
from kappatools.orientations import kappa_partition_bruteforce
from kappatools.tutte import tutte_eval, tutte_polynomial

TWO_TRIANGLES = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
# K_(2,2,2): every pair but the three antipodal ones
OCTAHEDRON = Multigraph(6, tuple((a, b) for b in range(6) for a in range(b) if b - a != 3))


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_paths_give_one(n):
    assert kappa(path_graph(n)).value == 1


def test_random_forests_give_one():
    rng = random.Random(2)
    for _ in range(50):
        assert kappa(random_forest(rng)).value == 1


@pytest.mark.parametrize("n", [*range(3, 9), 500, 2000])
def test_cycles(n):
    # long cycles are answered in closed form, well inside the default
    # recursion limit
    assert kappa(cycle_graph(n)).value == n - 1


def test_cycle_counts_grow_by_one():
    values = [kappa(cycle_graph(n)).value for n in range(3, 9)]
    assert all(b - a == 1 for a, b in zip(values, values[1:]))


def test_disjoint_triangles_multiply():
    assert kappa(TWO_TRIANGLES).value == 4


def test_k4():
    assert kappa(complete_graph(4)).value == 6


def test_parallel_edges_are_collapsed():
    doubled = Multigraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)))
    assert kappa(doubled).value == kappa(cycle_graph(3)).value


def test_loops_rejected():
    with pytest.raises(GraphInputError):
        kappa(Multigraph(2, ((0, 0), (0, 1))))


def test_empty_and_edgeless_graphs():
    assert kappa(Multigraph(0, ())).value == 1
    assert kappa(Multigraph(5, ())).value == 1


def test_matches_bruteforce_exhaustively_up_to_4_vertices():
    for g in connected_simple_graphs(4):
        assert kappa(g).value == kappa_partition_bruteforce(g).class_count


def test_value_is_one_exactly_when_no_cycles_survive_pruning():
    rng = random.Random(12)
    from kappatools.corpus import random_multigraph

    for _ in range(60):
        g = random_multigraph(rng, max_vertices=6, max_edges=9, allow_loops=False)
        value = kappa(g).value
        assert value >= 1
        pruned = g.simplify().cycle_subgraph()
        assert (value == 1) == (pruned.m == 0)


def wheel_graph(n):
    """Hub vertex 0 joined to every rim vertex of a cycle on 1..n-1."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    spokes = [(0, i) for i in range(1, n)]
    return Multigraph(n, tuple(spokes + rim))


def complete_bipartite(a, b):
    return Multigraph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def test_matches_bruteforce_and_tutte_on_random_graphs():
    rng = random.Random(17)
    graphs = [random_connected_graph(rng, max_edges=11, max_vertices=7) for _ in range(40)]
    graphs += [wheel_graph(n) for n in range(4, 8)]
    graphs += [complete_bipartite(a, b) for a, b in ((2, 2), (2, 3), (3, 3))]
    for g in graphs:
        value = kappa(g).value
        assert value == kappa_partition_bruteforce(g).class_count
        assert value == tutte_polynomial(g).evaluate(1, 0)
        assert value == kappa_with_trace(g).value


def test_relabelling_gives_identical_values():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng, max_edges=10, max_vertices=6)
        expected = (kappa(g).value, tutte_eval(g, 2, 0))
        for trial in range(4):
            shuffle = random.Random(trial)
            perm = list(range(g.n_vertices))
            shuffle.shuffle(perm)
            edges = [(perm[a], perm[b]) for a, b in g.edges]
            shuffle.shuffle(edges)
            h = Multigraph(g.n_vertices, tuple(edges))
            assert (kappa(h).value, tutte_eval(h, 2, 0)) == expected


def test_cache_stats_count_hits_and_each_call_starts_fresh():
    # The subset DP meets each subset of K5 once: {0..4}, {1..4}, ..., {4}.
    assert kappa(complete_graph(5)).cache_stats == CacheStats(hits=0, misses=5)
    # The octahedron's antipodal pairs are independent, so two sequences of
    # blocks can leave one rest: {0, 3}, {1}, {2} and {0}, {1}, {2}, {3}
    # both leave {4, 5}.
    first = kappa(OCTAHEDRON)
    again = kappa(OCTAHEDRON)
    assert first.value == again.value == 64
    assert first.cache_stats.hits > 0
    assert again.cache_stats == first.cache_stats


# ----- traces -----

def test_tree_trace_is_single_base_node():
    result = kappa_with_trace(path_graph(5))
    assert result.trace.rule == "base"
    assert result.trace.children == ()
    assert result.value == 1


def test_triangle_trace_shape():
    result = kappa_with_trace(cycle_graph(3))
    trace = result.trace
    assert trace.rule == "recursion"
    assert trace.edge == (0, 1)
    assert [c.rule for c in trace.children] == ["base", "base"]
    assert trace.value == 2


def test_k4_trace_leaf_count_equals_value():
    result = kappa_with_trace(complete_graph(4))
    assert result.trace.leaf_count() == result.value == 6


def test_trace_leaf_count_is_at_most_the_value():
    # products multiply their factors' values but add their leaves
    three_triangles = Multigraph(
        9, tuple((3 * k + a, 3 * k + b) for k in range(3) for a, b in ((0, 1), (1, 2), (0, 2)))
    )
    result = kappa_with_trace(three_triangles)
    assert result.trace.rule == "product"
    assert result.trace.leaf_count() == 6
    assert result.value == 8


def test_cycle_trace_unfolds_instead_of_closed_form():
    result = kappa_with_trace(cycle_graph(6))
    assert result.trace.rule == "recursion"
    assert [c.rule for c in result.trace.children] == ["base", "recursion"]
    assert result.trace.leaf_count() == result.value == 5


def test_bridge_prune_appears_for_triangle_with_tail():
    g = Multigraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    trace = kappa_with_trace(g).trace
    assert trace.rule == "bridge-prune"
    assert len(trace.children) == 1
    assert trace.children[0].rule == "recursion"


def test_product_rule_for_disjoint_pieces():
    trace = kappa_with_trace(TWO_TRIANGLES).trace
    assert trace.rule == "product"
    assert len(trace.children) == 2
    assert trace.value == 4


def test_trace_json_shape():
    node = kappa_with_trace(cycle_graph(3)).trace.to_json()
    assert set(node) == {"key", "rule", "edge", "value", "children"}
    assert node["edge"] == [0, 1]
    assert all(set(c) == set(node) for c in node["children"])
