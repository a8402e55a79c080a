"""The y=0 engine against the brute-force and Tutte routes, and the
memoised deletion/contraction recursion of `kappa_with_trace` against
both, node by node."""

import functools
import importlib
import math
import random
import time

import pytest

from kappatools.corpus import (
    complete_graph,
    connected_simple_graphs,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_forest,
)
from kappatools.errors import CapExceededError, GraphInputError
from kappatools.graphs import Multigraph, memo_entry, memo_key
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
    """`cache_stats` counts the subset DP that this call ran.  A dense
    block keeps its line, so a second call on the same graph runs no DP
    and counts nothing, while an equal graph built anew counts the same
    subsets again."""
    # The subset DP meets each subset of K5 once: {0..4}, {1..4}, ..., {4}.
    k5 = complete_graph(5)
    assert kappa(k5).cache_stats == CacheStats(hits=0, misses=5)
    assert kappa(k5).cache_stats == CacheStats(0, 0)
    assert kappa(complete_graph(5)).cache_stats == CacheStats(hits=0, misses=5)
    # The octahedron's antipodal pairs are independent, so two sequences of
    # blocks can leave one rest: {0, 3}, {1}, {2} and {0}, {1}, {2}, {3}
    # both leave {4, 5}.
    first_graph, equal_graph = (Multigraph(6, OCTAHEDRON.edges) for _ in range(2))
    first = kappa(first_graph)
    again = kappa(first_graph)
    equal = kappa(equal_graph)
    assert first.value == again.value == equal.value == 64
    assert first.cache_stats.hits > 0
    assert again.cache_stats == CacheStats(0, 0)
    assert equal.cache_stats == first.cache_stats


# ----- the memoised recursion -----

def spelled(key):
    """The graph a memo key spells: its vertex count and sorted edge pairs."""
    n, edges = key.split(":")
    return Multigraph(int(n), tuple(tuple(map(int, e.split("-"))) for e in edges.split(",") if e))


def nodes_by_key(result):
    return {node.key: node for node in result.trace}


def leaf_count(result):
    """Leaves of the tree the DAG unfolds to: a recursion node's children
    and a blocks node's factors each add their leaves."""
    nodes = nodes_by_key(result)

    @functools.cache
    def leaves(key):
        return sum(leaves(k) for k in nodes[key].children) or 1

    return leaves(result.trace[0].key)


def grid(rows, cols):
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Multigraph(rows * cols, tuple(right + down))


PETERSEN = Multigraph(10, tuple(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
))


def test_tree_trace_is_single_base_node():
    result = kappa_with_trace(path_graph(5))
    (node,) = result.trace
    assert (node.rule, node.children, node.value) == ("base", (), 1)
    assert result.value == 1


def test_triangle_trace_shape():
    result = kappa_with_trace(cycle_graph(3))
    root = result.trace[0]
    assert root.rule == "recursion"
    assert root.edge == (0, 1)
    nodes = nodes_by_key(result)
    assert [nodes[k].rule for k in root.children] == ["base", "base"]
    assert root.value == 2


def test_k4_trace_leaf_count_equals_value():
    result = kappa_with_trace(complete_graph(4))
    assert leaf_count(result) == result.value == 6


def test_trace_leaf_count_is_at_most_the_value():
    # a blocks node multiplies its factors' values but adds their leaves
    three_triangles = Multigraph(
        9, tuple((3 * k + a, 3 * k + b) for k in range(3) for a, b in ((0, 1), (1, 2), (0, 2)))
    )
    result = kappa_with_trace(three_triangles)
    root = result.trace[0]
    assert root.rule == "blocks"
    # the three triangles spell one key, so the memo keeps one node for them
    assert len(set(root.children)) == 1
    assert leaf_count(result) == 6
    assert result.value == 8


def test_cycle_trace_unfolds_instead_of_closed_form():
    result = kappa_with_trace(cycle_graph(6))
    nodes = nodes_by_key(result)
    root = result.trace[0]
    assert root.rule == "recursion"
    assert [nodes[k].rule for k in root.children] == ["base", "recursion"]
    assert leaf_count(result) == result.value == 5


def test_blocks_rule_prunes_the_tail_of_a_triangle():
    g = Multigraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    result = kappa_with_trace(g)
    root = result.trace[0]
    assert root.rule == "blocks"
    assert len(root.children) == 1
    assert nodes_by_key(result)[root.children[0]].rule == "recursion"


def test_blocks_rule_multiplies_disjoint_pieces():
    root = kappa_with_trace(TWO_TRIANGLES).trace[0]
    assert root.rule == "blocks"
    assert len(root.children) == 2
    assert root.value == 4


def test_trace_json_shape():
    trace = [node.to_json() for node in kappa_with_trace(cycle_graph(3)).trace]
    keys = {node["key"] for node in trace}
    assert all(set(node) == {"key", "rule", "edge", "value", "children"} for node in trace)
    assert trace[0]["edge"] == [0, 1]
    assert all(child in keys for node in trace for child in node["children"])


def test_each_distinct_key_is_one_node_and_the_memo_counts_the_rest():
    result = kappa_with_trace(PETERSEN)
    keys = [node.key for node in result.trace]
    assert len(keys) == len(set(keys)) == result.cache_stats.misses == 110
    assert result.cache_stats.hits > 0
    # the unfolded tree has a leaf per class
    assert leaf_count(result) == result.value == 704


def test_recursion_matches_the_engine_and_brute_force(small_corpus, small_partitions):
    for g in small_corpus:
        value = kappa_with_trace(g).value
        assert value == kappa(g).value == small_partitions[g].class_count, g


@pytest.mark.parametrize("n", range(3, 10))
def test_recursion_on_cycles(n):
    assert kappa_with_trace(cycle_graph(n)).value == n - 1


@pytest.mark.parametrize("n", range(1, 8))
def test_recursion_on_cliques(n):
    assert kappa_with_trace(complete_graph(n)).value == math.factorial(n - 1)


@pytest.mark.parametrize("k", range(3, 9))
def test_recursion_on_wheels(k):
    # W_k: a hub joined to every vertex of a rim of k
    assert kappa_with_trace(wheel_graph(k + 1)).value == 2**k - 2


@pytest.mark.parametrize("g", [PETERSEN, complete_graph(5), grid(3, 3)], ids=["petersen", "K5", "grid3x3"])
def test_every_node_is_worth_kappa_of_the_graph_its_key_spells(g):
    result = kappa_with_trace(g)
    nodes = nodes_by_key(result)
    assert result.trace[0].key == memo_key(g)
    for node in result.trace:
        h = spelled(node.key)
        assert memo_entry(h) == (node.key, h)
        assert node.value == kappa(h).value, node.key
        values = [nodes[k].value for k in node.children]
        if node.rule == "recursion":
            # the children follow from the key alone: h split at its least edge
            assert node.edge == h.edges[0] == min(h.edges)
            assert node.children == (memo_key(h.delete_edge(0)), memo_key(h.contract_edge(0)))
            assert node.value == sum(values)
        else:
            assert node.value == math.prod(values)


def test_recursion_nests_one_frame_per_level():
    # C500 nests about 500 levels, inside the default recursion limit
    result = kappa_with_trace(cycle_graph(500))
    assert (result.value, len(result.trace)) == (499, 997)


@pytest.mark.parametrize("n", [1200, 20000])
def test_a_block_too_large_for_the_recursion_limit_is_refused_at_once(n):
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"largest block has {n} edges"):
        kappa_with_trace(cycle_graph(n))
    assert time.perf_counter() - start < 1


def test_the_recursion_nests_no_deeper_than_the_largest_block_has_edges(
    small_corpus, monkeypatch
):
    module = importlib.import_module("kappatools.kappa")
    trace, level = module._trace, [0, 0]

    def nested(g, nodes, stats):
        level[0] += 1
        level[1] = max(level)
        try:
            return trace(g, nodes, stats)
        finally:
            level[0] -= 1

    monkeypatch.setattr(module, "_trace", nested)
    rng = random.Random(5)
    graphs = list(small_corpus) + [grid(3, 4), PETERSEN, complete_graph(6)]
    graphs += [random_connected_graph(rng, 12, 7) for _ in range(40)]
    # parallel copies: a contraction's copies do not deepen the recursion
    graphs += [Multigraph(g.n_vertices, g.edges + g.edges[::2]) for g in graphs[-40:]]
    for g in graphs:
        level[1] = 0
        kappa_with_trace(g)
        largest = max((len({g.edges[e] for e in b}) for b in g.blocks), default=0)
        assert level[1] <= max(largest, 1), g


def test_edgeless_vertices_are_dropped_before_the_root_is_keyed():
    triangle = cycle_graph(3)
    result = kappa_with_trace(Multigraph(1000, triangle.edges))
    assert result.trace == kappa_with_trace(triangle).trace
    assert result.trace[0].key == memo_key(triangle)


def test_recursion_rejects_loops():
    with pytest.raises(GraphInputError):
        kappa_with_trace(Multigraph(2, ((0, 0), (0, 1))))
