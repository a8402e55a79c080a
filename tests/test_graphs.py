"""Multigraph structure: deletion, contraction, classification, simplify,
and the breadth-first order and the frontier walk's edge order against
reference copies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatools.errors import EdgeListParseError, GraphInputError
from kappatools.graphs import (
    MAX_PARSED_VERTICES,
    EdgeKind,
    Multigraph,
    bfs_order,
    contraction_map,
    memo_key,
    parse_edge_list,
)

TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
C4 = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


@st.composite
def multigraphs(draw, max_vertices=6, max_edges=8, loops=True):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    edges = []
    for _ in range(m):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if not loops and a == b:
            b = (b + 1) % n if n > 1 else a
            if a == b:
                continue
        edges.append((a, b))
    return Multigraph(n, tuple(edges))


@st.composite
def connected_graphs(draw, max_vertices=6):
    n = draw(st.integers(1, max_vertices))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    pool = [
        (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges
    ]
    if pool:
        extra = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
        edges.update(extra)
    return Multigraph(n, tuple(sorted(edges)))


def test_edges_stored_canonically():
    g = Multigraph(3, ((2, 0), (1, 0)))
    assert g.edges == ((0, 2), (0, 1))


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphInputError):
        Multigraph(2, ((0, 2),))


def test_negative_vertex_count_rejected():
    with pytest.raises(GraphInputError, match="negative vertex count"):
        Multigraph(-1, ())


def test_loop_count():
    g = Multigraph(2, ((0, 0), (0, 1), (1, 1)))
    assert g.loop_count == 2
    assert g.has_loops


def test_delete_triangle_edge():
    assert TRIANGLE.delete_edge(2) == Multigraph(3, ((0, 1), (1, 2)))


def test_delete_single_edge_leaves_isolated_vertices():
    result = Multigraph(2, ((0, 1),)).delete_edge(0)
    assert result.n_vertices == 2
    assert result.m == 0


def test_delete_c4_edge_gives_path():
    result = C4.delete_edge(0)
    assert result == Multigraph(4, ((1, 2), (2, 3), (0, 3)))
    assert result.is_connected


def test_delete_out_of_range():
    with pytest.raises(GraphInputError):
        TRIANGLE.delete_edge(3)


def test_contract_triangle_edge_gives_parallel_pair():
    assert TRIANGLE.contract_edge(0) == Multigraph(2, ((0, 1), (0, 1)))
    assert contraction_map(3, 0, 1) == (0, 0, 1)


def test_contract_c4_gives_triangle():
    assert C4.contract_edge(1) == Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def test_contract_parallel_pair_gives_loop():
    result = Multigraph(2, ((0, 1), (0, 1))).contract_edge(0)
    assert result == Multigraph(1, ((0, 0),))


def test_contract_loop_rejected():
    with pytest.raises(GraphInputError):
        Multigraph(1, ((0, 0),)).contract_edge(0)


def test_contract_merges_into_smaller_label():
    g = Multigraph(4, ((1, 3), (2, 3), (0, 3)))
    # vertex 3 disappears into 1, nothing above 3 to shift
    assert contraction_map(4, 1, 3) == (0, 1, 2, 1)
    assert g.contract_edge(0) == Multigraph(3, ((1, 2), (0, 1)))


def test_classify_path():
    g = Multigraph(3, ((0, 1), (1, 2)))
    assert g.classify_edges() == [EdgeKind.BRIDGE, EdgeKind.BRIDGE]


def test_classify_triangle():
    assert TRIANGLE.classify_edges() == [EdgeKind.CYCLE_EDGE] * 3


def test_classify_triangle_with_tail():
    g = Multigraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    kinds = g.classify_edges()
    assert kinds == [EdgeKind.CYCLE_EDGE] * 3 + [EdgeKind.BRIDGE]
    # oracle: an edge is a bridge iff removing it splits a component
    base = len(g.connected_components())
    for e, kind in enumerate(kinds):
        split = len(g.delete_edge(e).connected_components())
        assert (kind is EdgeKind.BRIDGE) == (split == base + 1)


def test_classify_parallel_edges_are_cycle_edges():
    g = Multigraph(2, ((0, 1), (0, 1)))
    assert g.classify_edges() == [EdgeKind.CYCLE_EDGE, EdgeKind.CYCLE_EDGE]


def test_classify_loop():
    g = Multigraph(2, ((0, 0), (0, 1)))
    assert g.classify_edges() == [EdgeKind.LOOP, EdgeKind.BRIDGE]


def test_cycle_subgraph_of_tree_is_edgeless():
    tree = Multigraph(4, ((0, 1), (1, 2), (1, 3)))
    pruned = tree.cycle_subgraph()
    assert pruned.m == 0
    assert pruned.n_vertices == 4


def test_cycle_subgraph_keeps_triangle_drops_tail():
    g = Multigraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    assert g.cycle_subgraph() == Multigraph(4, ((0, 1), (1, 2), (0, 2)))


def test_cycle_subgraph_of_cycle_unchanged():
    c5 = Multigraph(5, tuple((i, (i + 1) % 5) for i in range(5)))
    assert c5.cycle_subgraph() == c5


def test_components_edgeless():
    assert Multigraph(3, ()).connected_components() == [[0], [1], [2]]


def test_components_c4():
    assert C4.connected_components() == [[0, 1, 2, 3]]


def test_components_two_triangles():
    g = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert g.connected_components() == [[0, 1, 2], [3, 4, 5]]


def test_simplify_parallel():
    result = Multigraph(3, ((0, 1), (0, 1), (1, 2))).simplify()
    assert result == Multigraph(3, ((0, 1), (1, 2)))
    # the first edge of each parallel class survives, in edge-id order
    shuffled = Multigraph(3, ((2, 1), (1, 1), (0, 1), (1, 2), (1, 0)))
    assert shuffled.simplify() == Multigraph(3, ((1, 2), (0, 1)))


def test_simplify_loops_dropped():
    assert Multigraph(2, ((0, 0), (1, 1))).simplify().m == 0


def test_simplify_simple_graph_is_identity():
    assert TRIANGLE.simplify() == TRIANGLE


def test_edge_list_roundtrip():
    g = Multigraph(3, ((0, 1), (1, 1), (0, 1)))
    assert parse_edge_list(g.to_edge_list_text()) == g


def test_parse_reports_bad_header_line():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("nope\n")
    assert err.value.line_number == 1


def test_parse_reports_bad_edge_line():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("3 2\n0 1\n0 9\n")
    assert err.value.line_number == 3


def test_parse_rejects_absurd_vertex_counts():
    # header only: never build a graph this large
    with pytest.raises(EdgeListParseError, match="limit") as err:
        parse_edge_list(f"{MAX_PARSED_VERTICES + 1} 0\n")
    assert err.value.line_number == 1


def test_parse_reports_missing_edges():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 2\n0 1\n")


def reference_bfs_order(g):
    """`bfs_order` as it was written with (degree, label) tuple keys and
    neighbour sets taken from the incidence lists, kept as its oracle."""
    inc = g._incidence
    rank = [(d, v) for v, d in enumerate(g.degrees)].__getitem__
    seen = [False] * g.n_vertices
    order = []
    for root in sorted(range(g.n_vertices), key=rank):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for w in sorted({w for _, w in inc[v]}, key=rank):
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
    return order


def seeded_multigraphs(count, seed):
    """Multigraphs on 0..14 vertices with loops, parallel edges and
    isolated vertices likely, the empty graph first."""
    rng = random.Random(seed)
    graphs = [Multigraph(0, ())]
    while len(graphs) < count:
        n = rng.randint(1, 14)
        m = rng.randint(0, 2 * n)
        graphs.append(
            Multigraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m)))
        )
    return graphs


def test_bfs_order_matches_its_reference(small_corpus):
    multigraphs = seeded_multigraphs(3000, 29)
    assert any(g.has_loops for g in multigraphs)
    assert any(g.m != len(set(g.edges)) for g in multigraphs)
    assert any(0 in g.degrees for g in multigraphs)
    for g in small_corpus + multigraphs:
        assert bfs_order(g) == reference_bfs_order(g), g


def reference_narrow_order(g):
    """The edge ids by (later, earlier) place in `bfs_order` over all
    vertices, ties by id, as the mask walk once sorted them itself."""
    pos = [0] * g.n_vertices
    for i, v in enumerate(bfs_order(g)):
        pos[v] = i
    n = g.n_vertices
    keys = [pos[a] * n + pos[b] if pos[a] > pos[b] else pos[b] * n + pos[a] for a, b in g.edges]
    return sorted(range(g.m), key=keys.__getitem__)


def reference_walk_pairs(g):
    """The sorted (later, earlier) places of the edges among the vertices
    that have one, as the frontier walk once built them itself."""
    degree = g.degrees
    order = [v for v in bfs_order(g) if degree[v]]
    pos = [0] * g.n_vertices
    for i, v in enumerate(order):
        pos[v] = i
    edges = []
    for a, b in g.edges:
        a, b = pos[a], pos[b]
        edges.append((a, b) if a > b else (b, a))
    edges.sort()
    return edges


def test_walk_order_matches_its_references(small_corpus):
    multigraphs = seeded_multigraphs(3000, 30)
    assert any(g.m != len(set(g.edges)) for g in multigraphs)
    assert any(0 in g.degrees and g.m for g in multigraphs)
    for g in small_corpus + multigraphs:
        assert [e for _, _, e in g.walk_order] == reference_narrow_order(g), g
        assert [(hi, lo) for hi, lo, _ in g.walk_order] == reference_walk_pairs(g), g


def test_memo_key_is_label_insensitive_for_relabelings_of_cycles():
    c4 = C4
    shuffled = Multigraph(4, ((2, 1), (1, 3), (3, 0), (0, 2)))
    assert memo_key(c4) == memo_key(shuffled)


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_delete_and_contract_edge_counts(g):
    for e, (a, b) in enumerate(g.edges):
        deleted = g.delete_edge(e)
        assert deleted.m == g.m - 1
        assert deleted.n_vertices == g.n_vertices
        if a != b:
            contracted = g.contract_edge(e)
            assert contracted.m == g.m - 1
            assert contracted.n_vertices == g.n_vertices - 1


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_bridge_iff_component_count_increases(g):
    base = len(g.connected_components())
    for e, kind in enumerate(g.classify_edges()):
        split = len(g.delete_edge(e).connected_components())
        if kind is EdgeKind.BRIDGE:
            assert split == base + 1
        else:
            assert split == base


@given(multigraphs())
@settings(max_examples=100, deadline=None)
def test_simplify_is_idempotent(g):
    once = g.simplify()
    assert once.simplify() == once


@given(connected_graphs())
@settings(max_examples=100, deadline=None)
def test_contracting_connected_graph_stays_connected(g):
    for e, (a, b) in enumerate(g.edges):
        if a != b:
            assert g.contract_edge(e).is_connected


@given(multigraphs())
@settings(max_examples=100, deadline=None)
def test_delete_preserves_surviving_edge_order(g):
    for e in range(g.m):
        survivors = [g.edges[i] for i in range(g.m) if i != e]
        assert list(g.delete_edge(e).edges) == survivors
