"""Tutte polynomial engine against the subset-expansion oracle, networkx
and the y=0 engine."""

import importlib
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatools.corpus import (
    complete_graph,
    connected_simple_graphs,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_multigraph,
)
from kappatools.errors import CapExceededError, GraphInputError, InternalInvariantError
from kappatools.graphs import Multigraph, UnionFind
from kappatools.kappa import kappa
from kappatools.orientations import enumerate_acyclic
from kappatools.tutte import (
    TuttePolynomial,
    _from_corank_nullity,
    tutte_eval,
    tutte_oracle_rank_nullity,
    tutte_polynomial,
)

SINGLE_EDGE = Multigraph(2, ((0, 1),))
SINGLE_LOOP = Multigraph(1, ((0, 0),))
PARALLEL_PAIR = Multigraph(2, ((0, 1), (0, 1)))


def test_single_edge_is_x():
    assert tutte_polynomial(SINGLE_EDGE) == TuttePolynomial({(1, 0): 1})


def test_single_loop_is_y():
    assert tutte_polynomial(SINGLE_LOOP) == TuttePolynomial({(0, 1): 1})


def test_triangle():
    poly = tutte_polynomial(cycle_graph(3))
    assert poly.to_text() == "x^2 + x + y"


def test_parallel_pair_is_x_plus_y():
    assert tutte_polynomial(PARALLEL_PAIR).to_text() == "x + y"


def test_edgeless_graph_is_one():
    poly = tutte_polynomial(Multigraph(4, ()))
    assert poly == TuttePolynomial({(0, 0): 1})
    assert poly.evaluate(7, -3) == 1
    for n in (0, 1):
        assert tutte_polynomial(Multigraph(n, ())) == poly


def test_constant_coefficient_vanishes_with_edges():
    for g in (SINGLE_EDGE, cycle_graph(4), PARALLEL_PAIR, SINGLE_LOOP):
        assert tutte_polynomial(g).coefficient(0, 0) == 0


def test_tree_is_x_power():
    assert tutte_polynomial(path_graph(5)) == TuttePolynomial({(4, 0): 1})
    # one field per power of x (w = 1), with two isolated vertices
    rng = random.Random(43)
    for n in range(2, 20):
        edges = tuple((rng.randrange(v), v) for v in range(1, n))
        assert tutte_polynomial(Multigraph(n + 2, edges)) == TuttePolynomial({(n - 1, 0): 1})


def test_bridges_and_loops_mix():
    g = Multigraph(2, ((0, 1), (0, 0), (1, 1)))
    assert tutte_polynomial(g) == TuttePolynomial({(1, 2): 1})


def test_oracle_matches_on_fixed_graphs():
    for g in (SINGLE_EDGE, SINGLE_LOOP, PARALLEL_PAIR, cycle_graph(5), complete_graph(4)):
        assert tutte_polynomial(g) == tutte_oracle_rank_nullity(g)


def test_oracle_matches_on_random_multigraphs():
    rng = random.Random(41)
    for _ in range(50):
        g = random_multigraph(rng, max_vertices=5, max_edges=9)
        assert tutte_polynomial(g) == tutte_oracle_rank_nullity(g), g


def test_oracle_matches_exhaustively_up_to_4_vertices():
    for g in connected_simple_graphs(4):
        assert tutte_polynomial(g) == tutte_oracle_rank_nullity(g)


def test_eval_c4_at_1_0():
    assert tutte_eval(cycle_graph(4), 1, 0) == 3


def test_eval_k4_at_2_0_counts_acyclic_orientations():
    assert tutte_eval(complete_graph(4), 2, 0) == 24


def test_eval_edgeless_anywhere_is_one():
    g = Multigraph(3, ())
    assert tutte_eval(g, 5, 9) == 1
    assert tutte_eval(g, 0, 0) == 1


def test_eval_tree_at_1_0():
    assert tutte_eval(path_graph(6), 1, 0) == 1


def test_eval_requires_integers():
    with pytest.raises(GraphInputError):
        tutte_eval(cycle_graph(3), 1.5, 0)


def test_loops_kill_y0_evaluations():
    g = Multigraph(2, ((0, 1), (1, 1)))
    assert tutte_eval(g, 1, 0) == 0
    assert tutte_eval(g, 2, 0) == 0


def test_y0_fast_path_matches_polynomial():
    rng = random.Random(13)
    for _ in range(40):
        g = random_multigraph(rng, max_vertices=5, max_edges=9)
        poly = tutte_polynomial(g)
        for x in (-2, 0, 1, 2, 3):
            assert tutte_eval(g, x, 0) == poly.evaluate(x, 0), (g, x)


# Graphs whose y=0 recursion meets cycle pieces of several lengths.
CYCLE_PIECE_GRAPHS = {
    "two-cycles-sharing-a-vertex": Multigraph(
        7, ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (0, 6))
    ),
    "cycle-with-chord": Multigraph(
        6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4))
    ),
    "theta": Multigraph(
        7, ((0, 1), (1, 6), (0, 2), (2, 3), (3, 6), (0, 4), (4, 5), (5, 6))
    ),
    "W6": Multigraph(
        6,
        ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))
        + ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)),
    ),
    "bridge-joining-two-cycles": Multigraph(
        8, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7))
    ),
}


@pytest.mark.parametrize("name", sorted(CYCLE_PIECE_GRAPHS))
def test_y0_engine_matches_polynomial_on_cycle_pieces(name):
    g = CYCLE_PIECE_GRAPHS[name]
    poly = tutte_polynomial(g)
    for x in range(4):
        assert tutte_eval(g, x, 0) == poly.evaluate(x, 0), x


@pytest.mark.parametrize("n", [500, 2000])
def test_y0_engine_on_long_cycles(n):
    g = cycle_graph(n)
    for x in range(4):
        assert tutte_eval(g, x, 0) == sum(x**i for i in range(1, n))


def _dense_and_sparse(rng):
    """A loop-free multigraph of up to 30 edges, randomly labelled: a piece
    with most vertex pairs joined, a sparse piece, or both (so disconnected),
    with a few parallel edges and up to two isolated vertices."""
    pieces = rng.choice(["dense", "sparse", "both"])
    edges, n = [], 0
    if pieces != "sparse":
        k = rng.randint(4, 6)
        edges += [(n + a, n + b) for b in range(k) for a in range(b) if rng.random() < 0.9]
        n += k
    if pieces != "dense":
        k = rng.randint(5, 8)
        edges += [(n + rng.randrange(v), n + v) for v in range(1, k)]
        edges += [tuple(rng.sample(range(n, n + k), 2)) for _ in range(k // 2)]
        n += k
    edges += rng.sample(edges, min(2, len(edges)))
    n += rng.randint(0, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    return Multigraph(n, tuple((perm[a], perm[b]) for a, b in edges))


def test_y0_engine_matches_polynomial_on_both_sides_of_the_density_threshold(monkeypatch):
    # the package re-exports the function `kappa` under the module's name
    kappa_module = importlib.import_module("kappatools.kappa")
    calls = {"frontier_sum": 0, "_partition_counts": 0}
    for name in calls:
        original = getattr(kappa_module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(kappa_module, name, counted)
    rng = random.Random(31)
    for _ in range(40):
        g = _dense_and_sparse(rng)
        poly = tutte_polynomial(g)
        for x in range(4):
            assert tutte_eval(g, x, 0) == poly.evaluate(x, 0), (g, x)
    # both the frontier sum and the subset DP answered pieces
    assert calls["frontier_sum"] > 0 and calls["_partition_counts"] > 0


def _subset_counts_by_enumeration(g):
    components = len(g.connected_components())
    counts = {}
    for mask in range(1 << g.m):
        uf = UnionFind(g.n_vertices)
        for eid, (a, b) in enumerate(g.edges):
            if mask >> eid & 1:
                uf.union(a, b)
        corank = uf.n_components - components
        nullity = bin(mask).count("1") - g.n_vertices + uf.n_components
        counts[corank, nullity] = counts.get((corank, nullity), 0) + 1
    return counts


def test_subset_counts_on_disconnected_graphs():
    rng = random.Random(37)
    graphs = [Multigraph(5, ()), Multigraph(7, ((0, 1), (2, 3), (2, 3), (4, 5)))]
    for _ in range(30):
        n = rng.randint(2, 9)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 12))]
        graphs.append(Multigraph(n, tuple(edges)))
    assert any(len(g.connected_components()) > 2 for g in graphs)
    for g in graphs:
        expected = _from_corank_nullity(_subset_counts_by_enumeration(g))
        assert tutte_polynomial(g) == expected, g


def _clique_counts(n):
    """{(corank, nullity): number of edge subsets} of K_n by the
    exponential formula on labelled graphs, with no walk and no union find."""

    def pairs(j):
        return j * (j - 1) // 2

    # connected[j][e]: the connected spanning edge sets of K_j with e edges,
    # all edge sets less those whose first vertex's component has i < j vertices
    connected = [[]]
    for j in range(1, n + 1):
        row = [comb(pairs(j), e) for e in range(pairs(j) + 1)]
        for i in range(1, j):
            for e1, c1 in enumerate(connected[i]):
                for e2 in range(pairs(j - i) + 1):
                    row[e1 + e2] -= comb(j - 1, i - 1) * c1 * comb(pairs(j - i), e2)
        connected.append(row)
    # spanning[j]: {(components, edges): edge sets of K_j}
    spanning = [{(0, 0): 1}]
    for j in range(1, n + 1):
        out = {}
        for i in range(1, j + 1):
            for e1, c1 in enumerate(connected[i]):
                for (k, e2), c2 in spanning[j - i].items():
                    key = k + 1, e1 + e2
                    out[key] = out.get(key, 0) + comb(j - 1, i - 1) * c1 * c2
        spanning.append(out)
    return {(k - 1, e - n + k): c for (k, e), c in spanning[n].items() if c}


@pytest.mark.parametrize("n", range(3, 9))
def test_cliques_against_the_exponential_formula(n):
    g = complete_graph(n)
    poly = tutte_polynomial(g)
    assert poly == _from_corank_nullity(_clique_counts(n))
    if n <= 5:
        assert poly == tutte_oracle_rank_nullity(g)
    if n == 7:
        # wider than one byte, so fields of 8 bits would carry
        assert max(poly.coeffs.values()) == 1330


# The polynomial is read off k-bit fields, w = m - r + 1 of them per power
# of x; the tests of trees and edgeless graphs above pin w = 1.


def test_bundles_fill_one_row_of_fields():
    for m in range(2, 20):
        g = Multigraph(2, ((0, 1),) * m)  # r = 1, w = m
        expected = TuttePolynomial({(1, 0): 1} | {(0, j): 1 for j in range(1, m)})
        assert tutte_polynomial(g) == expected, m


def test_loops_alone_shift_the_one_field():
    for m in range(1, 20):
        for n in (1, 3):
            g = Multigraph(n, tuple((i % n, i % n) for i in range(m)))  # r = 0
            assert tutte_polynomial(g) == TuttePolynomial({(0, m): 1}), (n, m)


def test_disconnected_graphs_with_isolated_vertices_multiply():
    parts = (cycle_graph(4), Multigraph(2, ((0, 1),) * 3), complete_graph(4), SINGLE_LOOP)
    edges, n = [], 0
    for part in parts:
        edges += [(a + n, b + n) for a, b in part.edges]
        n += part.n_vertices + 2  # two isolated vertices after each part
    expected = TuttePolynomial({(0, 0): 1})
    for part in parts:
        expected = expected * tutte_polynomial(part)
    assert tutte_polynomial(Multigraph(n, tuple(edges))) == expected


@pytest.mark.parametrize("off", (1, -1))
def test_a_remainder_of_the_division_is_an_internal_error(monkeypatch, off):
    tutte_module = importlib.import_module("kappatools.tutte")
    frontier_sum = tutte_module.frontier_sum
    monkeypatch.setattr(tutte_module, "frontier_sum", lambda *args: frontier_sum(*args) + off)
    with pytest.raises(InternalInvariantError, match="packed polynomial"):
        tutte_polynomial(cycle_graph(5))


def test_kappa_identity_on_random_graphs():
    rng = random.Random(29)
    for _ in range(30):
        g = random_connected_graph(rng, max_edges=10, max_vertices=6)
        assert tutte_polynomial(g).evaluate(1, 0) == kappa(g).value


def test_alpha_identity_survives_parallel_edges():
    doubled = Multigraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)))
    simple = doubled.simplify()
    assert (
        tutte_eval(doubled, 2, 0)
        == tutte_eval(simple, 2, 0)
        == len(enumerate_acyclic(simple))
        == len(enumerate_acyclic(doubled))
    )


def test_evaluation_at_2_2_is_two_to_the_m():
    for g in (cycle_graph(5), complete_graph(4), PARALLEL_PAIR, SINGLE_LOOP):
        assert tutte_polynomial(g).evaluate(2, 2) == 2**g.m


def test_relabelling_gives_identical_polynomial():
    rng = random.Random(59)
    for _ in range(15):
        g = random_multigraph(rng, max_vertices=5, max_edges=8)
        expected = tutte_polynomial(g)
        for trial in range(3):
            shuffle = random.Random(trial)
            perm = list(range(g.n_vertices))
            shuffle.shuffle(perm)
            edges = [(perm[a], perm[b]) for a, b in g.edges]
            shuffle.shuffle(edges)
            assert tutte_polynomial(Multigraph(g.n_vertices, tuple(edges))) == expected


@st.composite
def multigraphs(draw, max_vertices=7, max_edges=10):
    """Loops, parallel edges, isolated vertices and several components;
    n = 0 and m = 0 included."""
    n = draw(st.integers(0, max_vertices))
    if not n:
        return Multigraph(0, ())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return Multigraph(n, tuple(draw(st.lists(pairs, max_size=max_edges))))


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_frontier_sum_matches_the_subset_oracle(g):
    assert tutte_polynomial(g) == tutte_oracle_rank_nullity(g)


def _dodecahedron():
    """Two pentagons 0-4 and 15-19 joined through a 10-cycle 5, 10, 6, 11, ..."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(15 + i, 15 + (i + 1) % 5) for i in range(5)]
    middle = [(5 + i, 10 + i) for i in range(5)]
    middle += [(10 + i, 5 + (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)] + [(10 + i, 15 + i) for i in range(5)]
    return Multigraph(20, tuple(outer + middle + inner + spokes))


def _grid(rows, cols):
    def v(r, c):
        return r * cols + c

    right = [(v(r, c), v(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    down = [(v(r, c), v(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Multigraph(rows * cols, tuple(right + down))


def _wheel(n):
    rim = n - 1
    spokes = [(0, i) for i in range(1, n)]
    return Multigraph(n, tuple(spokes + [(i, i % rim + 1) for i in range(1, n)]))


# graph, m, spanning trees T(1, 1): all within the default cap of 30 edges
CAP_SIZED = {
    "dodecahedron": (_dodecahedron(), 30, 5_184_000),
    "grid3x6": (_grid(3, 6), 27, 380_160),
    "W16": (_wheel(16), 30, 1_860_496),
}


@pytest.mark.parametrize("name", sorted(CAP_SIZED))
def test_cap_sized_graphs_against_the_y0_recursion(name):
    g, m, trees = CAP_SIZED[name]
    assert g.m == m
    poly = tutte_polynomial(g)
    assert poly.evaluate(1, 1) == trees
    assert poly.evaluate(2, 2) == 2**m
    assert poly.evaluate(1, 0) == kappa(g).value
    assert poly.evaluate(2, 0) == tutte_eval(g, 2, 0)


NETWORKX_CASES = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "C6": cycle_graph(6),
    "path": path_graph(4),
    "petersen": Multigraph(
        10,
        tuple((i, (i + 1) % 5) for i in range(5))
        + tuple((i, i + 5) for i in range(5))
        + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
    ),
    "grid3x3": _grid(3, 3),
    "W6": _wheel(6),
    "parallel-triangle": Multigraph(3, ((0, 1), (0, 1), (1, 2), (0, 2))),
    "loop-and-bridge": Multigraph(3, ((0, 1), (1, 1), (1, 2), (1, 2))),
    "two-components": Multigraph(
        7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 3), (3, 6))
    ),
}


@pytest.mark.parametrize("name", sorted(NETWORKX_CASES))
def test_matches_networkx(name):
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    g = NETWORKX_CASES[name]
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(g.n_vertices))
    graph.add_edges_from(g.edges)
    x, y = sympy.symbols("x y")
    theirs = sympy.Poly(nx.tutte_polynomial(graph), x, y).as_dict()
    ours = {(i, j): c for i, j, c in tutte_polynomial(g).terms()}
    assert ours == {k: int(v) for k, v in theirs.items()}


def test_polynomial_cap():
    with pytest.raises(CapExceededError):
        tutte_polynomial(cycle_graph(5), cap=4)


def test_oracle_cap():
    with pytest.raises(CapExceededError, match="subset expansion"):
        tutte_oracle_rank_nullity(complete_graph(7))


def test_text_rendering_constant_and_mixed_terms():
    assert TuttePolynomial({(0, 0): 1}).to_text() == "1"
    assert TuttePolynomial({}).to_text() == "0"
    poly = TuttePolynomial({(1, 2): 3}) + TuttePolynomial({(2, 0): 1})
    assert poly.to_text() == "x^2 + 3 x y^2"


def test_negative_coefficient_is_an_internal_error():
    with pytest.raises(InternalInvariantError, match="negative coefficient"):
        TuttePolynomial({(0, 0): -1})


def test_zero_coefficients_are_dropped():
    padded = TuttePolynomial({(2, 0): 1, (1, 1): 0, (0, 0): 0})
    plain = TuttePolynomial({(2, 0): 1})
    assert padded == plain
    assert padded.coeffs == {(2, 0): 1}
    assert padded.to_text() == plain.to_text() == "x^2"
    assert padded.to_json_triples() == plain.to_json_triples() == [[2, 0, 1]]
    assert TuttePolynomial({(0, 0): 0}) == TuttePolynomial({})


def test_json_triples_sorted():
    triples = tutte_polynomial(cycle_graph(3)).to_json_triples()
    assert triples == [[0, 1, 1], [1, 0, 1], [2, 0, 1]]


def test_k4_polynomial_known_values():
    poly = tutte_polynomial(complete_graph(4))
    # alpha = T(2,0), spanning trees = T(1,1), 2^m = T(2,2)
    assert poly.evaluate(2, 0) == 24
    assert poly.evaluate(1, 1) == 16
    assert poly.evaluate(2, 2) == 64
    assert poly.evaluate(1, 0) == 6
