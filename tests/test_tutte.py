"""Tutte polynomial engine against the subset-expansion oracle."""

import random

import pytest

from kappatools.corpus import (
    complete_graph,
    connected_simple_graphs,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_multigraph,
)
from kappatools.errors import CapExceededError, GraphInputError
from kappatools.graphs import Multigraph
from kappatools.kappa import kappa
from kappatools.orientations import enumerate_acyclic
from kappatools.tutte import (
    TuttePolynomial,
    tutte_eval,
    tutte_oracle_rank_nullity,
    tutte_polynomial,
)

SINGLE_EDGE = Multigraph(2, ((0, 1),))
SINGLE_LOOP = Multigraph(1, ((0, 0),))
PARALLEL_PAIR = Multigraph(2, ((0, 1), (0, 1)))


def test_single_edge_is_x():
    assert tutte_polynomial(SINGLE_EDGE) == TuttePolynomial.monomial(1, 0)


def test_single_loop_is_y():
    assert tutte_polynomial(SINGLE_LOOP) == TuttePolynomial.monomial(0, 1)


def test_triangle():
    poly = tutte_polynomial(cycle_graph(3))
    assert poly.to_text() == "x^2 + x + y"


def test_parallel_pair_is_x_plus_y():
    assert tutte_polynomial(PARALLEL_PAIR).to_text() == "x + y"


def test_edgeless_graph_is_one():
    poly = tutte_polynomial(Multigraph(4, ()))
    assert poly == TuttePolynomial.one()
    assert poly.evaluate(7, -3) == 1


def test_constant_coefficient_vanishes_with_edges():
    for g in (SINGLE_EDGE, cycle_graph(4), PARALLEL_PAIR, SINGLE_LOOP):
        assert tutte_polynomial(g).coefficient(0, 0) == 0


def test_tree_is_x_power():
    assert tutte_polynomial(path_graph(5)) == TuttePolynomial.monomial(4, 0)


def test_bridges_and_loops_mix():
    g = Multigraph(2, ((0, 1), (0, 0), (1, 1)))
    assert tutte_polynomial(g) == TuttePolynomial.monomial(1, 2)


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
        assert tutte_eval(g, x, 0, cap=n) == sum(x**i for i in range(1, n))


def test_kappa_identity_on_random_graphs():
    rng = random.Random(29)
    for _ in range(30):
        g = random_connected_graph(rng, max_edges=10, max_vertices=6)
        assert tutte_polynomial(g).evaluate(1, 0) == kappa(g).value


def test_alpha_identity_survives_parallel_edges():
    doubled = Multigraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)))
    simple = doubled.simplify().graph
    assert (
        tutte_eval(doubled, 2, 0)
        == tutte_eval(simple, 2, 0)
        == len(enumerate_acyclic(simple))
        == len(enumerate_acyclic(doubled))
    )


def test_evaluation_at_2_2_is_two_to_the_m():
    for g in (cycle_graph(5), complete_graph(4), PARALLEL_PAIR, SINGLE_LOOP):
        assert tutte_polynomial(g).evaluate(2, 2) == 2**g.m


def test_random_edge_choice_gives_identical_polynomial():
    rng = random.Random(59)
    for _ in range(15):
        g = random_multigraph(rng, max_vertices=5, max_edges=8)
        expected = tutte_polynomial(g)
        for trial in range(3):
            assert tutte_polynomial(g, rng=random.Random(trial)) == expected


def test_polynomial_cap():
    with pytest.raises(CapExceededError):
        tutte_polynomial(cycle_graph(5), cap=4)


def test_oracle_cap():
    with pytest.raises(CapExceededError, match="subset expansion"):
        tutte_oracle_rank_nullity(complete_graph(7))


def test_text_rendering_constant_and_mixed_terms():
    assert TuttePolynomial.one().to_text() == "1"
    assert TuttePolynomial.zero().to_text() == "0"
    poly = TuttePolynomial.monomial(1, 2, 3) + TuttePolynomial.monomial(2, 0)
    assert poly.to_text() == "x^2 + 3 x y^2"


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
