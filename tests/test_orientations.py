"""Orientation enumeration, clicks, class structure, paths, cuts."""

import gc
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatools import orientations as orientations_module
from kappatools.cli import main
from kappatools.corpus import (
    complete_graph,
    connected_simple_graphs,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_multigraph,
    star_graph,
)
from kappatools.errors import CapExceededError, GraphInputError
from kappatools.graphs import Multigraph, UnionFind
from kappatools.kappa import kappa
from kappatools.orientations import (
    Orientation,
    PathSpec,
    _acyclic_masks,
    _bit_tables,
    _click_class_masks,
    _fundamental_cycles,
    _mask_walk,
    _nu_classes,
    _nu_weights,
    _peels,
    _split_point,
    _unique_source_masks,
    _walk_plan,
    acyclic_masks,
    apply_click_sequence,
    click,
    cut_equivalence_classes,
    cut_equivalent,
    enumerate_acyclic,
    is_acyclic,
    kappa_partition_bruteforce,
    normalize_to_unique_source,
    nu_bits,
    nu_path,
    orientation_from_permutation,
    topological_order,
    unique_source_orientations,
)

TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
P3 = path_graph(3)


def grid_graph(rows, cols):
    return Multigraph(rows * cols, tuple(
        [(cols * r + c, cols * r + c + 1) for r in range(rows) for c in range(cols - 1)]
        + [(cols * r + c, cols * r + c + cols) for r in range(rows - 1) for c in range(cols)]
    ))


def theta_graph(*lengths):
    """Paths of the given lengths between two poles, which get the two
    highest labels; vertex 0 sits inside the first path, next to a pole."""
    n = sum(lengths) - len(lengths) + 2
    edges, nxt = [], 0
    for length in lengths:
        path = [n - 2] + list(range(nxt, nxt + length - 1)) + [n - 1]
        nxt += length - 1
        edges += zip(path, path[1:])
    return Multigraph(n, tuple(edges))


def seeded_multigraphs(rng, count, max_vertices, max_edges):
    """Loop-free multigraphs with parallel edges, isolated vertices and
    several components among them."""
    for _ in range(count):
        n = rng.randint(0, max_vertices)
        m = rng.randint(0, max_edges) if n >= 2 else 0
        yield Multigraph(n, tuple(tuple(rng.sample(range(n), 2)) for _ in range(m)))


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


@st.composite
def acyclic_orientations(draw, max_vertices=6):
    g = draw(connected_graphs(max_vertices))
    perm = draw(st.permutations(list(range(g.n_vertices))))
    return orientation_from_permutation(g, perm)


# ----- construction and acyclicity -----

def test_orientation_rejects_loops():
    with pytest.raises(GraphInputError):
        Orientation(Multigraph(1, ((0, 0),)), 0)


def test_orientation_rejects_oversized_bits():
    with pytest.raises(GraphInputError):
        Orientation(TRIANGLE, 8)


def test_is_acyclic_transitive_triangle():
    assert is_acyclic(Orientation(TRIANGLE, 0b000))


def test_is_acyclic_cyclic_triangle():
    # 0->1, 1->2, 2->0
    assert not is_acyclic(Orientation(TRIANGLE, 0b100))


def test_antiparallel_pair_is_cyclic():
    pair = Multigraph(2, ((0, 1), (0, 1)))
    assert not is_acyclic(Orientation(pair, 0b10))
    assert is_acyclic(Orientation(pair, 0b00))
    assert is_acyclic(Orientation(pair, 0b11))


def test_enumerate_single_edge():
    assert [o.bits for o in enumerate_acyclic(Multigraph(2, ((0, 1),)))] == [0, 1]


def test_enumerate_c4_count():
    assert len(enumerate_acyclic(cycle_graph(4))) == 14


def test_enumerate_k4_count():
    assert len(enumerate_acyclic(complete_graph(4))) == 24


def test_enumerate_order_is_ascending():
    bits = [o.bits for o in enumerate_acyclic(cycle_graph(4))]
    assert bits == sorted(bits)


def test_enumerate_cap_error_names_cap():
    with pytest.raises(CapExceededError, match="cap of 3"):
        enumerate_acyclic(cycle_graph(4), cap=3)


def test_enumerate_rejects_loops():
    with pytest.raises(GraphInputError):
        enumerate_acyclic(Multigraph(2, ((0, 0), (0, 1))))


# ----- mask generation against the per-mask peel -----

def peeled_masks(g):
    """Every mask that `_peels` accepts, by trying all 2^m."""
    tables = _bit_tables(g)
    full = (1 << g.m) - 1
    return tuple(b for b in range(full + 1) if _peels(tables, full, b))


def check_against_peel(g):
    masks = _acyclic_masks(g)
    assert masks == peeled_masks(g), g
    assert list(masks) == sorted(masks)


def scrambled(g, rng, last=None):
    """g under a seeded vertex relabelling and edge order; `last`, if
    given, is the vertex that gets the highest label."""
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    if last is not None:
        perm.remove(last)
        perm.append(last)
    label = {v: i for i, v in enumerate(perm)}
    edges = [(label[a], label[b]) for a, b in g.edges]
    rng.shuffle(edges)
    return Multigraph(g.n_vertices, tuple(edges))


def test_masks_match_peel_on_seeded_multigraphs():
    seen = {"parallel": 0, "isolated": 0, "disconnected": 0}
    for g in seeded_multigraphs(random.Random(20261018), 420, 7, 11):
        check_against_peel(g)
        seen["parallel"] += len(set(g.edges)) < g.m
        seen["isolated"] += 0 in g.degrees
        seen["disconnected"] += len(g.connected_components()) > 1
    assert min(seen.values()) >= 50, seen


def test_masks_match_peel_on_scrambled_families():
    rng = random.Random(7)
    wheel6 = Multigraph(
        7, tuple([(0, v) for v in range(1, 7)] + [(v, v % 6 + 1) for v in range(1, 7)])
    )
    prism = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))
    for g in (complete_graph(5), wheel6, prism, grid_graph(3, 3)):
        check_against_peel(g)
        for _ in range(3):
            check_against_peel(scrambled(g, rng))
    # The hub, of degree 6, with the highest label: it is the larger end of
    # all six spokes, so bit 1 points every spoke out of it.
    check_against_peel(scrambled(wheel6, rng, last=0))


def test_masks_index_reach_by_position_not_label():
    """Reach holds one bitset per vertex with an edge, not per label: one
    edge between labels 0 and 19,999 costs two bitsets.  Bitsets indexed
    by label would take about 25 MB here."""
    assert acyclic_masks(Multigraph(5002, ((5000, 5001),))) == (0, 1)
    g = Multigraph(20_000, ((0, 19_999),))
    tracemalloc.start()
    try:
        assert _acyclic_masks(g) == (0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_masks_on_many_parallel_edges_take_no_frame_per_edge():
    """Once one of 3,000 parallel edges is oriented, the rest are forced;
    forced edges take no recursion frame."""
    g = Multigraph(2, ((0, 1),) * 3000)
    assert acyclic_masks(g, cap=3000) == (0, (1 << 3000) - 1)


def test_transversal_on_many_parallel_edges(capsys, tmp_path):
    path = tmp_path / "parallel.txt"
    path.write_text("2 3000\n" + "0 1\n" * 3000)
    for vertex in ("0", "1"):
        code = main(["transversal", str(path), "--vertex", vertex, "--cap", "5000"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "count 1"


@pytest.mark.parametrize("centre", [0, 14])
def test_star_masks_with_centre_first_and_last(centre):
    leaves = [v for v in range(15) if v != centre]
    g = Multigraph(15, tuple((centre, v) for v in leaves))
    assert acyclic_masks(g) == tuple(range(1 << 14))


# ----- the split walk, its edge orders and the keyed grouping -----

def wheel_graph(k):
    """W_(k+1): hub 0 joined to every vertex of the rim cycle 1..k."""
    return Multigraph(
        k + 1, tuple([(0, v) for v in range(1, k + 1)] + [(v, v % k + 1) for v in range(1, k + 1)])
    )


PETERSEN = Multigraph(10, tuple(
    [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
))


def row_major_grid(rows, cols):
    """The grid with its edges in row-major order of their smaller end,
    each vertex's right edge before its down edge."""
    edges = []
    for v in range(rows * cols):
        if (v + 1) % cols:
            edges.append((v, v + 1))
        if v + cols < rows * cols:
            edges.append((v, v + cols))
    return Multigraph(rows * cols, tuple(edges))


def interface(edges, split):
    """The vertices with an edge below `split` and one at or above it."""
    below = {x for edge in edges[:split] for x in edge}
    above = {x for edge in edges[split:] for x in edge}
    return below & above


def walk_ids(g):
    """The edge ids of the frontier walk's order, the narrow order."""
    return [e for _, _, e in g.walk_order]


def walk_orders(g, rng):
    """The input order, the narrow order and one seeded shuffle."""
    shuffled = list(range(g.m))
    rng.shuffle(shuffled)
    return [None, walk_ids(g), shuffled]


def check_every_walk(g, rng):
    """Every order and split gives the acyclic masks of g as one strictly
    ascending class, and the ν classes of simplify(g) as the click
    closure's classes."""
    zeros = [0] * g.m
    whole = _mask_walk(g, zeros)
    assert len(whole) == 1 and all(x < y for x, y in zip(whole[0], whole[0][1:])), g
    for order in walk_orders(g, rng):
        for split in range(g.m + 1):
            assert _mask_walk(g, zeros, order, split) == whole, (g, order, split)
    s = g.simplify()
    weights = _nu_weights(s)
    clicks = _click_class_masks(s, _acyclic_masks(s))
    for order in walk_orders(s, rng):
        for split in range(s.m + 1):
            assert _mask_walk(s, weights, order, split) == clicks, (s, order, split)


def test_every_split_matches_the_unsplit_walk_on_the_corpus(small_corpus):
    """In every walk order, and with the ν key as with no key."""
    rng = random.Random(20261020)
    for g in small_corpus:
        check_every_walk(g, rng)
        assert kappa_partition_bruteforce(g).classes == _click_class_masks(g, _acyclic_masks(g))


def test_every_split_matches_the_unsplit_walk_on_seeded_multigraphs():
    """In every walk order, and with the ν key as with no key."""
    rng = random.Random(20261019)
    seen = {"parallel": 0, "isolated": 0, "disconnected": 0}
    for g in seeded_multigraphs(rng, 300, 7, 12):
        check_every_walk(g, rng)
        s = g.simplify()
        assert kappa_partition_bruteforce(g).classes == _click_class_masks(s, _acyclic_masks(s))
        seen["parallel"] += len(set(g.edges)) < g.m
        seen["isolated"] += 0 in g.degrees
        seen["disconnected"] += len(g.connected_components()) > 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("g", [
    cycle_graph(14), cycle_graph(16), wheel_graph(7), wheel_graph(8),
    grid_graph(3, 3), PETERSEN,
], ids=["C14", "C16", "W8", "W9", "grid3x3", "petersen"])
def test_partition_matches_the_click_closure_on_scrambled_families(g):
    h = scrambled(g, random.Random(g.m))
    assert _walk_plan(h)[1]
    part = kappa_partition_bruteforce(h)
    assert part.classes == _click_class_masks(h, _acyclic_masks(h))
    assert part.class_count == kappa(h).value
    members = sorted(bits for cls in part.classes for bits in cls)
    assert members == list(_acyclic_masks(h))


@pytest.mark.parametrize("n", [14, 16])
def test_split_walk_on_scrambled_cycles_gives_alpha(n):
    """α(C_n) = 2^n - 2: every mask but the two directed cycles."""
    rng = random.Random(n)
    for _ in range(2):
        g = scrambled(cycle_graph(n), rng)
        assert _walk_plan(g)[1]
        masks = _acyclic_masks(g)
        assert len(masks) == 2**n - 2
        assert all(x < y for x, y in zip(masks, masks[1:]))
        missing = set(range(1 << n)).difference(masks)
        full = (1 << n) - 1
        assert not any(_peels(_bit_tables(g), full, bits) for bits in missing)


def test_split_walk_matches_peel_on_scrambled_families():
    rng = random.Random(24)
    for g in (wheel_graph(8), PETERSEN, grid_graph(3, 3)):
        h = scrambled(g, rng)
        while not _walk_plan(h)[1]:
            h = scrambled(g, rng)
        assert _acyclic_masks(h) == peeled_masks(h), h


@pytest.mark.parametrize("n", range(3, 9))
def test_no_split_on_complete_graphs(n):
    assert _walk_plan(complete_graph(n)) == (None, 0)


def test_no_split_on_scrambled_k5_and_k6():
    rng = random.Random(56)
    for n in (5, 6):
        for _ in range(40):
            assert _walk_plan(scrambled(complete_graph(n), rng)) == (None, 0)


def test_no_split_on_parallel_edges_or_a_single_edge():
    assert _walk_plan(Multigraph(2, ((0, 1),) * 3000)) == (None, 0)
    assert _walk_plan(Multigraph(10**6 + 1, ((0, 10**6),))) == (None, 0)


@pytest.mark.parametrize("n", range(7, 21))
def test_natural_cycles_split_at_two_vertices(n):
    """In the input order: the narrow order splits them no better."""
    g = cycle_graph(n)
    order, split = _walk_plan(g)
    assert order is None and split and len(interface(g.edges, split)) == 2


def test_natural_grid_keeps_the_input_order_at_the_deeper_split():
    """The narrow order splits grid 4x4 at 6 edges with 3 interface
    vertices, the input order at 12 with 4; the split at 12 walks faster,
    so the input order is kept."""
    g = row_major_grid(4, 4)
    order = walk_ids(g)
    assert _split_point([g.edges[e] for e in order], 16) == (6, 3)
    assert _split_point(g.edges, 16) == (12, 4)
    assert _walk_plan(g) == (None, 12)


@pytest.mark.parametrize("g", [cycle_graph(16), wheel_graph(8)], ids=["C16", "W9"])
def test_scrambled_cycle_and_wheel_take_the_narrow_order(g):
    rng = random.Random(2026)
    for _ in range(10):
        h = scrambled(g, rng)
        order, split = _walk_plan(h)
        assert order == walk_ids(h) and split, h
        assert len(interface([h.edges[e] for e in order], split)) <= 3, h


def test_no_split_below_seven_edges(small_corpus):
    assert not any(_walk_plan(g)[1] for g in small_corpus if g.m < 7)
    assert not any(_walk_plan(cycle_graph(n))[1] for n in range(3, 7))


def test_unique_source_search_keeps_its_own_walk(monkeypatch):
    """Sharing the mask walk with the transversal search was measured
    about 10% slower on the benchmark's enumeration, so the search keeps
    a walk of its own."""
    def refuse(*args):
        raise AssertionError("the transversal search ran the mask walk")

    monkeypatch.setattr(orientations_module, "_mask_walk", refuse)
    monkeypatch.setattr(orientations_module, "_completions", refuse)
    assert len(unique_source_orientations(cycle_graph(8), 0)) == 7
    assert len(unique_source_orientations(wheel_graph(6), 3)) == kappa(wheel_graph(6)).value


def test_split_tables_live_for_one_call():
    """The completions are tabled per call, for the masks and for the ν
    classes, in the input order and in the narrow one: nothing is left at
    module level, and the memory goes with the result."""
    natural = cycle_graph(18)
    for g in (natural, scrambled(natural, random.Random(18))):
        order, split = _walk_plan(g)  # also fills g's cached degrees and incidence
        assert split and (order is None) == (g is natural)
        for group in (_acyclic_masks, _nu_classes):
            names = {name: id(value) for name, value in vars(orientations_module).items()}
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                masks = group(g)
                held = tracemalloc.get_traced_memory()[0] - base
                del masks
                left = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert {name: id(value) for name, value in vars(orientations_module).items()} == names
            assert held > 1 << 20 and left < 1 << 12, (g, group, held, left)


# ----- clicks -----

def test_click_path_source():
    o = Orientation(P3, 0b00)  # 0->1->2
    assert click(o, 0).bits == 0b01


def test_click_star_center_becomes_sink():
    star = star_graph(3)
    clicked = click(Orientation(star, 0b000), 0)
    assert clicked.bits == 0b111


def test_click_flips_exactly_the_incident_edges():
    o = Orientation(TRIANGLE, 0b000)
    clicked = click(o, 0)
    assert bin(o.bits ^ clicked.bits).count("1") == 2
    assert is_acyclic(clicked)


def test_click_rejects_non_source():
    with pytest.raises(GraphInputError, match="not a source"):
        click(Orientation(P3, 0b00), 1)


def test_click_rejects_isolated_vertex():
    g = Multigraph(3, ((0, 1),))
    with pytest.raises(GraphInputError, match="isolated"):
        click(Orientation(g, 0), 2)


def test_apply_empty_sequence_is_identity():
    o = Orientation(TRIANGLE, 0b000)
    assert apply_click_sequence(o, []) == o


def test_apply_sequence_matches_manual_fold():
    o = Orientation(P3, 0b00)
    assert apply_click_sequence(o, [0, 1]) == click(click(o, 0), 1)


def test_apply_sequence_reports_first_bad_position():
    o = Orientation(P3, 0b00)
    with pytest.raises(GraphInputError, match="click 1 \\(vertex 2\\)"):
        apply_click_sequence(o, [0, 2])


@given(acyclic_orientations())
@settings(max_examples=120, deadline=None)
def test_full_topological_sweep_is_identity(o):
    # degree-0 vertices are excluded: they cannot be clicked
    deg = o.graph.degrees
    sweep = [v for v in topological_order(o) if deg[v] > 0]
    assert apply_click_sequence(o, sweep) == o


# ----- click-class partitions -----

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_trees_have_one_class(n):
    assert kappa_partition_bruteforce(path_graph(n)).class_count == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cycle_classes(n):
    assert kappa_partition_bruteforce(cycle_graph(n)).class_count == n - 1


def test_k4_classes():
    assert kappa_partition_bruteforce(complete_graph(4)).class_count == 6


def test_classes_partition_all_acyclic_orientations():
    part = kappa_partition_bruteforce(cycle_graph(4))
    members = sorted(bits for cls in part.classes for bits in cls)
    assert members == [o.bits for o in enumerate_acyclic(cycle_graph(4))]


def test_classes_closed_under_clicks():
    part = kappa_partition_bruteforce(complete_graph(4))
    for i, cls in enumerate(part.classes):
        for bits in cls:
            for v in range(4):
                try:
                    clicked = click(Orientation(part.graph, bits), v)
                except GraphInputError:
                    continue
                assert part.class_of(clicked) == i


def test_representative_is_least_member():
    part = kappa_partition_bruteforce(cycle_graph(5))
    for rep, cls in zip(part.representatives, part.classes):
        assert rep == Orientation(part.graph, min(cls))
        assert cls[0] == min(cls)


def test_partition_rejects_loops():
    with pytest.raises(GraphInputError):
        kappa_partition_bruteforce(Multigraph(1, ((0, 0),)))


def test_simplification_soundness_for_parallel_edges():
    # the click structure of a multigraph matches its simplification
    rng = random.Random(99)
    for _ in range(40):
        g = random_multigraph(rng, max_vertices=5, max_edges=8, allow_loops=False)
        raw_classes = _click_class_masks(g, _acyclic_masks(g))
        simplified = kappa_partition_bruteforce(g)
        assert len(raw_classes) == simplified.class_count


def test_acyclic_count_recursion_on_cycle_edges():
    rng = random.Random(7)
    from kappatools.graphs import EdgeKind

    for _ in range(25):
        g = random_connected_graph(rng, max_edges=9, max_vertices=6)
        total = len(enumerate_acyclic(g))
        for e, kind in enumerate(g.classify_edges()):
            if kind is not EdgeKind.CYCLE_EDGE:
                continue
            deleted = len(enumerate_acyclic(g.delete_edge(e)))
            contracted = len(
                enumerate_acyclic(g.contract_edge(e).simplify())
            )
            assert total == deleted + contracted


# ----- nu along paths -----

def test_nu_forward_path():
    o = Orientation(P3, 0b00)
    assert nu_path(o, PathSpec((0, 1, 2))) == 2


def test_nu_reversed_orientation():
    o = Orientation(P3, 0b11)
    assert nu_path(o, PathSpec((0, 1, 2))) == -2


def test_nu_closed_cycle_never_full():
    for n in (3, 4, 5):
        g = cycle_graph(n)
        p = PathSpec(tuple(range(n)), closed=True)
        for o in enumerate_acyclic(g):
            value = nu_path(o, p)
            assert -(n - 2) <= value <= n - 2
            assert (value - n) % 2 == 0


def test_nu_accepts_repeated_first_vertex_form():
    o = Orientation(TRIANGLE, 0b000)
    explicit = PathSpec((0, 1, 2, 0), closed=True)
    implicit = PathSpec((0, 1, 2), closed=True)
    assert nu_path(o, explicit) == nu_path(o, implicit)


def test_nu_constant_on_classes():
    g = cycle_graph(5)
    part = kappa_partition_bruteforce(g)
    p = PathSpec((0, 1, 2, 3, 4), closed=True)
    for cls in part.classes:
        values = {nu_path(Orientation(part.graph, bits), p) for bits in cls}
        assert len(values) == 1


def test_click_leaves_nu_unchanged_on_closed_paths():
    g = complete_graph(4)
    p = PathSpec((0, 1, 2), closed=True)
    for o in enumerate_acyclic(g):
        for v in range(4):
            try:
                clicked = click(o, v)
            except GraphInputError:
                continue
            assert nu_path(clicked, p) == nu_path(o, p)


def test_click_shifts_nu_by_two_at_open_path_endpoint():
    g = complete_graph(4)
    p = PathSpec((0, 1, 2))
    for o in enumerate_acyclic(g):
        for v in range(4):
            try:
                clicked = click(o, v)
            except GraphInputError:
                continue
            delta = nu_path(clicked, p) - nu_path(o, p)
            if v in (0, 2):
                assert delta in (-2, 2)
            elif v == 1:
                assert delta == 0
            else:
                assert delta == 0


def test_path_requires_existing_edges():
    with pytest.raises(GraphInputError, match="no edge joins"):
        nu_path(Orientation(P3, 0), PathSpec((0, 2)))


def test_path_rejects_repeated_vertices():
    with pytest.raises(GraphInputError, match="repeats"):
        nu_path(Orientation(P3, 0), PathSpec((0, 1, 0)))


def test_parallel_edges_need_edge_choice():
    pair = Multigraph(2, ((0, 1), (0, 1)))
    o = Orientation(pair, 0b00)
    with pytest.raises(GraphInputError, match="edge_choice"):
        nu_path(o, PathSpec((0, 1)))
    assert nu_path(o, PathSpec((0, 1), edge_choice=(0,))) == 1
    assert nu_path(o, PathSpec((0, 1), closed=True, edge_choice=(0, 1))) == 0


@pytest.mark.parametrize("edge_choice", [None, tuple(range(20_000))], ids=["vertices", "edge-ids"])
def test_closed_path_resolves_in_linear_time(edge_choice):
    # a step that scans every edge for its candidates makes C_20000 take
    # over 10 s; the closing step 19999 -> 0 walks down edge 19999
    n = 20_000
    spec = PathSpec(tuple(range(n)), closed=True, edge_choice=edge_choice)
    start = time.perf_counter()
    assert spec.edge_masks(cycle_graph(n)) == ((1 << n - 1) - 1, 1 << n - 1)
    assert time.perf_counter() - start < 1


def test_path_spec_json_roundtrip():
    p = PathSpec((0, 1, 2), closed=True)
    assert PathSpec.from_json(p.to_json()) == p


# ----- cut equivalence -----

def test_cut_equivalent_to_itself():
    o = Orientation(TRIANGLE, 0b000)
    assert cut_equivalent(o, o)


def test_click_pair_is_cut_equivalent():
    for o in enumerate_acyclic(complete_graph(4)):
        for v in range(4):
            try:
                clicked = click(o, v)
            except GraphInputError:
                continue
            assert cut_equivalent(o, clicked)


def test_distinct_c4_classes_not_cut_equivalent():
    part = kappa_partition_bruteforce(cycle_graph(4))
    reps = part.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not cut_equivalent(reps[i], reps[j])


def test_cut_equivalent_rejects_graph_mismatch():
    with pytest.raises(GraphInputError):
        cut_equivalent(Orientation(P3, 0), Orientation(TRIANGLE, 0))


def test_cut_equivalent_pairs_never_cross_classes():
    # Click classes are a closure over clicks, while the partition and the
    # cut classes share one grouping by ν on fundamental cycles; the
    # closure of the pairwise cut_equivalent test, a third and
    # definitional route, must give both.
    two_triangles = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    k4_minus_edge = Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
    graphs = [cycle_graph(4), complete_graph(4), two_triangles, k4_minus_edge]
    # θ(2,3,4) has a cycle whose tree paths meet below the root, so shared
    # edges cancel.  Grid 3x3 (2.9 million pairs) is left to the cycle test.
    graphs.append(theta_graph(4, 2, 3))
    rng = random.Random(13)
    graphs += seeded_multigraphs(rng, 60, 7, 9)
    # Two seeded cycles side by side, a doubled edge and an isolated vertex.
    for _ in range(10):
        a, b = (scrambled(cycle_graph(rng.randint(3, 4)), rng) for _ in range(2))
        shift = a.n_vertices
        edges = a.edges + tuple((x + shift, y + shift) for x, y in b.edges)
        graphs.append(Multigraph(shift + b.n_vertices + 1, edges + (rng.choice(edges),)))
    for g in graphs:
        s = g.simplify()
        clicks = _click_class_masks(s, _acyclic_masks(s))
        click_class = {bits: i for i, cls in enumerate(clicks) for bits in cls}
        orients = enumerate_acyclic(s)
        uf = UnionFind(len(orients))
        for i, o1 in enumerate(orients):
            for j in range(i + 1, len(orients)):
                if cut_equivalent(o1, orients[j]):
                    assert click_class[o1.bits] == click_class[orients[j].bits]
                    uf.union(i, j)
        closure = tuple(tuple(orients[i].bits for i in block) for block in uf.groups())
        assert closure == clicks == cut_equivalence_classes(g)
        assert kappa_partition_bruteforce(g).classes == clicks


def test_cut_closure_matches_click_partition_on_samples():
    rng = random.Random(31)
    graphs = [random_connected_graph(rng, max_edges=9, max_vertices=6) for _ in range(20)]
    for g in graphs + [grid_graph(3, 3)]:
        s = g.simplify()
        clicks = _click_class_masks(s, _acyclic_masks(s))
        assert cut_equivalence_classes(g) == kappa_partition_bruteforce(g).classes == clicks


def nu_tuple_classes(g):
    """simplify(g)'s acyclic masks grouped by the tuple of `nu_bits` over
    its fundamental cycles, one call per cycle and mask: the plain key the
    packed one must agree with."""
    s = g.simplify()
    cycles = _fundamental_cycles(s)
    classes = {}
    for bits in _acyclic_masks(s):
        key = tuple(nu_bits(bits, up, down) for up, down in cycles)
        classes.setdefault(key, []).append(bits)
    return tuple(map(tuple, classes.values()))


def assert_packed_key_matches(g, cap=None):
    expected = nu_tuple_classes(g)
    assert kappa_partition_bruteforce(g, cap).classes == expected
    assert cut_equivalence_classes(g, cap) == expected
    return expected


def test_packed_key_without_edges():
    assert assert_packed_key_matches(Multigraph(4, ())) == ((0,),)
    assert assert_packed_key_matches(Multigraph(0, ())) == ((0,),)


def test_packed_key_on_a_forest_gives_one_class():
    forest = Multigraph(9, ((0, 1), (1, 2), (1, 3), (5, 4), (6, 7), (8, 6)))
    assert assert_packed_key_matches(forest) == (tuple(range(64)),)


def test_packed_key_on_doubled_edges():
    # a doubled edge on a triangle and on a square, next to a doubled
    # bridge: the parallels are folded before the key is read
    edges = ((0, 1), (1, 2), (0, 2), (1, 0), (3, 4), (4, 5), (5, 6), (6, 3),
             (5, 4), (2, 3), (3, 2))
    g = Multigraph(7, edges)
    expected = assert_packed_key_matches(g)
    s = g.simplify()
    assert expected == _click_class_masks(s, _acyclic_masks(s))
    assert len(expected) == 2 * 3


@pytest.mark.parametrize("lengths", [(1, 2, 2), (2, 1, 2), (3, 4, 5), (5, 4, 3), (1, 6, 7)])
def test_packed_key_at_a_digit_width_boundary(lengths):
    # cycles of 2^k - 1 and 2^k edges (3 and 4, 7 and 8) get digits of
    # k and k + 1 bits; a digit one bit short would merge classes
    g = theta_graph(*lengths)
    s = g.simplify()
    cycle_lengths = {(up | down).bit_count() for up, down in _fundamental_cycles(s)}
    assert cycle_lengths & {3, 7} and cycle_lengths & {4, 8}
    expected = assert_packed_key_matches(g)
    assert expected == _click_class_masks(s, _acyclic_masks(s))


def test_packed_key_across_three_chunks():
    # m = 28 needs three 11-bit tables; κ(K8) = 7! classes over 8! masks
    k8 = complete_graph(8)
    classes = assert_packed_key_matches(k8, cap=28)
    assert len(classes) == 5040
    assert sum(map(len, classes)) == 40320


def closed_walk(s, up, down):
    """The vertices of the one cycle that the edges up | down form, walked
    the way the masks say; None when they form no single cycle."""
    edges = [e for e in range(s.m) if (up | down) >> e & 1]
    at = {}
    for e in edges:
        for x in s.edges[e]:
            at.setdefault(x, []).append(e)
    if not up or any(len(es) != 2 for es in at.values()):
        return None
    prev = (up & -up).bit_length() - 1
    walk = list(s.edges[prev])  # an up edge runs from its smaller label
    while True:
        prev = next(e for e in at[walk[-1]] if e != prev)
        x = sum(s.edges[prev]) - walk[-1]
        if x == walk[0]:
            return walk if len(walk) == len(edges) else None
        walk.append(x)


def test_fundamental_cycles_are_the_cycles_nu_reads():
    rng = random.Random(17)
    wheel6 = Multigraph(
        7, tuple([(0, v) for v in range(1, 7)] + [(v, v % 6 + 1) for v in range(1, 7)])
    )
    graphs = [grid_graph(3, 3), theta_graph(4, 2, 3), complete_graph(5), wheel6]
    graphs += [scrambled(grid_graph(3, 3), rng) for _ in range(3)]
    graphs += [g.simplify() for g in seeded_multigraphs(rng, 60, 7, 11)]
    below_root = 0
    for s in graphs:
        cycles = _fundamental_cycles(s)
        assert len(cycles) == s.m - s.n_vertices + len(s.connected_components())
        for up, down in cycles:
            walk = closed_walk(s, up, down)
            assert walk is not None, (s, up, down)
            below_root += 0 not in walk
            spec = PathSpec(tuple(walk), closed=True)
            for bits in acyclic_masks(s):
                assert nu_bits(bits, up, down) == nu_path(Orientation(s, bits), spec)
    assert below_root >= 10


# ----- unique-source transversal -----

def filtered_unique_source(g, v):
    """The oracle: every acyclic mask whose only source is v, isolated
    vertices counted as sources."""
    out, incident = _bit_tables(g)
    return tuple(
        bits for bits in _acyclic_masks(g)
        if [w for w, edges in enumerate(incident) if not (bits ^ out[w]) & edges] == [v]
    )


def check_unique_source(g):
    for v in range(g.n_vertices):
        assert _unique_source_masks(g, v) == filtered_unique_source(g, v), (g, v)


def random_connected_multigraph(rng, max_vertices=7, max_edges=14):
    """A random spanning tree, random extra pairs drawn with repeats, and
    one more copy of an edge at a random vertex."""
    n = rng.randint(2, max_vertices)
    edges = [(rng.randrange(w), w) for w in range(1, n)]
    for _ in range(rng.randint(0, max_edges - n)):
        edges.append(tuple(rng.sample(range(n), 2)))
    v = rng.randrange(n)
    edges.append(rng.choice([e for e in edges if v in e]))
    rng.shuffle(edges)
    return Multigraph(n, tuple(edges))


def random_tree(rng, max_vertices=12):
    n = rng.randint(2, max_vertices)
    return Multigraph(n, tuple((rng.randrange(w), w) for w in range(1, n)))


def test_unique_source_search_matches_filter_on_the_corpus(small_corpus):
    for g in small_corpus:
        check_unique_source(g)


def test_unique_source_search_matches_filter_on_seeded_multigraphs():
    rng = random.Random(20261019)
    for _ in range(150):
        check_unique_source(random_connected_multigraph(rng))


def test_unique_source_search_matches_filter_on_families():
    rng = random.Random(11)
    check_unique_source(Multigraph(1, ()))
    assert _unique_source_masks(Multigraph(1, ()), 0) == (0,)
    for _ in range(20):
        check_unique_source(scrambled(random_tree(rng), rng))
    for n in range(2, 7):
        check_unique_source(complete_graph(n))
        check_unique_source(scrambled(complete_graph(n), rng))
    check_unique_source(grid_graph(3, 3))
    check_unique_source(theta_graph(4, 2, 3))


def test_unique_source_search_has_no_dead_branch_on_complete_graphs():
    """On K_n every frame of the search ends in an output: a free edge is
    never tried into the source, so no branch dies of it."""
    calls = 0

    def count_walks(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_name == "walk"

    for n in range(2, 8):
        for v in range(n):
            calls = 0
            sys.setprofile(count_walks)
            try:
                found = _unique_source_masks(complete_graph(n), v)
            finally:
                sys.setprofile(None)
            assert calls == len(found) == math.factorial(n - 1), (n, v, calls)


def test_unique_source_masks_go_with_the_result():
    """The search's memory is freed when its result is dropped, with no
    cyclic garbage collection to wait for."""
    g = grid_graph(4, 4)
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        masks = _unique_source_masks(g, 0)
        held = tracemalloc.get_traced_memory()[0] - base
        del masks
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held > 1 << 19 and left < 1 << 12, (held, left)


def test_unique_source_outputs_are_one_per_class(random_corpus, random_partitions):
    for g in random_corpus:
        part = random_partitions[g]
        for v in range(g.n_vertices):
            found = unique_source_orientations(g, v)
            hit = [part.class_of(o) for o in found]
            assert len(found) == kappa(g).value == part.class_count
            assert sorted(hit) == list(range(part.class_count))


def reference_normalize(o, v):
    """The scan this replaced: click the smallest non-v source, found by
    testing every vertex, until v is the only source."""
    out, incident = _bit_tables(o.graph)
    bits, seq = o.bits, []
    while True:
        sources = [w for w, edges in enumerate(incident) if not (bits ^ out[w]) & edges]
        src = next((w for w in sources if w != v), None)
        if src is None:
            return bits, tuple(seq)
        bits ^= incident[src]
        seq.append(src)


def test_normalize_matches_the_reference_scan():
    graphs = connected_simple_graphs(4) + [
        cycle_graph(6),
        complete_graph(5),
        theta_graph(3, 2, 3),
        Multigraph(4, ((0, 1), (1, 2), (0, 1), (2, 3), (0, 3), (1, 2), (1, 3))),
    ]
    for g in graphs:
        for bits in _acyclic_masks(g):
            o = Orientation(g, bits)
            for v in range(g.n_vertices):
                result, seq = normalize_to_unique_source(o, v)
                assert (result.bits, seq) == reference_normalize(o, v), (g, bits, v)


def test_normalize_rejects_a_cyclic_orientation():
    with pytest.raises(GraphInputError, match="not acyclic"):
        normalize_to_unique_source(Orientation(TRIANGLE, 0b100), 0)


def test_tree_has_single_unique_source_orientation():
    tree = Multigraph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))
    for v in range(5):
        assert len(unique_source_orientations(tree, v)) == 1


def test_c4_unique_source_count():
    for v in range(4):
        assert len(unique_source_orientations(cycle_graph(4), v)) == 3


def test_k4_unique_source_count():
    for v in range(4):
        assert len(unique_source_orientations(complete_graph(4), v)) == 6


def test_unique_source_rejects_disconnected():
    with pytest.raises(GraphInputError, match="connected"):
        unique_source_orientations(Multigraph(3, ((0, 1),)), 0)


def test_normalize_identity_when_already_unique():
    o = Orientation(P3, 0b00)  # 0 -> 1 -> 2
    result, seq = normalize_to_unique_source(o, 0)
    assert result == o
    assert seq == ()


def test_normalize_path_graph_to_head():
    for o in enumerate_acyclic(path_graph(4)):
        result, _ = normalize_to_unique_source(o, 0)
        assert result.bits == 0  # everything directed away from vertex 0


def test_normalize_c5_lands_in_same_class():
    g = cycle_graph(5)
    part = kappa_partition_bruteforce(g)
    targets = {o.bits for o in unique_source_orientations(g, 2)}
    for o in enumerate_acyclic(g):
        result, seq = normalize_to_unique_source(o, 2)
        assert result.bits in targets
        assert part.class_of(result) == part.class_of(o)
        assert 2 not in seq


def test_normalize_rejects_disconnected():
    g = Multigraph(3, ((0, 1),))
    with pytest.raises(GraphInputError, match="connected"):
        normalize_to_unique_source(Orientation(g, 0), 0)


# ----- permutation images -----

def test_permutation_identity_orients_upward():
    assert orientation_from_permutation(TRIANGLE, (0, 1, 2)).bits == 0b000


def test_permutation_reversal_flips_everything():
    assert orientation_from_permutation(TRIANGLE, (2, 1, 0)).bits == 0b111


def test_permutation_rejects_non_permutation():
    with pytest.raises(GraphInputError):
        orientation_from_permutation(TRIANGLE, (0, 1, 1))


@given(connected_graphs(max_vertices=5))
@settings(max_examples=60, deadline=None)
def test_cyclic_shift_stays_in_class(g):
    part = kappa_partition_bruteforce(g)
    perm = tuple(range(g.n_vertices))
    shifted = perm[1:] + perm[:1]
    a = orientation_from_permutation(g, perm)
    b = orientation_from_permutation(g, shifted)
    assert part.class_of(a) == part.class_of(b)


@given(acyclic_orientations())
@settings(max_examples=100, deadline=None)
def test_permutation_images_are_acyclic(o):
    assert is_acyclic(o)


def test_click_and_normalize_reject_a_vertex_out_of_range():
    o = Orientation(TRIANGLE, 0)
    with pytest.raises(GraphInputError, match="vertex 3 out of range"):
        click(o, 3)
    with pytest.raises(GraphInputError, match="vertex -1 out of range"):
        normalize_to_unique_source(o, -1)


def test_topological_order_rejects_a_cyclic_orientation():
    # 0->1, 1->2 and edge (0, 2) reversed to 2->0 close a directed triangle
    with pytest.raises(GraphInputError, match="cyclic"):
        topological_order(Orientation(TRIANGLE, 0b100))


def test_partition_lookups_reject_cyclic_masks_and_foreign_graphs():
    part = kappa_partition_bruteforce(TRIANGLE)
    with pytest.raises(GraphInputError, match="not acyclic here"):
        part.class_of_bits(0b100)
    with pytest.raises(GraphInputError, match="different graph"):
        part.class_of(Orientation(P3, 0))
