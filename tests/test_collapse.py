"""Lifting contracted orientations and collapse-graph structure."""

import dataclasses
import random

import pytest

from kappatools.collapse import (
    CollapseEdge,
    _Lifter,
    build_collapse_graph,
    lift_orientation,
    verify_collapse_structure,
)
from kappatools.corpus import (
    complete_graph,
    cycle_graph,
    random_connected_graph,
)
from kappatools.errors import GraphInputError, InternalInvariantError
from kappatools.graphs import EdgeKind, Multigraph
from kappatools.orientations import (
    Orientation,
    PathSpec,
    enumerate_acyclic,
    is_acyclic,
    kappa_partition_bruteforce,
    nu_path,
)

TRIANGLE = cycle_graph(3)


def contracted_graph(g, e):
    return g.contract_edge(e).simplify()


def test_lift_triangle_examples():
    # contracting one triangle edge leaves a single edge with 2 orientations
    gc = contracted_graph(TRIANGLE, 0)
    assert gc == Multigraph(2, ((0, 1),))
    for o in enumerate_acyclic(gc):
        lifted = lift_orientation(o, 1, TRIANGLE, 0)
        assert is_acyclic(lifted)
        assert lifted.arc(0) == (0, 1)


def test_lift_directions_differ_only_on_the_cycle_edge():
    g = cycle_graph(4)
    gc = contracted_graph(g, 2)
    for o in enumerate_acyclic(gc):
        up = lift_orientation(o, 1, g, 2)
        down = lift_orientation(o, 2, g, 2)
        assert up.bits ^ down.bits == 1 << 2


def test_lift_nu_gap_is_two_along_paths_through_the_edge():
    g = cycle_graph(4)
    p = PathSpec((0, 1, 2, 3), closed=True)
    gc = contracted_graph(g, 0)
    for o in enumerate_acyclic(gc):
        up = lift_orientation(o, 1, g, 0)
        down = lift_orientation(o, 2, g, 0)
        assert nu_path(up, p) == nu_path(down, p) + 2


def test_lift_rejects_bridges_and_loops():
    g = Multigraph(3, ((0, 1), (1, 2)))
    o = Orientation(Multigraph(2, ((0, 1),)), 0)
    with pytest.raises(GraphInputError, match="cycle-edge"):
        lift_orientation(o, 1, g, 0)


def test_lift_rejects_bad_direction():
    gc = contracted_graph(TRIANGLE, 0)
    o = enumerate_acyclic(gc)[0]
    for direction in (0, 3):
        with pytest.raises(GraphInputError, match="direction must be 1 or 2"):
            lift_orientation(o, direction, TRIANGLE, 0)


def test_lift_rejects_foreign_orientation():
    o = Orientation(Multigraph(2, ((0, 1),)), 0)
    with pytest.raises(GraphInputError, match="contraction"):
        lift_orientation(o, 1, cycle_graph(4), 0)


def test_lift_rejects_an_edge_parallel_to_the_cycle_edge():
    g = Multigraph(3, ((0, 1), (1, 2), (0, 1), (0, 2)))
    o = Orientation(Multigraph(2, ((0, 1),)), 0)
    with pytest.raises(GraphInputError, match="edge 2 is parallel to edge 0"):
        lift_orientation(o, 1, g, 0)


def test_lift_keeps_every_inherited_direction():
    # Project each lift back with a relabelling written here, not the
    # library's: v merges into u < v and labels above v shift down.
    rng = random.Random(23)
    cases = []
    for _ in range(20):
        g = random_connected_graph(rng, max_edges=9, max_vertices=6)
        kinds = g.classify_edges()
        cases += [(g, e) for e, kind in enumerate(kinds) if kind is EdgeKind.CYCLE_EDGE]
    # C13 contracts to C12, whose 12 edges span two 11-bit lift tables.
    cases.append((cycle_graph(13), 0))
    lifts = 0
    for g, e in cases:
        lifter = _Lifter(g, e)
        gc = lifter.contracted
        u, v = g.edges[e]

        def image(x):
            return u if x == v else (x - 1 if x > v else x)

        for o in enumerate_acyclic(gc):
            for d in (1, 2):
                lifted = Orientation(g, lifter.lift(o.bits, d))
                assert (lifted.bits >> e) & 1 == d - 1
                projected = {}
                for f in range(g.m):
                    if f == e:
                        continue
                    tail, head = map(image, lifted.arc(f))
                    sid = gc.edges.index((min(tail, head), max(tail, head)))
                    bit = int(tail > head)
                    assert projected.setdefault(sid, bit) == bit
                assert sum(bit << sid for sid, bit in projected.items()) == o.bits
                lifts += 1
    assert gc.m == 12  # the last case, C13, did reach the second table
    assert lifts > 1000 + 2 * (2**12 - 2)


def test_lift_rejects_a_cyclic_orientation():
    # C4 at edge 0 contracts to a triangle whose masks 3 and 4 are its two
    # directed cycles; one direction of each lifts to an acyclic mask of C4.
    g = cycle_graph(4)
    gc = contracted_graph(g, 0)
    for bits in (3, 4):
        o = Orientation(gc, bits)
        assert not is_acyclic(o)
        for d in (1, 2):
            with pytest.raises(GraphInputError, match="orientation is not acyclic"):
                lift_orientation(o, d, g, 0)


def test_build_reports_a_cyclic_lift_as_an_invariant_failure(monkeypatch):
    g = cycle_graph(4)
    cyclic = next(b for b in range(1 << g.m) if not is_acyclic(Orientation(g, b)))
    monkeypatch.setattr(_Lifter, "lift", lambda self, bits, direction: cyclic)
    with pytest.raises(InternalInvariantError, match="cyclic"):
        build_collapse_graph(g, 0)


def test_triangle_collapse_is_one_edge():
    cg = build_collapse_graph(TRIANGLE, 0)
    assert len(cg.nodes) == 2
    assert len(cg.edges) == 1
    report = verify_collapse_structure(cg)
    assert report.ok


def test_c4_collapse_is_a_three_node_path():
    cg = build_collapse_graph(cycle_graph(4), 0)
    assert len(cg.nodes) == 3
    assert len(cg.edges) == 2
    report = verify_collapse_structure(cg)
    assert report.ok
    assert report.counts["components"] == 1
    assert sorted(cg.degrees()) == [1, 1, 2]


def test_c5_collapse_counts():
    cg = build_collapse_graph(cycle_graph(5), 4)
    report = verify_collapse_structure(cg)
    assert report.ok
    assert report.counts == {
        "nodes": 4,
        "edges": 3,
        "components": 1,
        "kappa_after_deletion": 1,
        "kappa_after_contraction": 3,
    }


def test_k4_collapse_counts():
    cg = build_collapse_graph(complete_graph(4), 0)
    report = verify_collapse_structure(cg)
    assert report.ok
    # contraction simplifies to a triangle, deletion leaves the diamond
    assert report.counts["edges"] == 2
    assert report.counts["components"] == 4
    assert report.counts["nodes"] == 6


def test_structure_check_runs_past_the_brute_force_cap():
    # K7 plus a pendant edge: m = 22, so G - e has 21 edges, past the
    # default cap of 20; the check enumerates no mask set, so it needs none.
    k7 = complete_graph(7)
    g = Multigraph(8, k7.edges + ((6, 7),))
    cg = build_collapse_graph(g, 0, cap=22)
    report = verify_collapse_structure(cg)
    assert report.ok
    counts = {k: report.counts[k] for k in ("nodes", "edges", "components")}
    assert counts == {"nodes": 720, "edges": 120, "components": 600}


def test_build_rejects_disconnected():
    with pytest.raises(GraphInputError, match="connected"):
        build_collapse_graph(Multigraph(4, ((0, 1), (2, 3))), 0)


def test_build_rejects_non_simple():
    g = Multigraph(2, ((0, 1), (0, 1)))
    with pytest.raises(GraphInputError, match="simple"):
        build_collapse_graph(g, 0)


def test_build_rejects_bridge():
    g = Multigraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    with pytest.raises(GraphInputError, match="cycle-edge"):
        build_collapse_graph(g, 3)


def test_lifted_classes_are_distinct_per_direction():
    # lifting distinct contracted classes gives distinct classes, per direction
    rng = random.Random(3)
    from kappatools.collapse import _Lifter

    for _ in range(15):
        g = random_connected_graph(rng, max_edges=9, max_vertices=6)
        part = kappa_partition_bruteforce(g)
        for e, kind in enumerate(g.classify_edges()):
            if kind is not EdgeKind.CYCLE_EDGE:
                continue
            lifter = _Lifter(g, e)
            part_c = kappa_partition_bruteforce(lifter.contracted)
            for direction in (1, 2):
                images = [
                    part.class_of_bits(lifter.lift(rep.bits, direction))
                    for rep in part_c.representatives
                ]
                assert len(set(images)) == len(images)


def test_no_self_loops_and_no_duplicate_edges():
    rng = random.Random(8)
    for _ in range(15):
        g = random_connected_graph(rng, max_edges=9, max_vertices=6)
        for e, kind in enumerate(g.classify_edges()):
            if kind is not EdgeKind.CYCLE_EDGE:
                continue
            cg = build_collapse_graph(g, e)
            pairs = set()
            for ce in cg.edges:
                assert ce.forward_class != ce.backward_class
                pair = (
                    min(ce.forward_class, ce.backward_class),
                    max(ce.forward_class, ce.backward_class),
                )
                assert pair not in pairs
                pairs.add(pair)


def test_recursion_reconstructed_from_collapse_graph():
    rng = random.Random(21)
    for _ in range(10):
        g = random_connected_graph(rng, max_edges=9, max_vertices=6)
        part = kappa_partition_bruteforce(g)
        for e, kind in enumerate(g.classify_edges()):
            if kind is not EdgeKind.CYCLE_EDGE:
                continue
            cg = build_collapse_graph(g, e)
            components = len(cg.component_blocks())
            deleted = kappa_partition_bruteforce(g.delete_edge(e))
            contracted = kappa_partition_bruteforce(contracted_graph(g, e))
            assert components == deleted.class_count
            assert len(cg.edges) == contracted.class_count
            assert part.class_count == components + len(cg.edges)


def test_dot_export_is_deterministic_and_labelled():
    cg = build_collapse_graph(cycle_graph(4), 0)
    dot = cg.to_dot()
    assert dot == cg.to_dot()
    assert dot.startswith("graph collapse {")
    assert 'c0 [label="0"]' in dot
    assert "--" in dot
    assert dot.rstrip().endswith("}")


def test_report_json_shape():
    report = verify_collapse_structure(build_collapse_graph(TRIANGLE, 0))
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["violations"] == []
    assert set(payload["counts"]) == {
        "nodes",
        "edges",
        "components",
        "kappa_after_deletion",
        "kappa_after_contraction",
    }


def test_every_check_fires_on_a_broken_collapse_graph():
    cg = build_collapse_graph(cycle_graph(5), 0)
    E = list(cg.edges)
    last = len(cg.nodes) - 1
    broken = {
        "as built": (E, ()),
        "duplicate edge": (
            E + [E[0]],
            (
                "degree_at_most_two",
                "acyclic",
                "simple_no_self_loops",
                "components_are_paths",
                "edge_count_matches_contraction",
                "nodes_are_components_plus_edges",
            ),
        ),
        "self-loop": (
            E + [CollapseEdge(0, 0, E[0].label)],
            (
                "degree_at_most_two",
                "acyclic",
                "simple_no_self_loops",
                "components_are_paths",
                "edge_count_matches_contraction",
                "nodes_are_components_plus_edges",
            ),
        ),
        "missing edge": (
            E[1:],
            (
                "component_count_matches_deletion",
                "edge_count_matches_contraction",
                "deletion_merges_whole_components",
            ),
        ),
        "closing edge": (
            E + [CollapseEdge(0, last, E[0].label)],
            (
                "acyclic",
                "components_are_paths",
                "edge_count_matches_contraction",
                "nodes_are_components_plus_edges",
            ),
        ),
    }
    for name, (edges, violations) in broken.items():
        report = verify_collapse_structure(dataclasses.replace(cg, edges=tuple(edges)))
        assert report.violations == violations, name
