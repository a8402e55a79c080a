"""Acceptance suite: exact-value and structural checks at desk scale.

One test per criterion; each prints a single pass/fail line (visible with
`pytest tests/test_acceptance.py -v -s`).  Budgeted criteria also assert
their wall-clock bound.
"""

import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations, permutations

import pytest

import kappatools
from kappatools.collapse import build_collapse_graph, verify_collapse_structure
from kappatools.corpus import cycle_graph, random_multigraph
from kappatools.graphs import EdgeKind
from kappatools.kappa import kappa
from kappatools.orientations import (
    Orientation,
    PathSpec,
    _click_class_masks,
    cut_equivalence_classes,
    kappa_partition_bruteforce,
    normalize_to_unique_source,
    nu_path,
    unique_source_orientations,
)
from kappatools.tutte import tutte_oracle_rank_nullity, tutte_polynomial

MULTIGRAPH_SEED = 1337


def _report(number, name, ok, elapsed=None):
    suffix = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="session")
def small_collapses(small_corpus):
    """Collapse graph for every cycle-edge of every small-corpus graph."""
    out = {}
    for g in small_corpus:
        for e, kind in enumerate(g.classify_edges()):
            if kind is EdgeKind.CYCLE_EDGE:
                out[(g, e)] = build_collapse_graph(g, e)
    return out


def simple_closed_paths(g):
    """All simple cycles as vertex tuples, one per rotation/reflection orbit."""
    n = g.n_vertices
    adj = [set() for _ in range(n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    cycles = []
    for size in range(3, n + 1):
        for subset in combinations(range(n), size):
            first = subset[0]
            for perm in permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue
                cyc = (first,) + perm
                if all(cyc[(i + 1) % size] in adj[cyc[i]] for i in range(size)):
                    cycles.append(cyc)
    return cycles


def test_c01_cycle_family_three_ways():
    start = time.perf_counter()
    ok = True
    for n in range(3, 9):
        g = cycle_graph(n)
        brute = kappa_partition_bruteforce(g).class_count
        recursion = kappa(g).value
        tutte = tutte_polynomial(g).evaluate(1, 0)
        ok = ok and brute == recursion == tutte == n - 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, "cycle family, three methods", ok, elapsed)
    assert ok


def test_c02_forests_collapse_to_one(forest_corpus):
    start = time.perf_counter()
    ok = all(kappa(g).value == 1 for g in forest_corpus)
    elapsed = time.perf_counter() - start
    ok = ok and len(forest_corpus) == 100 and elapsed < 1.0
    _report(2, "random forests count 1", ok, elapsed)
    assert ok


def test_c03_triple_agreement(small_corpus, random_corpus):
    start = time.perf_counter()
    failures = []
    for g in small_corpus + random_corpus:
        part = kappa_partition_bruteforce(g)
        brute = part.class_count
        recursion = kappa(g).value
        poly = tutte_polynomial(g)
        tutte = poly.evaluate(1, 0)
        alpha_brute = sum(len(cls) for cls in part.classes)
        alpha_tutte = poly.evaluate(2, 0)
        if not (brute == recursion == tutte and alpha_brute == alpha_tutte):
            failures.append(g)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(3, "brute = recursion = T(1,0), alpha = T(2,0)", ok, elapsed)
    assert ok, failures[:3]


def test_c04_recursion_checked_by_brute_force(
    small_corpus, random_corpus, small_partitions, random_partitions
):
    failures = []
    for g, partitions in (
        (small_corpus, small_partitions),
        (random_corpus, random_partitions),
    ):
        for graph in g:
            whole = partitions[graph].class_count
            for e, kind in enumerate(graph.classify_edges()):
                if kind is not EdgeKind.CYCLE_EDGE:
                    continue
                deleted = kappa_partition_bruteforce(
                    graph.delete_edge(e)
                ).class_count
                contracted = kappa_partition_bruteforce(
                    graph.contract_edge(e)
                ).class_count
                if whole != deleted + contracted:
                    failures.append((graph, e))
    ok = not failures
    _report(4, "class count splits across deletion/contraction", ok)
    assert ok, failures[:3]


def test_c05_collapse_structure(small_collapses):
    failures = []
    for (g, e), cg in small_collapses.items():
        report = verify_collapse_structure(cg)
        nodes = len(cg.nodes)
        if not report.ok:
            failures.append((g, e, report.violations))
        elif nodes != report.counts["components"] + report.counts["edges"]:
            failures.append((g, e, "node count"))
    ok = not failures
    _report(5, "collapse graphs are paths with matching counts", ok)
    assert ok, failures[:3]


def test_c06_cut_equivalence_matches_click_classes(small_corpus, small_partitions):
    failures = []
    for g in small_corpus:
        clicks = _click_class_masks(g.simplify())
        if cut_equivalence_classes(g) != clicks or small_partitions[g].classes != clicks:
            failures.append(g)
    ok = not failures
    _report(6, "cut-equivalence closure equals click classes", ok)
    assert ok, failures[:3]


def _transversal_holds(g, part, check_every_member):
    k = part.class_count
    for v in range(g.n_vertices):
        found = unique_source_orientations(part.graph, v)
        if len(found) != k:
            return False
        if sorted(part.class_of(o) for o in found) != list(range(k)):
            return False
        unique_bits = {part.class_of(o): o.bits for o in found}
        sources = (
            [Orientation(part.graph, bits) for cls in part.classes for bits in cls]
            if check_every_member
            else part.representatives
        )
        for o in sources:
            target, seq = normalize_to_unique_source(o, v)
            cls = part.class_of(o)
            if part.class_of(target) != cls or target.bits != unique_bits[cls]:
                return False
            if v in seq:
                return False
    return True


def test_c07_unique_source_transversal(
    small_corpus, random_corpus, small_partitions, random_partitions
):
    ok = True
    for g in small_corpus:
        if not _transversal_holds(g, small_partitions[g], check_every_member=True):
            ok = False
            break
    if ok:
        # representatives only on the larger random graphs
        for g in random_corpus:
            if not _transversal_holds(
                g, random_partitions[g], check_every_member=False
            ):
                ok = False
                break
    _report(7, "unique-source orientations form a transversal", ok)
    assert ok


def test_c08_nu_is_a_class_invariant(small_corpus, small_partitions, small_collapses):
    failures = []
    path_cache = {}
    for g in small_corpus:
        part = small_partitions[g]
        cycles = simple_closed_paths(g)
        path_cache[g] = cycles
        for cyc in cycles:
            spec = PathSpec(cyc, closed=True)
            for i, cls in enumerate(part.classes):
                values = {nu_path(Orientation(part.graph, bits), spec) for bits in cls}
                if len(values) != 1:
                    failures.append((g, cyc, i))
    # adjacent collapse nodes differ by exactly 2 along closed paths through e
    for (g, e), cg in small_collapses.items():
        v, w = g.edges[e]
        for cyc in path_cache[g]:
            size = len(cyc)
            steps = [(cyc[i], cyc[(i + 1) % size]) for i in range(size)]
            if (v, w) in steps:
                sign = 1
            elif (w, v) in steps:
                sign = -1
            else:
                continue
            spec = PathSpec(cyc, closed=True)
            for ce in cg.edges:
                up = nu_path(cg.nodes[ce.forward_class], spec)
                down = nu_path(cg.nodes[ce.backward_class], spec)
                if up - down != 2 * sign:
                    failures.append((g, e, cyc, ce))
    ok = not failures
    _report(8, "nu constant on classes, steps by 2 across collapse edges", ok)
    assert ok, failures[:3]


def test_c09_tutte_oracle_agreement(small_corpus, random_corpus):
    start = time.perf_counter()
    rng = random.Random(MULTIGRAPH_SEED)
    multigraphs = [random_multigraph(rng, max_vertices=5, max_edges=10) for _ in range(25)]
    assert any(g.has_loops for g in multigraphs)
    assert any(g.simplify().m < g.m - g.loop_count for g in multigraphs)
    failures = []
    for g in small_corpus + random_corpus + multigraphs:
        if g.m > 10:
            continue
        if tutte_polynomial(g) != tutte_oracle_rank_nullity(g):
            failures.append(g)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(9, "deletion/contraction equals subset expansion", ok, elapsed)
    assert ok, failures[:3]


def test_c10_verify_reports_are_byte_identical():
    cmd = [
        sys.executable,
        "-m",
        "kappatools",
        "verify",
        "--corpus",
        "small",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    # the child finds the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(kappatools.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    first = subprocess.run(cmd, capture_output=True, check=False, env=env)
    second = subprocess.run(cmd, capture_output=True, check=False, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout)["ok"] is True
    )
    _report(10, "verify --corpus small --seed 7 is deterministic", ok)
    assert ok
