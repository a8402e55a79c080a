"""The subset DP of the y=0 engine against oracles that share no code with
it: brute force, the memoised trace recursion, the full Tutte polynomial,
the frontier sum and a plain enumeration of set partitions.

The engine sends only dense pieces to the DP.  The `dp_only` fixture sets
DENSE_SHARE to 0, so that every piece that is not a cycle goes there.
"""

import importlib
import random
import sys

import pytest

from kappatools.graphs import Multigraph
from kappatools.kappa import CacheStats, _partition_counts, kappa, kappa_with_trace
from kappatools.orientations import kappa_partition_bruteforce
from kappatools.tutte import tutte_eval, tutte_polynomial

# the package re-exports the function `kappa` under the module's name
KAPPA_MODULE = importlib.import_module("kappatools.kappa")


@pytest.fixture
def dp_only(monkeypatch):
    monkeypatch.setattr(KAPPA_MODULE, "DENSE_SHARE", 0)


def set_partitions(items):
    """Every partition of the list `items` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield [[first], *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], [first, *blocks[i]], *blocks[i + 1 :]]


def partition_counts_by_enumeration(g):
    joined = {frozenset(e) for e in g.edges}
    counts = [0] * (g.n_vertices + 1)
    for blocks in set_partitions(list(range(g.n_vertices))):
        if not any(
            frozenset((a, b)) in joined for block in blocks for a in block for b in block if a < b
        ):
            counts[len(blocks)] += 1
    return counts


def dense_gnp(rng, low, high):
    """G(n, p) for n in low..high and p in [0.5, 0.95), randomly labelled."""
    n = rng.randint(low, high)
    p = rng.uniform(0.5, 0.95)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    perm = list(range(n))
    rng.shuffle(perm)
    return Multigraph(n, tuple((perm[a], perm[b]) for a, b in edges))


def test_partition_counts_match_set_partition_enumeration(small_corpus):
    rng = random.Random(41)
    disconnected = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4)))
    graphs = small_corpus + [disconnected] + [dense_gnp(rng, 3, 7) for _ in range(10)]
    for g in graphs:
        assert _partition_counts(g, CacheStats()) == partition_counts_by_enumeration(g), g


def test_partition_counts_of_an_edgeless_graph_are_stirling_numbers():
    # Every set is independent, so p_k = S(n, k), the largest counts any
    # graph on n vertices has: they fill the packed slots the most.
    n = 10
    stirling = [1]  # S(0, k)
    for _ in range(n):
        stirling = [0] + [k * a + b for k, (a, b) in enumerate(zip(stirling[1:] + [0], stirling), 1)]
    assert _partition_counts(Multigraph(n, ()), CacheStats()) == stirling


def test_dp_matches_brute_force_on_the_small_corpus(small_partitions, dp_only):
    for g, part in small_partitions.items():
        assert kappa(g).value == part.class_count, g
        assert tutte_eval(g, 2, 0) == sum(len(cls) for cls in part.classes), g


def test_dp_matches_the_polynomial_on_the_small_corpus(small_corpus, dp_only):
    for g in small_corpus:
        poly = tutte_polynomial(g)
        for x in range(-2, 4):
            assert tutte_eval(g, x, 0) == poly.evaluate(x, 0), (g, x)


def test_dp_matches_brute_force_and_the_trace_on_dense_random_graphs(dp_only):
    rng = random.Random(43)
    for _ in range(30):
        g = dense_gnp(rng, 4, 7)
        part = kappa_partition_bruteforce(g, cap=g.m)
        assert kappa(g).value == part.class_count == kappa_with_trace(g).value, g
        assert tutte_eval(g, 2, 0) == sum(len(cls) for cls in part.classes), g


def test_dp_matches_the_frontier_sum_on_larger_dense_graphs(monkeypatch):
    rng = random.Random(47)
    for _ in range(6):
        g = dense_gnp(rng, 8, 10)
        values = []
        for share in (0, 2):  # every piece to the DP, then to the frontier sum
            monkeypatch.setattr(KAPPA_MODULE, "DENSE_SHARE", share)
            values.append([kappa(g).value] + [tutte_eval(g, x, 0) for x in (-1, 2)])
        assert values[0] == values[1], g


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_the_dp_does_not_recurse_per_block():
    # K300 has one partition, into 300 singletons: a recursion with one
    # frame per block would need 300 nested frames, 100 are allowed here
    n = 300
    clique = Multigraph(n, tuple((a, b) for a in range(n) for b in range(a + 1, n)))
    stats = CacheStats()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        counts = _partition_counts(clique, stats)
    finally:
        sys.setrecursionlimit(limit)
    assert counts == [0] * n + [1]
    assert (stats.hits, stats.misses) == (0, n)
