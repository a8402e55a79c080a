"""kappa on graph families with closed forms: an oracle that shares no code
with the engines.

The y=0 engine and the Tutte polynomial share the frontier walk, the
engine answers dense pieces by a subset DP, and brute force stops at 20
edges.  These closed forms check both well past that, on graphs built
here from plain edge lists.

Wheel and fan.  W_k is a hub joined to every vertex of a k-cycle, and
fan_k is a hub joined to every vertex of a k-vertex path.  Deleting one
rim edge of W_k leaves fan_k; contracting it leaves W_(k-1) with one pair
of parallel spokes, which collapses.  So kappa(W_k) = kappa(fan_k) +
kappa(W_(k-1)).  In fan_k the end vertex of the path has degree 2:
deleting its path edge leaves its spoke a bridge on fan_(k-1), and
contracting that edge makes its spoke parallel to the next one, again
fan_(k-1).  So kappa(fan_k) = 2 kappa(fan_(k-1)), and with fan_1 a single
edge, kappa(fan_k) = 2^(k-1).  With W_3 = K_4 and kappa(K_4) = 6,
kappa(W_k) = 2^(k-1) + 2^(k-1) - 2 = 2^k - 2.

Acyclic orientations.  By Stanley, their number is |P(G, -1)|, P the
chromatic polynomial: n! for K_n, 2^n - 2 for C_n, 2^(n-1) for a tree on n
vertices, and, from P(K_(2,n), k) = k(k-1)^n + k(k-1)(k-2)^n,
|2(-3)^n - (-2)^n| for K_(2,n).  Brute force lists them past its default
cap when given cap = m.
"""

import random
from math import factorial

import pytest

from kappatools.graphs import Multigraph
from kappatools.kappa import CacheStats, _partition_counts, kappa
from kappatools.orientations import acyclic_masks, kappa_partition_bruteforce
from kappatools.tutte import tutte_eval


def complete(n):
    return Multigraph(n, tuple((a, b) for b in range(n) for a in range(b)))


def cycle(n):
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def random_tree(rng, n):
    return Multigraph(n, tuple((rng.randrange(v), v) for v in range(1, n)))


def k2n(n):
    """Vertices 0 and 1 on one side, 2..n+1 on the other."""
    return Multigraph(n + 2, tuple((side, v) for v in range(2, n + 2) for side in (0, 1)))


def wheel(k):
    """Hub 0 and rim cycle 1..k."""
    spokes = [(0, v) for v in range(1, k + 1)]
    rim = [(v, v % k + 1) for v in range(1, k + 1)]
    return Multigraph(k + 1, tuple(spokes + rim))


def fan(k):
    """Hub 0 and rim path 1..k."""
    spokes = [(0, v) for v in range(1, k + 1)]
    rim = [(v, v + 1) for v in range(1, k)]
    return Multigraph(k + 1, tuple(spokes + rim))


def theta(*lengths):
    """Internally disjoint paths of the given lengths between 0 and 1."""
    edges = []
    n = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return Multigraph(n, tuple(edges))


def check(g, expected, name):
    assert kappa(g).value == expected, name
    assert tutte_eval(g, 1, 0) == expected, name


def test_complete_graphs():
    for n in range(1, 21):
        check(complete(n), factorial(n - 1), f"K{n}")


def test_complete_graphs_split_only_into_singletons():
    # K_n has one partition into independent sets, the one into n
    # singletons, so the subset DP gives p_n = 1 and every other p_k = 0.
    for n in range(1, 21):
        g = complete(n)
        assert _partition_counts(g, CacheStats()) == [0] * n + [1], f"K{n}"
        assert tutte_eval(g, 2, 0) == factorial(n), f"K{n}"


def test_cycles_and_trees():
    rng = random.Random(11)
    for n in [*range(3, 31), 100, 500]:
        check(cycle(n), n - 1, f"C{n}")
    for n in [*range(1, 31), 100, 500]:
        check(random_tree(rng, n), 1, f"tree on {n} vertices")


def test_complete_bipartite_k2n():
    for n in range(1, 121):
        check(k2n(n), 2**n - 1, f"K_2,{n}")


def test_wheels_and_fans():
    for k in range(3, 121):
        check(wheel(k), 2**k - 2, f"W{k}")
    for k in range(1, 121):
        check(fan(k), 2 ** (k - 1), f"fan{k}")


THETA_LENGTHS = [
    (1, 2, 2), (1, 3, 7), (2, 2, 2), (2, 3, 4), (5, 5, 5), (3, 8, 13), (60, 70, 80), (500, 500, 500)
]


@pytest.mark.parametrize("a, b, c", THETA_LENGTHS)
def test_theta_graphs(a, b, c):
    check(theta(a, b, c), a * b + b * c + c * a - (a + b + c) + 1, f"theta{a, b, c}")


def alpha(g):
    return len(acyclic_masks(g, cap=g.m))


def test_acyclic_counts_past_the_brute_force_cap():
    rng = random.Random(5)
    for n in range(1, 9):  # K8 has m = 28: 40320 masks of 2^28
        assert alpha(complete(n)) == factorial(n), f"K{n}"
    for n in [*range(3, 13), 18]:
        assert alpha(cycle(n)) == 2**n - 2, f"C{n}"
    for n in range(1, 16):
        assert alpha(random_tree(rng, n)) == 2 ** (n - 1), f"tree on {n} vertices"
    for n in range(1, 9):
        assert alpha(k2n(n)) == abs(2 * (-3) ** n - (-2) ** n), f"K_2,{n}"


def test_brute_force_classes_past_the_cap():
    for g, expected in ((complete(7), factorial(6)), (cycle(16), 15)):
        assert kappa_partition_bruteforce(g, cap=g.m).class_count == expected
