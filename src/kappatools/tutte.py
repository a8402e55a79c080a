"""Tutte polynomial by a frontier sum over edge subsets, with point evaluations.

T(x, y) is the rank-nullity sum over all edge subsets A of
(x-1)^(c(A)-c(E)) (y-1)^(|A|-n+c(A)), with c the number of components.
`tutte_polynomial` computes it in one pass over the edges (Sekine, Imai
and Tani, ISAAC 1995): `kappa.frontier_sum` takes the vertices in the
breadth-first order of `graphs.bfs_order`, and for each partition of the
frontier (the vertices seen that still have edges to come) it keeps the
number of subsets per (corank, |A|), packed into one integer.  The work
grows with the number of frontier partitions, not with 2^m.  The last
two vertices close in one product pass per state signature (the edge
counts they send into each frontier block), so on K_n the walk keeps
Bell(n - 2) partitions, not Bell(n).  Evaluations
at y=0 do not build the polynomial: they run the one y=0 engine of
`kappatools.kappa`, which splits the graph into blocks and answers
sparse blocks with the same frontier walk and dense ones by a DP over
vertex subsets, one forward pass by falling subset size, that counts
partitions into independent sets.  So
this polynomial and that engine share code, and the checks independent
of both are brute force (`orientations`), the subset-expansion oracle
below and the closed forms of the tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb
from operator import lshift
from types import MappingProxyType

from .errors import CapExceededError, GraphInputError, InternalInvariantError
from .graphs import Multigraph, UnionFind
from .kappa import CacheStats, _solve, frontier_sum

DEFAULT_TUTTE_CAP = 30
DEFAULT_ORACLE_CAP = 16


@dataclass(frozen=True)
class TuttePolynomial:
    """Nonnegative coefficients: coeffs[i, j] multiplies x^i y^j.  Built from
    any mapping; held read-only, with zero coefficients dropped."""

    coeffs: MappingProxyType

    def __post_init__(self):
        for c in self.coeffs.values():
            if c < 0:
                raise InternalInvariantError(
                    f"negative coefficient {c} in a Tutte polynomial"
                )
        nonzero = {key: c for key, c in self.coeffs.items() if c}
        object.__setattr__(self, "coeffs", MappingProxyType(nonzero))

    def coefficient(self, i, j):
        return self.coeffs.get((i, j), 0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return TuttePolynomial(out)

    def __mul__(self, other):
        out = defaultdict(int)
        for (i, j), c in self.coeffs.items():
            for (k, l), d in other.coeffs.items():
                out[i + k, j + l] += c * d
        return TuttePolynomial(out)

    def evaluate(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def terms(self):
        """Nonzero (i, j, c) triples, highest x-power first, then low y."""
        return sorted(
            ((i, j, c) for (i, j), c in self.coeffs.items()),
            key=lambda t: (-t[0], t[1]),
        )

    def to_text(self):
        parts = []
        for i, j, c in self.terms():
            bits = []
            if c != 1 or (i == 0 and j == 0):
                bits.append(str(c))
            if i:
                bits.append("x" if i == 1 else f"x^{i}")
            if j:
                bits.append("y" if j == 1 else f"y^{j}")
            parts.append(" ".join(bits))
        return " + ".join(parts) if parts else "0"

    def to_json_triples(self):
        return [[i, j, c] for i, j, c in sorted(self.terms())]


def _check_tutte_cap(g, cap):
    cap = DEFAULT_TUTTE_CAP if cap is None else cap
    if g.m > cap:
        raise CapExceededError("graph", g.m, cap)


def tutte_polynomial(g, cap=None):
    """Full Tutte polynomial of a multigraph (loops and parallels included).

    Each loop contributes a factor y and isolated vertices contribute
    nothing; the rest is the rank-nullity sum over all edge subsets A,
    computed by one frontier pass (`_subset_counts`) and expanded from
    powers of (x-1), (y-1) to powers of x, y.
    """
    _check_tutte_cap(g, cap)
    loop_free = g
    if g.has_loops:
        loop_free = Multigraph(g.n_vertices, tuple(e for e in g.edges if e[0] != e[1]))
    return _from_corank_nullity(_subset_counts(loop_free), g.m - loop_free.m)


def _subset_counts(g):
    """{(corank, nullity): number of edge subsets A} of a loop-free graph g.

    corank = c(A) - c(E) and nullity = |A| - n' + c(A), with c counting the
    components of (V, A) over the n' vertices that touch an edge, so the
    nullity is |A| - r(E) + corank with r(E) = n - c(V, E).  One
    `kappa.frontier_sum` walk carries the count per (corank, |A|) in one
    integer: taking an edge shifts it by m + 1 bits and a component that
    closes early by (m + 1)^2, so the count of a pair sits in the bits from
    (corank * (m + 1) + |A|) * (m + 1) up.  No count exceeds 2^m, so
    m + 1 bits per slot never carry.
    """
    bits = g.m + 1
    weight = frontier_sum(g, bits, bits * bits, lshift)
    rank = g.n_vertices - len(g.connected_components())
    mask = (1 << bits) - 1
    counts = {}
    for slot in range(weight.bit_length() // bits + 1):
        count = (weight >> slot * bits) & mask
        if count:
            corank, size = divmod(slot, bits)
            counts[corank, size - rank + corank] = count
    return counts


def _from_corank_nullity(counts, loops=0):
    """y^loops * sum of count (x-1)^i (y-1)^j over counts {(i, j): count}."""
    # (t-1)^k = sum over a of comb(k, a) (-1)^(k-a) t^a
    top = max(max(key) for key in counts)
    signed = [[comb(k, a) * (-1) ** (k - a) for a in range(k + 1)] for k in range(top + 1)]
    coeffs = defaultdict(int)
    for (i, j), count in counts.items():
        for a, s in enumerate(signed[i]):
            for b, t in enumerate(signed[j]):
                coeffs[a, b + loops] += count * s * t
    return TuttePolynomial(coeffs)


def tutte_eval(g, x, y, cap=None):
    """Evaluate the Tutte polynomial of g at an integer point (x, y).

    At y=0 the engine of `kappatools.kappa` runs: a loop makes the value
    0, parallel classes collapse, the graph splits into blocks, bridges
    factor out as powers of x, cycle blocks are summed in closed form,
    sparse blocks go to the frontier sum and dense ones to the subset DP.
    None of it recurses in Python, so no graph raises RecursionError
    here, and no edge cap applies.  Other points evaluate the full
    polynomial of the frontier sum, which keeps `tutte_polynomial`'s cap.
    A walk whose frontier would pass `kappa.FRONTIER_CAP` vertices raises
    CapExceededError.
    """
    if not isinstance(x, int) or not isinstance(y, int):
        raise GraphInputError("evaluation point must be a pair of integers")
    if y == 0:
        if g.has_loops:
            return 0
        return _solve(g, x, CacheStats())
    return tutte_polynomial(g, cap).evaluate(x, y)


def tutte_oracle_rank_nullity(g):
    """Independent oracle: the subset expansion over all 2^m edge subsets.

    Sums (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)) over every edge subset A, with
    r(A) = n - components(A).  Exponential and deliberately unrelated to
    the frontier walk, the subset DP and the deletion/contraction
    recursion.  Raises CapExceededError past DEFAULT_ORACLE_CAP edges.
    """
    if g.m > DEFAULT_ORACLE_CAP:
        raise CapExceededError("subset expansion", g.m, DEFAULT_ORACLE_CAP)
    n = g.n_vertices
    m = g.m

    def rank(mask):
        uf = UnionFind(n)
        for eid in range(m):
            if (mask >> eid) & 1:
                uf.union(*g.edges[eid])
        return n - uf.n_components

    r_all = rank((1 << m) - 1)
    counts = defaultdict(int)
    for mask in range(1 << m):
        r = rank(mask)
        counts[(r_all - r, bin(mask).count("1") - r)] += 1
    return _from_corank_nullity(counts)
