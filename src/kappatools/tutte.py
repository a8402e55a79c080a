"""Tutte polynomial by a frontier sum over edge subsets, with point evaluations.

T(x, y) is the rank-nullity sum over all edge subsets A of
(x-1)^(c(A)-c(E)) (y-1)^(|A|-n+c(A)), with c the number of components.
`tutte_polynomial` computes it in one pass over the edges (Sekine, Imai
and Tani, ISAAC 1995): `kappa.frontier_sum` takes the edges in the
order that the graph keeps as `Multigraph.walk_order`, its vertices in
the breadth-first order of `graphs.bfs_order`, and for each partition
of the frontier (the vertices seen that still have edges to come) it
keeps one integer weight.  The work grows with the number of frontier
partitions, not with 2^m.  The last two vertices close in one product
pass per state signature (the edge counts they send into each frontier
block), so on K_n the walk keeps Bell(n - 2) partitions, not Bell(n).
The walk runs
once, at one integer point (a Kronecker substitution, Harvey, J.
Symbolic Comput. 2009): y = 2^k and x = 2^(k w) with every coefficient
below 2^k, so that T(x, y) is the coefficients side by side in k-bit
fields, read off its bytes.  Evaluations
at y=0 do not build the polynomial: they run the one y=0 engine of
`kappatools.kappa`, which splits the graph into blocks and answers
sparse blocks with the same frontier walk and dense ones by a DP over
vertex subsets, one forward pass by falling subset size, that counts
partitions into independent sets.  A sparse block's walk there runs at
x = 2^k and packs its whole line T(x, 0) the same way, read back by the
same `kappa._unpack` as this polynomial.  So
this polynomial and that engine share code, and the checks independent
of both are brute force (`orientations`), the subset-expansion oracle
below and the closed forms of the tests.  The oracle shares no step
with the frontier walk: it counts subsets per (corank, nullity) by union
find and expands them through binomials.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb, prod
from types import MappingProxyType

from .errors import CapExceededError, GraphInputError, InternalInvariantError
from .graphs import Multigraph, UnionFind
from .kappa import CacheStats, _solve, _unpack, frontier_sum

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
    nothing.  For the loop-free rest, with m edges and rank
    r = n - c(V, E), the rank-nullity sum regroups as
    T(x, y) = (y-1)^(-r) sum over A of (y-1)^|A| ((x-1)(y-1))^(c(A)-c(E)),
    which is `kappa.frontier_sum(g, y - 1, (x - 1)(y - 1))` divided by
    (y-1)^r.  One walk runs at the point y = 2^k, x = 2^(k w), with
    w = m - r + 1 the number of y-degrees (0 to the nullity m - r), and
    the quotient is sum t_ab 2^(k (a w + b)): the coefficient t_ab sits in
    the k-bit field a w + b.  No field carries into the next once every
    t_ab < 2^k.  Every t_ab is nonnegative, so t_ab is at most
    sum t_ab 2^(a+b) = T(2, 2) = 2^m and at most sum t_ab = T(1, 1), the
    number of spanning forests, which is at most the product of the
    degrees (a forest picks for each vertex but its component's root the
    edge towards the root).  k is the bit length of the smaller bound,
    rounded up to whole bytes: m + 1 on sparse graphs, about n log2(n - 1)
    on a clique.  A division that leaves a remainder raises
    InternalInvariantError.
    """
    _check_tutte_cap(g, cap)
    loop_free = g
    if g.has_loops:
        loop_free = Multigraph(g.n_vertices, tuple(e for e in g.edges if e[0] != e[1]))
    loops = g.m - loop_free.m
    m = loop_free.m
    rank = loop_free.n_vertices - len(loop_free.connected_components())
    width = m - rank + 1
    bound = min(1 << m, prod(d for d in loop_free.degrees if d))
    size = (bound.bit_length() + 7) // 8  # bytes per field
    y1 = (1 << 8 * size) - 1
    total = frontier_sum(loop_free, y1, ((1 << 8 * size * width) - 1) * y1)
    packed, rest = divmod(total, y1**rank)
    if rest:
        raise InternalInvariantError(
            f"the frontier sum at y = 2^{8 * size} is not (y-1)^{rank} times"
            " a packed polynomial"
        )
    fields = _unpack(packed, (rank + 1) * width, size)
    return TuttePolynomial(
        {(f // width, f % width + loops): c for f, c in enumerate(fields) if c}
    )


def _from_corank_nullity(counts):
    """The sum of count (x-1)^i (y-1)^j over counts {(i, j): count}."""
    # (t-1)^k = sum over a of comb(k, a) (-1)^(k-a) t^a
    top = max(max(key) for key in counts)
    signed = [[comb(k, a) * (-1) ** (k - a) for a in range(k + 1)] for k in range(top + 1)]
    coeffs = defaultdict(int)
    for (i, j), count in counts.items():
        for a, s in enumerate(signed[i]):
            for b, t in enumerate(signed[j]):
                coeffs[a, b] += count * s * t
    return TuttePolynomial(coeffs)


def tutte_eval(g, x, y, cap=None):
    """Evaluate the Tutte polynomial of g at an integer point (x, y).

    At y=0 the engine of `kappatools.kappa` runs: a loop makes the value
    0, parallel classes collapse, the graph splits into blocks, bridges
    factor out as powers of x, and cycle blocks are summed in closed form.
    Every other block is evaluated by Horner's rule from its line
    T(x, 0), which the block graph keeps (g itself when g is one simple
    block, else `Multigraph.block_graphs`): one frontier walk packs its
    coefficients at x = 2^k on a sparse block, and the subset DP's
    counts give them on a dense one, so after `kappa(g)` no x walks a
    block or runs the DP again.  Past `kappa.LINE_BITS` (n - 1 times k
    bits) a sparse block walks at x itself on every call; the module
    docstring of `kappatools.kappa` has the table that sets that bound.
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
