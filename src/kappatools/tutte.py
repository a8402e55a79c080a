"""Tutte polynomial by deletion/contraction, with point evaluations.

The base case is a graph of bridges and loops only, contributing
x^bridges * y^loops.  Loops are never contracted; they ride along to the
base case.  Evaluations at y=0 do not build the polynomial: they run the
one y=0 engine of `kappatools.kappa` (the same recursion that counts
click-classes), which drops every branch whose graph contains a loop,
since all of its terms vanish there, and sums cycles in closed form.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb

from .errors import CapExceededError, GraphInputError, InternalInvariantError
from .graphs import EdgeKind, UnionFind, memo_key
from .kappa import _Engine

DEFAULT_TUTTE_CAP = 30
DEFAULT_ORACLE_CAP = 16


@dataclass(frozen=True)
class TuttePolynomial:
    """Dense nonnegative coefficient table: coeffs[i][j] multiplies x^i y^j."""

    coeffs: tuple

    def __post_init__(self):
        rows = [list(r) for r in self.coeffs]
        if not rows:
            rows = [[0]]
        for row in rows:
            for c in row:
                if c < 0:
                    raise InternalInvariantError(
                        f"negative coefficient {c} in a Tutte polynomial"
                    )
        width = max(1, max(len(r) for r in rows))
        for row in rows:
            row.extend([0] * (width - len(row)))
        while len(rows) > 1 and not any(rows[-1]):
            rows.pop()
        while width > 1 and not any(row[width - 1] for row in rows):
            for row in rows:
                row.pop()
            width -= 1
        object.__setattr__(self, "coeffs", tuple(tuple(r) for r in rows))

    @classmethod
    def zero(cls):
        return cls(((0,),))

    @classmethod
    def one(cls):
        return cls(((1,),))

    @classmethod
    def monomial(cls, i, j, c=1):
        rows = [[0] * (j + 1) for _ in range(i + 1)]
        rows[i][j] = c
        return cls(tuple(tuple(r) for r in rows))

    def coefficient(self, i, j):
        if 0 <= i < len(self.coeffs) and 0 <= j < len(self.coeffs[0]):
            return self.coeffs[i][j]
        return 0

    def __add__(self, other):
        rows = max(len(self.coeffs), len(other.coeffs))
        cols = max(len(self.coeffs[0]), len(other.coeffs[0]))
        out = [
            [self.coefficient(i, j) + other.coefficient(i, j) for j in range(cols)]
            for i in range(rows)
        ]
        return TuttePolynomial(tuple(tuple(r) for r in out))

    def __mul__(self, other):
        rows = len(self.coeffs) + len(other.coeffs) - 1
        cols = len(self.coeffs[0]) + len(other.coeffs[0]) - 1
        out = [[0] * cols for _ in range(rows)]
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if not c:
                    continue
                for k, orow in enumerate(other.coeffs):
                    for l, d in enumerate(orow):
                        if d:
                            out[i + k][j + l] += c * d
        return TuttePolynomial(tuple(tuple(r) for r in out))

    def evaluate(self, x, y):
        total = 0
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    total += c * x**i * y**j
        return total

    def terms(self):
        """Nonzero (i, j, c) triples, highest x-power first, then low y."""
        out = []
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    out.append((i, j, c))
        return sorted(out, key=lambda t: (-t[0], t[1]))

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


def tutte_polynomial(g, cap=None, rng=None):
    """Full Tutte polynomial of a multigraph (loops and parallels included).

    Recursion is on the lexicographically least cycle-edge unless an rng is
    supplied, in which case a random cycle-edge is used (the result must be
    identical; differential tests rely on it).
    """
    _check_tutte_cap(g, cap)
    memo = {} if rng is None else None
    return _tutte_graph(g, memo, rng)


def _tutte_graph(g, memo, rng):
    result = TuttePolynomial.one()
    for piece in g.split_components():
        if piece.m:
            result = result * _tutte_component(piece, memo, rng)
    return result


def _tutte_component(c, memo, rng):
    key = memo_key(c) if memo is not None else None
    if memo is not None and key in memo:
        return memo[key]
    kinds = c.classify_edges()
    cycle_ids = [i for i, k in enumerate(kinds) if k is EdgeKind.CYCLE_EDGE]
    if not cycle_ids:
        b = sum(1 for k in kinds if k is EdgeKind.BRIDGE)
        loops = len(kinds) - b
        poly = TuttePolynomial.monomial(b, loops)
    else:
        if rng is None:
            eid = min(cycle_ids, key=lambda i: (c.edges[i], i))
        else:
            eid = rng.choice(cycle_ids)
        poly = _tutte_graph(c.delete_edge(eid).graph, memo, rng) + _tutte_graph(
            c.contract_edge(eid).graph, memo, rng
        )
    if memo is not None:
        memo[key] = poly
    return poly


def tutte_eval(g, x, y, cap=None):
    """Evaluate the Tutte polynomial of g at an integer point (x, y).

    At y=0 the deletion/contraction engine of `kappatools.kappa` runs with
    a fresh memo: a loop makes the value 0, parallel classes collapse,
    bridges factor out as powers of x, and cycles are summed in closed
    form.  Other points evaluate the full polynomial.
    """
    if not isinstance(x, int) or not isinstance(y, int):
        raise GraphInputError("evaluation point must be a pair of integers")
    _check_tutte_cap(g, cap)
    if y == 0:
        if g.has_loops:
            return 0
        value, _ = _Engine({}, None, build_trace=False, x=x).solve(g)
        return value
    return tutte_polynomial(g, cap).evaluate(x, y)


def tutte_oracle_rank_nullity(g, cap=None):
    """Independent oracle: the subset expansion over all 2^m edge subsets.

    Sums (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)) over every edge subset A, with
    r(A) = n - components(A).  Exponential and deliberately unrelated to
    the deletion/contraction recursion.
    """
    cap = DEFAULT_ORACLE_CAP if cap is None else cap
    if g.m > cap:
        raise CapExceededError("subset expansion", g.m, cap)
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
    coeff = defaultdict(int)
    for (i, j), cnt in counts.items():
        for a in range(i + 1):
            xa = cnt * comb(i, a) * (-1) ** (i - a)
            for b in range(j + 1):
                coeff[(a, b)] += xa * comb(j, b) * (-1) ** (j - b)
    rows = max((i for i, _ in coeff), default=0) + 1
    cols = max((j for _, j in coeff), default=0) + 1
    table = [[coeff.get((i, j), 0) for j in range(cols)] for i in range(rows)]
    return TuttePolynomial(tuple(tuple(r) for r in table))
