"""Reference values computed apart from kappatools.

None of this code imports the program.  The engines it checks use
deletion/contraction (``kappa``, ``tutte``) and exhaustive peeling of
bitmasks (``orientations``); the references here use other methods:

* closed forms for cycles, cliques, wheels and the Petersen graph;
* a frontier (transfer-matrix) sum over all edge subsets, which walks the
  edges once in a breadth-first vertex order and keeps one weight per
  partition of the frontier vertices (Sekine, Imai and Tani, ISAAC 1995);
* the matrix-tree theorem with an exact integer determinant;
* bit-sliced checks over whole lists of orientation bitmasks.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import compress
from math import comb, factorial

from families import components


def closed_form(family, size):
    """(kappa, alpha) for a family with a known formula, else None."""
    if family == "cycle":
        return size - 1, 2**size - 2
    if family == "complete":
        return factorial(size - 1), factorial(size)
    if family == "wheel":  # size = n, so size - 1 rim vertices
        return 2 ** (size - 1) - 2, 3 ** (size - 1) - 3
    if family == "petersen":
        return 704, 16680
    return None


def _bfs_order(n, edges):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(adj[v]):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def _canonical(blocks):
    relabel = {}
    return tuple(relabel.setdefault(b, len(relabel)) for b in blocks)


def _frontier_sum(n, edges, signed):
    """Sum over all edge subsets A of a weight keyed by the components of A.

    With ``signed`` the key is the component count of (V, A) and the weight
    (-1)^|A|; otherwise the key is (components, |A|) and the weight 1.
    """
    order = _bfs_order(n, edges)
    pos = {v: i for i, v in enumerate(order)}
    edges = sorted(
        edges,
        key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])),
    )
    last = {}
    for i, (a, b) in enumerate(edges):
        last[a] = last[b] = i
    zero = 0 if signed else (0, 0)
    states = {(): {zero: 1}}
    frontier = []
    introduced = 0

    def bump(key):
        return key + 1 if signed else (key[0] + 1, key[1])

    def retire(v):
        nonlocal states
        i = frontier.index(v)
        frontier.pop(i)
        out = defaultdict(lambda: defaultdict(int))
        for blocks, weights in states.items():
            closes = blocks.count(blocks[i]) == 1
            rest = _canonical(blocks[:i] + blocks[i + 1 :])
            target = out[rest]
            for key, w in weights.items():
                target[bump(key) if closes else key] += w
        states = out

    def introduce(v):
        nonlocal states
        frontier.append(v)
        states = {blocks + (len(set(blocks)),): w for blocks, w in states.items()}
        if v not in last:
            retire(v)

    for i, (a, b) in enumerate(edges):
        while introduced <= max(pos[a], pos[b]):
            introduce(order[introduced])
            introduced += 1
        ia, ib = frontier.index(a), frontier.index(b)
        out = defaultdict(lambda: defaultdict(int))
        for blocks, weights in states.items():
            keep = out[blocks]
            for key, w in weights.items():
                keep[key] += w
            ba, bb = blocks[ia], blocks[ib]
            merged = _canonical(tuple(ba if x == bb else x for x in blocks))
            take = out[merged]
            for key, w in weights.items():
                if signed:
                    take[key] -= w
                else:
                    take[(key[0], key[1] + 1)] += w
        states = out
        for v in {a, b}:
            if last[v] == i:
                retire(v)
    while introduced < n:
        introduce(order[introduced])
        introduced += 1
    return dict(states[()])


def kappa_alpha(graph):
    """(kappa, alpha) = (T(1,0), T(2,0)) of a loop-free graph.

    With z_k the signed count of edge subsets with k components,
    T(x, 0) = (-1)^n * sum_k z_k (-1)^k (x-1)^(k-c), c = components of G.
    """
    n, edges = graph
    z = _frontier_sum(n, edges, signed=True)
    c = components(n, edges)
    kappa = (-1) ** (n + c) * z.get(c, 0)
    alpha = (-1) ** n * sum(w * (-1) ** k for k, w in z.items())
    return kappa, alpha


def tutte_coefficients(graph):
    """Tutte polynomial as {(i, j): c}, from the rank-nullity expansion.

    T = sum over A of (x-1)^(k(A)-c) (y-1)^(|A|-n+k(A)), k(A) = components.
    """
    n, edges = graph
    counts = _frontier_sum(n, edges, signed=False)
    c = components(n, edges)
    coeff = defaultdict(int)
    for (k, size), count in counts.items():
        i, j = k - c, size - n + k
        for a in range(i + 1):
            xa = count * comb(i, a) * (-1) ** (i - a)
            for b in range(j + 1):
                coeff[(a, b)] += xa * comb(j, b) * (-1) ** (j - b)
    return {key: v for key, v in coeff.items() if v}


def evaluate(coeffs, x, y):
    return sum(c * x**i * y**j for (i, j), c in coeffs.items())


def spanning_trees(graph):
    """Matrix-tree theorem: a cofactor of the Laplacian, by Bareiss."""
    n, edges = graph
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for a, b in edges:
        if a != b:
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


class MaskChecker:
    """Facts about many orientation bitmasks of one loop-free graph at once.

    Bit e of a mask directs edge e from its smaller endpoint label to the
    larger when clear, and the reverse when set, as in the program's wire
    format.  The masks are bit-sliced: for each edge one Python int holds
    that edge's bit of every mask (bit k for mask k), so one integer
    operation acts on all the masks together.  Plain ints keep the checks
    from loading anything into the worker beyond the standard library.
    """

    def __init__(self, graph, masks):
        n, edges = graph
        width = len(edges)
        self.n = n
        self.masks = masks
        self.count = len(masks)
        self.every = (1 << self.count) - 1
        self.incident = [0] * n
        # per vertex: (other endpoint, slice of the masks where the edge points in)
        self.into = [[] for _ in range(n)]
        text = "".join([format(b, f"0{width}b") for b in masks])
        for e, (a, b) in enumerate(edges):
            lo, hi = min(a, b), max(a, b)
            column = text[width - 1 - e :: width][::-1]
            towards_lo = int(column, 2) if column else 0
            self.into[lo].append((hi, towards_lo))
            self.into[hi].append((lo, self.every ^ towards_lo))
            self.incident[lo] |= 1 << e
            self.incident[hi] |= 1 << e

    def select(self, chosen):
        """The masks whose bit is set in the slice `chosen`, in order."""
        if not self.count:
            return []
        flags = format(chosen, f"0{self.count}b")[::-1].encode().translate(_FLAGS)
        return list(compress(self.masks, flags))

    def cyclic(self):
        """Slice of the masks with a directed cycle: peel every source until
        nothing more comes off; what is left lies on or behind a cycle."""
        alive = [self.every if self.into[v] else 0 for v in range(self.n)]
        while True:
            gone = []
            for v in range(self.n):
                blocked = 0
                for u, towards_v in self.into[v]:
                    blocked |= towards_v & alive[u]
                gone.append(alive[v] & ~blocked)
            removed = 0
            for v, g in enumerate(gone):
                alive[v] ^= g
                removed |= g
            if not removed:
                break
        left = 0
        for a in alive:
            left |= a
        return left

    def sources(self):
        """Per vertex with edges: slice of the masks where it is a source."""
        out = {}
        for v in range(self.n):
            if self.into[v]:
                incoming = 0
                for _, towards_v in self.into[v]:
                    incoming |= towards_v
                out[v] = self.every & ~incoming
        return out


_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _out_of_range(graph, masks):
    limit = 1 << len(graph[1])
    return [f"mask {b:#x} has bits beyond the {len(graph[1])} edges"
            for b in masks if not 0 <= b < limit][:1]


def _only_source(sources, vertex):
    """Slice of the masks whose one and only source is `vertex`."""
    others = 0
    for v, is_source in sources.items():
        if v != vertex:
            others |= is_source
    return sources[vertex] & ~others


def check_classes(graph, classes, kappa, alpha, vertex):
    """Problems with a click-class partition, as a list of strings.

    The classes must partition exactly alpha acyclic masks into kappa
    blocks, be closed under clicks, and each hold exactly one orientation
    whose only source is ``vertex``.
    """
    problems = []
    if len(classes) != kappa:
        problems.append(f"{len(classes)} classes, expected {kappa}")
    masks = [b for c in classes for b in c]
    if len(masks) != alpha:
        problems.append(f"{len(masks)} masks in classes, expected {alpha}")
    class_of = {b: i for i, c in enumerate(classes) for b in c}
    if len(class_of) != len(masks):
        problems.append("a mask lies in two classes")
    bad = _out_of_range(graph, masks)
    if bad:
        return problems + bad
    checker = MaskChecker(graph, masks)
    if checker.cyclic():
        problems.append("a class holds a cyclic mask")
    sources = checker.sources()
    for v, is_source in sources.items():
        flip = checker.incident[v]
        if any(class_of.get(b ^ flip) != class_of[b] for b in checker.select(is_source)):
            problems.append(f"classes not closed under clicks at vertex {v}")
            break
    hits = sorted(class_of[b] for b in checker.select(_only_source(sources, vertex)))
    if hits != list(range(len(classes))):
        problems.append(f"unique-source-{vertex} orientations do not meet every class once")
    return problems


def check_unique_source(graph, masks, kappa, vertex):
    """Problems with a claimed list of the unique-source orientations."""
    problems = []
    if len(masks) != kappa:
        problems.append(f"{len(masks)} unique-source orientations, expected {kappa}")
    if len(set(masks)) != len(masks):
        problems.append("repeated unique-source orientation")
    bad = _out_of_range(graph, masks)
    if bad:
        return problems + bad
    checker = MaskChecker(graph, masks)
    if checker.cyclic():
        problems.append("a unique-source orientation is cyclic")
    if _only_source(checker.sources(), vertex) != checker.every:
        problems.append(f"an orientation has a source other than {vertex}")
    return problems
