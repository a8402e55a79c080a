"""The split into blocks (`Multigraph.blocks` and the y=0 engine's
`_blocks`) and the frontier walk on long, wide and relabelled inputs.

`_blocks` is checked against the subset-expansion oracle, and
`Multigraph.blocks` against edge and vertex deletions counted by
`connected_components` and `UnionFind`; neither oracle shares code with
the depth-first pass.  The input that `_blocks` returns as its own block
is checked against the relabelled block it stands for.  The walk is
checked under many labellings, since the relabelling on retire only runs
when a block's first frontier slot leaves before its later ones.
"""

import importlib
import random
import time

import pytest

from kappatools.cli import main
from kappatools.corpus import complete_graph, cycle_graph, random_multigraph
from kappatools.errors import CapExceededError
from kappatools.graphs import Multigraph, UnionFind, bfs_order
from kappatools.kappa import FRONTIER_CAP, _blocks, _core, _retire, kappa
from kappatools.tutte import tutte_eval, tutte_oracle_rank_nullity, tutte_polynomial

# the package re-exports the function `kappa` under the module's name
KAPPA_MODULE = importlib.import_module("kappatools.kappa")
GRAPHS_MODULE = importlib.import_module("kappatools.graphs")
ORIENTATIONS_MODULE = importlib.import_module("kappatools.orientations")


def friendship(k):
    """F_k: k triangles (0, i, i + k) that share the hub 0."""
    return Multigraph(
        2 * k + 1, tuple(e for i in range(1, k + 1) for e in ((0, i), (0, i + k), (i, i + k)))
    )


def apex_friendship(k):
    """F_k plus one apex joined to its 2k non-hub vertices: 2-connected and
    sparse, but every breadth-first order meets a wide frontier."""
    f = friendship(k)
    apex = 2 * k + 1
    return Multigraph(apex + 1, f.edges + tuple((i, apex) for i in range(1, apex)))


def triangle_chain(k):
    """k triangles (2i, 2i + 1, 2i + 2), each sharing a vertex with the next."""
    return Multigraph(
        2 * k + 1,
        tuple(e for i in range(k) for e in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 2))),
    )


def grid(rows, cols):
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Multigraph(rows * cols, tuple(right + down))


def wheel(n):
    """W_n: hub 0 joined to every vertex of the rim cycle 1..n-1."""
    k = n - 1
    return Multigraph(
        n, tuple((0, i) for i in range(1, n)) + tuple((i, i % k + 1) for i in range(1, n))
    )


PETERSEN = Multigraph(
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((i, i + 5) for i in range(5))
    + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
)


def scrambled(g, rng):
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    edges = [(perm[b], perm[a]) if rng.random() < 0.5 else (perm[a], perm[b]) for a, b in g.edges]
    rng.shuffle(edges)
    return Multigraph(g.n_vertices, tuple(edges))


def two_connected(g):
    """Whether the edges of g span one 2-connected graph on 3 or more
    vertices, by deleting each vertex in turn."""
    s, _ = _core(g)
    touched = {v for e in s.edges for v in e}
    if len(touched) < 3:
        return False
    for cut in [None, *touched]:
        kept = [e for e in s.edges if cut not in e]
        seen, todo = set(), [next(v for v in touched if v != cut)]
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(w for a, b in kept if v in (a, b) for w in (a, b))
        if len(seen) != len(touched) - (cut is not None):
            return False
    return True


@pytest.fixture(scope="module")
def block_corpus(small_corpus):
    """The 772 small connected graphs and 300 seeded loop-free multigraphs
    (parallel edges, isolated vertices, several components), m <= 12."""
    rng = random.Random(61)
    multigraphs = [random_multigraph(rng, 9, 12, allow_loops=False) for _ in range(300)]
    assert any(g.m != g.simplify().m for g in multigraphs)
    assert any(0 in g.degrees for g in multigraphs)
    assert any(len([c for c in g.connected_components() if len(c) > 1]) > 1 for g in multigraphs)
    return small_corpus + multigraphs


def test_blocks_multiply_to_the_oracle(block_corpus):
    for g in block_corpus:
        bridges, blocks = _blocks(g)
        whole = tutte_oracle_rank_nullity(g)
        pieces = [tutte_oracle_rank_nullity(b) for b in blocks]
        for x in (1, 2, 3):
            product = x**bridges
            for piece in pieces:
                product *= piece.evaluate(x, 0)
            assert product == whole.evaluate(x, 0), (g, x)


def connects(vertices, edges):
    """Whether `edges` join all of `vertices` into one component."""
    uf = UnionFind(max(vertices) + 1)
    for a, b in edges:
        uf.union(a, b)
    return len({uf.find(v) for v in vertices}) == 1


def test_blocks_count_the_bridges_and_keep_every_edge(block_corpus):
    # the oracle shares no code with the depth-first pass: it deletes
    # edges and vertices and counts components
    for g in block_corpus:
        blocks = g.blocks
        block_of = {e: i for i, ids in enumerate(blocks) for e in ids}
        loop_free = [e for e, (a, b) in enumerate(g.edges) if a != b]
        assert sorted(block_of) == loop_free == sorted(e for ids in blocks for e in ids), g
        assert all(list(ids) == sorted(ids) for ids in blocks), g
        whole = len(g.connected_components())
        for e in loop_free:
            is_bridge = len(g.delete_edge(e).connected_components()) > whole
            assert is_bridge == (len(blocks[block_of[e]]) == 1), (g, e)
            copies = {block_of[f] for f in loop_free if g.edges[f] == g.edges[e]}
            assert copies == {block_of[e]}, (g, e)
        overlap = 0
        for ids in blocks:
            edges = [g.edges[e] for e in ids]
            vertices = {v for e in edges for v in e}
            overlap += len(vertices) - 1
            for cut in vertices if len(ids) > 1 else ():
                rest = vertices - {cut}
                assert connects(rest, [e for e in edges if cut not in e]), (g, ids, cut)
        # maximal: the blocks of a component meet at cut vertices in a
        # tree, so they overlap in one vertex per block after the first
        loop_free_g = Multigraph(g.n_vertices, tuple(g.edges[e] for e in loop_free))
        assert overlap == sum(len(c) - 1 for c in loop_free_g.connected_components()), g
        bridges, pieces = _blocks(g)
        assert bridges + sum(b.m for b in pieces) == g.simplify().m, g
        assert all(b.m >= 2 for b in pieces), g


def test_a_two_connected_graph_is_its_one_block(block_corpus):
    # the block comes out as the bridge-and-component split gives it, so
    # the frontier walk and the subset DP see the same labels as before
    checked = 0
    for g in block_corpus:
        if two_connected(g):
            piece = _core(g)[1].split_components()[0]
            assert _blocks(g) == (0, [piece]), g
            checked += 1
        else:
            bridges, blocks = _blocks(g)
            assert bridges > 0 or len(blocks) != 1, g
    assert checked > 100


def relabelled_blocks(g):
    """`_blocks` with every block rebuilt: its parallel copies collapsed
    and its vertices relabelled in ascending order, even when the block
    is all of g."""
    bridges = 0
    blocks = []
    for ids in g.blocks:
        edges = list(dict.fromkeys(g.edges[e] for e in ids))
        if len(edges) == 1:
            bridges += 1
            continue
        vertices = sorted({x for e in edges for x in e})
        label = {x: i for i, x in enumerate(vertices)}
        blocks.append(Multigraph(len(vertices), tuple((label[a], label[b]) for a, b in edges)))
    return bridges, blocks


IN_PLACE = [
    ("grid5x5", grid(5, 5)),
    ("W14", wheel(14)),
    ("petersen", PETERSEN),
    ("K9", complete_graph(9)),
    ("C50", cycle_graph(50)),
]


@pytest.mark.parametrize("name, g", IN_PLACE, ids=[name for name, _ in IN_PLACE])
def test_a_two_connected_simple_graph_is_taken_in_place(name, g):
    rng = random.Random(f"in-place:{name}")
    for h in (g, scrambled(g, rng), scrambled(g, rng)):
        bridges, blocks = _blocks(h)
        assert bridges == 0 and len(blocks) == 1 and blocks[0] is h, h


@pytest.mark.parametrize("name, g", IN_PLACE[:3], ids=[name for name, _ in IN_PLACE[:3]])
def test_a_graph_in_place_is_ordered_once(monkeypatch, name, g):
    """`kappa`, `tutte_eval` at y = 0 and `tutte_polynomial` all walk an
    input taken in place in the one `Multigraph.walk_order` it keeps, so
    `bfs_order` runs once per graph."""
    calls = []

    def counted(h):
        calls.append(h)
        return bfs_order(h)

    # every module that could order a graph itself reads the counted one
    for module in (GRAPHS_MODULE, KAPPA_MODULE, ORIENTATIONS_MODULE):
        monkeypatch.setattr(module, "bfs_order", counted, raising=False)
    rng = random.Random(f"ordered-once:{name}")
    for h in (scrambled(g, rng), scrambled(g, rng)):
        calls.clear()
        kappa(h)
        tutte_eval(h, 2, 0)
        tutte_polynomial(h, cap=h.m)
        assert len(calls) == 1 and calls[0] is h, h


def test_in_place_blocks_equal_the_relabelled_ones(block_corpus):
    rng = random.Random(29)
    seeded = [random_multigraph(rng, 10, 20, allow_loops=False) for _ in range(1000)]
    seeded += [scrambled(g, rng) for _, g in IN_PLACE for _ in range(20)]
    in_place = 0
    for g in block_corpus + seeded:
        result = _blocks(g)
        assert result == relabelled_blocks(g), g
        in_place += any(b is g for b in result[1])
    assert in_place > 300


TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))


@pytest.mark.parametrize(
    "g, bridges, blocks",
    [
        (Multigraph(3, ((0, 1), (1, 2), (0, 2), (1, 2))), 0, [TRIANGLE]),
        (Multigraph(4, ((0, 1), (1, 2), (0, 2))), 0, [TRIANGLE]),
        (Multigraph(4, ((0, 1), (1, 2), (0, 2), (2, 3))), 1, [TRIANGLE]),
        (Multigraph(2, ((0, 1),)), 1, []),
        (Multigraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))), 0, [TRIANGLE, TRIANGLE]),
    ],
    ids=["parallel-edge", "isolated-vertex", "pendant-edge", "single-edge", "two-triangles"],
)
def test_other_graphs_are_rebuilt_block_by_block(g, bridges, blocks):
    assert _blocks(g) == (bridges, blocks) == relabelled_blocks(g)
    assert all(b is not g for b in _blocks(g)[1])


def test_a_dense_block_in_place_counts_the_same_subsets(monkeypatch):
    rng = random.Random("dense")
    k9 = complete_graph(9)
    # 36 of the 45 pairs
    dense = Multigraph(10, tuple((a, b) for a in range(10) for b in range(a + 1, 10) if (a + 2 * b) % 5))
    graphs = [k9, scrambled(k9, rng), dense, scrambled(dense, rng)]
    results = []
    for g in graphs:
        assert _blocks(g)[1][0] is g, g
        results.append(kappa(g))
    monkeypatch.setattr(KAPPA_MODULE, "_blocks", relabelled_blocks)
    for g, result in zip(graphs, results):
        copy = relabelled_blocks(g)[1][0]
        assert copy is not g
        expected = kappa(copy)
        assert result.cache_stats.misses > 0, g
        assert (result.value, result.cache_stats) == (expected.value, expected.cache_stats), g


@pytest.mark.parametrize(
    "g, value",
    [
        (Multigraph(100_001, tuple((i, i + 1) for i in range(100_000))), 1),
        (cycle_graph(100_001), 100_000),
        (triangle_chain(10_000), 2**10_000),
        (friendship(300), 2**300),
        (Multigraph(3, ((0, 1), (1, 2), (0, 2)) * 30_000), 2),
        (Multigraph(2, ((0, 1),) * 100_000), 1),
    ],
    ids=["path-100001", "cycle-100001", "triangle-chain-10000", "friendship-300", "triangle-x30000", "parallel-100000"],
)
def test_long_and_wide_inputs_stay_linear(g, value):
    # a block search that looks up the tree edge on its edge stack is
    # quadratic on the path; a split at bridges only leaves F_300 one
    # piece with a 301-vertex frontier; and the parallel copies enter the
    # block search, one back edge each; the cycle is one block, taken in
    # place with no rebuilt graph
    start = time.perf_counter()
    assert kappa(g).value == value
    assert time.perf_counter() - start < 2


def canonical_partitions(length):
    """Every partition of `length` slots as labels in order of first use."""
    keys = [b""]
    for _ in range(length):
        keys = [k + bytes([x]) for k in keys for x in range(max(k, default=-1) + 2)]
    return keys


def test_retire_keeps_partitions_canonical():
    # a key that is not canonical still sums to the right value, so only
    # the keys themselves show a relabelling that is skipped
    for length in range(1, 7):
        states = {k: w for w, k in enumerate(canonical_partitions(length), 1)}
        for j in range(length):
            expected = {}
            for k, w in states.items():
                rest = k[:j] + k[j + 1 :]
                first = {}
                key = bytes(first.setdefault(x, len(first)) for x in rest)
                if k[j] not in rest and rest:
                    w *= 3
                expected[key] = expected.get(key, 0) + w
            assert _retire(states, j, 3) == expected, (length, j)


@pytest.mark.parametrize("name, g", [("grid4x4", grid(4, 4)), ("W12", wheel(12)), ("petersen", PETERSEN)])
def test_relabelled_walks_agree(name, g):
    expected = (kappa(g).value, tutte_eval(g, 2, 0), tutte_polynomial(g))
    rng = random.Random(f"relabel:{name}")
    for _ in range(20):
        h = scrambled(g, rng)
        assert (kappa(h).value, tutte_eval(h, 2, 0), tutte_polynomial(h)) == expected, h


def test_a_wide_frontier_is_refused_before_the_walk(monkeypatch, tmp_path, capsys):
    def no_state(*args):
        raise AssertionError("the walk made a state")

    monkeypatch.setattr(KAPPA_MODULE, "_retire", no_state)
    g = apex_friendship(300)
    assert _blocks(g) == (0, [g])
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as caught:
        kappa(g)
    assert time.perf_counter() - start < 1
    assert (caught.value.size, caught.value.cap) == (302, FRONTIER_CAP)
    path = tmp_path / "apex.txt"
    path.write_text(g.to_edge_list_text())
    assert main(["kappa", str(path)]) == 3
    assert "frontier has 302 vertices" in capsys.readouterr().err
