"""Collapse graphs: how click-classes merge when a cycle-edge is deleted.

Every acyclic orientation of the contracted graph lifts back in two ways,
one per direction of the contracted edge.  Lifting class representatives
both ways draws an edge between two click-classes of the original graph;
the resulting "collapse graph" on the classes is a disjoint union of
paths whose component count equals the class count after deletion and
whose edge count equals the class count after contraction, which verifies
the deletion/contraction recursion node by node.

The lift adds up per-bit masks, so it is read through 11-bit chunk
tables, one lookup per chunk (`_chunk_tables`).  The build looks each
lift up among the acyclic masks of the graph, which is the lift's one
acyclicity test.  The structure check enumerates nothing: it names the
classes after deletion by clicking each representative to its
unique-source member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError, InternalInvariantError
from .graphs import EdgeKind, UnionFind, contraction_map
from .kappa import kappa
from .orientations import (
    Orientation,
    _is_acyclic_bits,
    _normalize_bits,
    kappa_partition_bruteforce,
)


def _chunk_tables(weights):
    """(low, table) per 11-bit chunk of a mask over len(weights) bits:
    table[c] is the sum of the weights of the bits set in the chunk value
    c, so a map that adds up per-bit weights reads a mask as
    Σ table[bits >> low & 0x7FF], one lookup per chunk."""
    tables = []
    for low in range(0, len(weights), 11):
        table = [0]
        for weight in weights[low:low + 11]:
            table += [key + weight for key in table]
        tables.append((low, table))
    return tables


def _translate(tables, bits):
    """The union of the per-bit masks at the set bits of `bits`, from
    the `_chunk_tables` of masks that are pairwise disjoint, so that each
    chunk's sum is its union."""
    out = 0
    for low, table in tables:
        out |= table[bits >> low & 0x7FF]
    return out


class _Lifter:
    """Shared tables for lifting edge masks of simplify(contract(g, e)).

    Edge sid of the contraction lifts to the mask of the edges of g that
    map onto it; an inherited edge whose endpoints swap order is flipped,
    and direction 2 sets bit e.  `lift` checks neither the direction nor
    acyclicity.
    """

    def __init__(self, g, e):
        g._check_edge_id(e)
        if g.classify_edges()[e] is not EdgeKind.CYCLE_EDGE:
            raise GraphInputError(f"edge {e} is not a cycle-edge")
        self.e = e
        u, v = g.edges[e]
        vmap = contraction_map(g.n_vertices, u, v)
        self.contracted = g.contract_edge(e).simplify()
        index = {pair: i for i, pair in enumerate(self.contracted.edges)}
        sources = [0] * self.contracted.m
        self.flipped = 0
        for f, (a, b) in enumerate(g.edges):
            if f == e:
                continue
            p, q = vmap[a], vmap[b]
            if p == q:
                raise GraphInputError(f"edge {f} is parallel to edge {e}; lift a simple graph")
            sources[index[(min(p, q), max(p, q))]] |= 1 << f
            self.flipped |= (p > q) << f
        self.tables = _chunk_tables(sources)

    def lift(self, bits, direction):
        """The mask of g lifted from a mask of the contraction: the edges
        that map onto its set bits, each flipped edge toggled, and bit e
        for direction 2.  Bit e is in no source mask and no flip."""
        return (self.flipped ^ _translate(self.tables, bits)) | (direction - 1) << self.e


def lift_orientation(o_contracted, direction, g, e):
    """Lift an acyclic orientation of simplify(contract(g, e)) back to g.

    Inherited edges keep their direction through `contraction_map`;
    the cycle-edge e itself points small-to-large for direction 1 and
    large-to-small for direction 2.
    """
    lifter = _Lifter(g, e)
    if o_contracted.graph != lifter.contracted:
        raise GraphInputError("orientation does not belong to the simplified contraction")
    if not _is_acyclic_bits(lifter.contracted, o_contracted.bits):
        raise GraphInputError("orientation is not acyclic")
    if direction not in (1, 2):
        raise GraphInputError(f"direction must be 1 or 2, got {direction}")
    lifted = lifter.lift(o_contracted.bits, direction)
    if not _is_acyclic_bits(g, lifted):
        raise InternalInvariantError("lift produced a cyclic orientation")
    return Orientation(g, lifted)


@dataclass(frozen=True)
class CollapseEdge:
    forward_class: int  # class of the direction-1 lift
    backward_class: int  # class of the direction-2 lift
    label: Orientation  # representative of the contracted class inducing it


@dataclass(frozen=True)
class CollapseGraph:
    graph: object
    cycle_edge: int
    partition: object  # KappaPartition of graph
    edges: tuple  # CollapseEdge per click-class of the contraction

    @property
    def nodes(self):
        return self.partition.representatives

    def degrees(self):
        deg = [0] * self.partition.class_count
        for ce in self.edges:
            deg[ce.forward_class] += 1
            deg[ce.backward_class] += 1
        return deg

    def component_blocks(self):
        uf = UnionFind(self.partition.class_count)
        for ce in self.edges:
            uf.union(ce.forward_class, ce.backward_class)
        return uf.groups()

    def to_dot(self):
        u, v = self.graph.edges[self.cycle_edge]
        lines = [
            "graph collapse {",
            f'  label="cycle-edge {self.cycle_edge} = {{{u},{v}}}";',
        ]
        for i, rep in enumerate(self.nodes):
            lines.append(f'  c{i} [label="{rep.hex}"];')
        for ce in self.edges:
            lines.append(
                f'  c{ce.forward_class} -- c{ce.backward_class} '
                f'[label="{ce.label.hex}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_collapse_graph(g, e, cap=None):
    """Collapse graph of connected simple g at cycle-edge e, by brute force.

    Nodes are the click-classes of g; each click-class of the simplified
    contraction contributes one edge joining the classes of its two lifts.
    Both partitions are computed here, under the same brute-force cap.
    Well-definedness is asserted by lifting every member, not just the
    representative.  The partition of g holds exactly its acyclic masks,
    so a lift it lacks is a cyclic lift, an internal invariant failing.
    """
    if g.has_loops:
        raise GraphInputError("graph has loops")
    if g.simplify().m != g.m:
        raise GraphInputError("graph must be simple")
    if not g.is_connected:
        raise GraphInputError("graph must be connected")
    partition = kappa_partition_bruteforce(g, cap)
    lifter = _Lifter(g, e)
    contracted_partition = kappa_partition_bruteforce(lifter.contracted, cap)
    index = partition._index
    edges = []
    for cls, rep in zip(contracted_partition.classes, contracted_partition.representatives):
        try:
            ends = {(index[lifter.lift(bits, 1)], index[lifter.lift(bits, 2)]) for bits in cls}
        except KeyError:
            raise InternalInvariantError("lift produced a cyclic orientation") from None
        if len(ends) != 1:
            raise InternalInvariantError(
                "lifting is not constant on a click-class of the contraction"
            )
        i, j = ends.pop()
        edges.append(CollapseEdge(i, j, rep))
    return CollapseGraph(g, e, partition, tuple(edges))


@dataclass
class CollapseReport:
    ok: bool
    checks: dict
    counts: dict
    violations: tuple

    def to_json(self):
        return {
            "ok": self.ok,
            "checks": dict(self.checks),
            "counts": dict(self.counts),
            "violations": list(self.violations),
        }


def verify_collapse_structure(cg):
    """Check every structural claim about a built collapse graph.

    Returns a report; a failed check lands in `violations` rather than
    raising, so callers can surface exactly which claim broke.  No mask
    set is enumerated: the counts after deletion and contraction come from
    `kappa`, and the classes after deletion are named by clicking, so the
    check runs on any graph the collapse graph was built for.
    """
    checks = {}
    n_nodes = cg.partition.class_count
    deg = cg.degrees()
    checks["degree_at_most_two"] = all(d <= 2 for d in deg)

    # A multigraph is a forest exactly when nodes = components + edges (a
    # repeated edge or a self-loop breaks the identity), so one count answers
    # "acyclic", "components_are_paths" (trees; degree is checked above) and
    # "nodes_are_components_plus_edges".
    blocks = cg.component_blocks()
    forest = n_nodes == len(blocks) + len(cg.edges)
    checks["acyclic"] = forest
    links = {tuple(sorted((ce.forward_class, ce.backward_class))) for ce in cg.edges}
    checks["simple_no_self_loops"] = len(links) == len(cg.edges) and all(
        i != j for i, j in links
    )
    checks["components_are_paths"] = forest

    deleted = cg.graph.delete_edge(cg.cycle_edge)
    kappa_deleted = kappa(deleted).value
    checks["component_count_matches_deletion"] = len(blocks) == kappa_deleted

    contracted = cg.graph.contract_edge(cg.cycle_edge).simplify()
    kappa_contracted = kappa(contracted).value
    checks["edge_count_matches_contraction"] = len(cg.edges) == kappa_contracted

    checks["nodes_are_components_plus_edges"] = forest

    # Deleting e must merge exactly the classes lying on one component:
    # one class per component, a different one for each.  A representative
    # reads on the deleted graph with bit e dropped.  G - e is connected, so
    # its class is named by its one member whose only source is vertex 0,
    # reached by clicks: nothing shared with the ν key that built the classes.
    below = (1 << cg.cycle_edge) - 1
    block_of = {node: bi for bi, block in enumerate(blocks) for node in block}

    def named(rep):
        return _normalize_bits(deleted, rep & below | (rep >> 1) & ~below, 0)[0]

    pairs = {(block_of[node], named(cls[0])) for node, cls in enumerate(cg.partition.classes)}
    after = {cls for _, cls in pairs}
    checks["deletion_merges_whole_components"] = len(pairs) == len(blocks) == len(after)

    violations = tuple(name for name, ok in checks.items() if not ok)
    counts = {
        "nodes": n_nodes,
        "edges": len(cg.edges),
        "components": len(blocks),
        "kappa_after_deletion": kappa_deleted,
        "kappa_after_contraction": kappa_contracted,
    }
    return CollapseReport(not violations, checks, counts, violations)
