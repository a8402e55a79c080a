"""Counting source-to-sink equivalence classes of acyclic orientations.

Three routes to the same number: brute-force click-class enumeration
(`orientations`), the y=0 engine (`kappa`: a frontier sum on sparse
pieces, a subset DP over independent sets on dense ones), and Tutte
polynomial evaluation at (1, 0) (`tutte`, built by the same frontier
walk).  The
`collapse` module materializes how classes merge when a cycle-edge is
deleted, and `cli` wires everything into a batch tool.  `kappatools.kappa`
is the function; `importlib.import_module("kappatools.kappa")` the module.
"""

from .errors import (
    CapExceededError,
    EdgeListParseError,
    GraphInputError,
    InternalInvariantError,
)
from .graphs import EdgeKind, Multigraph, memo_key, parse_edge_list
from .orientations import (
    KappaPartition,
    Orientation,
    PathSpec,
    apply_click_sequence,
    click,
    cut_equivalence_classes,
    cut_equivalent,
    enumerate_acyclic,
    is_acyclic,
    kappa_partition_bruteforce,
    normalize_to_unique_source,
    nu_path,
    orientation_from_permutation,
    topological_order,
    unique_source_orientations,
)
from .kappa import KappaResult, TraceNode, kappa, kappa_with_trace
from .tutte import (
    TuttePolynomial,
    tutte_eval,
    tutte_oracle_rank_nullity,
    tutte_polynomial,
)
from .collapse import (
    CollapseGraph,
    CollapseReport,
    build_collapse_graph,
    lift_orientation,
    verify_collapse_structure,
)

__all__ = [
    "CapExceededError",
    "CollapseGraph",
    "CollapseReport",
    "EdgeKind",
    "EdgeListParseError",
    "GraphInputError",
    "InternalInvariantError",
    "KappaPartition",
    "KappaResult",
    "Multigraph",
    "Orientation",
    "PathSpec",
    "TraceNode",
    "TuttePolynomial",
    "apply_click_sequence",
    "build_collapse_graph",
    "click",
    "cut_equivalence_classes",
    "cut_equivalent",
    "enumerate_acyclic",
    "is_acyclic",
    "kappa",
    "kappa_partition_bruteforce",
    "kappa_with_trace",
    "lift_orientation",
    "memo_key",
    "normalize_to_unique_source",
    "nu_path",
    "orientation_from_permutation",
    "parse_edge_list",
    "topological_order",
    "tutte_eval",
    "tutte_oracle_rank_nullity",
    "tutte_polynomial",
    "unique_source_orientations",
    "verify_collapse_structure",
]
