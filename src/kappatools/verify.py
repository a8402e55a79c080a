"""Cross-engine differential checks behind `kappatools verify`.

`verify_graph` runs four legs on one graph and reports each with its
values and an `ok` flag:

- `kappa_triple`: the class count by brute force, by the paper's
  deletion/contraction recursion (`kappa.kappa_with_trace`, memoised), by
  the y = 0 engine (`kappa.kappa`, reported as `"engine"`) and as T(1, 0)
  of the full Tutte polynomial of simplify(g);
- `alpha`: the acyclic mask count by brute force and as T(2, 0);
- `cut_equivalence`: the partition's classes against the closure of the
  click graph over the same masks;
- `transversal`: at every vertex of a connected graph, the unique-source
  masks meet each class once, and normalizing each class's least member
  lands on its unique-source mask (skipped on a disconnected graph).

Brute force, the click-graph closure and the transversal are independent
algorithms.  The recursion shares the engine's split into blocks
(`kappa._blocks`) but none of its counting.  The engine and the Tutte
polynomial share code: on sparse pieces both run `kappa.frontier_sum`, so
`"engine"` and `"tutte_1_0"` can agree on a wrong value.  Brute force
shares no code with the recursion or the engine, so it stays the leg of
`kappa_triple` that is independent of the others.

Brute force and the Tutte polynomial both read simplify(g), under the
one edge cap `verify_graph` takes: parallel edges change no value on the
line y = 0, so a multigraph whose simple graph fits the cap is checked
whole.

The partition checks its graph once, so the mask cores of `orientations`
run here unchecked, on masks the library made.
"""

from __future__ import annotations

from itertools import chain

from .kappa import kappa, kappa_with_trace
from .orientations import (
    _click_class_masks,
    _normalize_bits,
    _unique_source_masks,
    kappa_partition_bruteforce,
)
from .tutte import tutte_polynomial


def _transversal_ok(part):
    """At every vertex v of the connected graph: the unique-source masks
    meet each class exactly once, and normalizing each class's least
    member to source v lands on that class's unique-source mask.  The
    partition checked the graph, so the mask cores run unchecked."""
    g = part.graph
    for v in range(g.n_vertices):
        found = _unique_source_masks(g, v)
        hit = [part.class_of_bits(bits) for bits in found]
        if sorted(hit) != list(range(part.class_count)):
            return False
        for i, bits in zip(hit, found):
            if _normalize_bits(g, part.classes[i][0], v)[0] != bits:
                return False
    return True


def verify_graph(g, cap):
    """Cross-engine differential checks for one graph: the `checks` dict
    of the `verify` report, and whether every leg is ok.  Brute force
    comes first, so past `cap` edges of simplify(g) it raises
    CapExceededError before any other leg runs."""
    part = kappa_partition_bruteforce(g, cap)
    k_brute = part.class_count
    k_recursion = kappa_with_trace(g).value
    k_engine = kappa(g).value
    poly = tutte_polynomial(part.graph, cap)
    k_tutte = poly.evaluate(1, 0)
    alpha_brute = sum(len(cls) for cls in part.classes)
    alpha_tutte = poly.evaluate(2, 0)
    # The partition groups the masks by ν on cycles, which gives the cut
    # classes; the closure of the click graph is the independent algorithm
    # it must match.  It closes the partition's own masks, so no second
    # walk runs; alpha above checks that mask set against T(2, 0).
    masks = sorted(chain.from_iterable(part.classes))
    cut_ok = part.classes == _click_class_masks(part.graph, masks)
    connected = g.is_connected

    checks = {
        "kappa_triple": {
            "bruteforce": k_brute,
            "recursion": k_recursion,
            "engine": k_engine,
            "tutte_1_0": k_tutte,
            "ok": k_brute == k_recursion == k_engine == k_tutte,
        },
        "alpha": {
            "bruteforce": alpha_brute,
            "tutte_2_0": alpha_tutte,
            "ok": alpha_brute == alpha_tutte,
        },
        "cut_equivalence": {"ok": cut_ok},
        "transversal": {
            "ok": not connected or _transversal_ok(part),
            "skipped": not connected,
        },
    }
    ok = all(c["ok"] for c in checks.values())
    return checks, ok
