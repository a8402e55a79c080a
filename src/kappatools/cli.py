"""Batch command-line surface over the engines.

Reads graphs in the shared edge-list format (`n m` header, then one `u v`
line per edge; duplicates are parallel edges, `u u` is a loop), runs one
computation per invocation, and emits text or versioned JSON.  Exit codes:
0 success, 1 the reader closed the output pipe early, 2 malformed input,
3 size cap exceeded or recursion too deep, 4 internal invariant or
cross-engine verification failure.  Only the brute-force commands take
`--cap` (or read KAPPA_BRUTE_CAP), and only `verify` takes `--seed`.
`alpha`, `transversal` and the open-path `nu` enumerate the input as
given, so the cap reads its edge count; `classes`, `verify` and the
closed-path `nu` partition simplify(G), so the cap reads that graph's.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from itertools import islice

from .collapse import build_collapse_graph, verify_collapse_structure
from .corpus import GNP_DESCRIPTION, connected_simple_graphs, random_gnp_graph
from .errors import CapExceededError, GraphInputError, InternalInvariantError
from .graphs import parse_edge_list
from .kappa import kappa, kappa_with_trace
from .orientations import (
    DEFAULT_BRUTE_FORCE_CAP,
    PathSpec,
    acyclic_masks,
    kappa_partition_bruteforce,
    nu_values,
    unique_source_orientations,
)
from .tutte import tutte_eval, tutte_polynomial
from .verify import verify_graph

SCHEMA_VERSION = 1
CAP_ENV_VAR = "KAPPA_BRUTE_CAP"


def _read_input(args):
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        digest = hashlib.sha256(text.encode()).hexdigest()
    except (OSError, UnicodeError) as exc:
        raise GraphInputError(f"cannot read {args.input}: {exc}") from None
    return parse_edge_list(text), {"path": args.input, "sha256": digest}


def _emit(args, descriptor, body, text_lines):
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "command": args.command, "input": descriptor}
        payload.update(body)
        # The indented encoder yields small chunks: joined all at once they
        # double a large report's peak memory, written one at a time they
        # double its time, so they go out a few thousand at a time.
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
        for batch in iter(lambda: "".join(islice(chunks, 8192)), ""):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)
    sys.stdout.flush()


def _cmd_kappa(args):
    g, descriptor = _read_input(args)
    result = kappa_with_trace(g) if args.trace else kappa(g)
    body = {
        "value": result.value,
        "cache": {"hits": result.cache_stats.hits, "misses": result.cache_stats.misses},
    }
    lines = [str(result.value)]
    if args.trace:
        body["trace"] = [node.to_json() for node in result.trace]
        lines.extend(json.dumps(node, sort_keys=True) for node in body["trace"])
    _emit(args, descriptor, body, lines)
    return 0


def _cmd_alpha(args):
    g, descriptor = _read_input(args)
    brute = len(acyclic_masks(g, args.cap))
    via_tutte = tutte_eval(g, 2, 0)
    ok = brute == via_tutte
    body = {"bruteforce": brute, "tutte": via_tutte, "ok": ok}
    lines = [f"bruteforce {brute}", f"tutte {via_tutte}"]
    if not ok:
        lines.append("MISMATCH")
    _emit(args, descriptor, body, lines)
    return 0 if ok else 4


def _cmd_tutte(args):
    g, descriptor = _read_input(args)
    poly = tutte_polynomial(g)
    body = {"coefficients": poly.to_json_triples(), "text": poly.to_text()}
    _emit(args, descriptor, body, [poly.to_text()])
    return 0


def _cmd_eval(args):
    g, descriptor = _read_input(args)
    x, y = args.point
    value = tutte_eval(g, x, y)
    body = {"point": [x, y], "value": value}
    _emit(args, descriptor, body, [str(value)])
    return 0


def _cmd_classes(args):
    g, descriptor = _read_input(args)
    part = kappa_partition_bruteforce(g, args.cap)
    classes = [
        {
            "representative": f"{cls[0]:x}",
            "size": len(cls),
            "members": [f"{bits:x}" for bits in cls],
        }
        for cls in part.classes
    ]
    body = {"class_count": part.class_count, "classes": classes}
    lines = [f"classes {part.class_count}"]
    lines.extend(
        f"class {i}: size {c['size']} representative {c['representative']}"
        for i, c in enumerate(classes)
    )
    _emit(args, descriptor, body, lines)
    return 0


def _cmd_transversal(args):
    g, descriptor = _read_input(args)
    found = unique_source_orientations(g, args.vertex, args.cap)
    body = {
        "vertex": args.vertex,
        "count": len(found),
        "orientations": [o.hex for o in found],
    }
    lines = [f"count {len(found)}"]
    lines.extend(o.hex for o in found)
    _emit(args, descriptor, body, lines)
    return 0


def _cmd_collapse(args):
    g, descriptor = _read_input(args)
    cg = build_collapse_graph(g, args.edge, args.cap)
    report = verify_collapse_structure(cg)
    dot = cg.to_dot()
    body = {"report": report.to_json(), "dot": dot}
    lines = [f"{name} {'ok' if ok else 'VIOLATED'}" for name, ok in report.checks.items()]
    lines.extend(f"{k} {v}" for k, v in sorted(report.counts.items()))
    lines.append(dot.rstrip("\n"))
    _emit(args, descriptor, body, lines)
    return 0 if report.ok else 4


def _cmd_nu(args):
    try:
        raw = json.loads(args.path)
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"malformed --path JSON: {exc}") from None
    spec = PathSpec.from_json(raw)
    g, descriptor = _read_input(args)
    pairs = nu_values(g, spec, args.cap)
    if spec.closed:
        values = [
            {"class": i, "representative": f"{rep:x}", "nu": nu}
            for i, (rep, nu) in enumerate(pairs)
        ]
        lines = [
            f"class {v['class']} representative {v['representative']}: {v['nu']}"
            for v in values
        ]
        body = {"path": spec.to_json(), "per_class": values}
    else:
        values = [{"orientation": f"{bits:x}", "nu": nu} for bits, nu in pairs]
        lines = [f"{v['orientation']}: {v['nu']}" for v in values]
        body = {"path": spec.to_json(), "per_orientation": values}
    _emit(args, descriptor, body, lines)
    return 0


def _cmd_verify(args):
    if args.random_corpus is not None and args.random_corpus < 1:
        raise GraphInputError("--random-corpus needs at least 1 graph")
    entries = []
    descriptor = {}
    if args.corpus == "small":
        for i, g in enumerate(connected_simple_graphs(5)):
            entries.append((f"small/{i}", g, None))
        descriptor["corpus"] = "small"
        descriptor["corpus_size"] = len(entries)
    elif args.random_corpus is None:
        g, descriptor = _read_input(args)
        entries.append(("input/0", g, None))
    if args.random_corpus is not None:
        rng = random.Random(args.seed)
        for i in range(args.random_corpus):
            g, params = random_gnp_graph(rng, max_edges=args.cap)
            entries.append((f"gnp/{i}", g, params))
        descriptor["random_corpus"] = {
            "count": args.random_corpus,
            "generator": f"{GNP_DESCRIPTION}, conditioned on m <= {args.cap}",
        }

    graphs_out = []
    failures = 0
    lines = []
    for label, g, params in entries:
        checks, ok = verify_graph(g, args.cap)
        if not ok:
            failures += 1
        entry = {
            "label": label,
            "n_vertices": g.n_vertices,
            "edges": [list(e) for e in g.edges],
            "sha256": g.sha256(),
            "checks": checks,
            "ok": ok,
        }
        if params is not None:
            entry["params"] = params
        graphs_out.append(entry)
        lines.append(f"{label} {'ok' if ok else 'FAIL'}")
    body = {
        "seed": args.seed,
        "cap": args.cap,
        "graphs": graphs_out,
        "summary": {"graphs": len(entries), "failures": failures},
        "ok": failures == 0,
    }
    lines.append(f"graphs {len(entries)} failures {failures}")
    _emit(args, descriptor, body, lines)
    return 0 if failures == 0 else 4


def _default_cap():
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_BRUTE_FORCE_CAP
    try:
        return int(raw)
    except ValueError:
        raise GraphInputError(
            f"{CAP_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared afterwards.

    Parsing leaves it unchanged: every call gets a fresh namespace, the
    `--cap` default is read from the environment in `main`, and the
    handlers look up the engines as module globals when they run.
    """
    parser = argparse.ArgumentParser(
        prog="kappatools",
        description="Count and dissect source-to-sink classes of acyclic orientations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, brute_force=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("input", nargs="?", default="-", help="edge-list file or '-'")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if brute_force:
            p.add_argument(
                "--cap",
                type=int,
                default=None,
                help=f"brute-force edge cap (default: ${CAP_ENV_VAR}, else "
                f"{DEFAULT_BRUTE_FORCE_CAP})",
            )
        return p

    p = add("kappa", _cmd_kappa, "class count by the y=0 engine, without enumeration")
    p.add_argument(
        "--trace", action="store_true",
        help="count by the memoised deletion/contraction recursion and list its "
        "distinct nodes, children by key",
    )
    add(
        "alpha", _cmd_alpha,
        "acyclic orientation count, brute force and Tutte at (2,0)", brute_force=True,
    )
    add("tutte", _cmd_tutte, "full Tutte polynomial")
    p = add("eval", _cmd_eval, "Tutte polynomial value at an integer point")
    p.add_argument("--point", type=int, nargs=2, metavar=("X", "Y"), required=True)
    add("classes", _cmd_classes, "brute-force click-class partition", brute_force=True)
    p = add(
        "transversal", _cmd_transversal,
        "orientations whose unique source is a fixed vertex", brute_force=True,
    )
    p.add_argument("--vertex", type=int, required=True)
    p = add(
        "collapse", _cmd_collapse,
        "collapse graph at a cycle-edge: DOT plus structure report", brute_force=True,
    )
    p.add_argument("--edge", type=int, required=True)
    p = add(
        "nu", _cmd_nu,
        "signed edge count along a path, per class or per orientation", brute_force=True,
    )
    p.add_argument(
        "--path", required=True,
        help='JSON {"vertices": [...], "closed": bool, "edges": [...]}; the optional '
        "edge ids count the input's edge lines, one per step",
    )
    p = add("verify", _cmd_verify, "cross-engine differential suite", brute_force=True)
    p.add_argument("--seed", type=int, default=0, help="seed of --random-corpus")
    p.add_argument("--corpus", choices=("small",), default=None)
    p.add_argument("--random-corpus", type=int, default=None, metavar="N")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if "cap" in args:
            if args.cap is None:
                args.cap = _default_cap()
            if args.cap < 1:
                raise GraphInputError("brute-force cap must be at least 1")
        return args.handler(args)
    except BrokenPipeError:
        # The reader left: send the flush at exit to devnull, not the pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: recursion too deep for this graph", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
