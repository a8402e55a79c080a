"""One workload in one fresh, single-threaded interpreter.

Started by run.py.  It imports kappatools from the checkout's ``src``,
builds the case list, prints ``ready``, then makes whole passes over the
list until ``--seconds`` have gone by, checking every output outside the
timed region.  Its last line of output is a JSON summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--references", required=True, help="JSON file of reference values")
    parser.add_argument(
        "--make-references", action="store_true", help="compute them into that file and exit"
    )
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kappatools  # noqa: F401  (setup covers the import)
    import kappatools.cli  # noqa: F401

    import calibration
    import workloads

    wl = workloads.workload(args.workload, ROOT)
    cases = wl.cases(args.seed)
    for case in cases:
        wl.prepare(case, 0)
    if args.make_references:
        refs = workloads.References()
        for case in cases:
            wl.references(case, refs)
        with open(args.references, "w", encoding="utf-8") as fh:
            json.dump(refs.values, fh)
        return 0
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    with open(args.references, encoding="utf-8") as fh:
        refs = workloads.References(json.load(fh))
    samples = [[] for _ in cases]  # per case, its scaled wall time in each pass
    per_case = {}  # traced run: what each case did in the first pass
    attempted = failed = passes = 0
    problems = []
    failures = {}
    first_pass_rss = 0
    started = perf_counter()
    while True:
        gc.collect()
        before = calibration.measure()
        for i, case in enumerate(cases):
            inp = wl.prepare(case, passes)
            attempted += 1
            counts = tracer.snapshot() if tracer is not None else None
            t0 = perf_counter()
            try:
                result = wl.run(inp)
            except Exception as exc:  # a failing case is counted, not fatal
                if tracer is not None and isinstance(exc, tracing.TracingError):
                    raise
                result = exc
            elapsed = perf_counter() - t0
            after = calibration.measure()
            samples[i].append(calibration.scale(elapsed, before, after))
            before = after
            if counts is not None and passes == 0:
                now = tracer.snapshot()
                per_case[case.name] = {k: now[k] - counts[k] for k in now if now[k] != counts[k]}
                per_case[case.name]["seconds"] = elapsed
            if isinstance(result, Exception):
                failed += 1
                failures[case.name] = type(result).__name__
                if tracer is not None:
                    tracer.close_open_spans()
                continue
            for problem in wl.check(case, inp, result, refs):
                problems.append(f"{case.name}: {problem}")
        passes += 1
        if passes == 1:
            first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if perf_counter() - started >= args.seconds:
            break

    for name, error in sorted(failures.items()):
        print(f"failed: {name}: {error}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    typical = [statistics.median(times) for times in samples]
    summary = {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "passes": passes,
        "cases_per_s": len(cases) / sum(typical),
        "case_p50_ms": statistics.median(typical) * 1000,
        # ru_maxrss is in KiB on Linux; read after the first pass, so the
        # figure is that of one pass whatever the run length.
        "peak_rss_mb": first_pass_rss / 1024,
    }
    if tracer is not None:
        summary["layers"] = tracer.metrics(passes)
        trace_dir = os.path.join(HERE, "out")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"trace-{args.workload}-{args.seed}.csv.gz"))
        with open(os.path.join(trace_dir, f"cases-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump(per_case, fh, indent=1)
    out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
