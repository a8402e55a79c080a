"""Steadiness self-check: two sets of runs of the same code must agree.

    python3 perfbench/steady.py --runs 10 --seconds 20

Two sets of runs over every workload in BENCHMARK.json: set 1 uses seeds
1..N and set 2 seeds 101..100+N, each run a fresh ``run.py --trace 0``.
For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median) and
whether the sets agree within the metric's bound in BENCHMARK.json: every
spread within the bound, the two medians apart by no more than the bound
(in either direction) and the same share of failed cases in every run.
Raw results go to perfbench/out/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {name: [[], []] for name in names}
    for s in range(2):
        for i in range(args.runs):
            for name in names:
                results[name][s].append(run_once(name, 100 * s + 1 + i, seconds))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    with open(os.path.join(HERE, "out", f"steady-{stamp}.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)

    all_ok = True
    print("| workload | metric | bound | set | q1 | median | q3 | spread | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for name in names:
        shares = {
            r["failed"] / r["attempted"] for runs in results[name] for r in runs
        }
        for metric, spec in metrics.items():
            bound = spec["bound"]
            medians = []
            for s, runs in enumerate(results[name]):
                q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in runs])
                spread = (q3 - q1) / med
                medians.append(med)
                ok = spread <= bound
                verdict = "" if ok else "SPREAD"
                if s == 1:
                    drift = (medians[1] - medians[0]) / medians[0]
                    verdict += f" drift {drift:+.3f}"
                    if abs(drift) > bound:
                        ok = False
                        verdict += " APART"
                all_ok &= ok
                print(
                    f"| {name} | {metric} | {bound} | {s + 1} | {q1:.4g} | {med:.4g} "
                    f"| {q3:.4g} | {spread:.3f} | {verdict.strip() or 'ok'} |"
                )
        if len(shares) != 1:
            all_ok = False
        print(f"| {name} | failed share | | | | {sorted(shares)} | | | "
              f"{'ok' if len(shares) == 1 else 'DIFFERS'} |")
    print("steady" if all_ok else "NOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
