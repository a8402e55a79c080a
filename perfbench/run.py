"""Benchmark for kappatools: one workload per fresh process.

    python3 perfbench/run.py --workload recursion --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  Each workload runs in its own
single-threaded interpreter (worker.py); workloads run one at a time.
With ``--trace 0`` the last line is the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  ``--workload all``
prints one such line per workload, in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
from workloads import WORKLOADS, write_sweep_inputs  # noqa: E402

# Fresh interpreters timed to "ready", besides the one that runs the
# workload: half before it and half after, so that they meet the machine
# in more than one state.  setup_s is the median of all of them.
SETUP_PROBES = 16
WORKER_TIMEOUT_S = 170


def _worker_command(args, workload, *flags):
    return [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--references", _references_path(args, workload),
        *flags,
    ]


def _references_path(args, workload):
    return os.path.join(OUT, f"references-{workload}-{args.seed}.json")


def _environment():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(command):
    """Start a worker; return it and the scaled seconds until it printed ready."""
    before = calibration.measure(repeat=5)
    start = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=_environment())
    line = proc.stdout.readline()
    ready = calibration.scale(perf_counter() - start, before, calibration.measure(repeat=5))
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, ready


def _probe_setup(args, workload, count):
    setups = []
    for _ in range(count):
        proc, ready = _start(_worker_command(args, workload, "--setup-only"))
        try:
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        setups.append(ready)
    return setups


def run_workload(args, workload):
    deadline = perf_counter() + WORKER_TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    if workload == "sweep":
        write_sweep_inputs(ROOT, args.seed)
    subprocess.run(
        _worker_command(args, workload, "--make-references"),
        check=True,
        timeout=WORKER_TIMEOUT_S,
        env=_environment(),
    )
    setups = _probe_setup(args, workload, SETUP_PROBES // 2)
    proc, ready = _start(_worker_command(args, workload))
    setups.append(ready)
    try:
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    setups += _probe_setup(args, workload, SETUP_PROBES - SETUP_PROBES // 2)
    summary = json.loads(rest.strip().splitlines()[-1])
    if args.trace:
        metrics = summary["layers"]
    else:
        metrics = {
            "cases_per_s": {"value": summary["cases_per_s"], "unit": "1/s"},
            "case_p50_ms": {"value": summary["case_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(
        f"{workload}: {summary['passes']} passes, {summary['attempted']} cases, "
        f"{summary['cases_per_s']:.3f} cases/s, "
        f"p50 {summary['case_p50_ms']:.2f} ms, "
        f"setups {' '.join(f'{x:.3f}' for x in setups)}",
        file=sys.stderr,
    )
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "kappatools")):
        print("error: no src/kappatools here; run from a kappatools checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(args, name)
        except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
