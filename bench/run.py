"""wittloc benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload sl2n-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; wittloc is imported from ``src/`` there.
Every measurement runs in a fresh interpreter started by this script
(``bench/worker.py``), one process at a time and single-threaded.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` is the median over eleven fresh interpreters of the time to
import wittloc and make one round of inputs; the others come from one
closed-loop run of ``--seconds`` seconds of operations.  All times are
scaled to a reference machine speed by a probe loop timed next to them
(``worker.scaled``).  ``--trace 1`` repeats that run untraced, then replays
exactly the same rounds in a new process with every module entry point
wrapped (``bench/spans.py``), and reports the per-layer metrics; the spans
are written under ``.bench_out/spans/<workload>/``.

Human-readable lines come first; the last line of standard output is the
JSON result.  Every answer is checked (``bench/workloads.py``) and the fixed
checksum operations are compared with ``bench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker(workload: str, seed: int, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(run: dict, setups: List[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (run["throughput_ops_s"], "1/s"),
        "op_p50_ms": (run["op_p50_ms"], "ms"),
        "op_tail_ms": (run["op_tail_ms"], "ms"),
        "fail_frac": (run["failed"] / run["attempted"], "frac"),
        "undecided_frac": (run["undecided"] / run["attempted"], "frac"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def report(name: str, run: dict) -> List[str]:
    lines = [f"{name}: {run['attempted']} ops in {run['rounds']} rounds, "
             f"{run['elapsed_s']:.2f} s executing; ok {run['ok']}, "
             f"undecided {run['undecided']}, failed {run['failed']}; "
             f"checksum {run['checksum']}"]
    lines += [f"  FAILED: {f}" for f in run["failures"]]
    lines += [f"  CHECKSUM: {m}" for m in run["checksum_mismatches"]]
    return lines


def selected(spec_metrics: List[dict], got: dict) -> dict:
    out = {}
    for m in spec_metrics:
        value, unit = got[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']} measured in {unit}, declared in {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wittloc benchmark (see module docstring)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wittloc", "__init__.py")):
        print(f"error: {ROOT} holds no wittloc sources (src/wittloc)", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        run = worker(args.workload, args.seed, "run", "--seconds", str(args.seconds))
        runs = [run]
        if args.trace:
            spans_dir = os.path.join(ROOT, ".bench_out", "spans", args.workload)
            traced = worker(args.workload, args.seed, "trace", "--rounds", str(run["rounds"]),
                            "--spans-dir", spans_dir)
            runs.append(traced)
            got = dict(traced["per_layer"])
            # both throughputs are scaled and come from the same rounds
            got["trace.overhead_frac"] = (run["throughput_ops_s"] / traced["throughput_ops_s"] - 1,
                                          "frac")
            metrics = selected(spec["per_layer"], got)
            print(f"traced replay of {run['rounds']} rounds: "
                  f"{traced['elapsed_s']:.2f} s against {run['elapsed_s']:.2f} s untraced")
        else:
            setups = [run["setup_s"]]
            setups += [worker(args.workload, args.seed, "setup")["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
            got = end_to_end(run, setups)
            metrics = selected(spec["end_to_end"], got)
            print(f"op_tail_ms is p{run['tail_pct']:.2f} of {run['tail_n']} samples; "
                  f"machine {run['slowdown']:.2f} times slower than the reference speed")
            print("  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in got.items()))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r, label in zip(runs, ("untraced", "traced")):
        for line in report(f"{args.workload} seed {args.seed} {label}", r):
            print(line)
    result = {
        "correct": all(r["failed"] == 0 and r["checksum"] and not r["checksum_mismatches"]
                       for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
