"""Collect result sets of the benchmark and compare two of them.

    python3 bench/compare.py collect --out A.jsonl [--seeds 1-10] [--workloads w1,w2]
    python3 bench/compare.py spread A.jsonl
    python3 bench/compare.py compare OLD.jsonl NEW.jsonl

``collect`` runs ``bench/run.py`` once per workload and seed, one run at a
time, with ``--trace 0`` and the ``run_seconds`` of ``BENCHMARK.json``, and
appends each result line, tagged with workload and seed, to the output
file.  ``spread`` prints, per workload and end-to-end
metric, the median and the spread between runs: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from ``BENCHMARK.json``.
``compare`` prints one row per workload with each metric's ratio of medians,
NEW over OLD, and its verdict:

* ``worse``: the median moved in the worse direction by more than the bound;
* ``better``: it moved in the better direction by more than the bound;
* ``same``: it moved by no more than the bound;
* ``unresolved``: either side's spread is wider than the bound, unless every
  NEW run is better than every OLD run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text: str) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def collect(args, spec) -> int:
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    with open(args.out, "a") as fh:
        for name in names:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                fh.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
                fh.flush()
                shown = "  ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items())
                print(f"{name} seed {seed}: correct {result['correct']}  {shown}", flush=True)
    return 0


def load_set(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values."""
    out: Dict[str, Dict[str, List[float]]] = {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            metrics = out.setdefault(row["workload"], {})
            for name, m in row["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(old: List[float], new: List[float], better: str, bound: float) -> str:
    lower = better == "lower"
    m_old, m_new = statistics.median(old), statistics.median(new)
    worse_by = (m_new - m_old) / abs(m_old) if lower else (m_old - m_new) / abs(m_old)
    all_better = (max(new) < min(old)) if lower else (min(new) > max(old))
    if max(spread(old), spread(new)) > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def show_spread(args, spec) -> int:
    data = load_set(args.file)
    steady = True
    for w, metrics in data.items():
        for m in spec["end_to_end"]:
            vals = metrics.get(m["name"], [])
            if not vals:
                continue
            s = spread(vals)
            ok = s < m["bound"] / 3
            steady &= s < m["bound"]
            print(f"{w:12s} {m['name']:17s} n={len(vals):2d} median {statistics.median(vals):12.6g} "
                  f"{m['unit']:5s} spread {s:7.4f} bound {m['bound']:.2f} "
                  f"{'ok' if ok else 'WIDE (over a third of the bound)'}")
    return 0 if steady else 1


def compare(args, spec) -> int:
    old, new = load_set(args.old), load_set(args.new)
    metrics = spec["end_to_end"]
    print("workload      " + "  ".join(f"{m['name']:>26s}" for m in metrics))
    worse = False
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in old or w not in new:
            continue
        cells = []
        for m in metrics:
            a, b = old[w].get(m["name"]), new[w].get(m["name"])
            if not a or not b:
                cells.append(f"{'missing':>26s}")
                continue
            v = verdict(a, b, m["better"], m["bound"])
            worse |= v == "worse"
            ratio = statistics.median(b) / statistics.median(a)
            cells.append(f"{ratio:>14.4f} {v:>11s}")
        print(f"{w:12s}  " + "  ".join(cells))
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="collect and compare benchmark result sets")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    s = sub.add_parser("spread")
    s.add_argument("file")
    k = sub.add_parser("compare")
    k.add_argument("old")
    k.add_argument("new")
    args = ap.parse_args(argv)
    spec = load_spec()
    return {"collect": collect, "spread": show_spread, "compare": compare}[args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
