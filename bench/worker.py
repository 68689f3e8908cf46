"""One benchmark process: import wittloc from the checkout, run a workload,
check every answer, and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --mode setup
    python3 bench/worker.py --workload NAME --seed N --mode run --seconds S
    python3 bench/worker.py --workload NAME --seed N --mode trace --rounds R

``setup`` only imports wittloc and makes one round of inputs, as every mode
does before it measures.  ``run`` executes whole rounds for about
``--seconds`` of operation time (see ``execute_rounds``).  ``trace``
executes exactly ``--rounds`` rounds with every module entry point wrapped
by ``spans.Tracer``.  ``bench/run.py`` starts these processes; each starts
from a fresh interpreter, so import cost and cold caches count as they do
for a command-line user.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")


def import_wittloc():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "wittloc", "__init__.py")):
        raise SystemExit(f"no wittloc sources under {SRC}")
    sys.path.insert(0, SRC)
    import wittloc

    if os.path.dirname(os.path.dirname(os.path.abspath(wittloc.__file__))) != SRC:
        raise SystemExit(f"imported wittloc from {wittloc.__file__}, not from {SRC}")
    return wittloc


class Tally:
    """What a run keeps: per-operation latency and verdict.  Answers
    are checked as soon as they arrive and then dropped, so the process's
    memory is wittloc's and the workload's, not the benchmark's."""

    def __init__(self):
        self.latencies: List[float] = []
        self.ok: List[bool] = []
        self.verdicts: Dict[str, int] = {}
        self.failures: List[str] = []
        self.summaries: List[str] = []
        self.probes: List[float] = []  # see scaled
        self.probe_before: List[int] = []  # per operation: index of the last probe
        self.elapsed = 0.0
        self.rounds = 0
        self.peak_rss_mb = 0.0

    def add(self, verdict: str, latency: float) -> None:
        from workloads import OK

        self.latencies.append(latency)
        self.ok.append(verdict == OK)
        key = "fail" if verdict.startswith("fail") else verdict
        self.verdicts[key] = self.verdicts.get(key, 0) + 1
        if key == "fail":
            self.failures.append(verdict)

    def fail_late(self, earlier: str, verdict: str) -> None:
        """A deferred check failed an operation that ``add`` counted as
        ``earlier``."""
        self.verdicts[earlier] -= 1
        self.verdicts["fail"] = self.verdicts.get("fail", 0) + 1
        self.failures.append(verdict)


PROBE_INTERVAL_S = 0.1
# Probe time on the machine the benchmark was built on, when not contended
# (2 vCPUs, Python 3.11); scaled times are expressed at that speed.
PROBE_REF_S = 0.0021


def probe() -> float:
    """Time a fixed piece of pure Python (about 2 ms) that never calls
    wittloc: an integer loop, then Fraction sums into a dict and a sort, so
    that it slows down under contention about as wittloc's code does."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10000):
        s += i * i % 7
    d = {}
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i % 7 + 1)
        d[(i % 31, i % 7)] = acc
    sorted(d.items())
    return time.perf_counter() - t0


def scaled(tally: Tally) -> List[float]:
    """Operation latencies at the reference speed.

    The machine the benchmark was built on is shared: each CPU runs the same
    code at changing speeds, up to 1.8 times slower for minutes when other
    tenants are busy.  ``execute_rounds`` times ``probe`` at least every
    PROBE_INTERVAL_S between operations, and each latency is multiplied by
    PROBE_REF_S over the mean of the probes on both sides of it.
    """
    p = tally.probes
    return [lat * 2 * PROBE_REF_S / (p[i] + p[i + 1])
            for lat, i in zip(tally.latencies, tally.probe_before)]


def tail(latencies: List[float], pct: float):
    """Latency at the workload's tail percentile, or at the highest
    percentile with at least 10 samples beyond it when there are too few
    samples for it: (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = max(10, math.ceil(n * (1 - pct / 100)))
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


def timing_metrics(tally: Tally, tail_pct: float) -> dict:
    """Throughput and latency figures from the scaled latencies."""
    lat = scaled(tally)
    value, pct, n = tail(lat, tail_pct)
    return {"throughput_ops_s": sum(tally.ok) / sum(lat),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_tail_ms": 1000 * value, "tail_pct": pct, "tail_n": n,
            "slowdown": statistics.median(tally.probes) / PROBE_REF_S}


def judge(workload, op, kind, value) -> str:
    try:
        return workload.check(op, kind, value)
    except Exception as exc:  # a check that cannot run counts against the answer
        return f"fail: checking raised {type(exc).__name__}: {exc}"


def execute_rounds(workload, seconds: Optional[float] = None, rounds: Optional[int] = None,
                   tracer=None, keep_summaries: bool = False) -> Tally:
    """Closed loop with one client: run whole rounds until ``seconds`` have
    been spent inside operations and at least ``workload.min_rounds`` rounds
    are done, or exactly ``rounds`` rounds.  Making inputs, checking answers
    and timing ``probe`` happen outside the timed operations; the tracer, if
    any, is paused while answers are checked.  The checks that call wittloc
    themselves (``Workload.deferred_checks``) run after the last round.

    The peak resident set is read when ``workload.min_rounds`` rounds are
    done, so it measures the memory a fixed amount of work leaves behind
    (wittloc's unbounded caches grow with the work done), not how much work
    fitted into the time."""
    from workloads import ERROR, OK, TYPED, VALUE

    wittloc_error = workload.W.WittlocError
    tally = Tally()
    last_probe = -PROBE_INTERVAL_S
    while (tally.rounds < rounds) if rounds is not None else (
            tally.rounds < workload.min_rounds or tally.elapsed < seconds):
        for op in workload.next_round():
            if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
                tally.probes.append(probe())
                last_probe = time.perf_counter()
            tally.probe_before.append(len(tally.probes) - 1)
            t0 = time.perf_counter()
            try:
                value = workload.execute(op) if tracer is None else tracer.call("op", workload.execute, op)
                kind = VALUE
            except wittloc_error as exc:
                value, kind = exc, TYPED
            except Exception as exc:  # an untyped exception is a failed operation
                value, kind = exc, ERROR
            latency = time.perf_counter() - t0
            tally.elapsed += latency
            if tracer is not None:
                tracer.enabled = False
            verdict = judge(workload, op, kind, value)
            if keep_summaries:
                tally.summaries.append(workload.summary(op, value) if verdict == OK else verdict)
            if tracer is not None:
                tracer.enabled = True
            tally.add(verdict, latency)
        tally.rounds += 1
        if tally.rounds == workload.min_rounds:
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.probes.append(probe())
    if tracer is not None:
        tracer.enabled = False
    for earlier, failure in workload.deferred_checks():
        tally.fail_late(earlier, failure)
    return tally


def reference_check(W, name: str):
    """Run the fixed checksum operations; returns (sha256, mismatches,
    answers, failed checks)."""
    from workloads import WORKLOADS

    ref = WORKLOADS[name](W, 0)
    ops = ref.reference_ops()
    ref.next_round = lambda: ops
    tally = execute_rounds(ref, rounds=1, keep_summaries=True)
    got = {str(i): v for i, v in enumerate(tally.summaries)}
    digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
    want = _load_reference().get(name)
    if want is None:
        return digest, [f"no reference recorded for {name}"] + tally.failures, got, tally.failures
    bad = [f"reference op {i}: expected {w}, got {got.get(i)}"
           for i, w in sorted(want.items(), key=lambda kv: int(kv[0])) if got.get(i) != w]
    return digest, bad + tally.failures, got, tally.failures


def _load_reference() -> dict:
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--spans-dir", default=None)
    args = ap.parse_args(argv)

    before = probe()
    t0 = time.perf_counter()
    W = import_wittloc()
    sys.path.insert(0, HERE)
    from workloads import OK, UNDECIDED, WORKLOADS

    workload = WORKLOADS[args.workload](W, args.seed)
    workload.next_round()
    setup_s = (time.perf_counter() - t0) * 2 * PROBE_REF_S / (before + probe())
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(W)
        tally = execute_rounds(workload, rounds=args.rounds, tracer=tracer)
        tracer.uninstall()
    else:
        tally = execute_rounds(workload, seconds=args.seconds)

    digest, mismatches, _, _ = reference_check(W, args.workload)
    out = {
        "setup_s": setup_s,
        **timing_metrics(tally, workload.tail_pct),
        "elapsed_s": tally.elapsed,
        "rounds": tally.rounds,
        "attempted": len(tally.latencies),
        "ok": tally.verdicts.get(OK, 0),
        "undecided": tally.verdicts.get(UNDECIDED, 0),
        "failed": len(tally.failures),
        "failures": tally.failures[:5],
        "probes": len(tally.probes),
        "peak_rss_mb": tally.peak_rss_mb,
        "checksum": digest,
        "checksum_mismatches": mismatches[:5],
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        if args.spans_dir:
            tracer.write(args.spans_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
