"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import compare
import oracle
import run
import worker
from spans import Tracer
from workloads import WORKLOADS, Sl2nLadder

W = worker.import_wittloc()
SPEC = run.load_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        # the human-readable lines carry all seven end-to-end metrics
        for name in ("fail_frac", "undecided_frac", "setup_s", "op_tail_ms"):
            assert f"{name} " in proc.stdout


def test_no_sources_means_no_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in os.listdir(run.HERE):
        if f.endswith((".py", ".json")):
            (bench / f).write_bytes(open(os.path.join(run.HERE, f), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "witt-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _WrongLadder(Sl2nLadder):
    """Answers one problem with the wrong degree and one with an untyped error."""

    def next_round(self):
        return self.reference_ops()[:6]

    def execute(self, op):
        ops = self.reference_ops()
        if op == ops[0]:
            return W.integer_class(5, self.fields[op[0]])
        if op == ops[1]:
            raise RuntimeError("deliberate")
        return super().execute(op)


def test_wrong_results_count_in_fail_frac():
    tally = worker.execute_rounds(_WrongLadder(W, 1), rounds=1)
    run_ = {"failed": len(tally.failures), "attempted": len(tally.latencies),
            "undecided": tally.verdicts.get("undecided", 0), "peak_rss_mb": 1.0,
            **worker.timing_metrics(tally, tail_pct=96.0)}
    metrics = run.end_to_end(run_, [0.5])
    assert len(tally.failures) == 2
    assert metrics["fail_frac"][0] == pytest.approx(2 / 6)
    assert "closed form" in tally.failures[0] and "RuntimeError" in tally.failures[1]
    assert metrics["throughput_ops_s"][0] == pytest.approx(4 / sum(worker.scaled(tally)))


def test_undecided_is_not_a_failure():
    wl = WORKLOADS["twisted-mix"](W, 1)
    op = ("eq", 2, [(Fraction(1), Fraction(0))], [(Fraction(1), Fraction(0))], True)
    assert wl.check(op, "typed", W.Undecided("cannot certify")) == "undecided"
    assert wl.check(op, "typed", W.BadParameters("no")).startswith("fail")
    assert wl.check(op, "value", False).startswith("fail")


def test_deferred_checks_run_after_the_rounds_and_can_fail_an_answer():
    wl = WORKLOADS["twisted-mix"](W, 3)
    ops = [op for _ in range(3) for op in wl.next_round()]
    tally = worker.execute_rounds(_with_ops(wl, [op for op in ops if op[0] == "lam"]), rounds=1)
    assert tally.verdicts.get("ok", 0) and not tally.failures and not wl.pending
    # a stand-in for an answer that depends on the order of components: the
    # "permuted" problem lacks a component, so its degree or certification differs
    nprobs = [op[:3] + (dict(op[2], components=op[2]["components"][1:]),)
              for op in ops if op[0] == "nprob" and len(op[2]["components"]) > 1]
    tally = worker.execute_rounds(_with_ops(wl, nprobs), rounds=1)
    assert tally.failures and all("permuting the components" in f for f in tally.failures)
    assert tally.verdicts.get("ok", 0) == 0
    assert sum(tally.verdicts.values()) == len(nprobs)


def _with_ops(wl, ops):
    wl.next_round = lambda: ops
    return wl


def test_one_wrong_witt_class_fails_only_its_own_operation():
    class Wrong(WORKLOADS["witt-mix"]):
        def execute(self, op):
            x, found = super().execute(op)
            if op is self.bad:
                x = x + W.integer_class(1, self.fields[op[1]])
            return x, found

    # W(F_3) has four classes, so lookups often succeed and a table that
    # fell out of step with wittloc's would fail later lookups too
    wl = Wrong(W, 2)
    ops = [op for _ in range(40) for op in wl.next_round() if op[0] == "eval" and op[1] == "Fp:3"]
    wl.bad = ops[2]
    tally = worker.execute_rounds(_with_ops(wl, ops), rounds=1)
    assert len(tally.failures) == 1 and "evaluated to" in tally.failures[0]


def test_oracle_knows_small_witt_rings():
    q = oracle.key_q
    assert q([2, -2]) == q([]) == q([Fraction(3, 7), Fraction(-21)])
    assert q([1, 1]) == q([2, 2]) and q([1, 1]) == q([5, 5])
    assert q([1]) != q([2]) and q([1]) != q([3]) and q([1, 1]) != q([1, 1, 1, 1])
    assert oracle.key_fp([1] * 4, 7) == oracle.key_fp([], 7) != oracle.key_fp([1] * 2, 7)
    assert oracle.key_fp([1] * 2, 5) == oracle.key_fp([], 5)
    assert oracle.key_fq([(1, 0), (2, 0)], 2, 3) == oracle.key_fq([], 2, 3)
    assert oracle.prime_factors(600851475143) == {71: 1, 839: 1, 1471: 1, 6857: 1}


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (W.bott_residue, W.engine.bott_residue, W.engine.generic_euler)
    tracer = Tracer()
    tracer.install(W)
    try:
        assert W.engine.generic_euler is W.euler.generic_euler is not originals[2]
        prob = W.build_grassmannian_problem(2, 4, 2, W.rationals())
        tracer.call("op", W.bott_residue, prob)
    finally:
        tracer.uninstall()
    assert (W.bott_residue, W.engine.bott_residue, W.engine.generic_euler) == originals
    m = tracer.metrics()
    assert m["engine.bott_residue.calls"][0] == 1
    assert m["euler.generic_euler.calls"][0] == 2
    assert m["witt.canon.calls"][0] == m["witt.canon.calls.Q"][0] > 0
    assert m["engine.bott_residue.total_pct"][0] == pytest.approx(100, rel=0.05)
    assert sum(m[f"{n}.self_pct"][0] for n in ("engine.bott_residue", "euler.generic_euler",
                                               "euler.euler_rep", "engine.exact_divide",
                                               "rings.mul", "rings.add", "witt.canon",
                                               "witt.eq", "places.wq_key")) <= 100


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, [v * 1.5 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [v * 1.5 for v in base], "higher", 0.1) == "better"
    assert compare.verdict(base, [v * 1.02 for v in base], "lower", 0.1) == "same"
    noisy = [5.0, 10.0, 15.0, 20.0, 10.0]
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(base, [v / 3 for v in noisy], "lower", 0.1) == "better"
