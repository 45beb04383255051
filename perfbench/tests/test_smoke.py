"""Smoke test of the benchmark harness on the corpus_graphs workload.

    python3 -m pytest perfbench/tests -q

Runs one untraced and one traced invocation with a one-second budget and
checks that every metric BENCHMARK.json names is printed with its unit, and
that the traced layer self times account for the traced wall time.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(trace: int) -> tuple:
    cmd = BENCH["command"] + ["--workload", "corpus_graphs", "--seed", "1",
                              "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run([sys.executable] + cmd[1:], cwd=ROOT, capture_output=True,
                         text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "perfbench", "out", "corpus_graphs",
                           f"seed1-trace{trace}", "result.json")) as fh:
        return res, json.load(fh)


def _units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_untraced_run_prints_every_end_to_end_metric():
    res, _ = _run(0)
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    assert _units(res) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_prints_every_layer_metric_and_covers_wall():
    res, full = _run(1)
    assert res["correct"] is True
    assert _units(res) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = res["metrics"]
    for layer in ("currents.measure", "diagrams.theorem_rhs", "cli.run_suite"):
        assert metrics[f"{layer}.calls"]["value"] > 0
    traced = [r for r in full["round_records"] if r["traced"]]
    assert len(traced) == 1
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert abs(self_total / traced[0]["wall_s"] - 1.0) <= 0.05
    assert abs(metrics["trace.coverage"]["value"] - 1.0) <= 0.05
    assert "trace.overhead_s" in metrics
