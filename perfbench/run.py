"""Benchmark entry point: runs one workload's rounds and prints its metrics.

    python3 perfbench/run.py --workload corpus_graphs --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each round is a fresh ``round.py`` process, started only after the previous
one has ended, so every round pays the cold caches a ``currentkit run`` pays
and no two workload processes share the machine's memory. Rounds repeat
while the next one still fits in ``--seconds``. ``--trace 0`` prints the
end-to-end metrics over the rounds (``wall_s`` from each step's fastest
time, the rest as medians); ``--trace 1`` alternates untraced and traced
rounds and prints the per-layer metrics. Human-readable lines go to stderr;
the last line on stdout is one JSON object. The run's rounds, failing rows,
report digests and spans are kept under perfbench/out/. NOTES.md explains
the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# MemAvailable (MB) required before a round of each workload starts: about
# four times the round's peak RSS, so a round never meets the OOM killer.
NEEDS_MB = {"corpus_graphs": 256, "spread_out_exact": 1024, "torus_proxy": 1024}
ROUND_TIMEOUT_S = 150
TAIL_PCTS = (99.9, 99.0, 90.0, 50.0)


class BenchError(RuntimeError):
    """A round could not run or did not finish; no result is printed."""


def mem_available_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("MemAvailable missing from /proc/meminfo")


def run_round(workload: str, seed: int, traced: bool, out_dir: str) -> dict:
    avail = mem_available_mb()
    if avail < NEEDS_MB[workload]:
        raise BenchError(f"refused: MemAvailable {avail:.0f} MB is below the "
                         f"{NEEDS_MB[workload]} MB {workload} needs")
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", out_dir]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT,
                            stdout=sys.stderr)
    try:
        code = proc.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{workload} round exited with code {code}")
    with open(os.path.join(out_dir, "round.json")) as fh:
        return json.load(fh)


def fastest_wall(rounds: list) -> float:
    """A round's wall time with every step at its fastest over the rounds.

    Every round runs the same steps in the same order. The host's contention
    only ever adds time, in phases of seconds to minutes, so the sum of each
    step's fastest time (plus the fastest time outside the steps) estimates
    the program's own cost far more steadily than any one round does.
    """
    steps = rounds[0]["step_s"]
    rest = min(r["wall_s"] - sum(r["step_s"].values()) for r in rounds)
    return sum(min(r["step_s"][k] for r in rounds) for k in steps) + rest


def percentile(sorted_vals: list, p: float) -> float:
    k = (len(sorted_vals) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (k - lo)


def tail_pct(n: int) -> float:
    """Highest of TAIL_PCTS with at least ten samples beyond it (50 if none)."""
    return next(p for p in TAIL_PCTS if n * (1.0 - p / 100.0) >= 10.0 or p == 50.0)


def layer_metrics(traced_dirs: list, traced: list, untraced: list) -> tuple:
    """Per-layer metrics from the spans of the traced rounds."""
    per_round, pooled = [], {}
    for d in traced_dirs:
        with open(os.path.join(d, "spans.json")) as fh:
            sp = json.load(fh)
        calls, own = {}, {}
        for (gi, start, end, _), t in zip(sp["spans"], sp["self_s"]):
            g = sp["groups"][gi]
            calls[g] = calls.get(g, 0) + 1
            own[g] = own.get(g, 0.0) + t
            pooled.setdefault(g, []).append((end - start) * 1e3)
        per_round.append((calls, own))
    metrics, tails = {}, {}
    for g in spans.GROUPS:
        durs = sorted(pooled.get(g, []))
        p = tail_pct(len(durs))
        tails[g] = p
        metrics[f"{g}.calls"] = (statistics.median(c.get(g, 0) for c, _ in per_round), "count")
        metrics[f"{g}.self_s"] = (statistics.median(o.get(g, 0.0) for _, o in per_round), "s")
        metrics[f"{g}.p50_ms"] = (percentile(durs, 50.0) if durs else 0.0, "ms")
        metrics[f"{g}.tail_ms"] = (percentile(durs, p) if durs else 0.0, "ms")
    counters = [r["counters"] for r in traced]
    rhs_calls = len(pooled.get("diagrams.theorem_rhs", []))
    finite = sum(c["diagrams.theorem_rhs.finite"] for c in counters)
    metrics["diagrams.theorem_rhs.finite_frac"] = (finite / rhs_calls if rhs_calls else 0.0,
                                                   "ratio")
    metrics["diagrams.resolvent.iterations"] = (
        statistics.median(c["diagrams.resolvent.iterations"] for c in counters), "count")
    metrics["currents.refused"] = (
        statistics.median(c["currents.refused"] for c in counters), "count")
    metrics["trace.overhead_s"] = (fastest_wall(traced) - fastest_wall(untraced), "s")
    metrics["trace.coverage"] = (statistics.median(r["coverage"] for r in traced), "ratio")
    return metrics, tails


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = os.path.join(OUT, workload, f"seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    rounds, dirs = [], []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        d = os.path.join(run_dir, f"round{len(rounds):02d}")
        t_round = time.monotonic()
        rounds.append(run_round(workload, seed, traced, d))
        dirs.append(d)
        longest = max(longest, time.monotonic() - t_round)
        # Start no round that would likely end after --seconds, so a run's
        # length does not grow by a round it cannot fit.
        if (time.monotonic() - t0 + longest > seconds
                and len(rounds) >= (2 if trace else 1)):
            break

    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    digests = sorted({r["report_sha256"] for r in rounds})
    # Same seed, same rows: every round must produce the same report body, so
    # a run attempts the seed's checks once however many rounds fit in its
    # time, and its counts depend on the seed alone.
    correct = all(r["correct"] for r in rounds) and len(digests) == 1
    attempted = rounds[0]["attempted"]
    failed = max(r["failed"] for r in rounds)
    if trace:
        metrics, tails = layer_metrics([d for d, r in zip(dirs, rounds) if r["traced"]],
                                       traced_rounds, untraced)
    else:
        metrics, tails = {
            "wall_s": (fastest_wall(rounds), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
            "passed_frac": (1.0 - failed / attempted, "ratio"),
        }, {}
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "rounds": len(rounds), "untraced_rounds": len(untraced),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failed_rows": sorted({row for r in rounds for row in r["failed_rows"]}),
        "errors": [e for r in rounds for e in r["errors"]],
        "report_sha256": digests,
        "tail_percentiles": tails,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "round_records": rounds,
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def describe(res: dict) -> None:
    out = sys.stderr
    print(f"{res['workload']} seed={res['seed']} trace={res['trace']}: "
          f"{res['rounds']} rounds ({res['untraced_rounds']} untraced), "
          f"correct={res['correct']}", file=out)
    walls = sorted(r["wall_s"] for r in res["round_records"] if not r["traced"])
    print(f"  round wall fastest {walls[0]:.4g} s, median {statistics.median(walls):.4g} s, "
          f"slowest {walls[-1]:.4g} s", file=out)
    print(f"  failed_frac {res['failed_frac']:.6g} ({res['failed']} of "
          f"{res['attempted']} checks failed)", file=out)
    for row in res["failed_rows"]:
        print(f"  FAILED {row}", file=out)
    for err in res["errors"]:
        print(f"  ERROR {err}", file=out)
    print(f"  report sha256 {', '.join(res['report_sha256'])}", file=out)
    for name, m in res["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(NEEDS_MB) + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "currentkit", "__init__.py")):
        print(f"no currentkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = tuple(NEEDS_MB) if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            describe(results[name])
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    summary = {n: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
               for n, r in results.items()}
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
