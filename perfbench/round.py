"""One round of one workload, in a fresh process so every cache starts cold.

    python3 perfbench/round.py --workload NAME --seed N --trace 0|1 --out DIR

Writes DIR/round.json with the round's timings, peak RSS and check counts;
a traced round also writes DIR/spans.json. ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process, so that set-up
time includes interpreter start-up. run.py is the entry point for users.
"""
import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATUSES = ("pass", "fail", "trivial", "report", "error")


def _report_digest(csv_path: str) -> str:
    """sha256 of report.csv without its first line, the timestamp comment."""
    with open(csv_path, "rb") as fh:
        fh.readline()
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, default=T_START)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import currentkit
    if not os.path.abspath(currentkit.__file__).startswith(SRC + os.sep):
        print(f"currentkit imported from {currentkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from currentkit import cli
    import spans
    import workloads

    setup, steps = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    os.makedirs(args.out, exist_ok=True)

    inputs = setup(args.seed, args.out)
    t_ready = time.monotonic()
    rows, errors, runtimes = [], [], {}
    for name, step in steps(inputs):
        t0 = time.monotonic()
        try:
            rows.extend(step())
        except Exception as exc:  # a failed step is a counted failure, not a lost round
            errors.append(f"{name}: {traceback.format_exc()}")
            rows.append(cli.Row("bench", args.workload, name, math.nan, math.nan,
                                math.nan, "error", f"{type(exc).__name__}: {exc}"))
        runtimes[name] = time.monotonic() - t0
    by_suite = {}   # summary.txt gives one runtime per suite: sum the suite's steps
    for name, t in runtimes.items():
        suite = name.split("/")[0]
        by_suite[suite] = by_suite.get(suite, 0.0) + t
    csv_path, _, _ = cli.write_report(rows, args.out, by_suite)
    t_end = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        tracer.uninstall()
    failed = [f"{r.suite} {r.instance} {r.check} lhs={float(r.lhs)!r} "
              f"rhs={float(r.rhs)!r} {r.note}" for r in rows if r.failed]
    bad_status = sorted({r.status for r in rows} - set(STATUSES))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": t_ready - args.spawned_at,
        "wall_s": t_end - t_ready,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": len(rows),
        "failed": len(failed),
        "failed_rows": failed,
        "errors": errors,
        "correct": not errors and not bad_status and bool(rows),
        "report_sha256": _report_digest(csv_path),
        "step_s": runtimes,
    }
    if tracer:
        own = spans.self_times(tracer.spans)
        in_wall = sum(t for t, sp in zip(own, tracer.spans) if sp[1] >= t_ready)
        record["coverage"] = in_wall / record["wall_s"]
        record["counters"] = tracer.counters
        record["missing"] = tracer.missing
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump({"groups": spans.GROUPS, "t_ready": t_ready, "t_end": t_end,
                       "spans": tracer.spans, "self_s": own}, fh)
    with open(os.path.join(args.out, "round.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
