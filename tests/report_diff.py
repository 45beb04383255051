"""List the rows that differ between two ``report.csv`` files.

    python tests/report_diff.py OLD/report.csv NEW/report.csv

Rows are matched by (suite, instance, check) and their order among equal
keys. Each changed row is printed with every changed column; a numeric
column carries its relative change |a - b| / max(|a|, |b|). Rows present on
one side only are listed as added or removed. The last line counts the
changed rows, the status changes and the largest relative change of lhs or
rhs, the measured columns.
"""
from __future__ import annotations

import csv
import math
import sys

KEY = ("suite", "instance", "check")
NUMERIC = ("lhs", "rhs", "margin")


def read_report(path: str) -> dict:
    """{(suite, instance, check, occurrence): row dict}, comment lines skipped."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        rows, seen = {}, {}
        for row in reader:
            key = tuple(row[c] for c in KEY)
            seen[key] = seen.get(key, -1) + 1
            rows[key + (seen[key],)] = row
    return rows


def rel_change(a: str, b: str) -> float:
    """Relative change between two printed numbers; inf when exactly one of
    them is not finite or they are unequal non-finite values."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def diff_reports(old: dict, new: dict) -> dict:
    """Changed, added and removed rows of ``new`` against ``old``."""
    changed = []
    for key in old:
        if key not in new:
            continue
        a, b = old[key], new[key]
        cols = {}
        for col in a:
            if a[col] == b[col]:
                continue
            cols[col] = (a[col], b[col], rel_change(a[col], b[col]) if col in NUMERIC else None)
        if cols:
            changed.append((key, cols))
    return {"changed": changed,
            "added": [k for k in new if k not in old],
            "removed": [k for k in old if k not in new]}


def summary(d: dict) -> dict:
    measured = [rel for _, cols in d["changed"] for col, (_, _, rel) in cols.items()
                if col in ("lhs", "rhs")]
    return {"changed": len(d["changed"]),
            "status_changes": sum("status" in cols for _, cols in d["changed"]),
            "added": len(d["added"]), "removed": len(d["removed"]),
            "max_measured_rel": max(measured, default=0.0)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    d = diff_reports(read_report(argv[0]), read_report(argv[1]))
    for key, cols in d["changed"]:
        parts = [f"{col} {a} -> {b}" + ("" if rel is None else f" (rel {rel:.2e})")
                 for col, (a, b, rel) in cols.items()]
        print(f"{'/'.join(key[:3])}: " + "; ".join(parts))
    for tag in ("added", "removed"):
        for key in d[tag]:
            print(f"{tag}: {'/'.join(key[:3])}")
    s = summary(d)
    print(f"{s['changed']} changed rows, {s['status_changes']} status changes, "
          f"{s['added']} added, {s['removed']} removed, "
          f"largest lhs/rhs change {s['max_measured_rel']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
