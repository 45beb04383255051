"""The report comparison tool on two small reports written by the cli."""
from __future__ import annotations

import math

from currentkit.cli import Row, write_report
from report_diff import diff_reports, main, read_report, rel_change


def test_report_diff_lists_changed_rows(tmp_path, capsys):
    old = [Row("s", "a", "c1", 1.0, 2.0, 1.0, "pass"),
           Row("s", "a", "c2", 0.5, math.inf, math.inf, "trivial"),
           Row("s", "b", "c1", 3.0, 3.0, 0.0, "pass"),
           Row("s", "b", "c1", 4.0, 4.0, 0.0, "pass"),
           Row("s", "b", "gone", 1.0, 1.0, 0.0, "pass")]
    new = [Row("s", "a", "c1", 1.0, 2.0, 1.0, "pass"),
           Row("s", "a", "c2", 0.5, 0.25, -0.25, "fail"),
           Row("s", "b", "c1", 3.0, 3.0, 0.0, "pass"),
           Row("s", "b", "c1", 4.0 * (1 + 1e-9), 4.0, -4e-9, "fail"),
           Row("s", "b", "new", 1.0, 1.0, 0.0, "pass")]
    a, b = str(tmp_path / "old"), str(tmp_path / "new")
    write_report(old, a, {})
    write_report(new, b, {})
    d = diff_reports(read_report(f"{a}/report.csv"), read_report(f"{b}/report.csv"))
    keys = [key for key, _ in d["changed"]]
    assert keys == [("s", "a", "c2", 0), ("s", "b", "c1", 1)]
    cols = dict(d["changed"])[("s", "b", "c1", 1)]
    assert cols["lhs"][2] == rel_change("4", "4.000000004")
    assert 9e-10 < cols["lhs"][2] < 1.1e-9
    assert cols["status"] == ("pass", "fail", None)
    assert dict(d["changed"])[("s", "a", "c2", 0)]["rhs"][2] == math.inf
    assert d["added"] == [("s", "b", "new", 0)] and d["removed"] == [("s", "b", "gone", 0)]
    assert main([f"{a}/report.csv", f"{b}/report.csv"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == ("2 changed rows, 2 status changes, 1 added, 1 removed, "
                    "largest lhs/rhs change inf")
    assert main([f"{a}/report.csv", f"{a}/report.csv"]) == 0
    assert capsys.readouterr().out.startswith("0 changed rows, 0 status changes")
