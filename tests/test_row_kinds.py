"""Row kinds: each row's status follows from its kind and its printed numbers,
and every theorem family has rows that could fail."""
from __future__ import annotations

import math

import pytest

from currentkit import cli
from currentkit.cli import (
    CORPUS_SHAPES, KINDS, RTOL, UPWARD, RunConfig, corpus_by_graph, run_suite, write_report,
)

# Trees cannot double-connect o and x, so every theorem lhs on them is a
# structural zero: their rows are trivial or vacuous, never real passes.
TREES = ("single_bond", "path3")
FAMILIES = ("thm1", "thm2", "thm3", "thm4")


@pytest.fixture(scope="module")
def suite_rows():
    cfg = RunConfig()
    rows = {s: run_suite(s, cfg) for s in ("identities", "sst", "lace", "theorems")}
    rows["reductions"] = cli._run_over_instances(cli._reductions_graph_rows,
                                                 corpus_by_graph(), cfg)
    return rows


def _printed(v: float) -> float:
    return float(cli._fmt(v))


def _status_follows(r: cli.Row) -> bool:
    lhs, rhs, margin = _printed(r.lhs), _printed(r.rhs), _printed(r.margin)
    if r.kind == "identity":
        return r.status == ("pass" if margin <= RTOL else "fail")
    if r.kind == "inequality":
        if math.isinf(rhs):
            return r.status == "trivial"
        return r.status == ("pass" if lhs <= rhs * UPWARD else "fail")
    if r.kind == "floor":
        return lhs == 0 and margin == rhs and r.status in ("pass", "fail")
    if r.kind == "gate":
        return r.status in ("pass", "fail")
    return r.status in ("report", "fail")


def test_every_row_status_follows_from_its_kind(suite_rows):
    kinds = set()
    for suite, rows in suite_rows.items():
        assert rows, suite
        for r in rows:
            assert r.kind in KINDS, (suite, r)
            assert _status_follows(r), (suite, r)
            kinds.add(r.kind)
    assert kinds == {"identity", "inequality", "floor", "gate"}


def test_floor_rows_do_not_count_as_vacuous(suite_rows, tmp_path):
    rows = suite_rows["sst"]
    assert any(r.kind == "floor" and r.status == "pass" and r.lhs == 0 for r in rows)
    _, summary_path, _ = write_report(rows, str(tmp_path), {})
    with open(summary_path) as fh:
        assert ", 0 failed, 0 vacuous, " in fh.read().splitlines()[1]


def test_every_theorem_family_has_finite_nonvacuous_rows(suite_rows):
    thm = [r for r in suite_rows["theorems"] if r.check.split("[")[0] in FAMILIES]
    shapes = [name for name, *_ in CORPUS_SHAPES]
    assert set(TREES) < set(shapes) and len(shapes) - len(TREES) == 6
    for name in shapes:
        for fam in FAMILIES:
            rows = [r for r in thm if r.instance.split("@")[0] == name
                    and r.check.startswith(fam + "[")]
            assert rows, (name, fam)
            if name in TREES:
                assert all(r.lhs == 0 and r.status in ("pass", "trivial") for r in rows), \
                    (name, fam)
                continue
            real = [r for r in rows if r.instance == f"{name}@b0.1" and r.status == "pass"
                    and math.isfinite(r.rhs) and r.lhs > 0]
            assert real, (name, fam)
