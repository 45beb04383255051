"""Corpus plumbing, report writing, and the command-line entry point."""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from currentkit import build_graph, cli, save_graph
from currentkit.cli import (
    CORPUS_SHAPES, SUITES, Row, RunConfig, UPWARD,
    _bound_row, _floor_row, _gate_row, _ineq_row, _report_row, corpus_by_graph,
    default_corpus, emit_corpus, load_corpus, main, run_suite, write_report,
)


def test_default_corpus_layout():
    corpus = default_corpus()
    assert len(corpus) == 22
    ids = [iid for iid, _ in corpus]
    assert len(set(ids)) == 22
    assert "triangle@b1" in ids
    assert "k4@b1" not in ids          # capped shape stops at 0.5
    picked = corpus_by_graph()
    assert len(picked) == len(CORPUS_SHAPES) == 8
    assert [iid.split("@")[0] for iid, _ in picked] == [s[0] for s in CORPUS_SHAPES]
    for iid, _ in picked:
        name = iid.split("@")[0]
        betas = [float(i.split("@b")[1]) for i, _ in corpus
                 if i.startswith(name + "@")]
        assert float(iid.split("@b")[1]) == max(betas)


def test_corpus_roundtrip(tmp_path):
    written = emit_corpus(str(tmp_path))
    assert len(written) == 22
    assert all(os.path.exists(p) for p in written)
    cfg = RunConfig(corpus_dir=os.path.join(str(tmp_path), "corpus"))
    loaded = dict(load_corpus(cfg))
    assert len(loaded) == 22
    for iid, g in default_corpus():
        lg = loaded[iid.replace("@", "_")]
        assert lg.labels == g.labels
        assert lg.bonds == g.bonds
        assert lg.beta == g.beta


def test_load_corpus_rejects_empty_dir(tmp_path):
    from currentkit import GraphError
    with pytest.raises(GraphError):
        load_corpus(RunConfig(corpus_dir=str(tmp_path)))


# RunConfig fields of earlier versions; the reference run fixes their values.
REMOVED_KEYS = ("rtol", "torus_d", "torus_L", "torus_side", "torus_p",
                "depicted_L", "depicted_side")


def test_config_validation(tmp_path):
    assert tuple(f.name for f in dataclasses.fields(RunConfig)) == ("seed", "out", "corpus_dir")
    with pytest.raises(TypeError):           # the threads option is gone
        RunConfig(threads=2)
    with pytest.raises(TypeError):           # and so is the bond-count cap
        RunConfig(cap=16)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 3, "bogus": 3}))
    with pytest.raises(ValueError, match="bogus"):
        RunConfig.from_file(str(p))
    p.write_text(json.dumps({"seed": 1}))
    cfg = RunConfig.from_file(str(p))
    assert cfg.seed == 1


def test_row_failed_states():
    mk = lambda st: Row("s", "i", "c", 0.0, 0.0, 0.0, st)
    assert mk("fail").failed and mk("error").failed
    assert not mk("pass").failed
    assert not mk("trivial").failed
    assert not mk("report").failed


def test_ineq_row_boundaries():
    assert _ineq_row("s", "i", "c", 1.0, math.inf).status == "trivial"
    assert _ineq_row("s", "i", "c", 0.5, 1.0).status == "pass"
    assert _ineq_row("s", "i", "c", 1.0 + 2.0 ** -47, 1.0).status == "pass"
    assert _ineq_row("s", "i", "c", 1.0 + 2.0 ** -40, 1.0).status == "fail"
    assert UPWARD - 1.0 == 2.0 ** -46


def _loop_bound(lhs, rhs, notes):
    """The per-entry sweep the suites ran before _bound_row: strict < keeps
    the first minimum of rhs - lhs, and lhs > rhs * UPWARD is a violation."""
    worst, note, viol = math.inf, "", 0
    for a, b, nt in zip(lhs, rhs, notes):
        viol += a > b * UPWARD
        if b - a < worst:
            worst, note = b - a, nt
    return worst, note, viol


def test_bound_row_matches_entry_loop():
    rng = np.random.default_rng(5)
    cases = [
        ([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]),             # ties at 0: first wins
        ([0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]),           # signed zeros tie too
        ([1.0 + 2.0 ** -47, 1.0], [1.0, 1.0]),          # inside the allowance
        ([1.0 + 2.0 ** -40, 0.5, 3.0], [1.0, 1.0, 2.0]),
        (rng.uniform(size=50).tolist(), rng.uniform(size=50).tolist()),
    ]
    for lhs, rhs in cases:
        notes = [f"k={k}" for k in range(len(lhs))]
        worst, note, viol = _loop_bound(lhs, rhs, notes)
        row = _bound_row("i", "c", lhs, rhs, lambda k: notes[k])
        assert (row.rhs, row.margin, row.note) == (worst, worst, note)
        assert math.copysign(1.0, row.margin) == math.copysign(1.0, worst)
        assert row.status == ("pass" if viol == 0 else "fail")
    # broadcast rhs over a leading axis, note gets the full index
    lhs = np.array([[0.5, 0.25], [0.75, 0.25]])
    row = _bound_row("i", "c", lhs, [1.0, 0.5], lambda m, j: (m, j))
    assert (row.margin, row.note, row.status) == (0.25, (0, 1), "pass")


def test_threads_option_removed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    assert main(["run", "identities", "--config", str(cfg)]) == 2
    assert "threads" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", "identities", "--threads", "2"])


def test_suite_registry():
    assert list(SUITES) == ["identities", "sst", "lace", "theorems", "reductions", "decay"]
    with pytest.raises(ValueError, match="bogus"):
        run_suite("bogus", RunConfig())
    with pytest.raises(ValueError):
        run_suite("all", RunConfig())
    with pytest.raises(SystemExit):
        main(["run", "bogus"])


def test_main_corpus_command(tmp_path, capsys):
    assert main(["corpus", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 22
    assert all(os.path.exists(ln) for ln in lines)


def _report_body(out_dir):
    with open(os.path.join(out_dir, "report.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# generated ")
    return lines[1:]


def test_main_run_is_deterministic(tmp_path, capsys):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "identities", "--out", d1]) == 0
    assert main(["run", "identities", "--out", d2]) == 0
    capsys.readouterr()
    b1, b2 = _report_body(d1), _report_body(d2)
    assert b1 == b2
    assert b1[0].split(",")[:3] == ["suite", "instance", "check"]
    assert len(b1) > 200


def test_main_reports_honest_failures(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "RTOL", 1e-30)
    assert main(["run", "identities", "--out", str(tmp_path / "r")]) == 1
    out = capsys.readouterr().out
    assert "failed: 0" not in out


def test_main_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": True}))
    assert main(["run", "identities", "--config", str(bad)]) == 2
    assert main(["run", "identities", "--config", str(tmp_path / "nope.json")]) == 2
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps({"cap": 16}))
    assert main(["run", "identities", "--config", str(capped),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 3
    assert "cap" in err
    with pytest.raises(SystemExit):
        main(["run", "identities", "--cap", "16"])


def test_unusable_corpus_dir_exits_2(tmp_path, capsys):
    """An empty or a missing corpus_dir is a config error: exit code 2, no
    traceback and no report."""
    empty = tmp_path / "empty"
    empty.mkdir()
    cfg = tmp_path / "cfg.json"
    for corpus_dir in (empty, tmp_path / "missing"):
        cfg.write_text(json.dumps({"corpus_dir": str(corpus_dir)}))
        assert main(["run", "identities", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_one_vertex_corpus_graph_exits_2(tmp_path, capsys):
    """A corpus graph with one vertex has no x != o to measure to: a config
    error (exit code 2, no traceback and no report) in every suite that
    reads the corpus."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_graph(build_graph([0], [], beta=0.5), str(corpus / "dot.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus_dir": str(corpus)}))
    for suite in ("identities", "sst", "theorems"):
        assert main(["run", suite, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "one vertex" in err
        assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_sampled_layer_pairs_are_distinct():
    """No corpus graph gets a (B, B') pair twice, not even with one or two
    bonds, where half the bonds are all of them."""
    for iid, g in default_corpus():
        pairs = cli._sampled_layer_pairs(g)
        assert len(set(pairs)) == len(pairs), iid


def test_malformed_outside_input_exits_2(tmp_path, capsys):
    """A corpus graph without couplings, a graph file holding a list, and an
    ill-typed config entry are config errors: exit code 2, no traceback and
    no report."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    graph = corpus / "g.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus_dir": str(corpus)}))
    for content in ({"labels": [0, 1], "bonds": [[0, 1]], "beta": 0.5}, [1, 2]):
        graph.write_text(json.dumps(content))
        assert main(["run", "identities", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
    for raw in ({"seed": "x"}, {"seed": True}, {"out": 3}, {"corpus_dir": 1}, [1]):
        cfg.write_text(json.dumps(raw))
        assert main(["run", "reductions", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_removed_config_keys_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for key in REMOVED_KEYS:
        cfg.write_text(json.dumps({key: 1}))
        assert main(["run", "identities", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
    assert not (tmp_path / "x").exists()


def test_refusal_inside_a_suite_exits_2(tmp_path, capsys):
    """A 16-vertex cycle in the corpus is refused by the memory check inside
    the theorems suite: exit code 2, one `refused:` line and no report."""
    n = 16
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_graph(build_graph(range(n), [(i, (i + 1) % n, 1.0) for i in range(n)], 0.2),
               str(corpus / "cycle16.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus_dir": str(corpus)}))
    assert main(["run", "theorems", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("refused: ")
    assert "bytes" in lines[0] and "Traceback" not in captured.err
    assert not (tmp_path / "x").exists()


def test_summary_counts_match_report(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert main(["run", "lace", "--out", out]) == 0
    capsys.readouterr()
    body = _report_body(out)
    with open(os.path.join(out, "summary.txt")) as fh:
        head = fh.readline()
    assert head == f"checks: {len(body) - 1}  failed: 0\n"


def test_summary_counts_statuses_and_skips_gate_margins(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert main(["run", "theorems", "--out", out]) == 0
    capsys.readouterr()
    rows = list(csv.reader(_report_body(out)[1:]))
    with open(os.path.join(out, "summary.txt")) as fh:
        line = fh.read().splitlines()[1]
    counts = ", ".join(f"{sum(r[6] == st for r in rows)} {st}"
                       for st in ("pass", "trivial", "report", "fail"))
    assert line.startswith(f"theorems: {len(rows)} checks ({counts}), 0 failed, ")
    vacuous = sum(r[2].startswith("thm") and r[6] == "pass" and float(r[3]) == 0.0
                  for r in rows)
    assert vacuous == 374
    assert f", 0 failed, {vacuous} vacuous, worst margin " in line
    bounds = [float(r[5]) for r in rows
              if r[2].startswith(("thm", "resolvent_vs_exact")) and r[5] != "inf"]
    assert any(r[2] == "diagonal_rejected" and float(r[5]) == 0.0 for r in rows)
    assert f"worst margin {min(bounds):.12g}," in line
    assert min(bounds) != 0.0


def test_summary_worst_margin_reads_slack_kinds_only(tmp_path):
    rows = [_report_row("s", "i", "report", 1.0, 2.0, -5.0),
            _gate_row("s", "i", "gate", 0.0, 1.0, -1.0, True),
            Row("s", "i", "by_hand", 0.0, 1.0, -3.0, "pass"),      # kind defaults to gate
            _floor_row("s", "i", "floor", -1e-17, True),           # prints lhs 0, not vacuous
            _ineq_row("s", "i", "vacuous", 0.0, 1.0),
            _ineq_row("s", "i", "real", 0.5, 1.0),
            _ineq_row("s", "i", "trivial", 0.0, math.inf)]
    assert rows[2].kind == "gate"
    _, summary_path, n_fail = write_report(rows, str(tmp_path), {"s": 0.25})
    with open(summary_path) as fh:
        lines = fh.read().splitlines()
    assert n_fail == 0
    assert lines[1] == ("s: 7 checks (5 pass, 1 trivial, 1 report, 0 fail), 0 failed, "
                        "1 vacuous, worst margin -1e-17, runtime 0.2s")
