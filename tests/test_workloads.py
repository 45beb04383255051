"""The benchmark's calls into currentkit, run once per workload.

perfbench/workloads.py is loaded read-only from its file, and each
workload's setup and steps run once for seed 1; every step must return
rows and none may fail.
"""
from __future__ import annotations

import importlib.util
import os

import pytest

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["corpus_graphs", "spread_out_exact", "torus_proxy"])
def test_workload_runs_without_failed_rows(name, tmp_path):
    setup, steps = _workloads().WORKLOADS[name]
    rows = []
    for _, step in steps(setup(1, str(tmp_path))):
        rows.extend(step())
    assert rows
    assert [r for r in rows if r.failed] == []
