"""In-memory spans around currentkit's public functions.

A traced round wraps every function listed in LAYERS. Each call records a
span ``[group, start, end, parent]``; spans stay in memory and are written
once the round ends. A span's self time is its duration minus the durations
of its direct children, which cover disjoint sub-intervals because the
program is single-threaded.

``cli`` and ``diagrams`` import ``fields`` and ``currents`` functions by
name, so a wrapper replaces every binding of the original function in every
loaded ``currentkit`` module, not only the one in the defining module.
"""
from __future__ import annotations

import functools
import math
import sys
import time

# group name -> (module, attribute) pairs; "Class.method" wraps a method.
LAYERS = {
    "graphs.build": [("graphs", n) for n in (
        "build_graph", "embed_on_torus", "spread_out_coupling",
        "graph_to_dict", "graph_from_dict", "save_graph", "load_graph")],
    "currents.tables": [("currents", n) for n in (
        "partition_function", "correlation", "four_point", "two_point_matrix")],
    "currents.measure": [("currents", n) for n in (
        "event_measure", "pi0", "pi0_tilde", "theta_prime",
        "theta_double_prime", "sst_lhs", "sst_switch_rhs", "pi1_upper")],
    "currents.spin": [("currents", "spin_expectation")],
    "laces.reconstruct": [("laces", "verify_pi0_decomposition")],
    "laces.unity": [("laces", "check_partition_of_unity")],
    "diagrams.engine_build": [("diagrams", "DiagramEngine.__init__"),
                              ("diagrams", "TheoremEvaluator.__init__")],
    "diagrams.resolvent": [("diagrams", "DiagramEngine.resolvent")],
    "diagrams.apply_kernel": [("diagrams", "DiagramEngine.apply_kernel")],
    "diagrams.theorem_rhs": [("diagrams", "TheoremEvaluator.theorem_rhs")],
    "diagrams.decay_trend": [("diagrams", "decay_trend")],
    "fields.rw_green_proxy": [("fields", "rw_green_proxy")],
    "fields.convolve": [("fields", "convolve"), ("fields", "tilde_g")],
    "fields.depicted_ratios": [("fields", "depicted_ratios")],
    "fields.reports": [("fields", n) for n in (
        "hyp1_report", "hyp2_report", "hyp3_report", "psi1_report",
        "convolution_bound_check")],
    "cli.run_suite": [("cli", "run_suite")],
    "cli.write_report": [("cli", "write_report")],
}

GROUPS = tuple(LAYERS)

# Counters recorded at the same boundaries as the spans.
COUNTERS = ("currents.refused", "diagrams.resolvent.iterations",
            "diagrams.theorem_rhs.finite")


class Tracer:
    """Wraps the LAYERS functions while installed; records spans and counters."""

    def __init__(self):
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list = []
        self._stack: list = []
        self._restore: list = []

    def install(self) -> None:
        import currentkit
        from currentkit.currents import CapExceeded

        self._refused_type = CapExceeded
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "currentkit"
                                         or name.startswith("currentkit."))]
        for gi, group in enumerate(GROUPS):
            for modname, attr in LAYERS[group]:
                owner = getattr(currentkit, modname)
                cls_name, _, fn_name = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                orig = getattr(owner, fn_name, None) if owner is not None else None
                if orig is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                traced = self._wrap(gi, group, orig)
                if cls_name:
                    self._rebind(owner, fn_name, traced)
                    continue
                for mod in modules:
                    for name, val in list(vars(mod).items()):
                        if val is orig:
                            self._rebind(mod, name, traced)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def _rebind(self, owner, name, traced) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, traced)

    def _wrap(self, gi: int, group: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.monotonic
        in_currents = group.startswith("currents.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [gi, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except self._refused_type:
                # Count a refusal once, at the outermost currents call.
                if in_currents and not self._inside_currents(rec[3]):
                    counters["currents.refused"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if group == "diagrams.resolvent":
                counters["diagrams.resolvent.iterations"] += out[1]["iterations"]
            elif group == "diagrams.theorem_rhs" and math.isfinite(out):
                counters["diagrams.theorem_rhs.finite"] += 1
            return out

        return traced

    def _inside_currents(self, parent: int) -> bool:
        while parent >= 0:
            if GROUPS[self.spans[parent][0]].startswith("currents."):
                return True
            parent = self.spans[parent][3]
        return False


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
