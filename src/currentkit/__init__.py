"""Exact small-graph checks for current-expansion identities and
diagrammatic bounds on ferromagnetic spin systems."""
from __future__ import annotations

from .graphs import (
    CouplingGraph, GraphError, SpreadOut,
    build_graph, embed_on_torus, graph_from_dict, graph_to_dict,
    load_graph, save_graph, spread_out_coupling,
)
from .currents import (
    CapExceeded,
    conn, correlation, double_conn,
    four_point, partition_function, pi0, pi0_rows, spin_expectation,
    sst_lhs, sst_lhs_rows, sst_switch_rhs, sst_switch_rows,
    theta_prime, theta_rows, through, two_point_matrix,
)
from .fields import (
    Field, NonContracting, SymField,
    convolve, convolution_bound_check, depicted_ratios,
    hyp1_report, hyp2_report, hyp3_report, key_lemma_gap_matrix,
    psi1_report, rw_green_proxy, step_distribution, tilde_g,
    triangle_tensor, weighted_norm, wrap_mass,
)
from .laces import (
    check_partition_of_unity, earliest_odd_path,
    enumerate_explorations, extraction_gap, is_valid_lace,
    verify_pi0_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "CouplingGraph", "Field", "GraphError",
    "NonContracting", "SpreadOut", "__version__",
    "build_graph", "check_partition_of_unity",
    "conn", "convolution_bound_check", "convolve", "correlation",
    "depicted_ratios", "double_conn",
    "earliest_odd_path", "embed_on_torus", "enumerate_explorations",
    "extraction_gap",
    "four_point", "graph_from_dict", "graph_to_dict",
    "hyp1_report", "hyp2_report", "hyp3_report",
    "is_valid_lace", "key_lemma_gap_matrix", "load_graph",
    "partition_function", "pi0", "pi0_rows", "psi1_report",
    "rw_green_proxy", "save_graph", "spin_expectation",
    "spread_out_coupling", "sst_lhs", "sst_lhs_rows", "sst_switch_rhs",
    "sst_switch_rows", "step_distribution",
    "SymField",
    "theta_prime", "theta_rows", "through", "tilde_g",
    "triangle_tensor", "two_point_matrix", "verify_pi0_decomposition",
    "weighted_norm", "wrap_mass",
]
