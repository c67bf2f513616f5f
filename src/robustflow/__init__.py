"""robustflow: multi-commodity flow metrics, edge-failure robustness, and
budgeted capacity robustification on a warm-started tableau simplex engine."""

__version__ = "0.1.0"

from .errors import RobustFlowError
from .network import (
    DemandMatrix,
    Edge,
    Network,
    demand_laplacian,
    incidence_matrix,
    rank_reduce,
)
from .simplex import (
    SimplexTableau,
    SolveOutcome,
    Status,
    add_cut_row,
    dual_simplex,
    primal_simplex,
    rhs_sensitivity,
    tighten_rhs,
)
from .flows import (
    LatencyConfig,
    LatencyKind,
    ThroughputSolution,
    build_throughput_tableau,
    eval_latency,
    load_balance_from_throughput,
    solve_latency_linear,
    solve_throughput,
)
from .robust import (
    RobustReport,
    enumerate_scenarios,
    robust_latency_linear,
    robust_throughput,
    worst_scenario_subgradient,
)
from .robustify import (
    BudgetAllocation,
    CutModel,
    project_budget_simplex,
    robustify_latency_linear,
    robustify_throughput_cutting_plane,
    robustify_throughput_subgradient,
)
from .formats import (
    InstanceDocument,
    parse_json_instance,
    parse_sndlib_native,
    serialize_instance,
    serialize_report,
)

__all__ = [
    "BudgetAllocation",
    "CutModel",
    "DemandMatrix",
    "Edge",
    "InstanceDocument",
    "LatencyConfig",
    "LatencyKind",
    "Network",
    "RobustFlowError",
    "RobustReport",
    "SimplexTableau",
    "SolveOutcome",
    "Status",
    "ThroughputSolution",
    "add_cut_row",
    "build_throughput_tableau",
    "demand_laplacian",
    "dual_simplex",
    "enumerate_scenarios",
    "eval_latency",
    "incidence_matrix",
    "load_balance_from_throughput",
    "parse_json_instance",
    "parse_sndlib_native",
    "primal_simplex",
    "project_budget_simplex",
    "rank_reduce",
    "rhs_sensitivity",
    "robust_latency_linear",
    "robust_throughput",
    "robustify_latency_linear",
    "robustify_throughput_cutting_plane",
    "robustify_throughput_subgradient",
    "serialize_instance",
    "serialize_report",
    "solve_latency_linear",
    "solve_throughput",
    "tighten_rhs",
    "worst_scenario_subgradient",
]
