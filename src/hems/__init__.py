"""Day-ahead home energy scheduling: scenario model, MILP formulation,
embedded solver, schedule auditing and a case-study CLI."""

__version__ = "0.1.0"

from .milp import MILPModel, MILPSolution, MilpOptions, solve_lp, solve_milp
from .scenario import (
    ApplianceSpec,
    EVSpec,
    Scenario,
    ScenarioError,
    StorageSpec,
    Tariff,
    TimeGrid,
    load_scenario,
    save_scenario,
    synth_case,
)
from .formulation import (
    CostBreakdown,
    Schedule,
    ScenarioResult,
    VarMap,
    build_model,
    compute_cost,
    extract_schedule,
    solve_scenario,
)
from .validation import AuditReport, audit

__all__ = [
    "__version__",
    "MILPModel",
    "MILPSolution",
    "MilpOptions",
    "solve_lp",
    "solve_milp",
    "Scenario",
    "ScenarioError",
    "TimeGrid",
    "Tariff",
    "ApplianceSpec",
    "StorageSpec",
    "EVSpec",
    "load_scenario",
    "save_scenario",
    "synth_case",
    "VarMap",
    "Schedule",
    "CostBreakdown",
    "ScenarioResult",
    "build_model",
    "extract_schedule",
    "compute_cost",
    "solve_scenario",
    "AuditReport",
    "audit",
]
