"""Embedded LP/MILP engine: model containers, bounded-variable simplex,
and branch-and-bound over binaries."""

from .branch_bound import MilpOptions, solve_milp
from .model import (
    INFEASIBLE,
    ITERATION_LIMIT,
    NUMERICAL,
    OPTIMAL,
    LinearConstraint,
    MILPModel,
    MILPSolution,
    ModelError,
    Variable,
)
from .simplex import solve_lp

__all__ = [
    "MILPModel",
    "MILPSolution",
    "MilpOptions",
    "ModelError",
    "Variable",
    "LinearConstraint",
    "solve_lp",
    "solve_milp",
    "OPTIMAL",
    "INFEASIBLE",
    "ITERATION_LIMIT",
    "NUMERICAL",
]
