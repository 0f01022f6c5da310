"""Second-solver check: HiGHS, as bundled with scipy, on the same MILPModel rows."""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from hems.milp import MILPModel


def tolerance(objective: float) -> float:
    return 1e-6 * (1.0 + abs(objective))


def highs_optimum(model: MILPModel) -> float:
    """Optimal objective of the model; raises if HiGHS does not prove one."""
    rows, cols, coefs = [], [], []
    row_lo = np.full(model.num_constraints, -math.inf)
    row_hi = np.full(model.num_constraints, math.inf)
    for i, con in enumerate(model.constraints):
        for vid, coef in con.terms:
            rows.append(i)
            cols.append(vid)
            coefs.append(coef)
        if con.sense in ("=", ">="):
            row_lo[i] = con.rhs
        if con.sense in ("=", "<="):
            row_hi[i] = con.rhs
    A = csr_matrix((coefs, (rows, cols)), shape=(model.num_constraints, model.num_variables))
    lo, hi = model.bounds_arrays()
    integrality = np.array([v.kind == "binary" for v in model.variables], dtype=int)
    res = milp(
        model.objective_vector(),
        integrality=integrality,
        bounds=Bounds(lo, hi),
        constraints=LinearConstraint(A, row_lo, row_hi),
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return float(res.fun)
