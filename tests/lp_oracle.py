"""Independent oracles the tests check the solver and the audit against.

`enumerate_lp_optimum`: exhaustive enumeration of candidate vertices. A
vertex of {rows, box bounds} is determined by an active set: k tight rows
plus n-k variables pinned at a bound. Enumerating every such combination and
keeping the best feasible candidate gives the exact optimum for boxed LPs,
with no simplex machinery involved.

`best_binary_fixing`: every binary fixing of a MILP enumerated, each
remaining LP solved, trusting nothing about branch-and-bound.
`brute_force_optimum` applies it to the paper's full model of a scenario.

`schedule_to_values`: a schedule mapped onto the variables of the paper's
full model, whose rows then judge it independently of the audit.

`max_violation`: the worst normalized row or bound violation of an
assignment, computed term by term from the model's rows.

`highs_solve`: a second solver, HiGHS as bundled with scipy, on the same
model rows with the binaries integral.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hems.formulation import (
    DeviceSchedule,
    Schedule,
    VarMap,
    build_model,
    schedule_from_values,
    shift_destinations,
)
from hems.milp import INFEASIBLE, MILPModel, OPTIMAL, UNBOUNDED
from hems.milp.simplex import CompiledLP, solve_compiled
from hems.scenario import Scenario

FEAS_EPS = 1e-8


def enumerate_lp_optimum(model: MILPModel) -> tuple[str, float]:
    """(status, objective) by brute force. Requires finite variable bounds.

    Each (tight rows, free variables) combination is one square system; every
    bound pick of the pinned variables is a right-hand side of it, so one
    solve covers them all. A singular system yields no candidate."""
    n = model.num_variables
    lo, hi = model.bounds_arrays()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("oracle needs finite bounds")
    c = model.objective_vector()
    m = model.num_constraints
    A = np.zeros((m, n))
    b = np.zeros(m)
    for i, con in enumerate(model.constraints):
        for vid, coef in con.terms:
            A[i, vid] = coef
        b[i] = con.rhs
    senses = np.array([con.sense for con in model.constraints], dtype=object)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    tol = FEAS_EPS * (1.0 + np.abs(b))

    def feasible(X: np.ndarray) -> np.ndarray:
        """Which rows of X (one candidate each) satisfy bounds and rows."""
        ok = np.all((X >= lo - FEAS_EPS) & (X <= hi + FEAS_EPS), axis=1)
        act = X @ A.T
        bad = (le & (act > b + tol)) | (ge & (act < b - tol)) | (eq & (np.abs(act - b) > tol))
        return ok & ~np.any(bad, axis=1)

    best = math.inf
    found = False
    cols = list(range(n))
    for k in range(0, min(m, n) + 1):
        # Bound picks in itertools.product order, 1 = upper bound.
        picks = np.array(list(itertools.product((0, 1), repeat=n - k)), dtype=bool)
        for active_rows in itertools.combinations(range(m), k):
            rows = list(active_rows)
            for free_vars in itertools.combinations(cols, k):
                free = list(free_vars)
                pinned = [j for j in cols if j not in free_vars]
                X = np.empty((len(picks), n))
                X[:, pinned] = np.where(picks, hi[pinned], lo[pinned])
                if k:
                    rhs = b[rows, None] - A[np.ix_(rows, pinned)] @ X[:, pinned].T
                    try:
                        X[:, free] = np.linalg.solve(A[np.ix_(rows, free)], rhs).T
                    except np.linalg.LinAlgError:
                        continue
                ok = feasible(X)
                if ok.any():
                    found = True
                    best = min(best, float(np.min(X[ok] @ c)))
    if not found:
        return INFEASIBLE, math.nan
    return OPTIMAL, best


class OracleSizeError(ValueError):
    """Raised when a scenario is too large for exhaustive enumeration."""


BRUTE_FORCE_LIMIT = 14


def best_binary_fixing(model: MILPModel) -> tuple[float, np.ndarray | None]:
    """(objective, x) of the best binary fixing of `model`, an LP for the rest.

    Every fixing within the binaries' bounds is tried in lexicographic order,
    each by one `solve_compiled` call, with strict-improvement updates, so
    among equal objectives the lexicographically smallest binary vector wins.
    Fixings that break a row made of binaries alone are infeasible whatever
    the LP does, and their LP is skipped. Returns (inf, None) when no fixing
    has an optimal LP.
    """
    binaries = np.array(model.binary_ids(), dtype=int)
    core = CompiledLP(model)
    lo, hi = model.bounds_arrays()
    fixings = np.array(list(itertools.product((0.0, 1.0), repeat=len(binaries))))
    keep = np.all((fixings >= lo[binaries]) & (fixings <= hi[binaries]), axis=1)
    col = {int(vid): k for k, vid in enumerate(binaries)}
    for con in model.constraints:
        if all(vid in col for vid, _ in con.terms):
            gap = sum(coef * fixings[:, col[vid]] for vid, coef in con.terms) - con.rhs
            tol = 1e-9 * (1.0 + abs(con.rhs))
            if con.sense != ">=":
                keep &= gap <= tol
            if con.sense != "<=":
                keep &= gap >= -tol
    best_obj = math.inf
    best_x: np.ndarray | None = None
    for fixing in fixings[keep]:
        flo, fhi = lo.copy(), hi.copy()
        flo[binaries] = fhi[binaries] = fixing
        res = solve_compiled(core, flo, fhi)
        if res.status != OPTIMAL:
            continue
        if res.objective < best_obj - 1e-12 * (1.0 + abs(res.objective)):
            best_obj = res.objective
            best_x = res.x
    return best_obj, best_x


def brute_force_optimum(scenario: Scenario) -> tuple[float, Schedule | None]:
    """Global optimum of the scenario by `best_binary_fixing`.

    Always solves the paper's full model (`build_model(full=True)`), so it
    does not depend on which mode binaries the solved model leaves out.
    Returns (inf, None) when no fixing is feasible. Refuses scenarios with
    more than `BRUTE_FORCE_LIMIT` binaries.
    """
    model, varmap = build_model(scenario, full=True)
    n_binaries = len(model.binary_ids())
    if n_binaries > BRUTE_FORCE_LIMIT:
        raise OracleSizeError(
            f"scenario compiles to {n_binaries} binary variables, above the "
            f"exhaustive-enumeration limit of {BRUTE_FORCE_LIMIT} "
            f"(model: {model.num_variables} variables, {model.num_constraints} rows)"
        )
    best_obj, best_x = best_binary_fixing(model)
    if best_x is None:
        return math.inf, None
    return best_obj, schedule_from_values(scenario, varmap, best_x)


def schedule_to_values(
    scenario: Scenario, model: MILPModel, varmap: VarMap, schedule: Schedule
) -> np.ndarray:
    """Map a Schedule onto the variables of `build_model(scenario, full=True)`.

    Mode binaries are reconstructed from the flows (charging/buying side wins
    when both are active, which then shows up as a row violation, matching
    the audit verdict). Destinations outside the admissible set cannot be
    represented and leave their choice row unsatisfied. A solved model has
    substituted out pv_used and some grid_sell and is refused.
    """
    T = scenario.grid.T
    ids = varmap.ids
    if (ids[:4] < 0).any():
        raise ValueError("schedule_to_values needs the full model (build_model(full=True))")
    values = np.zeros(model.num_variables)

    devices = {dev.name: getattr(schedule, dev.name) or DeviceSchedule.zeros(T)
               for dev in scenario.storage}
    table = np.vstack([schedule.series, *(dev.series for dev in devices.values())])
    mapped = ids >= 0
    values[ids[mapped]] = table[mapped]
    # The mode binaries, found by name: u_grid_<t> and u_<device>_<t>.
    flows = {"grid": schedule.grid_buy, **{name: dev.charge for name, dev in devices.items()}}
    for v in model.variables:
        if v.name.startswith("u_"):
            label, t = v.name[2:].rsplit("_", 1)
            values[v.id] = 1.0 if flows[label][int(t)] > 0.0 else 0.0
    for app, firsts, dsts in zip(scenario.appliances, varmap.shift.tolist(), schedule.shifts):
        adt = app.adt_intervals(scenario.grid.dt)
        for src, first in enumerate(firsts):
            if first >= 0:
                k = int(dsts[src]) - src
                if 0 <= k < len(shift_destinations(T, src, adt)):
                    values[first + k] = 1.0
    return values


def row_violations(model: MILPModel, values: np.ndarray) -> np.ndarray:
    """Per-constraint violation, normalized by (1 + |rhs|)."""
    out = np.zeros(model.num_constraints)
    for i, con in enumerate(model.constraints):
        act = sum(coef * values[vid] for vid, coef in con.terms)
        if con.sense == "<=":
            viol = act - con.rhs
        elif con.sense == ">=":
            viol = con.rhs - act
        else:
            viol = abs(act - con.rhs)
        out[i] = max(0.0, viol) / (1.0 + abs(con.rhs))
    return out


def bound_violations(model: MILPModel, values: np.ndarray) -> np.ndarray:
    """Per-variable bound violation, normalized by (1 + |bound|)."""
    out = np.zeros(model.num_variables)
    for v in model.variables:
        x = values[v.id]
        viol = 0.0
        if math.isfinite(v.lower):
            viol = max(viol, (v.lower - x) / (1.0 + abs(v.lower)))
        if math.isfinite(v.upper):
            viol = max(viol, (x - v.upper) / (1.0 + abs(v.upper)))
        out[v.id] = max(0.0, viol)
    return out


def max_violation(model: MILPModel, values: np.ndarray) -> float:
    """Worst normalized constraint-or-bound violation of an assignment."""
    worst = 0.0
    if model.constraints:
        worst = float(row_violations(model, values).max())
    if model.variables:
        worst = max(worst, float(bound_violations(model, values).max()))
    return worst


def highs_solve(model: MILPModel) -> tuple[str, float]:
    """(status, objective) as HiGHS reports them: optimal, infeasible or
    unbounded, else HiGHS's message; the objective is nan unless optimal."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

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
    res = milp(
        model.objective_vector(),
        integrality=np.array([v.kind == "binary" for v in model.variables], dtype=int),
        bounds=Bounds(lo, hi),
        constraints=LinearConstraint(A, row_lo, row_hi),
        options={"mip_rel_gap": 0.0},
    )
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, res.message)
    return status, float(res.fun) if status == OPTIMAL else math.nan


def random_boxed_lp(rng: np.random.Generator, max_vars: int = 7, max_rows: int = 5) -> MILPModel:
    """Random LP with finite boxes and small integer-ish data; occasionally
    infeasible by construction."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    model = MILPModel("random_lp")
    for j in range(n):
        lo = float(rng.integers(-4, 3))
        hi = lo + float(rng.integers(0, 7))
        model.add_variable("continuous", lo, hi, f"v{j}")
    lo, hi = model.bounds_arrays()
    for i in range(m):
        k = int(rng.integers(1, n + 1))
        vids = rng.choice(n, size=k, replace=False)
        terms = []
        for vid in vids:
            coef = 0.0
            while coef == 0.0:
                coef = float(rng.integers(-5, 6))
            terms.append((int(vid), coef))
        sense = ("<=", "<=", ">=", ">=", "=")[int(rng.integers(0, 5))]
        # Bias the rhs towards the row's reachable activity range so a good
        # share of instances is feasible; leave some unreachable on purpose.
        reach_lo = sum(c * (lo[v] if c > 0 else hi[v]) for v, c in terms)
        reach_hi = sum(c * (hi[v] if c > 0 else lo[v]) for v, c in terms)
        if rng.random() < 0.85:
            rhs = float(np.round(rng.uniform(reach_lo, reach_hi)))
        else:
            rhs = float(rng.integers(-20, 21))
        model.add_constraint(terms, sense, rhs, f"r{i}")
    obj = []
    for j in range(n):
        coef = float(rng.integers(-9, 10))
        if coef:
            obj.append((j, coef))
    if not obj:
        obj = [(0, 1.0)]
    model.set_objective(obj)
    return model
