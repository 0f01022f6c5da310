import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hems.formulation import build_model
from hems.milp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    NUMERICAL,
    OPTIMAL,
    MILPModel,
    solve_lp,
    solve_milp,
)
from hems.milp import simplex
from hems.milp.simplex import CompiledLP, solve_compiled
from hems.scenario import synth_case

from lp_oracle import enumerate_lp_optimum, highs_solve, max_violation, random_boxed_lp


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
@pytest.mark.parametrize(
    "coef, sense, rhs", [(1.0, ">=", 3.0), (-1.0, "<=", -3.0), (1.0, "=", 3.0)],
    ids=["ge", "neg-le", "eq"],
)
def test_min_with_lower_bound_row(coef, sense, rhs, sign):
    # x = 0 violates the row, so phase 1 starts from a relaxed slack. For the
    # inequality forms, the max objective needs that slack's real range back
    # once phase 1 has moved it onto the row's bound.
    m = MILPModel()
    x = m.add_continuous("x", 0.0, 10.0)
    m.add_constraint([(x, coef)], sense, rhs, "floor")
    m.set_objective([(x, sign)])
    r = solve_lp(m)
    expect = 10.0 if sign < 0 and sense != "=" else 3.0
    assert r.status == OPTIMAL
    assert r.objective == pytest.approx(sign * expect, abs=1e-9)
    assert r.values[x] == pytest.approx(expect, abs=1e-9)


def test_facet_optimum_unique_objective():
    m = MILPModel()
    x = m.add_continuous("x", 0.0, 1.0)
    y = m.add_continuous("y", 0.0, 1.0)
    m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 1.0, "cap")
    m.set_objective([(x, -1.0), (y, -1.0)])
    r = solve_lp(m)
    assert r.status == OPTIMAL
    assert r.objective == pytest.approx(-1.0, abs=1e-9)
    assert r.values[x] + r.values[y] == pytest.approx(1.0, abs=1e-9)


def test_no_constraints_bound_minimization():
    m = MILPModel()
    x = m.add_continuous("x", 3.0, 10.0)
    y = m.add_continuous("y", -2.0, 5.0)
    m.set_objective([(x, 1.0), (y, -1.0)])
    r = solve_lp(m)
    assert r.status == OPTIMAL
    assert r.objective == pytest.approx(3.0 - 5.0)
    assert r.values[x] == 3.0 and r.values[y] == 5.0


def _ray_model() -> MILPModel:
    """min −x over x, y in [0, 10] with x − y <= 1: boxed, but a ray once
    the upper bounds are opened."""
    m = MILPModel()
    x = m.add_continuous("x", 0.0, 10.0)
    y = m.add_continuous("y", 0.0, 10.0)
    m.add_constraint([(x, 1.0), (y, -1.0)], "<=", 1.0, "gap")
    m.set_objective([(x, -1.0)])
    return m


def _solve_with_open_upper_bounds(model: MILPModel):
    # solve_compiled takes the bounds it is handed; branch-and-bound only
    # ever hands it the model's finite boxes, narrowed.
    lo, hi = model.bounds_arrays()
    return solve_compiled(CompiledLP(model), lo, np.full_like(hi, np.inf))


def test_confirmed_ray_is_numerical():
    """x enters and the row blocks it at 1; then y enters with x in tow and
    nothing blocks. The ray check refactorizes, meets the same ray and stops:
    with every column boxed, a ray is an arithmetic failure."""
    r = _solve_with_open_upper_bounds(_ray_model())
    assert r.status == NUMERICAL
    assert math.isnan(r.objective)
    assert r.iterations == 1
    assert solve_lp(_ray_model()).objective == -10.0


def test_singular_basis_is_numerical(monkeypatch):
    # The ray check refactorizes the basis before it stops.
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    r = _solve_with_open_upper_bounds(_ray_model())
    assert r.status == NUMERICAL
    assert math.isnan(r.objective)


def _infeasible_model() -> MILPModel:
    m = MILPModel()
    x = m.add_continuous("x", 0.0, 1.0)
    m.add_constraint([(x, 1.0)], ">=", 2.0, "too_high")
    m.set_objective([(x, 1.0)])
    return m


def test_infeasible_detection():
    assert solve_lp(_infeasible_model()).status == INFEASIBLE


def test_equality_row_with_negative_rhs():
    m = MILPModel()
    x = m.add_continuous("x", -5.0, 5.0)
    y = m.add_continuous("y", -5.0, 5.0)
    m.add_constraint([(x, 1.0), (y, 2.0)], "=", -3.0, "eq")
    m.set_objective([(x, 1.0), (y, 1.0)])
    r = solve_lp(m)
    assert r.status == OPTIMAL
    assert r.values[x] + 2 * r.values[y] == pytest.approx(-3.0, abs=1e-8)


def _two_relaxed_rows_model() -> MILPModel:
    # Both slacks start out of range, and each must leave the basis, so
    # phase 1 takes at least two pivots.
    m = MILPModel()
    x = m.add_continuous("x", 0.0, 10.0)
    y = m.add_continuous("y", 0.0, 10.0)
    m.add_constraint([(x, 1.0), (y, 1.0)], ">=", 5.0, "a")
    m.add_constraint([(x, 1.0), (y, -1.0)], "=", 1.0, "b")
    m.set_objective([(x, 1.0), (y, 1.0)])
    return m


def test_iteration_limit_status(monkeypatch):
    monkeypatch.setattr(simplex, "LP_ITERATION_LIMIT", 1)
    rng = np.random.default_rng(3)
    model = random_boxed_lp(rng)
    r = solve_lp(model)
    assert r.status in (ITERATION_LIMIT, OPTIMAL, INFEASIBLE)
    # A model needing phase 1 plus pivots cannot finish in one pivot.
    assert solve_lp(_two_relaxed_rows_model()).status == ITERATION_LIMIT


def _feasible_start_model() -> MILPModel:
    # The all-slack start is feasible, so there is no phase 1; phase 2 takes
    # two pivots to reach x = 1.6, y = 1.2, inside boxes that never bind.
    m = MILPModel()
    x = m.add_continuous("x", 0.0, 100.0)
    y = m.add_continuous("y", 0.0, 100.0)
    m.add_constraint([(x, 1.0), (y, 2.0)], "<=", 4.0, "r1")
    m.add_constraint([(x, 3.0), (y, 1.0)], "<=", 6.0, "r2")
    m.set_objective([(x, -1.0), (y, -1.0)])
    return m


@pytest.mark.parametrize(
    "build, limit, singular, status",
    [
        (_two_relaxed_rows_model, 1, False, ITERATION_LIMIT),
        (_feasible_start_model, 1, False, ITERATION_LIMIT),
        (_two_relaxed_rows_model, None, True, NUMERICAL),
        (_feasible_start_model, None, True, NUMERICAL),
        (_infeasible_model, None, False, INFEASIBLE),
        (_feasible_start_model, None, False, OPTIMAL),
    ],
    ids=["phase1-iteration-limit", "phase2-iteration-limit", "phase1-singular",
         "phase2-singular", "infeasible", "optimal"],
)
def test_every_exit_of_solve_compiled(monkeypatch, build, limit, singular, status):
    model = build()
    if limit is not None:
        monkeypatch.setattr(simplex, "LP_ITERATION_LIMIT", limit)
    if singular:
        # Refactorize after every pivot, and fail every refactorization:
        # the second pivot of either phase then meets a singular basis.
        def fail(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(simplex, "REFACTOR_EVERY", 1)
        monkeypatch.setattr(np.linalg, "inv", fail)
    core = CompiledLP(model)
    lo, hi = model.bounds_arrays()
    r = solve_compiled(core, lo, hi)
    assert r.status == status
    assert r.x.shape == (model.num_variables,)
    if status == OPTIMAL:
        assert math.isfinite(r.objective)
        assert r.objective == pytest.approx(-2.8, abs=1e-9)
    else:
        assert math.isnan(r.objective)
    if status == ITERATION_LIMIT:
        assert r.iterations == limit
    if singular:
        assert r.iterations == 1


def test_failed_verification_refactorizes_up_to_the_cap(monkeypatch):
    """An optimality claim whose residuals fail inverts B afresh and claims
    again, at most twice; no natural LP fails the check, so it is forced."""
    inv = np.linalg.inv
    shapes = []
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
    trusted = solve_lp(_feasible_start_model())
    assert trusted.status == OPTIMAL and shapes == []
    monkeypatch.setattr(simplex, "_factorization_ok", lambda *args: False)
    r = solve_lp(_feasible_start_model())
    assert shapes == [(2, 2), (2, 2)]
    assert r.status == OPTIMAL
    assert r.objective == trusted.objective
    assert r.lp_iterations == trusted.lp_iterations == 2


def test_empty_model_is_optimal_at_zero():
    # Nothing to choose: optimal at 0, and branch-and-bound proves it at its root.
    lp = solve_lp(MILPModel())
    assert (lp.status, lp.objective, lp.lp_iterations) == (OPTIMAL, 0.0, 0)
    assert lp.values.shape == (0,)
    milp = solve_milp(MILPModel())
    assert (milp.status, milp.objective, milp.bound, milp.nodes_explored) == (OPTIMAL, 0.0, 0.0, 1)


def test_degenerate_cycling_guard():
    # Beale's classic cycling example; optimum -0.05 cross-checked against
    # the vertex-enumeration oracle.
    m = MILPModel()
    x = [m.add_continuous(f"x{i}", 0.0, 100.0) for i in range(4)]
    m.add_constraint([(x[0], 0.25), (x[1], -60.0), (x[2], -0.04), (x[3], 9.0)], "<=", 0.0, "r1")
    m.add_constraint([(x[0], 0.5), (x[1], -90.0), (x[2], -0.02), (x[3], 3.0)], "<=", 0.0, "r2")
    m.add_constraint([(x[2], 1.0)], "<=", 1.0, "r3")
    m.set_objective([(x[0], -0.75), (x[1], 150.0), (x[2], -0.02), (x[3], 6.0)])
    r = solve_lp(m)
    assert r.status == OPTIMAL
    assert r.objective == pytest.approx(-0.05, abs=1e-6)


def test_pivot_below_tolerance_is_not_divided():
    # Row "tiny" gives w an entry of 1e-310 on x, far below PIVOT_TOL; dividing
    # the ratio test by it would overflow.
    m = MILPModel()
    x = m.add_continuous("x", 0.0, 10.0)
    y = m.add_continuous("y", 0.0, 10.0)
    m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 8.0, "cap")
    m.add_constraint([(x, 1e-310), (y, 1.0)], "<=", 5.0, "tiny")
    m.set_objective([(x, -1.0), (y, -1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = solve_lp(m)
    assert r.status == OPTIMAL
    assert r.objective == -8.0


def test_random_lp_matches_vertex_enumeration_oracle():
    """Random boxed LPs, then near-degenerate ones (ties in the costs and a
    repeated row), against the vertex-enumeration oracle."""
    for near_degenerate in (False, True):
        rng = np.random.default_rng(42)
        n_optimal = 0
        for _ in range(120):
            model = random_boxed_lp(rng, near_degenerate=near_degenerate)
            status, objective = enumerate_lp_optimum(model)
            r = solve_lp(model)
            assert r.status == status, near_degenerate
            if status == OPTIMAL:
                n_optimal += 1
                assert r.objective == pytest.approx(objective, abs=1e-6 * (1 + abs(objective)))
                assert max_violation(model, r.values) <= 1e-6
        assert n_optimal >= 40  # the generator must exercise the optimal path


def test_six_var_four_row_oracle_case():
    rng = np.random.default_rng(7)
    while True:
        model = random_boxed_lp(rng, max_vars=6, max_rows=4)
        if model.num_variables == 6 and model.num_constraints == 4:
            status, objective = enumerate_lp_optimum(model)
            if status == OPTIMAL:
                break
    r = solve_lp(model)
    assert r.status == OPTIMAL
    assert r.objective == pytest.approx(objective, abs=1e-6)


def test_determinism_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        model = random_boxed_lp(rng)
        a = solve_lp(model)
        b = solve_lp(model)
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.objective == b.objective
            assert np.array_equal(a.values, b.values)


def test_perturbation_optimality_certificate():
    # Mutual-optimality sandwich: for optimal x* of cost c and optimal x' of
    # cost c' = c + delta*e_j, it must hold that
    # f(c) + delta*x'_j <= f(c') <= f(c) + delta*x*_j.
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 25:
        model = random_boxed_lp(rng)
        base = solve_lp(model)
        if base.status != OPTIMAL:
            continue
        j = int(rng.integers(0, model.num_variables))
        delta = 0.37
        perturbed = [(vid, coef) for vid, coef in model.objective]
        bumped = False
        for k, (vid, coef) in enumerate(perturbed):
            if vid == j:
                perturbed[k] = (vid, coef + delta)
                bumped = True
        if not bumped:
            perturbed.append((j, delta))
        model.set_objective(perturbed)
        other = solve_lp(model)
        assert other.status == OPTIMAL
        lo = base.objective + delta * other.values[j]
        hi = base.objective + delta * base.values[j]
        assert lo - 1e-6 <= other.objective <= hi + 1e-6
        checked += 1


def _sparse_boxed_lp(rng: np.random.Generator, m: int, kind: str) -> MILPModel:
    """Random boxed LP with m rows, 1.5m columns and about 1% density.

    Rows are built around a random interior point, so the LP is feasible;
    "infeasible" adds a row no box point can reach. A third of the rows are
    equalities, whose relaxed slacks phase 1 must drive back to zero.
    """
    n = int(1.5 * m)
    model = MILPModel(f"sparse_{kind}")
    lo = rng.integers(-5, 1, n).astype(float)
    hi = lo + rng.integers(1, 11, n)
    for j in range(n):
        model.add_continuous(f"x{j}", lo[j], hi[j])
    x0 = rng.uniform(lo, hi)
    per_row = max(2, round(0.01 * n))
    for i in range(m):
        vids = rng.choice(n, size=per_row, replace=False)
        coefs = rng.uniform(0.5, 5.0, per_row) * rng.choice((-1.0, 1.0), per_row)
        sense = ("<=", ">=", "=")[i % 3]
        slack = {"<=": 1.0, ">=": -1.0, "=": 0.0}[sense] * rng.uniform(0.0, 2.0)
        rhs = float(coefs @ x0[vids]) + slack
        model.add_constraint(list(zip(vids.tolist(), coefs.tolist())), sense, rhs, f"r{i}")
    obj = list(enumerate(rng.uniform(-10.0, 10.0, n).tolist()))
    if kind == "infeasible":
        vids = rng.choice(n, size=per_row, replace=False)
        reach = float(hi[vids].sum())
        model.add_constraint([(int(v), 1.0) for v in vids], ">=", reach + 1.0, "unreachable")
    model.set_objective(obj)
    return model


def test_mid_size_sparse_lps_match_highs():
    """Sparse LPs long enough (over 300 iterations each) to pass the periodic
    refresh every 100 pivots several times, where the incrementally updated
    reduced costs are recomputed, and to reach the optimality claim on a
    product-form inverse hundreds of pivots old, whose row and basic
    reduced-cost residuals decide whether the claim stands."""
    rng = np.random.default_rng(2026)
    for m, kind in ((200, "optimal"), (280, "optimal"), (380, "optimal"),
                    (320, "infeasible")):
        model = _sparse_boxed_lp(rng, m, kind)
        ours = solve_lp(model)
        status, ref = highs_solve(model)
        assert status == kind
        assert ours.status == kind, (m, kind)
        assert ours.lp_iterations > 300, (m, kind, ours.lp_iterations)
        if kind == OPTIMAL:
            assert ours.objective == pytest.approx(ref, abs=1e-6 * (1 + abs(ref)))
            assert max_violation(model, ours.values) <= 1e-6


def test_import_does_not_load_scipy():
    """scipy is a test-only dependency: the package must not import it."""
    import hems

    src = str(Path(hems.__file__).resolve().parent.parent)
    code = "import sys, hems; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("reference", ["hourly_reference", "halfhour_reference"])
@pytest.mark.parametrize("case", "CD")
def test_blands_rule_reaches_the_same_optimum(monkeypatch, request, reference, case):
    """Bland's rule from the first degenerate pivot on: the reference LPs
    (DSM off, no binary) take another pivot path to the same optimum."""
    model, _ = build_model(synth_case(case, False, request.getfixturevalue(reference)))
    assert model.binary_ids() == []
    default = solve_lp(model)
    monkeypatch.setattr(simplex, "BLAND_AFTER", 1)
    bland = solve_lp(model)
    status, ref = highs_solve(model)
    assert default.status == bland.status == status == OPTIMAL
    assert bland.lp_iterations != default.lp_iterations
    assert bland.objective == pytest.approx(default.objective, rel=1e-12)
    assert bland.objective == pytest.approx(ref, abs=1e-6 * (1 + abs(ref)))


def test_compiled_lp_stores_a_then_the_unit_slack_columns(halfhour_reference):
    """[A | I] is one CSC: the structural columns, row-scaled to unit max
    |coefficient|, then one unit column per row, read and priced alike."""
    model, _ = build_model(synth_case("D", False, halfhour_reference))
    core = CompiledLP(model)
    n, m = core.n, core.m
    A = np.zeros((m, n))
    for i, con in enumerate(model.constraints):
        for vid, coef in con.terms:
            A[i, vid] += coef
    scale = np.abs(A).max(axis=1)
    scale[scale == 0.0] = 1.0
    expected = np.hstack((A / scale[:, None], np.eye(m)))

    assert core.col_ptr.size == n + m + 1
    stored = np.zeros((m, n + m))
    for j in range(n + m):
        lo, hi = core.col_ptr[j], core.col_ptr[j + 1]
        stored[core.row_idx[lo:hi], j] = core.vals[lo:hi]
        assert np.all(core.col_of[lo:hi] == j)
    assert np.array_equal(stored, expected)

    for i in (0, m // 2, m - 1):
        rows, vals = core.column(n + i)
        assert rows.tolist() == [i] and vals.tolist() == [1.0]
        # One nonzero per sum: row i of [A | I] comes back exactly.
        assert np.array_equal(core.rmatvec(np.eye(m)[i]), expected[i])
    y = np.random.default_rng(7).standard_normal(m)
    d = core.rmatvec(y)
    assert d.shape == (n + m,)
    assert np.array_equal(d[n:], y)
    assert np.allclose(d[:n], expected[:, :n].T @ y, rtol=0.0, atol=1e-12)
    x = np.random.default_rng(8).standard_normal(n + m)
    assert np.allclose(core.matvec(x[:n]), expected[:, :n] @ x[:n], rtol=0.0, atol=1e-12)
    assert np.allclose(core.matvec(x), expected @ x, rtol=0.0, atol=1e-12)
