import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hems
import hems.milp.branch_bound as branch_bound
from hems.formulation import build_model
from hems.milp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    NUMERICAL,
    OPTIMAL,
    MILPModel,
    MilpOptions,
    solve_lp,
    solve_milp,
)
from hems.milp.simplex import SimplexResult
from hems.scenario import synth_case

from lp_oracle import best_binary_fixing, max_violation, random_boxed_lp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
HOURLY = SCENARIOS / "reference_hourly.yaml"
HALFHOUR = SCENARIOS / "reference_halfhour.yaml"


def random_small_milp(rng: np.random.Generator) -> MILPModel:
    """A boxed random LP with a few binaries mixed in."""
    model = random_boxed_lp(rng, max_vars=4, max_rows=3)
    n_bin = int(rng.integers(1, 5))
    ids = [model.add_binary(f"b{i}") for i in range(n_bin)]
    # Couple binaries to the continuous part so they matter.
    terms = [(ids[i], float(rng.integers(-4, 5)) or 1.0) for i in range(n_bin)]
    terms.append((0, 1.0))
    model.add_constraint(terms, "<=", float(rng.integers(0, 8)), "mix")
    obj = list(model.objective)
    for i in ids:
        obj.append((i, float(rng.integers(-6, 7))))
    model.set_objective(obj)
    return model


def test_all_binaries_fixed_reduces_to_lp():
    m = MILPModel()
    u = m.add_variable("binary", 1.0, 1.0, "u")
    x = m.add_continuous("x", 0.0, 4.0)
    m.add_constraint([(x, 1.0), (u, -2.0)], ">=", 0.0, "link")
    m.set_objective([(x, 1.0)])
    milp = solve_milp(m)
    lp = solve_lp(m)
    assert milp.status == OPTIMAL
    assert milp.objective == lp.objective
    assert np.array_equal(milp.values, lp.values)


_KNAPSACK_VALUES = [9, 11, 13, 15, 6, 4, 10, 7]
_KNAPSACK_WEIGHTS = [3, 4, 5, 6, 2, 1, 4, 3]
_KNAPSACK_CAP = 12


def _knapsack() -> MILPModel:
    m = MILPModel()
    ids = [m.add_binary(f"item{i}") for i in range(8)]
    m.add_constraint(
        [(ids[i], float(_KNAPSACK_WEIGHTS[i])) for i in range(8)], "<=", float(_KNAPSACK_CAP), "w"
    )
    m.set_objective([(ids[i], -float(_KNAPSACK_VALUES[i])) for i in range(8)])
    return m


def _knapsack_optimum() -> float:
    return min(
        -sum(v * s for v, s in zip(_KNAPSACK_VALUES, pick))
        for pick in itertools.product((0, 1), repeat=8)
        if sum(w * s for w, s in zip(_KNAPSACK_WEIGHTS, pick)) <= _KNAPSACK_CAP
    )


def test_knapsack_matches_exhaustive_enumeration():
    m = _knapsack()
    ids = m.binary_ids()
    r = solve_milp(m)

    best = _knapsack_optimum()
    assert r.status == OPTIMAL
    assert r.objective == pytest.approx(best, abs=1e-9)
    chosen = r.values[: len(ids)]
    assert np.all(np.minimum(np.abs(chosen), np.abs(1 - chosen)) <= 1e-6)


def test_binary_squeezed_between_rows_is_infeasible():
    m = MILPModel()
    u = m.add_binary("u")
    m.add_constraint([(u, 1.0)], ">=", 0.4, "above")
    m.add_constraint([(u, 1.0)], "<=", 0.6, "below")
    m.set_objective([(u, 1.0)])
    r = solve_milp(m)
    assert r.status == INFEASIBLE
    assert math.isnan(r.objective) and math.isnan(r.bound)


def test_node_limit_returns_incumbent_status():
    rng = np.random.default_rng(90)
    hit = False
    for _ in range(40):
        model = random_small_milp(rng)
        full = solve_milp(model)
        if full.status != OPTIMAL or full.nodes_explored < 3:
            continue
        limited = solve_milp(model, MilpOptions(node_limit=2))
        if limited.status == ITERATION_LIMIT:
            hit = True
            assert limited.bound <= full.objective + 1e-9
            if not math.isnan(limited.objective):
                assert limited.objective >= full.objective - 1e-9
            break
    assert hit


def test_random_milps_match_brute_force():
    rng = np.random.default_rng(2024)
    n_checked = 0
    for _ in range(60):
        model = random_small_milp(rng)
        best, best_x = best_binary_fixing(model)
        r = solve_milp(model)
        assert r.status == (INFEASIBLE if best_x is None else OPTIMAL)
        if best_x is None:
            assert math.isnan(r.bound)
        else:
            assert r.bound == r.objective
            n_checked += 1
            assert r.objective == pytest.approx(best, abs=1e-6 * (1 + abs(best)))
            assert max_violation(model, r.values) <= 1e-6
    assert n_checked >= 25


def test_relaxation_bounds_milp():
    rng = np.random.default_rng(77)
    for _ in range(30):
        model = random_small_milp(rng)
        relax = solve_lp(model)
        full = solve_milp(model)
        if relax.status == OPTIMAL and full.status == OPTIMAL:
            assert relax.objective <= full.objective + 1e-7 * (1 + abs(full.objective))


def test_milp_determinism_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(10):
        model = random_small_milp(rng)
        a = solve_milp(model)
        b = solve_milp(model)
        assert a.status == b.status
        assert a.nodes_explored == b.nodes_explored
        if a.status == OPTIMAL:
            assert a.objective == b.objective
            assert np.array_equal(a.values, b.values)


def test_integral_binaries_within_tolerance():
    rng = np.random.default_rng(13)
    for _ in range(25):
        model = random_small_milp(rng)
        r = solve_milp(model)
        if r.status == OPTIMAL:
            for vid in model.binary_ids():
                v = r.values[vid]
                assert min(abs(v), abs(1 - v)) <= 1e-6


def _record_lp_iterations(monkeypatch) -> list[int]:
    """Iteration counts of every node LP that solve_milp runs from now on."""
    iterations: list[int] = []
    original = branch_bound.solve_compiled

    def counted(*args, **kwargs):
        res = original(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(branch_bound, "solve_compiled", counted)
    return iterations


@pytest.mark.parametrize(
    "child_status, expected",
    [(NUMERICAL, NUMERICAL), (ITERATION_LIMIT, ITERATION_LIMIT)],
    ids=[NUMERICAL, ITERATION_LIMIT],
)
def test_failed_child_lp_returns_numerical_with_incumbent(monkeypatch, child_status, expected):
    """A node LP below the root that fails numerically stops the search with
    status numerical; one that hits the LP pivot cap stops it with status
    iteration_limit. Either way the search keeps its incumbent: here the
    first integral node LP point, after which the next node LP fails."""
    original = branch_bound.solve_compiled
    binary_ids = np.array(_knapsack().binary_ids())
    calls = []   # (lower, upper, result) of every node LP, as solved
    held = False   # whether an earlier node LP point was integral

    def fail_after_incumbent(core, lower, upper, *args, **kwargs):
        nonlocal held
        res = original(core, lower, upper, *args, **kwargs)
        calls.append((lower.copy(), upper.copy(), res))
        if held:
            return SimplexResult(child_status, res.x, math.nan, res.iterations)
        held = res.status == OPTIMAL and branch_bound._fractional(res.x, binary_ids)[0].size == 0
        return res

    monkeypatch.setattr(branch_bound, "solve_compiled", fail_after_incumbent)
    m = _knapsack()
    r = solve_milp(m)
    assert all(res.status == OPTIMAL for _, _, res in calls[:-1]) and len(calls) > 2
    assert r.status == expected
    assert math.isfinite(r.objective)
    assert r.objective == pytest.approx(m.objective_vector() @ r.values, abs=1e-9)
    assert max_violation(m, r.values) <= 1e-9
    assert r.objective >= _knapsack_optimum() - 1e-9
    # The search stopped at the failing node, whose key is the LP objective
    # of its parent: the node that differs from it in one freed binary.
    lower, upper, _ = calls[-1]
    parents = [
        res.objective for plo, pup, res in calls[:-1]
        if np.count_nonzero((plo != lower) | (pup != upper)) == 1
        and np.all(plo <= lower) and np.all(pup >= upper)
    ]
    assert len(parents) == 1
    assert r.bound == parents[0] <= _knapsack_optimum()


def test_failed_root_lp_returns_numerical_without_incumbent(monkeypatch):
    def fail(core, lower, upper, *args, **kwargs):
        return SimplexResult(NUMERICAL, np.zeros(core.n), math.nan, 3)

    monkeypatch.setattr(branch_bound, "solve_compiled", fail)
    r = solve_milp(_knapsack())
    assert r.status == NUMERICAL
    assert math.isnan(r.objective)
    assert r.bound == -math.inf
    assert (r.nodes_explored, r.lp_iterations) == (1, 3)


@pytest.mark.parametrize("dsm", [False, True])
@pytest.mark.parametrize("case", "ABCD")
def test_lp_iterations_count_every_lp(monkeypatch, hourly_reference, case, dsm):
    iterations = _record_lp_iterations(monkeypatch)
    model, _ = build_model(synth_case(case, dsm, hourly_reference))
    r = solve_milp(model)
    assert r.status == OPTIMAL
    assert r.lp_iterations == sum(iterations)


@pytest.mark.parametrize("case", "ABCD")
def test_root_lp_solves_a_model_without_binaries(monkeypatch, hourly_reference, case):
    """Without DSM the reference cases keep no binary: the root LP is the
    whole solve."""
    iterations = _record_lp_iterations(monkeypatch)
    model, _ = build_model(synth_case(case, False, hourly_reference))
    assert model.binary_ids() == []
    r = solve_milp(model)
    assert r.status == OPTIMAL
    assert r.nodes_explored == 1
    assert len(iterations) == 1


_SWEEP_DIGEST = """
import hashlib, sys
from hems.formulation import build_model
from hems.milp import solve_lp, solve_milp
from hems.scenario import load_scenario, synth_case

def digest(h, tag, r):
    h.update(f"{tag} {r.status} {r.nodes_explored} {r.lp_iterations} "
             f"{float(r.objective).hex()}".encode())
    h.update(r.values.tobytes())

ref = load_scenario(sys.argv[1])
h = hashlib.sha256()
for case in "ABCD":
    for dsm in (False, True):
        digest(h, f"{case} {dsm}", solve_milp(build_model(synth_case(case, dsm, ref))[0]))
halfhour = load_scenario(sys.argv[2])
digest(h, "halfhour D root", solve_lp(build_model(synth_case("D", False, halfhour), full=True)[0]))
digest(h, "halfhour D dsm", solve_milp(build_model(synth_case("D", True, halfhour))[0]))
print(h.hexdigest())
"""


def test_hourly_sweep_bit_identical_across_blas_threads():
    """The eight hourly reference solves, the root LP of the paper's full
    model for half-hour D without DSM (530 rows, where OpenBLAS starts to
    split work across threads) and the half-hour D DSM-on MILP hash the same
    with 1 and 2 OpenBLAS threads, each run in a fresh interpreter."""
    src = str(Path(hems.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _SWEEP_DIGEST, str(HOURLY), str(HALFHOUR)],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
