"""Acceptance suite: every criterion prints one PASS line when it holds.

Run with `pytest tests/test_acceptance.py -v -s`. The sweep-based criteria use
the hourly reference scenario (the speed variant shipped alongside the
half-hour one); the half-hour configuration is exercised by the sweep test
at the bottom.
"""

import math
import time

import numpy as np
import pytest

from hems.formulation import build_model, solve_scenario
from hems.milp import INFEASIBLE, OPTIMAL, solve_lp, solve_milp
from hems.scenario import EVSpec, StorageSpec, synth_case
from hems.validation import audit

from lp_oracle import brute_force_optimum, enumerate_lp_optimum, random_boxed_lp
from scenario_gen import random_small_scenario
from test_formulation import make_scenario, small_ess

TOL = 1e-6


def _report(name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_c1_oracle_equivalence():
    """solve_milp equals brute force on 200 random scenarios (<= 14 binaries
    in the paper's full model, which the oracle enumerates)."""
    rng = np.random.default_rng(20240601)
    t0 = time.perf_counter()
    checked = 0
    feasible = 0
    max_bins = 0
    while checked < 200:
        sc = random_small_scenario(rng)
        n_bins = len(build_model(sc, full=True)[0].binary_ids())
        if n_bins > 14:
            continue
        max_bins = max(max_bins, n_bins)
        oracle_obj, _ = brute_force_optimum(sc)
        solution = solve_milp(build_model(sc)[0])
        if solution.status == OPTIMAL:
            feasible += 1
            assert oracle_obj == pytest.approx(
                solution.objective, abs=TOL * (1 + abs(oracle_obj))
            )
        else:
            assert math.isinf(oracle_obj)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert feasible >= 100
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _report(
        "1 oracle-equivalence",
        f"(200 scenarios, {feasible} feasible, max binaries {max_bins}, {elapsed:.1f}s)",
    )


def test_c2_constraint_audit(hourly_sweep):
    """Every schedule of the 8-run sweep passes all seven audit families."""
    for (case, dsm), (scenario, result) in hourly_sweep.items():
        report = audit(scenario, result.schedule)
        assert report.passed, (case, dsm, report.to_mapping())
        assert len(report.families) == 7
        assert result.solution.bound == result.solution.objective, (case, dsm)
    _report("2 constraint-audit", "(8 runs x 7 families)")


def test_c3_dsm_ordering(hourly_reference):
    """DSM never hurts, strictly helps somewhere, and solves stay in budget."""
    strict = 0
    for case in "ABCD":
        bills = {}
        for dsm in (False, True):
            scenario = synth_case(case, dsm, hourly_reference)
            t0 = time.perf_counter()
            result = solve_scenario(scenario)
            elapsed = time.perf_counter() - t0
            assert elapsed < 30.0, f"case {case} dsm={dsm} took {elapsed:.1f}s"
            bills[dsm] = result.cost.bill
        assert bills[True] <= bills[False] + TOL, case
        if bills[True] < bills[False] - 1e-3:
            strict += 1
    assert strict >= 1
    _report("3 dsm-ordering", f"(strict improvement in {strict}/4 cases)")


def test_c4_device_ordering(hourly_sweep):
    """bill(A) >= bill(B) >= bill(C) >= bill(D) with DSM on."""
    bills = [hourly_sweep[(case, True)][1].cost.bill for case in "ABCD"]
    for worse, better in zip(bills, bills[1:]):
        assert better <= worse + TOL
    _report("4 device-ordering", "(bills " + " >= ".join(f"{b:.3f}" for b in bills) + ")")


def test_c5_conservation(hourly_sweep):
    """Shift conservation, SOE telescoping and balance residuals within 1e-6."""
    for (case, dsm), (scenario, result) in hourly_sweep.items():
        s = result.schedule
        dt = scenario.grid.dt

        scheduled = sum(sum(a.profile) for a in scenario.appliances) * dt
        served_def = (np.sum(s.served_load) - sum(scenario.non_deferrable)) * dt
        assert abs(served_def - scheduled) <= TOL * (1 + abs(scheduled))

        supply = s.grid_buy + s.pv_used
        demand = s.served_load.copy()
        for dev in (s.ess, s.ev):
            if dev is not None:
                supply = supply + dev.used
                demand = demand + dev.charge
        assert float(np.max(np.abs(supply - demand))) <= TOL

        if s.ess is not None:
            spec = scenario.ess
            delta = float(np.sum(s.ess.charge * spec.charge_eff - s.ess.discharge) * dt)
            assert abs((s.ess.soe[-1] - spec.soe_init) - delta) <= TOL
        if s.ev is not None:
            spec = scenario.ev.storage
            w = slice(scenario.ev.arrival, scenario.ev.departure + 1)
            delta = float(np.sum(s.ev.charge[w] * spec.charge_eff - s.ev.discharge[w]) * dt)
            assert abs((s.ev.soe[scenario.ev.departure] - spec.soe_init) - delta) <= TOL
    _report("5 conservation", "(balance, shift totals, SOE telescoping)")


def test_c6_exclusivity(hourly_sweep):
    """No simultaneous buy/sell or charge/discharge above 1e-6 kW."""
    worst = 0.0
    for (case, dsm), (scenario, result) in hourly_sweep.items():
        s = result.schedule
        worst = max(worst, float(np.max(np.minimum(s.grid_buy, s.grid_sell))))
        for dev in (s.ess, s.ev):
            if dev is not None:
                worst = max(worst, float(np.max(np.minimum(dev.charge, dev.discharge))))
    assert worst <= TOL
    _report("6 exclusivity", f"(worst simultaneous flow {worst:.2e} kW)")


def test_c7_export_priority():
    """With equal-cost PV/ESS/EV sources and a 1 kW export cap, PV exports."""
    ess = small_ess(charge_eff=1.0, discharge_eff=1.0, soe_init=2.0)
    ev = EVSpec(
        StorageSpec(3.0, 3.0, 1.0, 1.0, 0.0, 5.0, 4.0),
        arrival=0,
        departure=0,
        require_full_at_departure=False,
    )
    sc = make_scenario(
        T=1, buy=[10.0], sell=[3.0], nd=[0.0], pv=[1.0],
        ess=ess, ess_end_reserve=False, ev=ev, big_m=(10.0, 1.0),
    )
    s = solve_scenario(sc).schedule
    assert s.grid_sell[0] == pytest.approx(1.0, abs=TOL)
    sources = {"pv": s.pv_sold[0], "ess": s.ess.sold[0], "ev": s.ev.sold[0]}
    assert max(sources, key=sources.get) == "pv"
    assert sources["pv"] == pytest.approx(1.0, abs=TOL)
    assert sources["ess"] <= TOL and sources["ev"] <= TOL
    _report("7 export-priority", "(argmin source = pv)")


def test_c8_no_early_shift(hourly_sweep):
    """Destinations within [src, src+adt] on all sweep cases + 100 random ones."""
    def check(scenario, schedule):
        for app, dests in zip(scenario.appliances, schedule.shifts.tolist()):
            adt = app.adt_intervals(scenario.grid.dt)
            for src, dst in enumerate(dests):
                if app.profile[src] > 0:
                    assert src <= dst <= src + adt, (app.name, src, dst)
                else:
                    assert dst == -1, (app.name, src, dst)

    for (case, dsm), (scenario, result) in hourly_sweep.items():
        check(scenario, result.schedule)

    rng = np.random.default_rng(77001)
    solved = 0
    while solved < 100:
        sc = random_small_scenario(rng)
        result = solve_scenario(sc)
        if result.schedule is None:
            continue  # infeasible draw
        check(sc, result.schedule)
        solved += 1
    _report("8 no-early-shift", "(8 sweep runs + 100 random scenarios)")


def test_c9_lp_engine_vs_vertex_oracle():
    """500 random LPs match vertex enumeration within 1e-6; no cycling."""
    rng = np.random.default_rng(424242)
    n_optimal = n_infeasible = 0
    for _ in range(500):
        model = random_boxed_lp(rng)
        status, objective = enumerate_lp_optimum(model)
        r = solve_lp(model)
        assert r.status != "iteration_limit", "cycling failure"
        if status == OPTIMAL:
            n_optimal += 1
            assert r.status == OPTIMAL
            assert r.objective == pytest.approx(objective, abs=TOL * (1 + abs(objective)))
        else:
            n_infeasible += 1
            assert r.status == INFEASIBLE
    assert n_optimal >= 200
    _report("9 lp-engine", f"({n_optimal} optimal, {n_infeasible} infeasible, 0 cycling)")


def test_halfhour_reference_sweep(halfhour_reference):
    """Half-hour reference (exact 1.5 h delay tolerances): same orderings."""
    bills = {}
    for case in "ABCD":
        for dsm in (False, True):
            scenario = synth_case(case, dsm, halfhour_reference)
            result = solve_scenario(scenario)
            assert audit(scenario, result.schedule).passed, (case, dsm)
            assert result.solution.bound == result.solution.objective, (case, dsm)
            bills[(case, dsm)] = result.cost.bill
    for case in "ABCD":
        assert bills[(case, True)] <= bills[(case, False)] + TOL
    for worse, better in zip("ABC", "BCD"):
        assert bills[(better, True)] <= bills[(worse, True)] + TOL
    _report("halfhour-sweep", "(orderings hold at dt=0.5)")
