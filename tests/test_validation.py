import copy
import math

import numpy as np
import pytest

from hems.formulation import build_model, solve_scenario
from hems.milp import solve_milp
from hems.scenario import ApplianceSpec, StorageSpec, synth_case
from hems.validation import audit, diagnose_infeasibility

from lp_oracle import OracleSizeError, brute_force_optimum, max_violation, schedule_to_values
from scenario_gen import random_small_scenario
from test_formulation import make_scenario, small_ess


def clone_schedule(schedule):
    return copy.deepcopy(schedule)


# ---------------------------------------------------------------------------
# audit


def test_audit_passes_on_solved_cases(hourly_sweep):
    for (case, dsm), (scenario, result) in hourly_sweep.items():
        report = audit(scenario, result.schedule)
        assert report.passed, (case, dsm, report.to_mapping())


def test_audit_flags_simultaneous_charge_discharge(hourly_sweep):
    scenario, result = hourly_sweep[("C", True)]
    schedule = clone_schedule(result.schedule)
    schedule.ess.charge[2] = 1.0
    schedule.ess.discharge[2] = 1.0
    report = audit(scenario, schedule)
    excl = report.family("exclusivity")
    assert not excl.passed
    assert excl.worst_interval == 2


def test_audit_flags_early_shift():
    app = ApplianceSpec("dw", (0.0, 0.0, 0.0, 0.0, 0.0, 1.0), adt_hours=0.0)
    sc = make_scenario(T=6, appliances=[app])
    result = solve_scenario(sc)
    schedule = clone_schedule(result.schedule)
    schedule.shifts[0, 5] = 4  # moved earlier
    schedule.served_load[4] += 1.0
    schedule.served_load[5] -= 1.0
    report = audit(sc, schedule)
    fam = report.family("shifting")
    assert not fam.passed
    assert fam.worst_appliance == "dw"


def test_audit_report_serializes(hourly_sweep):
    scenario, result = hourly_sweep[("D", True)]
    mapping = audit(scenario, result.schedule).to_mapping()
    assert mapping["schema"] == "hems-audit/1"
    assert mapping["passed"] is True
    assert {f["name"] for f in mapping["families"]} == {
        "balance", "ess", "ev", "pv", "export", "exclusivity", "shifting",
    }


FIELDS = ("grid_buy", "grid_sell", "pv_used", "pv_sold", "served_load")
DEVICE_FIELDS = ("charge", "discharge", "used", "sold", "soe")


def test_audit_completeness_every_mutation_caught(hourly_sweep):
    """+0.1 on any single quantity (or any assignment flip) must fail some family."""
    scenario, result = hourly_sweep[("D", True)]
    T = scenario.grid.T
    for field in FIELDS:
        for t in range(0, T, 5):
            schedule = clone_schedule(result.schedule)
            getattr(schedule, field)[t] += 0.1
            assert not audit(scenario, schedule).passed, (field, t)
    for dev in ("ess", "ev"):
        for field in DEVICE_FIELDS:
            for t in range(0, T, 5):
                schedule = clone_schedule(result.schedule)
                getattr(getattr(schedule, dev), field)[t] += 0.1
                assert not audit(scenario, schedule).passed, (dev, field, t)
    for ai, app in enumerate(scenario.appliances):
        adt = app.adt_intervals(scenario.grid.dt)
        for src in np.flatnonzero(app.profile > 0):
            dst = result.schedule.shifts[ai, src]
            for other in (-1, *range(max(0, src - 1), min(T, src + adt + 2))):
                if other == dst:
                    continue
                schedule = clone_schedule(result.schedule)
                schedule.shifts[ai, src] = other
                assert not audit(scenario, schedule).passed, (app.name, src, other)


def test_audit_vs_model_residuals_agree():
    """audit() and the MILP row/bound check of the paper's full model agree
    on 100 random schedules.

    Mutations are restricted to quantities that exist as model variables
    (served_load is derived from the assignments, so the model cannot see a
    direct edit of it; the audit-completeness test covers that field).
    """
    rng = np.random.default_rng(17)
    agree = failures_seen = 0
    while agree < 100:
        sc = random_small_scenario(rng)
        model, varmap = build_model(sc, full=True)
        solution = solve_milp(model)
        if solution.status != "optimal":
            continue
        from hems.formulation import schedule_from_values

        schedule = schedule_from_values(sc, varmap, solution.values)
        if rng.random() < 0.6:
            targets = [(schedule, f) for f in ("grid_buy", "grid_sell", "pv_used", "pv_sold")]
            for dev, vars_ in ((schedule.ess, varmap.ess), (schedule.ev, varmap.ev)):
                if dev is not None:
                    targets += [(dev, f) for f in DEVICE_FIELDS]
            obj, field = targets[int(rng.integers(0, len(targets)))]
            if obj is schedule:
                t = int(rng.integers(0, sc.grid.T))
            else:
                vars_ = varmap.ess if obj is schedule.ess else varmap.ev
                t = int(rng.integers(vars_.window[0], vars_.window[1] + 1))
            getattr(obj, field)[t] += float(rng.choice([-0.2, 0.2]))
        values = schedule_to_values(sc, model, varmap, schedule)
        model_ok = max_violation(model, values) <= 1e-6
        audit_ok = audit(sc, schedule).passed
        assert model_ok == audit_ok
        failures_seen += not audit_ok
        agree += 1
    assert failures_seen >= 30  # the sweep must exercise both verdicts


# ---------------------------------------------------------------------------
# brute-force oracle


def test_two_interval_hand_enumeration():
    # One block at t=0, delayable by one interval, no devices: the optimum is
    # the cheaper placement, computed here by direct arithmetic.
    app = ApplianceSpec("w", (1.0, 0.0), adt_hours=1.0)
    sc = make_scenario(T=2, buy=[12.0, 7.0], nd=[0.5, 0.5], appliances=[app])
    obj, schedule = brute_force_optimum(sc)
    stay = 12.0 * 1.5 + 7.0 * 0.5
    move = 12.0 * 0.5 + 7.0 * 1.5
    assert obj == pytest.approx(min(stay, move), abs=1e-9)
    assert schedule.shifts[0, 0] == 1


def test_flat_prices_equal_no_shift_bill():
    app = ApplianceSpec("w", (0.8, 0.0, 0.0), adt_hours=2.0)
    sc = make_scenario(T=3, buy=[9.0, 9.0, 9.0], nd=[0.2, 0.2, 0.2], appliances=[app])
    obj, _ = brute_force_optimum(sc)
    no_shift = 9.0 * (0.2 * 3 + 0.8)
    assert obj == pytest.approx(no_shift, abs=1e-9)


def test_three_interval_ess_matches_solver():
    sc = make_scenario(
        T=3,
        buy=[15.0, 5.0, 18.0],
        nd=[1.0, 1.0, 1.0],
        ess=small_ess(),
        ess_end_reserve=False,
    )
    model, _ = build_model(sc, full=True)
    assert len(model.binary_ids()) == 6  # 3 grid + 3 ess modes
    obj, schedule = brute_force_optimum(sc)
    direct = solve_milp(model)
    assert direct.status == "optimal"
    assert obj == pytest.approx(direct.objective, abs=1e-6)
    assert audit(sc, schedule).passed


def test_oracle_refuses_oversized(hourly_reference):
    sc = synth_case("D", True, hourly_reference)
    with pytest.raises(OracleSizeError, match="binary"):
        brute_force_optimum(sc)


def test_oracle_reports_infeasible():
    # EV must leave full but cannot reach full within its window.
    from hems.scenario import EVSpec

    ev = EVSpec(
        StorageSpec(0.5, 0.5, 0.9, 0.9, 0.0, 10.0, 1.0),
        arrival=0,
        departure=1,
        require_full_at_departure=True,
    )
    sc = make_scenario(T=2, ev=ev)
    obj, schedule = brute_force_optimum(sc)
    assert math.isinf(obj)
    assert schedule is None
    model, _ = build_model(sc)
    assert solve_milp(model).status == "infeasible"
    hints = diagnose_infeasibility(sc)
    assert hints and "ev" in hints[0]


def test_oracle_agreement_random_scenarios():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 40:
        sc = random_small_scenario(rng)
        if len(build_model(sc, full=True)[0].binary_ids()) > 12:
            continue
        obj, _ = brute_force_optimum(sc)
        solution = solve_milp(build_model(sc)[0])
        if solution.status == "optimal":
            assert obj == pytest.approx(solution.objective, abs=1e-6 * (1 + abs(obj)))
        else:
            assert math.isinf(obj)
        checked += 1


def test_import_cap_hint():
    sc = make_scenario(T=2, nd=[3.0, 1.0], big_m=(2.0, 1.0))
    hints = diagnose_infeasibility(sc)
    assert hints and "import cap" in hints[0]
