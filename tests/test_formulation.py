import hashlib
from dataclasses import replace

import numpy as np
import pytest

from hems.formulation import (
    Schedule,
    build_model,
    compute_cost,
    extract_schedule,
    schedule_from_values,
    shift_destinations,
    solve_scenario,
)
from hems.milp import MILPSolution, solve_milp
from hems.scenario import (
    ApplianceSpec,
    EVSpec,
    Scenario,
    StorageSpec,
    Tariff,
    TimeGrid,
    synth_case,
)

from scenario_gen import random_small_scenario


def make_scenario(
    T=3,
    dt=1.0,
    buy=None,
    sell=None,
    nd=None,
    appliances=(),
    ess=None,
    ess_end_reserve=True,
    ev=None,
    pv=None,
    penalties=(1e-4, 2e-4, 3e-4),
    big_m=(None, None),
):
    buy = tuple(buy if buy is not None else [10.0] * T)
    sell = tuple(sell if sell is not None else [3.0] * T)
    nd = tuple(nd if nd is not None else [1.0] * T)
    pv = tuple(pv if pv is not None else [0.0] * T)
    return Scenario(
        grid=TimeGrid(T, dt),
        tariff=Tariff(buy, sell),
        non_deferrable=nd,
        appliances=tuple(appliances),
        ess=ess,
        ess_end_reserve=ess_end_reserve,
        ev=ev,
        pv_gen=pv,
        penalties=penalties,
        big_m=big_m,
    )


def small_ess(**over):
    spec = dict(
        charge_rate=2.0,
        discharge_rate=2.0,
        charge_eff=0.9,
        discharge_eff=0.9,
        soe_min=0.0,
        soe_max=4.0,
        soe_init=2.0,
    )
    spec.update(over)
    return StorageSpec(**spec)


# ---------------------------------------------------------------------------
# model structure


def test_case_a_structure(hourly_reference):
    sc = synth_case("A", False, hourly_reference)
    model, varmap = build_model(sc, full=True)
    assert (varmap.shift < 0).all()  # no delay-choice binaries at zero ADT
    binaries = [model.variables[i].name for i in model.binary_ids()]
    assert len(binaries) == 24
    assert all(name.startswith("u_grid") for name in binaries)
    balance_rows = [c for c in model.constraints if c.tag.startswith("balance_")]
    assert len(balance_rows) == 24
    # sell < buy in every interval: the solved model drops the grid modes
    # (two rows each), the PV split and the export sum, leaving the balance.
    reduced, varmap = build_model(sc)
    assert not reduced.binary_ids()
    assert reduced.num_constraints == model.num_constraints - 4 * 24 == 24
    assert (varmap.ids[1:3] < 0).all()  # no grid_sell or pv_used variable
    assert reduced.num_variables == model.num_variables - 3 * 24 == 2 * 24


@pytest.mark.parametrize("case, rows", [("A", 48), ("B", 48), ("C", 145), ("D", 194)])
def test_solved_model_rows_without_dsm(halfhour_reference, case, rows):
    """Balance rows, plus each device's split and state rows and its end row:
    no PV split and, at the automatic export cap, no export sum is left."""
    model, _ = build_model(synth_case(case, False, halfhour_reference))
    assert model.num_constraints == rows
    tags = {c.tag.rsplit("_", 1)[0] for c in model.constraints}
    assert not tags & {"pv_balance", "export_sum"}


def test_single_block_shift_variables():
    app = ApplianceSpec("dw", (0.0, 1.0, 0.0, 0.0, 0.0), adt_hours=2.0)
    sc = make_scenario(T=5, appliances=[app])
    model, varmap = build_model(sc)
    first = varmap.shift[0, 1]
    assert varmap.shift.tolist() == [[-1, first, -1, -1, -1]]
    names = [v.name for v in model.variables[first:first + 3]]
    assert names == ["shift_dw_1_1", "shift_dw_1_2", "shift_dw_1_3"]
    rows = [c for c in model.constraints if c.tag.startswith("shift_assign")]
    assert len(rows) == 1
    assert rows[0].sense == "=" and rows[0].rhs == 1.0


@pytest.mark.parametrize("full", [False, True], ids=["solved", "full"])
@pytest.mark.parametrize("case", "ABCD")
def test_varmap_names_every_continuous_variable_once(hourly_reference, case, full):
    """Row r of `ids` holds the variables of row r of the decoded table, and a
    shift entry starts its block's run of delay choices in destination order."""
    sc = synth_case(case, True, hourly_reference)
    model, varmap = build_model(sc, full=full)
    T = sc.grid.T
    rows = ["grid_buy", "grid_sell", "pv_used", "pv_sold", "served_load"]
    rows += [f"{dev.name}_{q}" for dev in sc.storage
             for q in ("charge", "discharge", "used", "sold", "soe")]
    assert varmap.ids.shape == (len(rows), T)
    named = {vid: f"{row}_{t}" for row, vids in zip(rows, varmap.ids.tolist())
             for t, vid in enumerate(vids) if vid >= 0}
    assert sorted(named) == [v.id for v in model.variables if v.kind == "continuous"]
    assert all(model.variables[vid].name == name for vid, name in named.items())
    assert (varmap.ids[4] < 0).all()  # served_load is derived
    assert (varmap.ids[2] >= 0).all() == full  # pv_used

    assert varmap.shift.shape == (len(sc.appliances), T)
    choices = {}
    for app, firsts in zip(sc.appliances, varmap.shift.tolist()):
        adt = app.adt_intervals(sc.grid.dt)
        for src, first in enumerate(firsts):
            if first >= 0:
                for k, dst in enumerate(shift_destinations(T, src, adt)):
                    choices[first + k] = f"shift_{app.name}_{src}_{dst}"
    assert sorted(choices) == [v.id for v in model.variables if v.name.startswith("shift_")]
    assert all(model.variables[vid].name == name for vid, name in choices.items())


def test_destination_sets_clamped_to_horizon():
    assert list(shift_destinations(5, 3, 4)) == [3, 4]
    assert list(shift_destinations(5, 4, 2)) == [4]
    assert list(shift_destinations(5, 0, 0)) == [0]


def test_case_d_binary_count_closed_form(hourly_reference):
    sc = synth_case("D", True, hourly_reference)
    model, _ = build_model(sc, full=True)
    T = sc.grid.T
    modes = T  # u_grid
    modes += T  # u_ess
    modes += sc.ev.departure - sc.ev.arrival + 1  # u_ev over the window
    delays = 0
    for app in sc.appliances:
        adt = app.adt_intervals(sc.grid.dt)
        if adt == 0:
            continue
        for t in range(T):
            if app.profile[t] > 0:
                delays += min(adt, T - 1 - t) + 1
    assert len(model.binary_ids()) == modes + delays
    # The solved model keeps only the delay choices.
    assert len(build_model(sc)[0].binary_ids()) == delays


def test_ev_variables_only_inside_window():
    ev = EVSpec(small_ess(soe_init=3.2), arrival=1, departure=2, require_full_at_departure=False)
    sc = make_scenario(T=4, ev=ev)
    model, varmap = build_model(sc)
    assert varmap.ids.shape == (10, 4)  # the household's rows, then the EV's
    assert (varmap.ids[5:, [0, 3]] < 0).all() and (varmap.ids[5:, 1:3] >= 0).all()
    names = [v.name for v in model.variables]
    assert not any(name == "ev_charge_0" or name == "ev_charge_3" for name in names)


# ---------------------------------------------------------------------------
# extraction


def test_extract_requires_optimal(hourly_reference):
    sc = synth_case("A", False, hourly_reference)
    model, varmap = build_model(sc)
    bogus = MILPSolution("infeasible", np.zeros(model.num_variables), float("nan"))
    with pytest.raises(ValueError, match="infeasible"):
        extract_schedule(sc, varmap, bogus)


def test_solve_scenario_reports_infeasible_without_schedule():
    # The EV cannot charge from empty to full in two intervals at 0.1 kW.
    ev = EVSpec(small_ess(charge_rate=0.1, soe_init=0.0), arrival=0, departure=1)
    sc = make_scenario(T=3, ev=ev)
    result = solve_scenario(sc)
    assert result.solution.status == "infeasible"
    assert result.schedule is None
    assert result.cost is None
    assert result.model.to_lp_text() == build_model(sc)[0].to_lp_text()


def test_shift_decode_lands_block():
    app = ApplianceSpec("dw", (0.0, 0.0, 0.0, 1.2, 0.0, 0.0), adt_hours=2.0)
    sc = make_scenario(T=6, appliances=[app])
    model, varmap = build_model(sc)
    values = np.zeros(model.num_variables)
    values[varmap.shift[0, 3] + 2] = 1.0  # choice k lands at 3 + k
    schedule = schedule_from_values(sc, varmap, values)
    assert schedule.shifts[0, 3] == 5
    assert schedule.shifts.dtype == np.int16
    assert schedule.served_load[5] == pytest.approx(1.0 + 1.2)
    assert schedule.served_load[3] == pytest.approx(1.0)


@pytest.mark.parametrize("weights, dst", [((0.5, 0.5), 3), ((0.2, 0.3, 0.5), 5)])
def test_fractional_block_lands_at_largest_weight_first_on_ties(weights, dst):
    """A fractional block decodes to its largest choice, the earliest of a tie."""
    app = ApplianceSpec("dw", (0.0, 0.0, 0.0, 1.2, 0.0, 0.0), adt_hours=len(weights) - 1.0)
    sc = make_scenario(T=6, appliances=[app])
    model, varmap = build_model(sc)
    values = np.zeros(model.num_variables)
    ids = {v.name: v.id for v in model.variables}
    for k, w in enumerate(weights):
        values[ids[f"shift_dw_3_{3 + k}"]] = w
    schedule = schedule_from_values(sc, varmap, values)
    assert schedule.shifts[0].tolist() == [-1, -1, -1, dst, -1, -1]
    assert schedule.served_load[dst] == pytest.approx(1.0 + 1.2)


def test_identity_shift_preserves_profile():
    apps = [
        ApplianceSpec("a", (0.5, 0.0, 0.7), adt_hours=1.0),
        ApplianceSpec("b", (0.0, 0.3, 0.0), adt_hours=0.0),
    ]
    sc = make_scenario(T=3, appliances=apps)
    model, varmap = build_model(sc)
    values = np.zeros(model.num_variables)
    for first in varmap.shift[0]:
        if first >= 0:
            values[first] = 1.0  # choice 0 lands at the source
    schedule = schedule_from_values(sc, varmap, values)
    expected = np.array(sc.non_deferrable) + np.array([0.5, 0.3, 0.7])
    assert np.allclose(schedule.served_load, expected)
    assert schedule.shifts.tolist() == [[0, -1, 2], [-1, 1, -1]]  # zero-ADT "b" stays put


def test_pv_split_rechecked_on_case_b(hourly_sweep):
    scenario, result = hourly_sweep[("B", True)]
    total = result.schedule.pv_used + result.schedule.pv_sold
    assert np.allclose(total, np.array(scenario.pv_gen), atol=1e-6)


def test_tiny_values_clamped():
    sc = make_scenario(T=2)
    model, varmap = build_model(sc)
    values = np.zeros(model.num_variables)
    values[varmap.ids[0, 0]] = 3e-10  # grid_buy
    values[varmap.ids[0, 1]] = 1.0
    schedule = schedule_from_values(sc, varmap, values)
    assert schedule.grid_buy[0] == 0.0
    assert schedule.grid_buy[1] == 1.0


# ---------------------------------------------------------------------------
# cost


def test_cost_single_interval_buy():
    sc = make_scenario(T=1, buy=[10.0], nd=[2.0])
    schedule = Schedule(
        grid_buy=np.array([2.0]),
        grid_sell=np.zeros(1),
        pv_used=np.zeros(1),
        pv_sold=np.zeros(1),
        served_load=np.array([2.0]),
        ess=None,
        ev=None,
        shifts=np.empty((0, 1), dtype=np.int16),
    )
    cost = compute_cost(schedule, sc.tariff, sc.penalties, sc.grid.dt)
    assert cost.bill == pytest.approx(20.0)
    assert cost.penalty == 0.0
    assert cost.objective == pytest.approx(20.0)


def test_cost_pv_export_with_priority_penalty():
    sc = make_scenario(T=1, sell=[3.0], nd=[0.0], pv=[1.0])
    schedule = Schedule(
        grid_buy=np.zeros(1),
        grid_sell=np.array([1.0]),
        pv_used=np.zeros(1),
        pv_sold=np.array([1.0]),
        served_load=np.zeros(1),
        ess=None,
        ev=None,
        shifts=np.empty((0, 1), dtype=np.int16),
    )
    cost = compute_cost(schedule, sc.tariff, sc.penalties, sc.grid.dt)
    assert cost.bill == pytest.approx(-3.0)
    assert cost.penalty == pytest.approx(1e-4)
    assert cost.objective == pytest.approx(-3.0 + 1e-4)


def test_cost_length_mismatch():
    sc = make_scenario(T=2)
    schedule = Schedule(
        grid_buy=np.zeros(1),
        grid_sell=np.zeros(1),
        pv_used=np.zeros(1),
        pv_sold=np.zeros(1),
        served_load=np.zeros(1),
        ess=None,
        ev=None,
        shifts=np.empty((0, 1), dtype=np.int16),
    )
    with pytest.raises(ValueError, match="length"):
        compute_cost(schedule, sc.tariff, sc.penalties, sc.grid.dt)


def test_cost_matches_solver_objective(hourly_sweep):
    scenario, result = hourly_sweep[("C", True)]
    assert result.cost.objective == pytest.approx(result.solution.objective, abs=1e-6)
    assert result.cost.objective == pytest.approx(result.cost.bill + result.cost.penalty)


# ---------------------------------------------------------------------------
# physical invariants on solved scenarios


def test_energy_balance_every_interval(hourly_sweep):
    for (case, dsm), (scenario, result) in hourly_sweep.items():
        s = result.schedule
        supply = s.grid_buy + s.pv_used
        demand = s.served_load.copy()
        if s.ess is not None:
            supply = supply + s.ess.used
            demand = demand + s.ess.charge
        if s.ev is not None:
            supply = supply + s.ev.used
            demand = demand + s.ev.charge
        assert np.max(np.abs(supply - demand)) < 1e-6, (case, dsm)


def test_soe_telescoping(hourly_sweep):
    scenario, result = hourly_sweep[("D", True)]
    dt = scenario.grid.dt
    ess = result.schedule.ess
    spec = scenario.ess
    delta = np.sum(ess.charge * spec.charge_eff - ess.discharge) * dt
    assert ess.soe[-1] - spec.soe_init == pytest.approx(delta, abs=1e-6)

    ev = result.schedule.ev
    evs = scenario.ev.storage
    w = slice(scenario.ev.arrival, scenario.ev.departure + 1)
    delta = np.sum(ev.charge[w] * evs.charge_eff - ev.discharge[w]) * dt
    assert ev.soe[scenario.ev.departure] - evs.soe_init == pytest.approx(delta, abs=1e-6)


def test_shift_conservation(hourly_sweep):
    for (case, dsm), (scenario, result) in hourly_sweep.items():
        scheduled = sum(sum(a.profile) for a in scenario.appliances)
        served_def = np.sum(result.schedule.served_load) - sum(scenario.non_deferrable)
        assert served_def == pytest.approx(scheduled, abs=1e-6), (case, dsm)


def test_no_early_shift(hourly_sweep):
    for (case, dsm), (scenario, result) in hourly_sweep.items():
        for app, dests in zip(scenario.appliances, result.schedule.shifts.tolist()):
            adt = app.adt_intervals(scenario.grid.dt)
            for src in np.flatnonzero(app.profile > 0):
                assert src <= dests[src] <= src + adt, (case, dsm, app.name)


def test_mutual_exclusivity(hourly_sweep):
    for (case, dsm), (scenario, result) in hourly_sweep.items():
        s = result.schedule
        assert np.max(np.minimum(s.grid_buy, s.grid_sell)) <= 1e-6
        if s.ess is not None:
            assert np.max(np.minimum(s.ess.charge, s.ess.discharge)) <= 1e-6
        if s.ev is not None:
            assert np.max(np.minimum(s.ev.charge, s.ev.discharge)) <= 1e-6


def test_dsm_never_hurts(hourly_sweep):
    for case in "ABCD":
        off = hourly_sweep[(case, False)][1].cost.objective
        on = hourly_sweep[(case, True)][1].cost.objective
        assert on <= off + 1e-6, case


def test_pv_monotonicity_random():
    rng = np.random.default_rng(8)
    tried = 0
    while tried < 12:
        sc = random_small_scenario(rng, allow_devices=False)
        base = solve_scenario(sc)
        if base.schedule is None:
            continue
        bumped_pv = tuple(p + float(rng.uniform(0, 1.5)) for p in sc.pv_gen)
        more = solve_scenario(replace(sc, pv_gen=bumped_pv))
        assert more.cost.objective <= base.cost.objective + 1e-6
        tried += 1


def test_ess_terminal_reserve_honored(hourly_sweep):
    scenario, result = hourly_sweep[("C", True)]
    assert scenario.ess_end_reserve
    assert result.schedule.ess.soe[-1] >= scenario.ess.soe_init - 1e-6


def test_ev_full_at_departure(hourly_sweep):
    scenario, result = hourly_sweep[("D", True)]
    dep = scenario.ev.departure
    assert result.schedule.ev.soe[dep] == pytest.approx(scenario.ev.storage.soe_max, abs=1e-6)
    outside = np.ones(scenario.grid.T, dtype=bool)
    outside[scenario.ev.arrival : dep + 1] = False
    for arr in (result.schedule.ev.charge, result.schedule.ev.discharge,
                result.schedule.ev.used, result.schedule.ev.sold, result.schedule.ev.soe):
        assert np.all(arr[outside] == 0.0)


def test_export_priority_prefers_pv():
    # One interval; PV, ESS and EV can each deliver the single exportable kWh
    # at zero marginal cost. The export cap forces exactly 1 kW out; the
    # penalty ordering must pick PV as the source.
    ess = small_ess(charge_eff=1.0, discharge_eff=1.0, soe_init=2.0)
    ev = EVSpec(
        StorageSpec(3.0, 3.0, 1.0, 1.0, 0.0, 5.0, 4.0),
        arrival=0,
        departure=0,
        require_full_at_departure=False,
    )
    sc = make_scenario(
        T=1,
        buy=[10.0],
        sell=[3.0],
        nd=[0.0],
        pv=[1.0],
        ess=ess,
        ess_end_reserve=False,
        ev=ev,
        big_m=(10.0, 1.0),
    )
    result = solve_scenario(sc)
    s = result.schedule
    assert s.grid_sell[0] == pytest.approx(1.0, abs=1e-6)
    assert s.pv_sold[0] == pytest.approx(1.0, abs=1e-6)
    assert s.ess.sold[0] <= 1e-6
    assert s.ev.sold[0] <= 1e-6


# sha256 of to_lp_text() per (scenario, case, dsm, full model). A change to
# any variable, row, bound, tag or objective term, or to their order, changes
# a digest, so a refactor of build_model must leave every one as it is.
MODEL_DIGESTS = {
    ("hourly", "A", False, False): "844863d8c315988e23141e3e573efb7699b8104ad8f37d596d6a0e2c67f430b8",
    ("hourly", "A", False, True): "7e1f3e2d1436631dd735a908f31dbc46b0f72db9685c00b9e4ec450e419271c8",
    ("hourly", "A", True, False): "f1b019cc9728bc89e99d4ff5f412444f7ab34edb147e822da4966cd71cf4c7f7",
    ("hourly", "A", True, True): "4143c490b8519a405a16f02a01911383da132f9f04f163372f9b1102203a0d37",
    ("hourly", "B", False, False): "935d79bf3e91eaf38d2d549aa3d7387753c0676db8d575fc6a5a8eff6765dcff",
    ("hourly", "B", False, True): "ef281593810c513a3567b36ec38c3acd4f668b862292616c9acdc5122cd863a5",
    ("hourly", "B", True, False): "1dbeb68b23b6dc1f1286085b9a1a83c8892640c3e0dfacee11655099d25a3744",
    ("hourly", "B", True, True): "3e471335a5f0172d062fde084b7fb4ba72b52393365180e3a66c467221b0df1a",
    ("hourly", "C", False, False): "f0d5859457a6097b89c6676051df3579b563cdfcd58242c94997901a2dfa03a9",
    ("hourly", "C", False, True): "f34870a01de0fd8923ce3abd42c9fccff16a0275f30549b8e932f793c590fddd",
    ("hourly", "C", True, False): "28513ea73baece97a2eadc6cf009a97bd2757b8782c5caefe8af0acfddc5c1f2",
    ("hourly", "C", True, True): "5d8ccb8959f522122f0c2e70431fd5281df48a1e45504e22ab568784b0d4fb59",
    ("hourly", "D", False, False): "01d964d1294a309253fde8b9315a3def747c70c3c5760074db093776f819cd5f",
    ("hourly", "D", False, True): "042f21d7734b242b5ba863254b2bf5e759bd57b5f0c3c6dfcfa6dc456dc4c53e",
    ("hourly", "D", True, False): "1fa6a90e081bd931cf78d9197f9312122d14538c1c873e2d540a3c0aa48958ba",
    ("hourly", "D", True, True): "835db57a4788752fcd29f377d4a492ffacbe2f3def4506fd2640f33e19cdf1a2",
    ("halfhour", "A", False, False): "8be3dfe09573e0fbedf545b2eedb1d7bb0ce9a8967c4ce40993d8b505cf87a79",
    ("halfhour", "A", False, True): "3cf15a1cbacf16ad21032d398b693f229da8dee30474eafb949a5ec673b4ebde",
    ("halfhour", "A", True, False): "e9abee86c833255af6462ccc9bdd280aa3f60b03cb02b086790ac2890e78dd91",
    ("halfhour", "A", True, True): "d89db93263404a01e0d223090b7740d04ce372a8b4c6f6af2f43dc054e34dd64",
    ("halfhour", "B", False, False): "ec9467501976b5710d5c9a92869d25e83842e73c127a91c124ab4537a4073d4b",
    ("halfhour", "B", False, True): "678632f6675ec2377f30f279b87f9927d8b0e3d263e4284703026017213825cc",
    ("halfhour", "B", True, False): "24bb38e8d7b20dd7cb7c137416a68dc50f9893785d98f7cdf5686daf31437827",
    ("halfhour", "B", True, True): "edb246a516638e309410b46e44dc4c0401ba81184b093e7bdd0c197162f666ab",
    ("halfhour", "C", False, False): "4c2d36c05c1ff6dba3575c2a69cc48923c5da104d17b2588225861980a2406e5",
    ("halfhour", "C", False, True): "824ba09bad26517a50dd5cca276f01bcaab3f974126b3e333a448e5609f1ecac",
    ("halfhour", "C", True, False): "7f6aa4b0fe2c8c26fefc149d03d77d321efef9ec3a8fe41b7a52d792bdb2160b",
    ("halfhour", "C", True, True): "8dea29425cb84a19734988f3d8134a86128f70746e3e2bc85766c69371b8166d",
    ("halfhour", "D", False, False): "0b6db1e91647178b4b5d1d88ff67f9a011be10bbda6d1bbabefe428b9cb3ac63",
    ("halfhour", "D", False, True): "6ee66e75cfc41994906a5aca90fcb9a04348c90ae2c404f5d726cec511240e5c",
    ("halfhour", "D", True, False): "cf9b994a507da8b3ae1c53910a2490f016067cbe13af5ee3a802a1b2642c616a",
    ("halfhour", "D", True, True): "495db3e9e2148e87f71713b8b9291ca5b4c26c8028f0b7702b1d3dedf901df1f",
    ("no_end_reserve", "D", True, False): "4462b1480b2f6ca682b2b51afb8a3442d4b5a9abf38e3a8be3b391b9d006b62f",
    ("no_end_reserve", "D", True, True): "b0bc62d046a69c336b1569ecde79ce059a5c48552de48dc223976d7c271e9c6f",
    ("ev_not_full", "D", True, False): "e9da990cc7de8cc59825524d5e2e7d8f2814af915a134adb6657af42a7fd2d8f",
    ("ev_not_full", "D", True, True): "4c283ba0f30f213b449fc384e1a01a273cae56b444840f815170a363a82655c5",
}


def _digest_id(key) -> str:
    name, case, dsm, full = key
    return f"{name}-{case}-{'dsm' if dsm else 'nodsm'}-{'full' if full else 'solved'}"


@pytest.mark.parametrize("key", list(MODEL_DIGESTS), ids=_digest_id)
def test_compiled_models_are_pinned(request, key):
    name, case, dsm, full = key
    reference = "hourly" if name in ("no_end_reserve", "ev_not_full") else name
    sc = request.getfixturevalue(f"{reference}_reference")
    if name == "no_end_reserve":
        sc = replace(sc, ess_end_reserve=False)
    elif name == "ev_not_full":
        sc = replace(sc, ev=replace(sc.ev, require_full_at_departure=False))
    model, _ = build_model(synth_case(case, dsm, sc), full=full)
    assert hashlib.sha256(model.to_lp_text().encode()).hexdigest() == MODEL_DIGESTS[key]
