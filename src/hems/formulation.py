"""Compile a Scenario into a MILP and map solutions back to a Schedule.

Per interval t the model carries grid buy/sell, a PV use/sell split,
charge/discharge/use/sell plus state-of-energy for the ESS and (inside its
availability window) the EV, and one binary per admissible (appliance,
source, destination) delay choice. The home power balance ties them
together; appliance blocks are atomic and may only be delayed, never
advanced. The paper's buy/sell and charge/discharge mode binaries, with
their big-M rows, are emitted only in the intervals where they can change
the optimum (see `mode_needed`). The solved model also substitutes out
pv_used = pv_gen - pv_sold everywhere, and grid_sell = pv_sold + sum(sold)
wherever no bound on grid_sell can bind; `build_model(sc, full=True)` keeps
the paper's model with every row and binary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .milp import MILPModel, MILPSolution, MilpOptions, solve_milp
from .scenario import Device, Scenario, StorageSpec, Tariff

CLAMP_EPS = 1e-9  # extracted magnitudes below this are reported as zero


@dataclass(frozen=True)
class VarMap:
    """Variable ids of a built model as two integer tables; -1 marks "no
    variable".

    Row r of `ids` is row r of the decoded table: the five rows of
    `Schedule.series`, then charge, discharge, used, sold and soe of each
    device of `Scenario.storage`. served_load, a device outside its window and
    the substituted pv_used and grid_sell have no id; `schedule_from_values`
    derives them. `shift[a, src]` is the id of the first delay choice of
    appliance a's block at src: choice k is that id + k and lands at src + k,
    in `shift_destinations` order. Mode binaries are not mapped; the model
    names them `u_grid_<t>` and `u_<device>_<t>`.
    """

    ids: np.ndarray    # (5 + 5 * len(storage), T)
    shift: np.ndarray  # (len(appliances), T)


def _row(i: int) -> property:
    """Row i of `series`, as a view: element writes go through to it."""
    return property(lambda self: self.series[i])


@dataclass(eq=False, slots=True, init=False)
class DeviceSchedule:
    """Charge, discharge, used, sold (kW) and soe (kWh) of one storage device,
    held as the rows of one (5, T) array."""

    series: np.ndarray

    def __init__(self, charge, discharge, used, sold, soe):
        self.series = np.array([charge, discharge, used, sold, soe], dtype=float)

    charge = _row(0)
    discharge = _row(1)
    used = _row(2)
    sold = _row(3)
    soe = _row(4)

    @classmethod
    def zeros(cls, T: int) -> "DeviceSchedule":
        return cls(*np.zeros((5, T)))


@dataclass(eq=False, slots=True, init=False)
class Schedule:
    """Physical quantities of a solved day, all length-T arrays in kW except
    soe (kWh); grid_buy, grid_sell, pv_used, pv_sold and served_load are the
    rows of one (5, T) array. `shifts` is a (len(appliances), T) int16 array
    in scenario order: shifts[a, src] is the destination of appliance a's
    block scheduled at src, or -1 where no load is scheduled."""

    series: np.ndarray
    ess: DeviceSchedule | None
    ev: DeviceSchedule | None
    shifts: np.ndarray

    def __init__(self, grid_buy, grid_sell, pv_used, pv_sold, served_load, ess, ev, shifts):
        self.series = np.array([grid_buy, grid_sell, pv_used, pv_sold, served_load], dtype=float)
        self.ess, self.ev, self.shifts = ess, ev, shifts

    grid_buy = _row(0)
    grid_sell = _row(1)
    pv_used = _row(2)
    pv_sold = _row(3)
    served_load = _row(4)


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    bill: float       # cents: purchases minus sale revenue
    penalty: float    # cents: export-priority penalties
    objective: float  # bill + penalty


@dataclass(eq=False)
class ScenarioResult:
    """One solved household-day. `schedule` and `cost` are None unless the
    solution holds a point: optimal, or an incumbent kept at a stop."""

    model: MILPModel
    solution: MILPSolution
    schedule: Schedule | None
    cost: CostBreakdown | None


def shift_destinations(T: int, src: int, adt_intervals: int) -> range:
    """Admissible landing intervals for a block scheduled at `src`: delay
    only, at most the acceptable delay, never past the horizon."""
    return range(src, min(src + adt_intervals, T - 1) + 1)


def mode_needed(sc: Scenario) -> dict[str, list[bool]]:
    """Per interval, whether the grid and each storage device keep a mode
    binary, keyed "grid" and by device name, and whether the export sum keeps
    its row and grid_sell, keyed "export".

    Without it exclusivity is relaxed. That is exact in interval t when an
    exchange confined to t strictly improves any point with simultaneous
    flows there, whatever the other binaries are (prices >= 0, penalties
    0 <= e_pv < e_ess < e_ev):

    * Grid, if sell[t] < buy[t]: buying and exporting, buy eps less and turn
      eps of an export (penalty e) into own use: (sell - buy - e)*eps < 0.
    * Storage with eta = charge_eff*discharge_eff, if also
      sell[t]*(1 - eta) > max(penalties) and pv_gen[t] plus the deliverable
      rates of the devices present at t is within the export cap: charging
      and discharging, charge d less and discharge charge_eff*d less. The
      energy state is the same; the device delivers eta*d less and the home
      needs d less. If it buys, it buys (1 - eta)*d less, or d less while
      exporting eta*d less; both gain as buy > sell. Otherwise own use (of
      PV or devices) equals load plus charging > 0, and d of it turns into
      export: the device's own use, gaining (sell - e)*(1 - eta)*d, or else
      a source s's while the device exports eta*d less, gaining
      (sell*(1 - eta) - e_s + eta*e)*d. Export has that room: it is at most
      pv_gen[t] plus those deliverable rates minus own use. The price test
      also keeps the binary of a lossless device (eta = 1) and wherever
      sell[t] <= max(penalties).

    The same room makes the export sum an identity: where it is within the
    export cap, pv_sold + sum(sold) lies in [0, cap] by its terms' bounds,
    so grid_sell can be substituted out unless a grid binary needs it.
    """
    T = sc.grid.T
    buy, sell = sc.tariff.buy.tolist(), sc.tariff.sell.tolist()
    grid = [s >= b for s, b in zip(sell, buy)]
    room = sc.pv_gen.tolist()  # most the home can export at t
    for dev in sc.storage:
        for t in range(dev.window[0], dev.window[1] + 1):
            room[t] += dev.spec.discharge_rate * dev.spec.discharge_eff
    export = [g or r > sc.caps[1] for g, r in zip(grid, room)]

    def storage(spec: StorageSpec) -> list[bool]:
        loss = 1.0 - spec.charge_eff * spec.discharge_eff
        return [export[t] or sell[t] * loss <= max(sc.penalties) for t in range(T)]

    return {"grid": grid, "export": export, **{dev.name: storage(dev.spec) for dev in sc.storage}}


def _add_mode(model: MILPModel, label: str, t: int, on: tuple, off: tuple) -> int:
    """Mode binary u of `label` at t: the `on` flow may be nonzero only when
    u = 1 and the `off` flow only when u = 0. Each is (name, var id, cap)."""
    (on_name, on_var, on_cap), (off_name, off_var, off_cap) = on, off
    u = model.add_binary(f"u_{label}_{t}")
    model.add_constraint([(on_var, 1.0), (u, -on_cap)], "<=", 0.0, f"{label}_{on_name}_mode_{t}")
    model.add_constraint(
        [(off_var, 1.0), (u, off_cap)], "<=", off_cap, f"{label}_{off_name}_mode_{t}"
    )
    return u


def _add_storage_block(
    model: MILPModel, dev: Device, T: int, dt: float, keep_mode: list[bool]
) -> list[list[int]]:
    """One device's variables and rows; returns its charge, discharge, used,
    sold and soe ids per interval, -1 outside its window."""
    label, spec = dev.name, dev.spec
    lo_t, hi_t = dev.window
    rows = [[-1] * T for _ in range(5)]
    charge, discharge, used, sold, soe = rows
    deliver_cap = spec.discharge_rate * spec.discharge_eff
    for t in range(lo_t, hi_t + 1):
        charge[t] = model.add_continuous(f"{label}_charge_{t}", 0.0, spec.charge_rate)
        discharge[t] = model.add_continuous(f"{label}_discharge_{t}", 0.0, spec.discharge_rate)
        used[t] = model.add_continuous(f"{label}_used_{t}", 0.0, deliver_cap)
        sold[t] = model.add_continuous(f"{label}_sold_{t}", 0.0, deliver_cap)
        soe[t] = model.add_continuous(f"{label}_soe_{t}", spec.soe_min, spec.soe_max)

        # Delivered energy split between home use and export.
        model.add_constraint(
            [(used[t], 1.0), (sold[t], 1.0), (discharge[t], -spec.discharge_eff)],
            "=",
            0.0,
            f"{label}_split_{t}",
        )
        if keep_mode[t]:
            _add_mode(
                model, label, t,
                ("charge", charge[t], spec.charge_rate),
                ("discharge", discharge[t], spec.discharge_rate),
            )
        # State of energy recursion; the first interval starts from the
        # pre-horizon stored energy.
        terms = [(soe[t], 1.0), (charge[t], -spec.charge_eff * dt), (discharge[t], dt)]
        if t == lo_t:
            model.add_constraint(terms, "=", spec.soe_init, f"{label}_soe_{t}")
        else:
            terms.append((soe[t - 1], -1.0))
            model.add_constraint(terms, "=", 0.0, f"{label}_soe_{t}")
    return rows


def build_model(sc: Scenario, full: bool = False) -> tuple[MILPModel, VarMap]:
    """Compile a scenario into a MILP and its variable map.

    Mode binaries appear only where `mode_needed` says they can matter, and
    pv_used and grid_sell are substituted out as far as that is exact;
    `full=True` gives the paper's model with every row and binary.
    """
    T = sc.grid.T
    dt = sc.grid.dt
    n1, n2 = sc.caps
    buy, sell, pv_gen = sc.tariff.buy.tolist(), sc.tariff.sell.tolist(), sc.pv_gen.tolist()
    model = MILPModel("hems_day_ahead")
    keep = mode_needed(sc)
    if full:
        keep = dict.fromkeys(keep, [True] * T)

    grid_buy = [model.add_continuous(f"grid_buy_{t}", 0.0, n1) for t in range(T)]
    grid_sell = [
        model.add_continuous(f"grid_sell_{t}", 0.0, n2) if keep["export"][t] else -1
        for t in range(T)
    ]
    for t in range(T):
        if keep["grid"][t]:
            _add_mode(model, "grid", t, ("buy", grid_buy[t], n1), ("sell", grid_sell[t], n2))
    pv_used = [
        model.add_continuous(f"pv_used_{t}", 0.0, pv_gen[t]) if full else -1 for t in range(T)
    ]
    pv_sold = [model.add_continuous(f"pv_sold_{t}", 0.0, pv_gen[t]) for t in range(T)]

    storage = [(dev, _add_storage_block(model, dev, T, dt, keep[dev.name])) for dev in sc.storage]

    # Delay-choice binaries: one per admissible (appliance, source,
    # destination) pair, added in destination order; sources with zero
    # scheduled load or zero delay allowance need no variables.
    shift = [[-1] * T for _ in sc.appliances]
    fixed_load = sc.non_deferrable.tolist()
    incoming: list[list[tuple[int, float]]] = [[] for _ in range(T)]
    for ai, app in enumerate(sc.appliances):
        adt = app.adt_intervals(dt)
        profile = app.profile.tolist()
        if adt == 0:
            for t in range(T):
                fixed_load[t] += profile[t]
            continue
        for src in range(T):
            if profile[src] <= 0.0:
                continue
            choices = []
            for dst in shift_destinations(T, src, adt):
                vid = model.add_binary(f"shift_{app.name}_{src}_{dst}")
                choices.append((vid, 1.0))
                incoming[dst].append((vid, profile[src]))
            shift[ai][src] = choices[0][0]
            model.add_constraint(choices, "=", 1.0, f"shift_assign_{app.name}_{src}")

    obj: list[tuple[int, float]] = []
    for t in range(T):
        # (penalty, charge, used, sold) of each device present at t.
        present = [(dev.penalty, rows[0][t], rows[2][t], rows[3][t])
                   for dev, rows in storage if rows[0][t] >= 0]
        # Home power balance: supply meets served load plus device charging.
        if full:
            terms, rhs = [(grid_buy[t], 1.0), (pv_used[t], 1.0)], fixed_load[t]
        else:
            terms, rhs = [(grid_buy[t], 1.0), (pv_sold[t], -1.0)], fixed_load[t] - pv_gen[t]
        for _, charge, used, _ in present:
            terms += [(used, 1.0), (charge, -1.0)]
        terms += [(vid, -load) for vid, load in incoming[t]]
        model.add_constraint(terms, "=", rhs, f"balance_{t}")

        # PV energy conservation.
        if full:
            model.add_constraint(
                [(pv_used[t], 1.0), (pv_sold[t], 1.0)], "=", pv_gen[t], f"pv_balance_{t}"
            )

        # Total export aggregation; where it is substituted out, the sale
        # price moves onto each source.
        sale = 0.0
        obj.append((grid_buy[t], buy[t] * dt))
        if grid_sell[t] >= 0:
            terms = [(grid_sell[t], 1.0), (pv_sold[t], -1.0)]
            terms += [(sold, -1.0) for *_, sold in present]
            model.add_constraint(terms, "=", 0.0, f"export_sum_{t}")
            obj.append((grid_sell[t], -sell[t] * dt))
        else:
            sale = -sell[t] * dt

        # Objective: energy bill plus the export-priority penalties.
        obj.append((pv_sold[t], sc.penalties[0] * dt + sale))
        obj += [(sold, penalty * dt + sale) for penalty, _, _, sold in present]
    model.set_objective(obj)

    # Rows on each device's last state of energy.
    for dev, rows in storage:
        if dev.end is not None:
            tag, sense, kwh = dev.end
            model.add_constraint([(rows[4][dev.window[1]], 1.0)], sense, kwh, tag)

    ids = [grid_buy, grid_sell, pv_used, pv_sold, [-1] * T]
    ids += [row for _, rows in storage for row in rows]
    shift_ids = np.array(shift, dtype=np.intp).reshape(len(shift), T)
    return model, VarMap(np.array(ids, dtype=np.intp), shift_ids)


def _clamp(series: np.ndarray) -> None:
    """Report magnitudes below CLAMP_EPS as zero, in place."""
    series[np.abs(series) < CLAMP_EPS] = 0.0


def schedule_from_values(
    scenario: Scenario, varmap: VarMap, values: np.ndarray
) -> Schedule:
    """Decode a raw variable assignment (feasible or not) into a Schedule.

    One gather reads every mapped quantity. Substituted-out quantities are
    derived: pv_used = pv_gen - pv_sold and grid_sell = pv_sold + the
    devices' sold. Fractional delay-choice variables are decoded to the
    destination with the largest weight (first on ties).
    """
    sc = scenario
    T = sc.grid.T
    ids = varmap.ids
    table = np.where(ids >= 0, values[ids], 0.0)
    household, devices = table[:5], table[5:]
    _clamp(devices)
    grid_sell = household[3].copy()
    for sold in devices[3::5]:
        grid_sell += sold
    np.copyto(household[1], grid_sell, where=ids[1] < 0)
    np.copyto(household[2], sc.pv_gen - household[3], where=ids[2] < 0)

    shifts = np.full((len(sc.appliances), T), -1, dtype=np.int16)
    served = household[4]
    served[:] = sc.non_deferrable
    for ai, app in enumerate(sc.appliances):
        adt = app.adt_intervals(sc.grid.dt)
        if adt == 0:  # no delay allowance: every block stays put
            loaded = app.profile > 0.0
            shifts[ai, loaded] = np.flatnonzero(loaded)
            served += app.profile
            continue
        profile = app.profile.tolist()
        for src, first in enumerate(varmap.shift[ai].tolist()):
            if first >= 0:
                run = values[first:first + len(shift_destinations(T, src, adt))].tolist()
                dst = src + run.index(max(run))  # the first of the largest
                shifts[ai, src] = dst
                served[dst] += profile[src]
    _clamp(household)

    by_name = {dev.name: DeviceSchedule(*rows)
               for dev, rows in zip(sc.storage, devices.reshape(-1, 5, T))}
    return Schedule(*household, by_name.get("ess"), by_name.get("ev"), shifts)


def extract_schedule(
    scenario: Scenario, varmap: VarMap, solution: MILPSolution
) -> Schedule:
    """Decode the point of a solution with a finite objective."""
    if not math.isfinite(solution.objective):
        raise ValueError(f"cannot extract a schedule from a {solution.status} solution")
    return schedule_from_values(scenario, varmap, solution.values)


def compute_cost(
    schedule: Schedule,
    tariff: Tariff,
    penalties: tuple[float, float, float],
    dt: float,
) -> CostBreakdown:
    """Bill and penalty of a schedule, in cents."""
    T = len(schedule.grid_buy)
    if len(tariff.buy) != T or len(tariff.sell) != T:
        raise ValueError(f"tariff length {len(tariff.buy)} does not match schedule length {T}")
    bill = float(
        np.sum(schedule.grid_buy * tariff.buy * dt) - np.sum(schedule.grid_sell * tariff.sell * dt)
    )
    penalty = float(np.sum(penalties[0] * schedule.pv_sold * dt))
    for dev, e in zip((schedule.ess, schedule.ev), penalties[1:]):
        if dev is not None:
            penalty += float(np.sum(e * dev.sold * dt))
    return CostBreakdown(bill=bill, penalty=penalty, objective=bill + penalty)


def solve_scenario(
    scenario: Scenario, options: MilpOptions | None = None
) -> ScenarioResult:
    """Build, solve and decode a scenario: the one pipeline behind the CLI.

    Never raises on a solver outcome: the status is `result.solution.status`,
    and the schedule and cost are decoded whenever its objective is finite.
    """
    model, varmap = build_model(scenario)
    solution = solve_milp(model, options)
    if not math.isfinite(solution.objective):
        return ScenarioResult(model, solution, None, None)
    schedule = extract_schedule(scenario, varmap, solution)
    cost = compute_cost(schedule, scenario.tariff, scenario.penalties, scenario.grid.dt)
    return ScenarioResult(model, solution, schedule, cost)
