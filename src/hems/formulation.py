"""Compile a Scenario into a MILP and map solutions back to a Schedule.

Per interval t the model carries grid buy/sell with a mode binary, a PV
use/sell split, charge/discharge/use/sell plus state-of-energy for the ESS
and (inside its availability window) the EV, and one binary per admissible
(appliance, source, destination) delay choice. The home power balance ties
them together; appliance blocks are atomic and may only be delayed, never
advanced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .milp import MILPModel, MILPSolution, MilpOptions, OPTIMAL, solve_milp
from .scenario import Scenario, StorageSpec, Tariff, validate

CLAMP_EPS = 1e-9  # extracted magnitudes below this are reported as zero


@dataclass(frozen=True)
class StorageVars:
    """Variable ids of one storage device, keyed by interval."""

    window: tuple[int, int]          # inclusive presence range
    charge: dict[int, int]
    discharge: dict[int, int]
    used: dict[int, int]
    sold: dict[int, int]
    soe: dict[int, int]
    mode: dict[int, int]             # 1 = charging side active


@dataclass(frozen=True)
class VarMap:
    grid_buy: tuple[int, ...]
    grid_sell: tuple[int, ...]
    grid_mode: tuple[int, ...]
    pv_used: tuple[int, ...]
    pv_sold: tuple[int, ...]
    ess: StorageVars | None
    ev: StorageVars | None
    # appliance index -> source interval -> ((destination, var id), ...)
    shift: dict[int, dict[int, tuple[tuple[int, int], ...]]]


@dataclass(eq=False)
class DeviceSchedule:
    charge: np.ndarray
    discharge: np.ndarray
    used: np.ndarray
    sold: np.ndarray
    soe: np.ndarray

    @classmethod
    def zeros(cls, T: int) -> "DeviceSchedule":
        return cls(*(np.zeros(T) for _ in range(5)))


@dataclass(eq=False)
class Schedule:
    """Physical quantities of a solved day, all length-T arrays in kW except
    soe (kWh). `shifts` maps appliance name -> {source interval: destination}
    for every source with nonzero scheduled load."""

    grid_buy: np.ndarray
    grid_sell: np.ndarray
    pv_used: np.ndarray
    pv_sold: np.ndarray
    served_load: np.ndarray
    ess: DeviceSchedule | None
    ev: DeviceSchedule | None
    shifts: dict[str, dict[int, int]]


@dataclass(frozen=True)
class CostBreakdown:
    bill: float       # cents: purchases minus sale revenue
    penalty: float    # cents: export-priority penalties
    objective: float  # bill + penalty


@dataclass(eq=False)
class ScenarioResult:
    """One solved household-day. `schedule` and `cost` are None unless the
    solver status is optimal."""

    model: MILPModel
    solution: MILPSolution
    schedule: Schedule | None
    cost: CostBreakdown | None


def shift_destinations(T: int, src: int, adt_intervals: int) -> range:
    """Admissible landing intervals for a block scheduled at `src`: delay
    only, at most the acceptable delay, never past the horizon."""
    return range(src, min(src + adt_intervals, T - 1) + 1)


def _add_storage_block(
    model: MILPModel,
    label: str,
    spec: StorageSpec,
    window: tuple[int, int],
    dt: float,
) -> StorageVars:
    lo_t, hi_t = window
    charge: dict[int, int] = {}
    discharge: dict[int, int] = {}
    used: dict[int, int] = {}
    sold: dict[int, int] = {}
    soe: dict[int, int] = {}
    mode: dict[int, int] = {}
    deliver_cap = spec.discharge_rate * spec.discharge_eff
    for t in range(lo_t, hi_t + 1):
        charge[t] = model.add_continuous(f"{label}_charge_{t}", 0.0, spec.charge_rate)
        discharge[t] = model.add_continuous(f"{label}_discharge_{t}", 0.0, spec.discharge_rate)
        used[t] = model.add_continuous(f"{label}_used_{t}", 0.0, deliver_cap)
        sold[t] = model.add_continuous(f"{label}_sold_{t}", 0.0, deliver_cap)
        soe[t] = model.add_continuous(f"{label}_soe_{t}", spec.soe_min, spec.soe_max)
        mode[t] = model.add_binary(f"u_{label}_{t}")

        # Delivered energy split between home use and export.
        model.add_constraint(
            [(used[t], 1.0), (sold[t], 1.0), (discharge[t], -spec.discharge_eff)],
            "=",
            0.0,
            f"{label}_split_{t}",
        )
        # Mode exclusivity: charging only when mode=1, discharging when 0.
        model.add_constraint(
            [(charge[t], 1.0), (mode[t], -spec.charge_rate)],
            "<=",
            0.0,
            f"{label}_charge_mode_{t}",
        )
        model.add_constraint(
            [(discharge[t], 1.0), (mode[t], spec.discharge_rate)],
            "<=",
            spec.discharge_rate,
            f"{label}_discharge_mode_{t}",
        )
        # State of energy recursion; the first interval starts from the
        # pre-horizon stored energy.
        terms = [(soe[t], 1.0), (charge[t], -spec.charge_eff * dt), (discharge[t], dt)]
        if t == lo_t:
            model.add_constraint(terms, "=", spec.soe_init, f"{label}_soe_{t}")
        else:
            terms.append((soe[t - 1], -1.0))
            model.add_constraint(terms, "=", 0.0, f"{label}_soe_{t}")
    return StorageVars((lo_t, hi_t), charge, discharge, used, sold, soe, mode)


def build_model(scenario: Scenario) -> tuple[MILPModel, VarMap]:
    """Compile a validated scenario into a MILP and its variable map."""
    sc = validate(scenario)
    T = sc.grid.T
    dt = sc.grid.dt
    n1, n2 = sc.big_m
    model = MILPModel("hems_day_ahead")

    grid_buy = tuple(model.add_continuous(f"grid_buy_{t}", 0.0, n1) for t in range(T))
    grid_sell = tuple(model.add_continuous(f"grid_sell_{t}", 0.0, n2) for t in range(T))
    grid_mode = tuple(model.add_binary(f"u_grid_{t}") for t in range(T))
    pv_used = tuple(
        model.add_continuous(f"pv_used_{t}", 0.0, sc.pv_gen[t]) for t in range(T)
    )
    pv_sold = tuple(
        model.add_continuous(f"pv_sold_{t}", 0.0, sc.pv_gen[t]) for t in range(T)
    )

    ess = (
        _add_storage_block(model, "ess", sc.ess, (0, T - 1), dt)
        if sc.ess is not None
        else None
    )
    ev = (
        _add_storage_block(model, "ev", sc.ev.storage, (sc.ev.arrival, sc.ev.departure), dt)
        if sc.ev is not None
        else None
    )

    # Delay-choice binaries: one per admissible (appliance, source,
    # destination) pair; sources with zero scheduled load or zero delay
    # allowance need no variables.
    shift: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}
    fixed_load = list(sc.non_deferrable)
    incoming: list[list[tuple[int, float]]] = [[] for _ in range(T)]
    for ai, app in enumerate(sc.appliances):
        adt = app.adt_intervals(dt)
        if adt == 0:
            for t in range(T):
                fixed_load[t] += app.profile[t]
            continue
        per_src: dict[int, tuple[tuple[int, int], ...]] = {}
        for src in range(T):
            if app.profile[src] <= 0.0:
                continue
            choices = []
            for dst in shift_destinations(T, src, adt):
                vid = model.add_binary(f"shift_{app.name}_{src}_{dst}")
                choices.append((dst, vid))
                incoming[dst].append((vid, app.profile[src]))
            per_src[src] = tuple(choices)
            model.add_constraint(
                [(vid, 1.0) for _, vid in choices],
                "=",
                1.0,
                f"shift_assign_{app.name}_{src}",
            )
        shift[ai] = per_src

    for t in range(T):
        # Home power balance: supply meets served load plus device charging.
        terms = [(grid_buy[t], 1.0), (pv_used[t], 1.0)]
        if ess is not None:
            terms += [(ess.used[t], 1.0), (ess.charge[t], -1.0)]
        if ev is not None and ev.window[0] <= t <= ev.window[1]:
            terms += [(ev.used[t], 1.0), (ev.charge[t], -1.0)]
        terms += [(vid, -load) for vid, load in incoming[t]]
        model.add_constraint(terms, "=", fixed_load[t], f"balance_{t}")

        # PV energy conservation.
        model.add_constraint(
            [(pv_used[t], 1.0), (pv_sold[t], 1.0)], "=", sc.pv_gen[t], f"pv_balance_{t}"
        )

        # Total export aggregation.
        terms = [(grid_sell[t], 1.0), (pv_sold[t], -1.0)]
        if ess is not None:
            terms.append((ess.sold[t], -1.0))
        if ev is not None and ev.window[0] <= t <= ev.window[1]:
            terms.append((ev.sold[t], -1.0))
        model.add_constraint(terms, "=", 0.0, f"export_sum_{t}")

        # Buy/sell exclusivity through the grid-mode binary.
        model.add_constraint(
            [(grid_buy[t], 1.0), (grid_mode[t], -n1)], "<=", 0.0, f"grid_buy_mode_{t}"
        )
        model.add_constraint(
            [(grid_sell[t], 1.0), (grid_mode[t], n2)], "<=", n2, f"grid_sell_mode_{t}"
        )

    if ess is not None and sc.ess_end_reserve:
        model.add_constraint(
            [(ess.soe[T - 1], 1.0)], ">=", sc.ess.soe_init, "ess_end_reserve"
        )
    if ev is not None and sc.ev.require_full_at_departure:
        model.add_constraint(
            [(ev.soe[sc.ev.departure], 1.0)],
            "=",
            sc.ev.storage.soe_max,
            "ev_full_at_departure",
        )

    # Objective: energy bill plus the export-priority penalties.
    e1, e2, e3 = sc.penalties
    obj: list[tuple[int, float]] = []
    for t in range(T):
        obj.append((grid_buy[t], sc.tariff.buy[t] * dt))
        obj.append((grid_sell[t], -sc.tariff.sell[t] * dt))
        obj.append((pv_sold[t], e1 * dt))
        if ess is not None:
            obj.append((ess.sold[t], e2 * dt))
        if ev is not None and ev.window[0] <= t <= ev.window[1]:
            obj.append((ev.sold[t], e3 * dt))
    model.set_objective(obj)

    return model, VarMap(
        grid_buy=grid_buy,
        grid_sell=grid_sell,
        grid_mode=grid_mode,
        pv_used=pv_used,
        pv_sold=pv_sold,
        ess=ess,
        ev=ev,
        shift=shift,
    )


def _clamp(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=float).copy()
    out[np.abs(out) < CLAMP_EPS] = 0.0
    return out


def _extract_device(vars_: StorageVars, values: np.ndarray, T: int) -> DeviceSchedule:
    dev = DeviceSchedule.zeros(T)
    for t in range(vars_.window[0], vars_.window[1] + 1):
        dev.charge[t] = values[vars_.charge[t]]
        dev.discharge[t] = values[vars_.discharge[t]]
        dev.used[t] = values[vars_.used[t]]
        dev.sold[t] = values[vars_.sold[t]]
        dev.soe[t] = values[vars_.soe[t]]
    for name in ("charge", "discharge", "used", "sold", "soe"):
        setattr(dev, name, _clamp(getattr(dev, name)))
    return dev


def schedule_from_values(
    scenario: Scenario, varmap: VarMap, values: np.ndarray
) -> Schedule:
    """Decode a raw variable assignment (feasible or not) into a Schedule.

    Fractional delay-choice variables are decoded to the destination with the
    largest weight (first on ties).
    """
    sc = scenario
    T = sc.grid.T

    shifts: dict[str, dict[int, int]] = {}
    served = np.array(sc.non_deferrable, dtype=float)
    for ai, app in enumerate(sc.appliances):
        adt = app.adt_intervals(sc.grid.dt)
        assign: dict[int, int] = {}
        if adt == 0 or ai not in varmap.shift:
            for src in range(T):
                if app.profile[src] > 0.0:
                    assign[src] = src
                    served[src] += app.profile[src]
        else:
            for src, choices in varmap.shift[ai].items():
                dst = max(choices, key=lambda c: values[c[1]])[0]
                assign[src] = dst
                served[dst] += app.profile[src]
        shifts[app.name] = assign

    return Schedule(
        grid_buy=_clamp(values[list(varmap.grid_buy)]),
        grid_sell=_clamp(values[list(varmap.grid_sell)]),
        pv_used=_clamp(values[list(varmap.pv_used)]),
        pv_sold=_clamp(values[list(varmap.pv_sold)]),
        served_load=_clamp(served),
        ess=_extract_device(varmap.ess, values, T) if varmap.ess else None,
        ev=_extract_device(varmap.ev, values, T) if varmap.ev else None,
        shifts=shifts,
    )


def extract_schedule(
    scenario: Scenario, varmap: VarMap, solution: MILPSolution
) -> Schedule:
    """Decode an optimal solver assignment into physical quantities."""
    if solution.status != OPTIMAL:
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
    buy = np.asarray(tariff.buy)
    sell = np.asarray(tariff.sell)
    bill = float(np.sum(schedule.grid_buy * buy * dt) - np.sum(schedule.grid_sell * sell * dt))
    e1, e2, e3 = penalties
    penalty = float(np.sum(e1 * schedule.pv_sold * dt))
    if schedule.ess is not None:
        penalty += float(np.sum(e2 * schedule.ess.sold * dt))
    if schedule.ev is not None:
        penalty += float(np.sum(e3 * schedule.ev.sold * dt))
    return CostBreakdown(bill=bill, penalty=penalty, objective=bill + penalty)


def solve_scenario(
    scenario: Scenario, options: MilpOptions | None = None
) -> ScenarioResult:
    """Build, solve and decode a scenario: the one pipeline behind the CLI.

    Never raises on a solver outcome: the status is `result.solution.status`,
    and the schedule and cost are decoded only when it is optimal.
    """
    model, varmap = build_model(scenario)
    solution = solve_milp(model, options)
    if solution.status != OPTIMAL:
        return ScenarioResult(model, solution, None, None)
    schedule = extract_schedule(scenario, varmap, solution)
    cost = compute_cost(schedule, scenario.tariff, scenario.penalties, scenario.grid.dt)
    return ScenarioResult(model, solution, schedule, cost)
