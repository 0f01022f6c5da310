"""File formats for run artifacts.

Schedules travel as CSV with a leading `# schema:` comment line; cost
breakdowns and audit reports as JSON. All schemas are versioned and
documented in the README.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .formulation import CostBreakdown, DeviceSchedule, Schedule
from .scenario import MAX_INTERVALS, Scenario

SCHEDULE_SCHEMA = "hems-schedule/1"
COST_SCHEMA = "hems-costs/1"
SWEEP_SCHEMA = "hems-sweep/1"

_DEVICE_COLUMNS = ("charge_kw", "discharge_kw", "used_kw", "sold_kw", "soe_kwh")
_BASE_COLUMNS = [
    "interval",
    "hour",
    "grid_buy_kw",
    "grid_sell_kw",
    "pv_used_kw",
    "pv_sold_kw",
    "served_load_kw",
    *(f"{device}_{column}" for device in ("ess", "ev") for column in _DEVICE_COLUMNS),
]


class ScheduleCSVError(ValueError):
    """Raised for malformed schedule CSV files (message carries the line)."""


_NEAR_MAX = 1.7976931345e308  # from here up, 10 digits round past the float maximum


def _fmt(x: float) -> str:
    return repr(x) if abs(x) >= _NEAR_MAX else f"{x:.10g}"


def _shift_column(name: str) -> str:
    return f"shift_dest_{name}"


def schedule_to_csv(
    schedule: Schedule, scenario: Scenario, path, origin_hour: float = 20.0
) -> None:
    """Write one row per interval; device columns are zero when the device is
    absent. Each appliance gets a shift_dest_<name> column holding the
    destination of the block scheduled at that row's interval (blank when no
    load is scheduled there)."""
    T = scenario.grid.T
    dt = scenario.grid.dt
    app_names = [a.name for a in scenario.appliances]
    columns = _BASE_COLUMNS + [_shift_column(n) for n in app_names]
    ess = schedule.ess or DeviceSchedule.zeros(T)
    ev = schedule.ev or DeviceSchedule.zeros(T)
    table = np.vstack([schedule.series, ess.series, ev.series]).T.tolist()
    dests = [["" if d < 0 else str(d) for d in row] for row in schedule.shifts.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {SCHEDULE_SCHEMA}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for t, values in enumerate(table):
            row = [str(t), _fmt((origin_hour + t * dt) % 24.0)]
            row += [_fmt(v) for v in values]
            row += [column[t] for column in dests]
            writer.writerow(row)


def schedule_from_csv(path, scenario: Scenario) -> Schedule:
    """Parse a schedule CSV back against a scenario (shape-checked)."""
    path = Path(path)
    T = scenario.grid.T
    app_names = [a.name for a in scenario.appliances]
    expected = _BASE_COLUMNS + [_shift_column(n) for n in app_names]

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first = fh.readline().strip()
            if first != f"# schema: {SCHEDULE_SCHEMA}":
                raise ScheduleCSVError(f"{path}: line 1: expected '# schema: {SCHEDULE_SCHEMA}'")
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != expected:
                raise ScheduleCSVError(
                    f"{path}: line 2: header mismatch, expected {expected}, got {header}"
                )
            rows = []
            for row in reader:
                if len(row) != len(expected):
                    raise ScheduleCSVError(
                        f"{path}: line {reader.line_num + 1}: expected {len(expected)} "
                        f"fields, got {len(row)}"
                    )
                rows.append((reader.line_num + 1, row))
    except UnicodeDecodeError as exc:
        raise ScheduleCSVError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    if len(rows) != T:
        raise ScheduleCSVError(
            f"{path}: expected {T} interval rows for this scenario, got {len(rows)}"
        )

    quantities = _BASE_COLUMNS[2:]
    first_shift = len(_BASE_COLUMNS)
    numbers: list[float] = []
    shifts = np.full((len(app_names), T), -1, dtype=np.int16)
    for t, (line_num, row) in enumerate(rows):
        try:
            interval = int(row[0])
        except ValueError as exc:
            raise ScheduleCSVError(f"{path}: line {line_num}: bad interval {row[0]!r}") from exc
        if interval != t:
            raise ScheduleCSVError(
                f"{path}: line {line_num}: expected interval {t}, got {interval}"
            )
        for name, raw in zip(quantities, row[2:first_shift]):
            try:
                value = float(raw)
            except ValueError:
                value = math.nan  # not a number: reported below
            if not math.isfinite(value):
                raise ScheduleCSVError(
                    f"{path}: line {line_num}: bad number {raw!r} in column {name}"
                )
            numbers.append(value)
        for a, raw in enumerate(row[first_shift:]):
            if raw == "":
                continue
            try:
                dst = int(raw)
            except ValueError:
                dst = -1  # not an integer: reported below
            if not 0 <= dst <= MAX_INTERVALS:  # held as int16
                raise ScheduleCSVError(
                    f"{path}: line {line_num}: bad destination {raw!r} for {app_names[a]}"
                )
            shifts[a, t] = dst

    # One row per quantity: the household's five, then the ESS's, then the EV's.
    # A device's rows are kept when the scenario has it or any of them is
    # nonzero, so the audit sees a device that the scenario lacks.
    table = np.array(numbers).reshape(T, len(quantities)).T
    ess, ev = table[5:10], table[10:]
    return Schedule(
        *table[:5],
        ess=DeviceSchedule(*ess) if scenario.ess is not None or ess.any() else None,
        ev=DeviceSchedule(*ev) if scenario.ev is not None or ev.any() else None,
        shifts=shifts,
    )


def cost_to_mapping(
    cost: CostBreakdown,
    exported_kwh: float,
    imported_kwh: float,
    status: str,
    nodes: int,
    lp_iterations: int,
    *,
    case: str,
    dsm: bool,
    bound: float = math.nan,
) -> dict:
    return {
        "schema": COST_SCHEMA,
        "bill_cents": cost.bill,
        "penalty_cents": cost.penalty,
        "objective_cents": cost.objective,
        "exported_kwh": exported_kwh,
        "imported_kwh": imported_kwh,
        "solver": {
            "status": status, "nodes": nodes, "lp_iterations": lp_iterations, "bound": bound,
        },
        "case": case,
        "dsm": dsm,
    }


def _finite(value):
    """`value` with each non-finite float made None, which JSON writes as null."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(mapping: dict, path) -> None:
    """Write strict RFC 8259 JSON: a non-finite float is written as null."""
    with open(path, "w") as fh:
        json.dump(_finite(mapping), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
