"""File formats for run artifacts.

Schedules travel as CSV with a leading `# schema:` comment line; cost
breakdowns and audit reports as JSON. All schemas are versioned and
documented in the README.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .formulation import CostBreakdown, DeviceSchedule, Schedule
from .scenario import Scenario
from .validation import AuditReport

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


def _fmt(x: float) -> str:
    return f"{x:.10g}"


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
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {SCHEDULE_SCHEMA}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        series = [schedule.grid_buy, schedule.grid_sell, schedule.pv_used, schedule.pv_sold,
                  schedule.served_load]
        for dev in (ess, ev):
            series += [dev.charge, dev.discharge, dev.used, dev.sold, dev.soe]
        for t in range(T):
            row = [str(t), _fmt((origin_hour + t * dt) % 24.0)]
            row += [_fmt(values[t]) for values in series]
            for name in app_names:
                dst = schedule.shifts.get(name, {}).get(t)
                row.append("" if dst is None else str(dst))
            writer.writerow(row)


def schedule_from_csv(path, scenario: Scenario) -> Schedule:
    """Parse a schedule CSV back against a scenario (shape-checked)."""
    path = Path(path)
    T = scenario.grid.T
    app_names = [a.name for a in scenario.appliances]
    expected = _BASE_COLUMNS + [_shift_column(n) for n in app_names]

    with open(path, newline="") as fh:
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
    if len(rows) != T:
        raise ScheduleCSVError(
            f"{path}: expected {T} interval rows for this scenario, got {len(rows)}"
        )

    def col(name: str) -> int:
        return expected.index(name)

    arrays = {name: np.zeros(T) for name in _BASE_COLUMNS[2:]}
    shifts: dict[str, dict[int, int]] = {name: {} for name in app_names}
    for t, (line_num, row) in enumerate(rows):
        try:
            interval = int(row[0])
        except ValueError as exc:
            raise ScheduleCSVError(f"{path}: line {line_num}: bad interval {row[0]!r}") from exc
        if interval != t:
            raise ScheduleCSVError(
                f"{path}: line {line_num}: expected interval {t}, got {interval}"
            )
        for name in _BASE_COLUMNS[2:]:
            raw = row[col(name)]
            try:
                arrays[name][t] = float(raw)
            except ValueError as exc:
                raise ScheduleCSVError(
                    f"{path}: line {line_num}: bad number {raw!r} in column {name}"
                ) from exc
        for app in app_names:
            raw = row[col(_shift_column(app))]
            if raw == "":
                continue
            try:
                shifts[app][t] = int(raw)
            except ValueError as exc:
                raise ScheduleCSVError(
                    f"{path}: line {line_num}: bad destination {raw!r} for {app}"
                ) from exc

    def device(prefix: str, present: bool) -> DeviceSchedule | None:
        if not present:
            return None
        return DeviceSchedule(*(arrays[f"{prefix}_{column}"] for column in _DEVICE_COLUMNS))

    return Schedule(
        grid_buy=arrays["grid_buy_kw"],
        grid_sell=arrays["grid_sell_kw"],
        pv_used=arrays["pv_used_kw"],
        pv_sold=arrays["pv_sold_kw"],
        served_load=arrays["served_load_kw"],
        ess=device("ess", scenario.ess is not None),
        ev=device("ev", scenario.ev is not None),
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
) -> dict:
    return {
        "schema": COST_SCHEMA,
        "bill_cents": cost.bill,
        "penalty_cents": cost.penalty,
        "objective_cents": cost.objective,
        "exported_kwh": exported_kwh,
        "imported_kwh": imported_kwh,
        "solver": {"status": status, "nodes": nodes, "lp_iterations": lp_iterations},
        "case": case,
        "dsm": dsm,
    }


def write_json(mapping: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(mapping, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_audit_report(report: AuditReport, path) -> None:
    write_json(report.to_mapping(), path)
