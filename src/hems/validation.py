"""Independent feasibility auditor and infeasibility hints.

The auditor re-evaluates every constraint family from the scenario and the
physical schedule alone (plain arithmetic, not the MILP rows, and no helper
of the formulation), so it catches solver and formulation bugs alike.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .formulation import Schedule
from .scenario import Device, Scenario

AUDIT_TOL = 1e-6  # relative to (1 + |rhs|), as everywhere in the artifact
AUDIT_SCHEMA = "hems-audit/1"

FAMILIES = ("balance", "ess", "ev", "pv", "export", "exclusivity", "shifting")


@dataclass(frozen=True)
class FamilyResult:
    """One audit family; the fields are the `hems-audit/1` family keys."""
    name: str
    passed: bool
    worst_violation: float          # normalized by (1 + |rhs|)
    worst_interval: int | None
    worst_appliance: str | None
    rows_checked: int


@dataclass(frozen=True)
class AuditReport:
    families: tuple[FamilyResult, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.families)

    def family(self, name: str) -> FamilyResult:
        return {f.name: f for f in self.families}[name]

    def to_mapping(self) -> dict:
        return {
            "schema": AUDIT_SCHEMA,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "families": [asdict(f) for f in self.families],
        }


class _Family:
    def __init__(self, name: str):
        self.name = name
        self.worst = 0.0
        self.where_t: int | None = None
        self.where_app: str | None = None
        self.rows = 0

    def check(self, violation: float, rhs: float, t: int | None = None, app: str | None = None) -> None:
        """Record one row; a NaN violation fails it as an infinite one."""
        self.rows += 1
        v = float(violation) / (1.0 + abs(float(rhs)))
        if math.isnan(v):
            v = math.inf
        if v > self.worst:
            self.worst = v
            self.where_t = int(t) if t is not None else None
            self.where_app = app

    def eq(self, lhs: float, rhs: float, t: int | None = None, app: str | None = None) -> None:
        self.check(abs(lhs - rhs), rhs, t, app)

    def le(self, lhs: float, rhs: float, t: int | None = None, app: str | None = None) -> None:
        self.check(lhs - rhs, rhs, t, app)

    def result(self, tol: float) -> FamilyResult:
        return FamilyResult(
            self.name, bool(self.worst <= tol), self.worst, self.where_t, self.where_app, self.rows
        )


def _audit_storage(fam: _Family, device: Device, dev, dt: float, T: int) -> None:
    spec = device.spec
    lo_t, hi_t = device.window
    rows = dev.series.tolist()
    charge, discharge, used, sold, soe = rows
    prev = spec.soe_init
    for t in range(T):
        inside = lo_t <= t <= hi_t
        if not inside:
            # Device absent: every quantity must be zero.
            for row in rows:
                fam.eq(row[t], 0.0, t)
            continue
        fam.eq(used[t] + sold[t], spec.discharge_eff * discharge[t], t)
        for row in rows[:4]:
            fam.le(-row[t], 0.0, t)
        fam.le(charge[t], spec.charge_rate, t)
        fam.le(discharge[t], spec.discharge_rate, t)
        fam.eq(soe[t], prev + spec.charge_eff * dt * charge[t] - dt * discharge[t], t)
        fam.le(spec.soe_min, soe[t], t)
        fam.le(soe[t], spec.soe_max, t)
        prev = soe[t]
    if device.end is not None:
        _, sense, target = device.end
        if sense == ">=":
            fam.le(target, soe[hi_t], hi_t)
        else:
            fam.eq(soe[hi_t], target, hi_t)


def audit(scenario: Scenario, schedule: Schedule) -> AuditReport:
    """Re-evaluate every constraint family on (scenario, schedule) arithmetic."""
    sc = scenario
    T = sc.grid.T
    dt = sc.grid.dt
    n1, n2 = sc.caps
    fams = {name: _Family(name) for name in FAMILIES}

    grid_buy, grid_sell, pv_used, pv_sold, served_load = schedule.series.tolist()
    scheduled = {"ess": schedule.ess, "ev": schedule.ev}
    devices = [dev.series.tolist() for dev in scheduled.values() if dev is not None]
    pv_gen = sc.pv_gen.tolist()

    for t in range(T):
        supply = grid_buy[t] + pv_used[t]
        demand = served_load[t]
        sold = pv_sold[t]
        for charge, _, used, dev_sold, _ in devices:
            supply += used[t]
            demand += charge[t]
            sold += dev_sold[t]
        fams["balance"].eq(supply, demand, t)

        fams["pv"].eq(pv_used[t] + pv_sold[t], pv_gen[t], t)
        fams["pv"].le(-pv_used[t], 0.0, t)
        fams["pv"].le(-pv_sold[t], 0.0, t)

        fams["export"].eq(grid_sell[t], sold, t)

        excl = fams["exclusivity"]
        excl.check(min(grid_buy[t], grid_sell[t]), 0.0, t)
        excl.le(-grid_buy[t], 0.0, t)
        excl.le(-grid_sell[t], 0.0, t)
        excl.le(grid_buy[t], n1, t)
        excl.le(grid_sell[t], n2, t)
        for charge, discharge, *_ in devices:
            excl.check(min(charge[t], discharge[t]), 0.0, t)

    present = {device.name: device for device in sc.storage}
    for name, dev in scheduled.items():
        device = present.get(name)
        if device is not None and dev is not None:
            _audit_storage(fams[name], device, dev, dt, T)
        elif (device is None) != (dev is None):
            fams[name].check(1.0, 0.0, None)  # in the scenario or the schedule only

    # Load shifting: one admissible destination per loaded source, served
    # profile consistent with the assignments, energy merely delayed.
    shf = fams["shifting"]
    served = sc.non_deferrable.tolist()
    scheduled_deferrable = 0.0
    served_deferrable = 0.0
    if schedule.shifts.shape != (len(sc.appliances), T):
        raise ValueError(
            f"shifts shape {schedule.shifts.shape} does not match "
            f"{len(sc.appliances)} appliances x {T} intervals"
        )
    for app, assign in zip(sc.appliances, schedule.shifts.tolist()):
        adt = app.adt_intervals(dt)
        for src, load in enumerate(app.profile.tolist()):
            if load <= 0.0:
                continue
            scheduled_deferrable += load * dt
            dst = assign[src]
            if dst < 0:
                shf.check(1.0, 0.0, src, app.name)  # missing assignment
                continue
            shf.check(float(src - dst), 0.0, src, app.name)  # delay only
            last = min(src + adt, T - 1)
            shf.check(float(dst - last), 0.0, src, app.name)  # within tolerance
            if dst < T:
                served[dst] += load
                served_deferrable += load * dt
    for t in range(T):
        shf.eq(served[t], served_load[t], t)
    shf.eq(served_deferrable, scheduled_deferrable, None)

    return AuditReport(
        families=tuple(fams[name].result(AUDIT_TOL) for name in FAMILIES),
        tolerance=AUDIT_TOL,
    )


# ---------------------------------------------------------------------------
# infeasibility hints

def diagnose_infeasibility(scenario: Scenario) -> list[str]:
    """Necessary-condition checks that name the likely infeasible family."""
    sc = scenario
    hints: list[str] = []
    for device in sc.storage:
        if device.end is None:
            continue
        s, target = device.spec, device.end[2]
        slots = device.window[1] - device.window[0] + 1
        reachable = s.soe_init + s.charge_rate * s.charge_eff * sc.grid.dt * slots
        if reachable < target - 1e-9:
            hints.append(
                f"{device.name}: end target {target} kWh is unreachable; at most "
                f"{reachable:.3f} kWh can be stored over the {slots}-interval window"
            )
    if not sc.storage and sc.pv_gen.max() == 0.0:
        peak = float(sc.non_deferrable.max())
        if sc.caps[0] < peak:
            hints.append(
                f"grid: import cap {sc.caps[0]} kW is below the non-deferrable "
                f"peak {peak} kW and no device can make up the difference"
            )
    return hints
