"""Random scenarios for oracle-agreement and property tests.

`random_small_scenario` keeps sizes tiny (T = 2..3, few appliances, optional
small devices) so the brute-force oracle stays within its binary budget and
the full suite runs in seconds. `perturbed_household` varies a full
reference household for comparisons against a second MILP solver.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from hems.scenario import (
    ApplianceSpec,
    EVSpec,
    Scenario,
    StorageSpec,
    Tariff,
    TimeGrid,
)


def random_small_scenario(rng: np.random.Generator, allow_devices: bool = True) -> Scenario:
    T = int(rng.integers(2, 4))
    dt = float(rng.choice([0.5, 1.0]))
    buy = tuple(float(x) for x in np.round(rng.uniform(1.0, 20.0, T), 2))
    sell = tuple(float(x) for x in np.round(rng.uniform(0.5, 3.0, T), 2))
    nd = tuple(float(x) for x in np.round(rng.uniform(0.0, 2.0, T), 2))
    pv = tuple(float(x) for x in np.round(rng.uniform(0.0, 2.5, T), 2))

    appliances = []
    for i in range(int(rng.integers(0, 3))):
        profile = [0.0] * T
        src = int(rng.integers(0, T))
        profile[src] = float(np.round(rng.uniform(0.2, 1.5), 2))
        appliances.append(
            ApplianceSpec(
                name=f"app{i}",
                profile=tuple(profile),
                adt_hours=float(rng.integers(0, 3)) * dt,
            )
        )

    ess = None
    ess_end_reserve = True
    if allow_devices and rng.random() < 0.5:
        cap = float(np.round(rng.uniform(1.0, 4.0), 2))
        init = float(np.round(rng.uniform(0.2, 1.0) * cap, 3))
        ess = StorageSpec(
            charge_rate=float(np.round(rng.uniform(0.5, 2.0), 2)),
            discharge_rate=float(np.round(rng.uniform(0.5, 2.0), 2)),
            charge_eff=float(rng.choice([0.9, 0.95, 1.0])),
            discharge_eff=float(rng.choice([0.9, 0.95, 1.0])),
            soe_min=0.0,
            soe_max=cap,
            soe_init=init,
        )
        ess_end_reserve = bool(rng.random() < 0.5)

    ev = None
    if allow_devices and rng.random() < 0.3:
        cap = float(np.round(rng.uniform(2.0, 6.0), 2))
        arrival = int(rng.integers(0, T))
        departure = int(rng.integers(arrival, T))
        window = departure - arrival + 1
        storage = StorageSpec(
            charge_rate=3.0,
            discharge_rate=float(np.round(rng.uniform(1.0, 3.0), 2)),
            charge_eff=1.0,
            discharge_eff=float(rng.choice([0.9, 1.0])),
            soe_min=0.0,
            soe_max=cap,
            soe_init=0.8 * cap,
        )
        # Keep the departure target reachable so most draws stay feasible.
        full = bool(rng.random() < 0.5)
        if full and storage.soe_init + storage.charge_rate * dt * window < cap:
            full = False
        ev = EVSpec(storage, arrival, departure, require_full_at_departure=full)

    return Scenario(
        grid=TimeGrid(T, dt),
        tariff=Tariff(buy, sell),
        non_deferrable=nd,
        appliances=tuple(appliances),
        ess=ess,
        ess_end_reserve=ess_end_reserve,
        ev=ev,
        pv_gen=pv,
        penalties=(1e-4, 2e-4, 3e-4),
    )


def _scaled(values, factor) -> tuple[float, ...]:
    return tuple(float(x) for x in np.round(np.asarray(values) * factor, 4))


def perturbed_household(base: Scenario, rng: np.random.Generator) -> Scenario:
    """A variant of a full reference household (all devices kept): buy
    prices scaled per interval by 1 + U(-0.2, 0.2), load by U(0.7, 1.3), PV
    by U(0.6, 1.4), and each appliance rotated by -2..2 h with a delay
    tolerance of 0..4 h."""
    T = base.grid.T
    per_hour = round(1.0 / base.grid.dt)
    buy = _scaled(base.tariff.buy, 1.0 + rng.uniform(-0.2, 0.2, T))
    nd = _scaled(base.non_deferrable, rng.uniform(0.7, 1.3))
    pv = _scaled(base.pv_gen, rng.uniform(0.6, 1.4))
    apps = tuple(
        replace(
            app,
            profile=_scaled(np.roll(app.profile, int(rng.integers(-2, 3)) * per_hour), 1.0),
            adt_hours=float(rng.integers(0, 5)),
        )
        for app in base.appliances
    )
    return replace(
        base,
        tariff=replace(base.tariff, buy=buy),
        non_deferrable=nd,
        pv_gen=pv,
        appliances=apps,
    )
