"""Seeded household-days for the benchmark workloads.

Member 0..3 of every batch are the unperturbed reference cases A-D; member
i >= 4 is a variant of the reference, drawn from its own generator keyed by
(seed, i), so one member never depends on how many others were drawn. Each
variant perturbs the reference as follows:

* buy price: each interval scaled by 1 + U(-0.2, 0.2)
* non-deferrable load: scaled by one factor U(0.7, 1.3)
* PV generation: scaled by one factor U(0.6, 1.4)
* each appliance: profile rotated by a whole number of hours in [-2, 2]
* each appliance: acceptable delay time drawn from {0, 1, 2, 3, 4} h

Cases A-D come in equal shares (member i has case "ABCD"[i % 4]). Values
are rounded to four decimals so that the YAML documents are short and
byte-identical for one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hems.scenario import (
    Scenario,
    default_big_m,
    load_scenario,
    save_scenario,
    validate,
)

CASES = "ABCD"
REFERENCE_MEMBERS = len(CASES)


@dataclass(frozen=True)
class Household:
    hid: str          # "ref-C" or "v0042-C"
    index: int        # member index within the batch
    case: str
    dsm: bool
    base: Scenario    # full household (all devices); synth_case picks the case


def _round(values) -> tuple[float, ...]:
    return tuple(float(v) for v in np.round(np.asarray(values, dtype=float), 4))


def perturb(reference: Scenario, rng: np.random.Generator) -> Scenario:
    """One seeded variant of a reference household (see module docstring)."""
    T = reference.grid.T
    per_hour = round(1.0 / reference.grid.dt)
    buy = np.asarray(reference.tariff.buy) * (1.0 + rng.uniform(-0.2, 0.2, T))
    load = np.asarray(reference.non_deferrable) * rng.uniform(0.7, 1.3)
    pv = np.asarray(reference.pv_gen) * rng.uniform(0.6, 1.4)
    appliances = []
    for app in reference.appliances:
        shift_h = int(rng.integers(-2, 3))
        adt_h = int(rng.integers(0, 5))
        appliances.append(
            replace(
                app,
                profile=_round(np.roll(app.profile, shift_h * per_hour)),
                adt_hours=float(adt_h),
            )
        )
    variant = replace(
        reference,
        tariff=replace(reference.tariff, buy=_round(buy)),
        non_deferrable=_round(load),
        pv_gen=_round(pv),
        appliances=tuple(appliances),
    )
    big_m = default_big_m(
        variant.non_deferrable, variant.appliances, variant.ess, variant.ev, variant.pv_gen
    )
    return validate(replace(variant, big_m=big_m))


class HouseholdStream:
    """Members of one seeded batch, reference members first."""

    def __init__(self, reference_path: Path, seed: int, dsm: bool):
        self.reference = load_scenario(reference_path)
        self.seed = seed
        self.dsm = dsm

    def member(self, index: int) -> Household:
        case = CASES[index % len(CASES)]
        if index < REFERENCE_MEMBERS:
            return Household(f"ref-{case}", index, case, self.dsm, self.reference)
        rng = np.random.default_rng([self.seed, index])
        return Household(f"v{index:04d}-{case}", index, case, self.dsm, perturb(self.reference, rng))


def write_document(household: Household, path: Path) -> None:
    """Save the household as a `hems-scenario/1` document, all devices kept.

    With DSM off every acceptable delay time is written as zero, so the
    document solves DSM-off under any `--dsm` flag.
    """
    base = household.base
    if not household.dsm:
        base = replace(base, appliances=tuple(replace(a, adt_hours=0.0) for a in base.appliances))
    save_scenario(base, path)

