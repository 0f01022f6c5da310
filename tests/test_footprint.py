"""Memory one solved household holds while it is kept.

A run that keeps every household's scenario and schedules, as a batch that
reports on them at the end does, grows by this much per household.
"""

import gc
import tracemalloc
from pathlib import Path

from hems.formulation import solve_scenario
from hems.io import schedule_from_csv, schedule_to_csv
from hems.scenario import load_scenario, synth_case

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
KEPT = 20


def kept_bytes(reference: Path, csv_path: Path) -> float:
    """Bytes one kept (scenario, schedule, schedule read back from its CSV)
    triple of `reference` case D, DSM off, holds."""

    def household():
        sc = synth_case("D", False, load_scenario(reference))
        schedule = solve_scenario(sc).schedule
        schedule_to_csv(schedule, sc, csv_path)
        return sc, schedule, schedule_from_csv(csv_path, sc)

    household()  # lazy imports and caches of the first solve are not the household's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [household() for _ in range(KEPT)]
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()


def test_kept_household_fits_budget(tmp_path):
    """Hourly reference case D, DSM off: a kept triple holds at most 12 KB."""
    held = kept_bytes(SCENARIOS / "reference_hourly.yaml", tmp_path / "schedule.csv")
    assert held <= 12 * 1024, f"{held / 1024:.1f} KB per kept household"


def test_kept_halfhour_household_fits_budget(tmp_path):
    """Half-hour reference case D, DSM off: a kept triple holds at most 20 KB."""
    held = kept_bytes(SCENARIOS / "reference_halfhour.yaml", tmp_path / "schedule.csv")
    assert held <= 20 * 1024, f"{held / 1024:.1f} KB per kept household"
