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

HOURLY = Path(__file__).resolve().parent.parent / "scenarios" / "reference_hourly.yaml"
KEPT = 20
BUDGET_BYTES = 15 * 1024


def test_kept_household_fits_budget(tmp_path):
    """Hourly reference case D, DSM off: a kept (scenario, schedule, schedule
    read back from its CSV) triple holds at most 15 KB."""
    csv_path = tmp_path / "schedule.csv"

    def household():
        sc = synth_case("D", False, load_scenario(HOURLY))
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
        held = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert held <= BUDGET_BYTES, f"{held / 1024:.1f} KB per kept household"
