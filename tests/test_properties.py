"""Property tests of the schedule CSV format (hypothesis, derandomized so the
suite stays deterministic)."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hems.formulation import DeviceSchedule, Schedule
from hems.io import ScheduleCSVError, schedule_from_csv, schedule_to_csv
from hems.scenario import MAX_INTERVALS, synth_case

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)

FINITE = st.floats(allow_nan=False, allow_infinity=False)  # up to +-sys.float_info.max
# From here up, 10 significant digits round past the float maximum, so the
# writer keeps every digit there.
NEAR_MAX = 1.7976931345e308
MAX = sys.float_info.max


def as_written(x: float) -> float:
    """What a cell holding `x` reads back as."""
    return x if abs(x) >= NEAR_MAX else float(f"{x:.10g}")


@pytest.fixture(scope="module")
def case_scenarios(hourly_reference):
    """Hourly case C (ESS) and D (ESS and EV) with their appliances."""
    return {case: synth_case(case, True, hourly_reference) for case in "CD"}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("schedule_csv") / "schedule.csv"


@st.composite
def schedules(draw, scenario):
    T = scenario.grid.T
    series = draw(arrays(np.float64, (5, T), elements=FINITE))
    devices = [
        DeviceSchedule(*draw(arrays(np.float64, (5, T), elements=FINITE)))
        if spec is not None else None
        for spec in (scenario.ess, scenario.ev)
    ]
    shifts = draw(arrays(
        np.int16, (len(scenario.appliances), T), elements=st.integers(-1, MAX_INTERVALS)
    ))
    return Schedule(*series, *devices, shifts=shifts)


def rows(schedule: Schedule) -> np.ndarray:
    """The 15 quantity rows as the CSV holds them (an absent device is zero)."""
    T = schedule.series.shape[1]
    devices = [(dev or DeviceSchedule.zeros(T)).series for dev in (schedule.ess, schedule.ev)]
    return np.vstack([schedule.series, *devices])


@PROPERTY_SETTINGS
@given(data=st.data(), case=st.sampled_from("CD"))
def test_schedule_csv_round_trip_to_ten_digits(csv_path, case_scenarios, data, case):
    scenario = case_scenarios[case]
    schedule = data.draw(schedules(scenario))
    schedule_to_csv(schedule, scenario, csv_path)
    again = schedule_from_csv(csv_path, scenario)
    expected = np.vectorize(as_written)(rows(schedule))
    assert np.array_equal(rows(again), expected)
    assert (again.ev is None) == (scenario.ev is None)
    assert again.shifts.dtype == np.int16
    assert np.array_equal(again.shifts, schedule.shifts)


@pytest.mark.parametrize("value", [MAX, -MAX, NEAR_MAX, -NEAR_MAX],
                         ids=["max", "-max", "near-max", "-near-max"])
def test_schedule_csv_reads_back_values_at_the_float_maximum(csv_path, case_scenarios, value):
    scenario = case_scenarios["D"]
    T = scenario.grid.T
    series = np.full((5, T), value)
    shifts = np.full((len(scenario.appliances), T), -1, dtype=np.int16)
    schedule = Schedule(*series, DeviceSchedule(*series), DeviceSchedule(*series), shifts=shifts)
    schedule_to_csv(schedule, scenario, csv_path)
    assert np.array_equal(rows(schedule_from_csv(csv_path, scenario)), rows(schedule))


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    case=st.sampled_from("CD"),
    raw=st.sampled_from(["nan", "inf", "-inf", "NaN", "+Infinity", "-INF"]),
)
def test_schedule_csv_rejects_a_non_finite_cell(csv_path, case_scenarios, data, case, raw):
    scenario = case_scenarios[case]
    schedule_to_csv(data.draw(schedules(scenario)), scenario, csv_path)
    lines = csv_path.read_text().splitlines()
    header = lines[1].split(",")
    column = data.draw(st.sampled_from([c for c in header if c.endswith(("_kw", "_kwh"))]))
    t = data.draw(st.integers(0, scenario.grid.T - 1))
    fields = lines[2 + t].split(",")
    fields[header.index(column)] = raw
    lines[2 + t] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    message = f"line {3 + t}: bad number '{raw}' in column {column}"
    with pytest.raises(ScheduleCSVError, match=re.escape(message)):
        schedule_from_csv(csv_path, scenario)
