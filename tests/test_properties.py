"""Property tests of the schedule CSV format and the scenario document
(hypothesis, derandomized so the suite stays deterministic)."""

import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hems.formulation import DeviceSchedule, Schedule
from hems.io import ScheduleCSVError, schedule_from_csv, schedule_to_csv
from hems.scenario import (
    MAX_INTERVALS,
    ApplianceSpec,
    EVSpec,
    Scenario,
    ScenarioError,
    StorageSpec,
    Tariff,
    TimeGrid,
    load_scenario,
    save_scenario,
    synth_case,
)

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


# ---------------------------------------------------------------------------
# scenario documents

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NONNEG = st.floats(min_value=0.0, max_value=MAX)
POSITIVE = NONNEG.filter(lambda x: x > 0.0)


@st.composite
def storage_specs(draw):
    soe_min, soe_init, soe_max = sorted(draw(st.lists(NONNEG, min_size=3, max_size=3)))
    eff = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    return StorageSpec(draw(POSITIVE), draw(POSITIVE), draw(eff), draw(eff),
                       soe_min, soe_max, soe_init)


@st.composite
def scenario_fields(draw):
    """The fields of a scenario that passes validation: any devices, both
    storage flags, auto or explicit limits. Its auto caps may overflow."""
    T = draw(st.integers(1, 6))
    series = arrays(np.float64, T, elements=NONNEG)
    names = draw(st.lists(st.text("abcdefgh_", min_size=1, max_size=6), max_size=3, unique=True))
    ev = None
    if draw(st.booleans()):
        arrival = draw(st.integers(0, T - 1))
        ev = EVSpec(draw(storage_specs()), arrival, draw(st.integers(arrival, T - 1)),
                    draw(st.booleans()))
    return dict(
        grid=TimeGrid(T, draw(POSITIVE)),
        tariff=Tariff(draw(series), draw(series)),
        non_deferrable=draw(series),
        appliances=tuple(ApplianceSpec(name, draw(series), draw(NONNEG)) for name in names),
        ess=draw(st.none() | storage_specs()),
        ess_end_reserve=draw(st.booleans()),
        ev=ev,
        pv_gen=draw(series),
        penalties=tuple(sorted(draw(st.lists(NONNEG, min_size=3, max_size=3, unique=True)))),
        big_m=(draw(st.none() | POSITIVE), draw(st.none() | POSITIVE)),
    )


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario") / "scenario.yaml"


def init_fields(sc: Scenario) -> dict:
    return {f.name: getattr(sc, f.name) for f in fields(Scenario) if f.init}


@PROPERTY_SETTINGS
@given(kwargs=scenario_fields())
@example(kwargs=init_fields(synth_case(
    "A", False, replace(load_scenario(SCENARIOS / "reference_hourly.yaml"), ess_end_reserve=False)
)))
def test_scenario_round_trips_through_its_document(scenario_path, kwargs):
    """A drawn scenario loads back equal, or is refused because a cap in
    effect is an auto cap past the float maximum."""
    try:
        sc = Scenario(**kwargs)
    except ScenarioError as exc:
        auto = [key for key, given in zip(("import_cap", "export_cap"), kwargs["big_m"])
                if given is None]
        assert str(exc) in [f"limits.{key}: the auto cap passes the float maximum; "
                            f"give a finite limit" for key in auto]
        return
    save_scenario(sc, scenario_path)
    assert load_scenario(scenario_path) == sc
