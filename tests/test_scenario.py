import math
import os
import pickle
import re
import subprocess
import sys
from copy import deepcopy
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import hems
from hems.formulation import solve_scenario
from hems.scenario import (
    MAX_INTERVALS,
    ApplianceSpec,
    Device,
    EVSpec,
    ScenarioError,
    StorageSpec,
    TimeGrid,
    load_scenario,
    parse_scenario,
    read_series_csv,
    save_scenario,
    scenario_to_mapping,
    synth_case,
)
from hems.validation import audit

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def minimal_doc(T=4, dt=1.0):
    return {
        "schema": "hems-scenario/1",
        "grid": {"intervals": T, "interval_hours": dt},
        "tariff": {"buy": [10.0] * T, "sell": 3.0},
        "non_deferrable": [1.0] * T,
    }


def test_flat_sell_price_broadcast():
    doc = minimal_doc(T=24)
    sc = parse_scenario(doc)
    assert sc.grid.T == 24
    assert all(s == 3.0 for s in sc.tariff.sell)
    assert sc.pv_gen.tolist() == [0.0] * 24
    assert sc.ess is None and sc.ev is None


def test_penalty_ordering_enforced():
    doc = minimal_doc()
    doc["penalties"] = {"pv_sold": 2e-4, "ess_sold": 1e-4, "ev_sold": 3e-4}
    with pytest.raises(ScenarioError, match="penalties"):
        parse_scenario(doc)


def test_missing_devices_are_optional():
    sc = parse_scenario(minimal_doc())
    assert sc.ess is None
    assert sc.ev is None


def test_length_mismatch_names_field():
    doc = minimal_doc(T=4)
    doc["non_deferrable"] = [1.0, 2.0]
    with pytest.raises(ScenarioError, match="non_deferrable"):
        parse_scenario(doc)


def test_unknown_keys_rejected():
    doc = minimal_doc()
    doc["grid"]["tz"] = "utc"
    with pytest.raises(ScenarioError, match="unknown keys"):
        parse_scenario(doc)


def test_schema_version_checked():
    doc = minimal_doc()
    doc["schema"] = "hems-scenario/9"
    with pytest.raises(ScenarioError, match="schema"):
        parse_scenario(doc)


def test_ev_defaults_to_80_percent_arrival_charge():
    doc = minimal_doc()
    doc["ev"] = {
        "charge_rate": 3.0,
        "discharge_rate": 3.0,
        "charge_eff": 0.9,
        "discharge_eff": 0.9,
        "soe_min": 0.0,
        "soe_max": 10.0,
        "arrival": 0,
        "departure": 2,
        "require_full_at_departure": False,
    }
    sc = parse_scenario(doc)
    assert sc.ev.storage.soe_init == pytest.approx(8.0)


def test_invalid_ev_window():
    doc = minimal_doc(T=4)
    doc["ev"] = {
        "charge_rate": 3.0,
        "discharge_rate": 3.0,
        "charge_eff": 0.9,
        "discharge_eff": 0.9,
        "soe_min": 0.0,
        "soe_max": 10.0,
        "arrival": 3,
        "departure": 5,
    }
    with pytest.raises(ScenarioError, match="ev"):
        parse_scenario(doc)


def test_storage_invariants():
    doc = minimal_doc()
    doc["ess"] = {
        "charge_rate": 2.0,
        "discharge_rate": 2.0,
        "charge_eff": 0.95,
        "discharge_eff": 0.95,
        "soe_min": 2.0,
        "soe_max": 6.0,
        "soe_init": 1.0,  # below soe_min
    }
    with pytest.raises(ScenarioError, match="soe_min <= soe_init"):
        parse_scenario(doc)


@pytest.mark.parametrize("hash_seed", ["1", "3"])
def test_first_bad_storage_key_is_named_whatever_the_hash_seed(hash_seed):
    # The keys are parsed in StorageSpec field order, not in set order.
    doc = minimal_doc()
    doc["ess"] = {
        "charge_rate": "fast",
        "discharge_rate": "slow",
        "charge_eff": 0.95,
        "discharge_eff": 0.95,
        "soe_min": 0.0,
        "soe_max": 6.0,
        "soe_init": 1.0,
    }
    code = (
        "from hems.scenario import ScenarioError, parse_scenario\n"
        "try:\n"
        f"    parse_scenario({doc!r})\n"
        "except ScenarioError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(hems.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout
    assert out.startswith("ess.charge_rate: expected a number"), out


def test_big_m_auto_computation():
    doc = minimal_doc(T=2)
    doc["non_deferrable"] = [1.0, 3.0]
    doc["pv_gen"] = [0.0, 2.0]
    doc["appliances"] = [
        {"name": "w", "adt_hours": 1.0, "profile": [0.5, 0.0]},
    ]
    doc["ess"] = {
        "charge_rate": 2.0,
        "discharge_rate": 1.0,
        "charge_eff": 1.0,
        "discharge_eff": 0.9,
        "soe_min": 0.0,
        "soe_max": 4.0,
        "soe_init": 2.0,
    }
    sc = parse_scenario(doc)
    assert sc.big_m == (None, None)
    # peak of load plus the appliance's running total ([0.5, 0.5]: it may be
    # delayed), plus the charge rate
    assert sc.caps[0] == pytest.approx(3.0 + 0.5 + 2.0)
    assert sc.caps[1] == pytest.approx(2.0 + 1.0 * 0.9)  # peak pv + deliverable discharge


def test_auto_import_cap_admits_stacked_delayed_blocks():
    # Both blocks are cheapest in the last interval, where they stack on the
    # base load: 3 kW there, above the peak of the load as scheduled (2 kW).
    doc = minimal_doc(T=3)
    doc["tariff"]["buy"] = [10.0, 10.0, 1.0]
    doc["appliances"] = [
        {"name": "a", "adt_hours": 2.0, "profile": [1.0, 0.0, 0.0]},
        {"name": "b", "adt_hours": 1.0, "profile": [0.0, 1.0, 0.0]},
    ]
    auto = solve_scenario(parse_scenario(doc))
    doc["limits"] = {"import_cap": 100.0}
    loose = solve_scenario(parse_scenario(doc))
    assert loose.cost.bill == pytest.approx(10.0 + 10.0 + 3.0)
    assert auto.cost.bill == pytest.approx(loose.cost.bill)
    assert auto.solution.objective == pytest.approx(loose.solution.objective, abs=1e-9)


def test_explicit_limits_override():
    doc = minimal_doc()
    doc["limits"] = {"import_cap": 2.5, "export_cap": "auto"}
    sc = parse_scenario(doc)
    assert sc.big_m == (2.5, None)
    assert sc.caps == (2.5, 1.0)  # export floor when nothing can export


def test_auto_caps_past_the_float_maximum_name_their_limit():
    """A load plus a delayable block of 1e308 kW sums past the float maximum:
    the auto import cap is refused by name, and an explicit one is taken
    without a numpy overflow warning."""
    doc = minimal_doc(T=2)
    doc["non_deferrable"] = [1e308, 0.0]
    doc["appliances"] = [{"name": "a", "adt_hours": 1.0, "profile": [1e308, 0.0]}]
    with pytest.raises(ScenarioError, match=r"^limits\.import_cap: the auto cap passes"):
        parse_scenario(doc)
    doc["limits"] = {"import_cap": 5.0}
    assert parse_scenario(doc).caps == (5.0, 1.0)
    doc["limits"] = {"import_cap": 5.0, "export_cap": "auto"}
    doc["pv_gen"] = [1.7e308, 0.0]
    doc["ess"] = {"charge_rate": 1.0, "discharge_rate": 1e308, "charge_eff": 1.0,
                  "discharge_eff": 1.0, "soe_min": 0.0, "soe_max": 1.0, "soe_init": 1.0}
    with pytest.raises(ScenarioError, match=r"^limits\.export_cap: the auto cap passes"):
        parse_scenario(doc)


def test_limits_round_trip_as_given(tmp_path, hourly_reference):
    path = tmp_path / "roundtrip.yaml"
    save_scenario(hourly_reference, path)
    assert yaml.safe_load(path.read_text())["limits"] == {
        "import_cap": "auto", "export_cap": "auto"
    }
    explicit = replace(hourly_reference, big_m=(3.0, None))
    save_scenario(explicit, path)
    assert yaml.safe_load(path.read_text())["limits"] == {"import_cap": 3.0, "export_cap": "auto"}
    assert load_scenario(path) == explicit


def test_explicit_limits_reach_every_case(hourly_reference):
    assert synth_case("A", False, hourly_reference).caps == pytest.approx((3.6, 1.0))
    limited = replace(hourly_reference, big_m=(2.0, None))
    for case, export_cap in zip("ABCD", (1.0, 4.0, 5.9, 8.87)):
        sc = synth_case(case, True, limited)
        assert sc.big_m == (2.0, None)
        assert sc.caps == pytest.approx((2.0, export_cap))


@pytest.mark.parametrize(
    "change, field",
    [
        ({"penalties": (3e-4, 2e-4, 1e-4)}, "penalties"),
        ({"big_m": (0.0, None)}, "limits.import_cap"),
        ({"big_m": (None, math.inf)}, "limits.export_cap"),
        ({"non_deferrable": (1.0, -1.0)}, "non_deferrable[1]"),
        ({"non_deferrable": (1.0, True)}, "non_deferrable[1]"),
        ({"grid": TimeGrid(2, math.inf)}, "grid.interval_hours"),
        ({"appliances": (ApplianceSpec("wash", (1.0, 0.0), math.inf),)}, "wash.adt_hours"),
        ({"appliances": (ApplianceSpec("wash", (1.0, 0.0), math.nan),)}, "wash.adt_hours"),
        ({"ess": StorageSpec(math.nan, 1.0, 1.0, 1.0, 0.0, 4.0, 2.0)}, "ess.charge_rate"),
        ({"ess": StorageSpec(math.inf, 1.0, 1.0, 1.0, 0.0, 4.0, 2.0)}, "ess.charge_rate"),
        ({"ev": EVSpec(StorageSpec(1.0, math.nan, 1.0, 1.0, 0.0, 4.0, 2.0), 0, 1)},
         "ev.discharge_rate"),
        ({"ev": EVSpec(StorageSpec(1.0, 1.0, 1.0, 1.0, 0.0, math.inf, 2.0), 0, 1)}, "ev.soe_max"),
        ({"penalties": (1e-4, 2e-4, math.inf)}, "penalties.ev_sold"),
        ({"grid": TimeGrid(32768, 1.0)}, "grid.intervals"),
        ({"ess": StorageSpec(0.0, 1.0, 1.0, 1.0, 0.0, 4.0, 2.0)}, "ess: charge/discharge rates"),
        ({"ev": EVSpec(StorageSpec(1.0, -1.0, 1.0, 1.0, 0.0, 4.0, 2.0), 0, 1)},
         "ev: charge/discharge rates"),
        ({"ess": StorageSpec(1.0, 1.0, 1.5, 1.0, 0.0, 4.0, 2.0)}, "ess.charge_eff"),
        ({"ev": EVSpec(StorageSpec(1.0, 1.0, 1.0, 0.0, 0.0, 4.0, 2.0), 0, 1)}, "ev.discharge_eff"),
        ({"grid": TimeGrid(2, 0.0)}, "grid.interval_hours: must be positive"),
        ({"appliances": (ApplianceSpec("", (1.0, 0.0), 1.0),)}, "every appliance needs a name"),
        ({"appliances": (ApplianceSpec("wash", (1.0, 0.0), 1.0),) * 2}, "duplicate name 'wash'"),
        ({"appliances": (ApplianceSpec("wash", (1.0, 0.0), -1.0),)}, "wash.adt_hours: negative"),
        ({"pv_gen": (0.0, math.nan)}, "pv_gen[1]: non-finite"),
    ],
)
def test_scenario_validates_on_construction(change, field):
    sc = parse_scenario(minimal_doc(T=2))
    with pytest.raises(ScenarioError, match=re.escape(field)):
        replace(sc, **change)


@pytest.mark.parametrize("reference", ["hourly", "halfhour"])
def test_storage_lists_the_devices_of_each_case(request, reference):
    base = request.getfixturevalue(f"{reference}_reference")
    last = base.grid.T - 1
    ess = Device("ess", base.ess, (0, last), 2e-4, ("ess_end_reserve", ">=", 3.0))
    ev_window = (0, 11) if reference == "hourly" else (0, 23)
    ev = Device("ev", base.ev.storage, ev_window, 3e-4, ("ev_full_at_departure", "=", 16.0))
    for case, devices in zip("ABCD", ((), (), (ess,), (ess, ev))):
        for dsm in (False, True):
            assert synth_case(case, dsm, base).storage == devices

    relaxed = replace(base, ess_end_reserve=False,
                      ev=replace(base.ev, arrival=2, require_full_at_departure=False))
    ev = replace(ev, window=(2, ev_window[1]), end=None)
    assert relaxed.storage == (replace(ess, end=None), ev)


def test_round_trip_file(tmp_path, halfhour_reference):
    path = tmp_path / "roundtrip.yaml"
    save_scenario(halfhour_reference, path)
    again = load_scenario(path)
    assert again == halfhour_reference


def test_round_trip_mapping(hourly_reference):
    doc = scenario_to_mapping(hourly_reference)
    again = parse_scenario(doc)
    assert again == hourly_reference


@pytest.mark.parametrize("name", ["reference_hourly.yaml", "reference_halfhour.yaml"])
def test_libyaml_and_pure_python_loaders_agree(name):
    text = (SCENARIOS / name).read_bytes()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)


@pytest.mark.parametrize("copy", [lambda sc: sc, pickle_round_trip, deepcopy],
                         ids=["loaded", "unpickled", "deep-copied"])
def test_series_are_read_only(hourly_reference, copy):
    sc = copy(hourly_reference)
    assert sc == hourly_reference
    for series in (sc.tariff.buy, sc.tariff.sell, sc.non_deferrable, sc.pv_gen,
                   sc.appliances[0].profile):
        with pytest.raises(ValueError, match="read-only"):
            series[0] = 1.0


def test_yaml_parse_error_reported(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("schema: [unclosed\n")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(path)


def test_csv_series_import(tmp_path):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("buy,load\n10,1.5\n12,0.5\n8,1.0\n9,0.25\n")
    cols = read_series_csv(csv_path)
    assert cols["buy"] == [10.0, 12.0, 8.0, 9.0]

    doc = minimal_doc(T=4)
    doc["tariff"]["buy"] = {"csv": "series.csv", "column": "buy"}
    doc["non_deferrable"] = {"csv": str(csv_path), "column": "load"}
    scenario_path = tmp_path / "scenario.yaml"
    scenario_path.write_text(yaml.safe_dump(doc))
    sc = load_scenario(scenario_path)
    assert sc.tariff.buy.tolist() == [10.0, 12.0, 8.0, 9.0]
    assert sc.non_deferrable.tolist() == [1.5, 0.5, 1.0, 0.25]


def test_csv_bad_number_has_line(tmp_path):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("buy\n10\noops\n")
    with pytest.raises(ScenarioError, match="line 3"):
        read_series_csv(csv_path)


def test_adt_interval_conversion():
    app = ApplianceSpec("x", (1.0,), adt_hours=1.5)
    assert app.adt_intervals(0.5) == 3
    assert app.adt_intervals(1.0) == 1
    assert ApplianceSpec("y", (1.0,), 4.0).adt_intervals(1.0) == 4
    assert ApplianceSpec("z", (1.0,), 0.0).adt_intervals(0.5) == 0


def test_subnormal_interval_caps_the_delay(hourly_reference):
    """adt_hours / dt overflows to inf: the delay caps at MAX_INTERVALS and
    the horizon clamps the destinations, so the day still solves."""
    assert ApplianceSpec("w", (1.0,), 4.0).adt_intervals(1.0e-320) == MAX_INTERVALS
    sc = synth_case("C", True, replace(hourly_reference, grid=TimeGrid(24, 1.0e-320)))
    result = solve_scenario(sc)
    assert result.solution.status == "optimal"
    assert audit(sc, result.schedule).passed


def test_synth_case_masks(halfhour_reference):
    a = synth_case("A", False, halfhour_reference)
    assert max(a.pv_gen) == 0.0
    assert a.ess is None and a.ev is None
    assert all(app.adt_hours == 0.0 for app in a.appliances)

    d = synth_case("D", True, halfhour_reference)
    assert d.ess is not None and d.ev is not None
    assert sorted(app.adt_hours for app in d.appliances) == [1.5, 1.5, 3.0, 4.0]

    b = synth_case("B", True, halfhour_reference)
    assert b.ess is None and b.ev is None
    assert max(b.pv_gen) > 0

    c = synth_case("C", True, halfhour_reference)
    assert c.ess is not None and c.ev is None


def test_synth_case_rejects_unknown():
    with pytest.raises(ScenarioError, match="case"):
        synth_case("E", True, parse_scenario(minimal_doc()))


def test_zero_pv_case_b_equals_case_a(hourly_reference):
    from hems.formulation import solve_scenario

    zero_pv = replace(hourly_reference, pv_gen=(0.0,) * hourly_reference.grid.T)
    a = solve_scenario(synth_case("A", True, zero_pv))
    b = solve_scenario(synth_case("B", True, zero_pv))
    assert b.cost.objective == pytest.approx(a.cost.objective, abs=1e-6)
