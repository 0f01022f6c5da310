import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from hems.cli import main
from hems.io import schedule_from_csv, schedule_to_csv
from hems.scenario import load_scenario, save_scenario, synth_case
from hems.formulation import build_model, solve_scenario
from hems.validation import audit

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
HOURLY = str(SCENARIOS / "reference_hourly.yaml")


@pytest.fixture()
def runner():
    return CliRunner()


def read_costs(out_dir: Path, tag: str) -> dict:
    return json.loads((out_dir / f"costs_{tag}.json").read_text())


def test_solve_case_a_dsm_both(runner, tmp_path):
    out = tmp_path / "runs"
    result = runner.invoke(
        main, ["solve", HOURLY, "--case", "A", "--dsm", "both", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l.startswith("case=A")]
    assert len(lines) == 2
    off = read_costs(out, "A_nodsm")
    on = read_costs(out, "A_dsm")
    assert on["bill_cents"] <= off["bill_cents"] + 1e-9
    for costs in (off, on):
        assert costs["solver"]["bound"] == pytest.approx(costs["objective_cents"], abs=1e-9)
    assert (out / "schedule_A_dsm.csv").exists()


def test_solve_case_b_cheaper_than_a(runner, tmp_path):
    out = tmp_path / "runs"
    for case in ("A", "B"):
        result = runner.invoke(main, ["solve", HOURLY, "--case", case, "--out", str(out)])
        assert result.exit_code == 0, result.output
    a = read_costs(out, "A_dsm")
    b = read_costs(out, "B_dsm")
    assert b["bill_cents"] <= a["bill_cents"] + 1e-9


def write_impossible_ev(tmp_path: Path) -> Path:
    """The hourly reference with an EV that cannot reach full charge."""
    import yaml

    from hems.scenario import scenario_to_mapping

    doc = scenario_to_mapping(load_scenario(HOURLY))
    # Unreachable departure target: tiny charger, huge battery.
    doc["ev"]["charge_rate"] = 0.1
    doc["ev"]["soe_max"] = 80.0
    doc["ev"]["soe_init"] = 64.0
    doc_path = tmp_path / "impossible_ev.yaml"
    doc_path.write_text(yaml.safe_dump(doc))
    return doc_path


def test_solve_infeasible_ev_exits_nonzero(runner, tmp_path):
    doc_path = write_impossible_ev(tmp_path)
    result = runner.invoke(main, ["solve", str(doc_path), "--out", str(tmp_path / "r")])
    assert result.exit_code == 1
    assert "infeasible" in result.output
    assert "ev" in result.output.lower()


def test_sweep_reports_infeasible_run_and_keeps_going(runner, tmp_path):
    doc_path = write_impossible_ev(tmp_path)
    out = tmp_path / "s"
    result = runner.invoke(
        main, ["sweep", str(doc_path), "--cases", "C,D", "--dsm", "off", "--out", str(out)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    rows = [l.split(",") for l in (out / "summary.csv").read_text().splitlines()[2:]]
    assert [r[:3] for r in rows] == [["C", "off", "optimal"], ["D", "off", "infeasible"]]
    assert rows[1][3:7] == ["", "", "", ""]
    assert int(rows[1][7]) >= 1 and int(rows[1][8]) > 0
    assert (out / "schedule_C_nodsm.csv").exists()
    assert (out / "costs_C_nodsm.json").exists()
    assert not (out / "schedule_D_nodsm.csv").exists()
    assert not (out / "costs_D_nodsm.json").exists()
    stats = json.loads((out / "stats.json").read_text())
    assert [(r["case"], r["status"]) for r in stats["runs"]] == [
        ("C", "optimal"), ("D", "infeasible")
    ]


def test_solve_node_limit_exits_nonzero(runner, tmp_path):
    out = tmp_path / "r"
    result = runner.invoke(
        main, ["solve", HOURLY, "--case", "D", "--dsm", "on", "--node-limit", "2",
               "--out", str(out)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "case=D dsm=on status=iteration_limit nodes=2 lp_iterations=" in result.output
    assert " bound=" in result.output and "gap=" not in result.output
    assert "hint:" not in result.output
    assert not (out / "schedule_D_dsm.csv").exists()


def test_solve_writes_the_incumbent_found_before_the_node_limit(runner, tmp_path):
    """Case B finds its optimal plan in 2 nodes but cannot prove it there:
    the run keeps status iteration_limit and exit 1, and writes the schedule,
    the costs with the proven bound, and the summary money columns."""
    out = tmp_path / "r"
    args = [HOURLY, "--dsm", "on", "--node-limit", "2", "--out", str(out)]
    result = runner.invoke(main, ["solve", *args, "--case", "B"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    line = next(l for l in result.output.splitlines() if l.startswith("case=B"))
    assert line.startswith("case=B dsm=on status=iteration_limit bill=245.750c ")
    assert line.endswith(" bound=244.252 gap=1.500")
    costs = read_costs(out, "B_dsm")
    assert costs["solver"]["status"] == "iteration_limit"
    assert costs["solver"]["bound"] == pytest.approx(244.251775, abs=1e-9)
    assert costs["objective_cents"] == pytest.approx(245.751775, abs=1e-9)

    case_b = tmp_path / "case_b.yaml"
    save_scenario(synth_case("B", True, load_scenario(HOURLY)), case_b)
    result = runner.invoke(main, ["validate", str(case_b), str(out / "schedule_B_dsm.csv")])
    assert result.exit_code == 0, result.output

    result = runner.invoke(main, ["sweep", *args, "--cases", "B"])
    assert result.exit_code == 1
    row = (out / "summary.csv").read_text().splitlines()[2]
    assert row.startswith("B,on,iteration_limit,245.750000,0.001775,245.751775,")


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_node_limit_below_one_is_a_usage_error(runner, tmp_path, command, limit):
    out = tmp_path / "r"
    result = runner.invoke(main, [command, HOURLY, "--node-limit", limit, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--node-limit" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("hour", ["inf", "-inf", "nan"])
def test_non_finite_origin_hour_is_a_usage_error(runner, tmp_path, command, hour):
    out = tmp_path / "r"
    result = runner.invoke(main, [command, HOURLY, "--origin-hour", hour, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--origin-hour" in result.output
    assert not out.exists()


def test_solve_numerical_failure_exits_nonzero(runner, tmp_path, monkeypatch):
    import numpy as np

    import hems.milp.branch_bound as branch_bound
    from hems.milp import NUMERICAL
    from hems.milp.simplex import SimplexResult

    def fail(core, lower, upper, *args, **kwargs):
        return SimplexResult(NUMERICAL, np.zeros(core.n), float("nan"), 0)

    monkeypatch.setattr(branch_bound, "solve_compiled", fail)
    result = runner.invoke(
        main, ["solve", HOURLY, "--case", "A", "--dsm", "off", "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "case=A dsm=off status=numerical" in result.output
    assert result.output.rstrip().endswith(" bound=-inf")
    assert not (tmp_path / "r" / "schedule_A_nodsm.csv").exists()


def test_solve_dump_lp_writes_the_solved_model(runner, tmp_path):
    out = tmp_path / "runs"
    result = runner.invoke(
        main, ["solve", HOURLY, "--case", "C", "--dsm", "on", "--out", str(out), "--dump-lp"]
    )
    assert result.exit_code == 0, result.output
    model, _ = build_model(synth_case("C", True, load_scenario(HOURLY)))
    assert (out / "model_C_dsm.lp").read_text() == model.to_lp_text()


def _set(path: tuple, value):
    def edit(doc: dict) -> None:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _intervals(count: int):
    """An edit that sets the horizon and a scalar PV series, which the parser
    would broadcast to that many values."""
    def edit(doc: dict) -> None:
        doc["grid"]["intervals"] = count
        doc["pv_gen"] = 0.5
    return edit


def _raw(data: bytes):
    """An edit that replaces the whole document with `data`."""
    return lambda doc: data


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc["grid"].pop("interval_hours"), "grid"),
        (_set(("ess", "charge_rate"), "fast"), "ess.charge_rate"),
        (_set(("appliances", 0, "adt_hours"), "four"), "appliances[0].adt_hours"),
        (_set(("limits",), {"import_cap": "big"}), "limits.import_cap"),
        (_set(("appliances", 0, "profile", 3), "x"), "appliances[0].profile[3]"),
        (_set(("grid", "intervals"), 24.5), "grid.intervals"),
        (_set(("ev", "arrival"), 0.7), "ev.arrival"),
        (_set(("ess", "charge_rate"), True), "ess.charge_rate"),
        (_set(("ev", "arrival"), False), "ev.arrival"),
        (_set(("tariff", "buy", 5), True), "tariff.buy[5]"),
        (_set(("ess", "end_reserve"), "false"), "ess.end_reserve"),
        (_set(("ev", "require_full_at_departure"), "no"), "ev.require_full_at_departure"),
        (_raw(b"schema: hems-scenario/1\n# \xff\n"), "invalid leading UTF-8 octet"),
        (_set(("appliances", 0, "adt_hours"), math.inf), "appliances.dishwasher.adt_hours"),
        (_set(("appliances", 0, "adt_hours"), math.nan), "appliances.dishwasher.adt_hours"),
        (_set(("ess", "charge_rate"), math.nan), "ess.charge_rate"),
        (_set(("ess", "charge_rate"), math.inf), "ess.charge_rate"),
        (_set(("ev", "discharge_rate"), math.nan), "ev.discharge_rate"),
        (_set(("ev", "soe_max"), math.inf), "ev.soe_max"),
        (_set(("penalties", "ev_sold"), math.inf), "penalties.ev_sold"),
        (_set(("grid", "interval_hours"), math.inf), "grid.interval_hours"),
        (_intervals(-5), "grid.intervals"),
        (_intervals(10**12), "grid.intervals"),
        (_set(("pv_gen",), "sunny"), "pv_gen: expected array, scalar or csv reference"),
        (_set(("non_deferrable",), {"csv": "load.csv"}),
         "non_deferrable: csv reference needs exactly csv+column keys"),
        (_set(("grid",), 5), "grid: expected a mapping"),
        (_raw(b"- 1\n- 2\n"), "document: expected a mapping"),
        (_set(("ess", "soe_init"), None), "ess.soe_init: required"),
    ],
    ids=["missing-key", "charge-rate", "adt-hours", "import-cap", "profile-entry",
         "fractional-intervals", "fractional-arrival", "boolean-charge-rate",
         "boolean-arrival", "boolean-series-entry", "quoted-end-reserve",
         "quoted-full-at-departure", "undecodable-scenario", "infinite-adt-hours",
         "nan-adt-hours", "nan-charge-rate", "infinite-charge-rate", "nan-ev-discharge-rate",
         "infinite-ev-capacity", "infinite-ev-penalty", "infinite-interval-hours",
         "negative-intervals", "huge-intervals", "series-of-another-type",
         "malformed-csv-reference", "block-not-a-mapping", "document-not-a-mapping",
         "null-soe-init"],
)
def test_solve_rejects_bad_scenario(runner, tmp_path, edit, field):
    import yaml

    from hems.scenario import scenario_to_mapping

    doc = scenario_to_mapping(load_scenario(HOURLY))
    raw = edit(doc)
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(raw if isinstance(raw, bytes) else yaml.safe_dump(doc).encode())
    result = runner.invoke(main, ["solve", str(bad), "--out", str(tmp_path / "r")])
    assert result.exit_code == 2, result.output
    assert field in result.output


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file"),
        (b"load\n1.0\n\xff\n", "not UTF-8"),
        (b"", "empty CSV"),
        (b"load,price\n1.0\n", "line 2: missing value for 'price'"),
        (b"price\n1.0\n", "column 'load' not in"),
    ],
    ids=["missing", "undecodable", "empty", "missing-cell", "missing-column"],
)
def test_solve_names_field_and_path_of_bad_series_csv(runner, tmp_path, content, message):
    import yaml

    from hems.scenario import scenario_to_mapping

    doc = scenario_to_mapping(load_scenario(HOURLY))
    doc["non_deferrable"] = {"csv": "series.csv", "column": "load"}
    (tmp_path / "bad.yaml").write_text(yaml.safe_dump(doc))
    if content is not None:
        (tmp_path / "series.csv").write_bytes(content)
    result = runner.invoke(
        main, ["solve", str(tmp_path / "bad.yaml"), "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 2, result.output
    assert "non_deferrable: " in result.output
    assert str(tmp_path / "series.csv") in result.output
    assert message in result.output


def write_limits(tmp_path: Path, limits: dict) -> Path:
    """The hourly reference with explicit grid limits."""
    import yaml

    from hems.scenario import scenario_to_mapping

    doc = scenario_to_mapping(load_scenario(HOURLY))
    doc["limits"] = limits
    path = tmp_path / "limited.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_solve_honours_explicit_limits_in_case_a(runner, tmp_path):
    path = write_limits(tmp_path, {"import_cap": 0.5, "export_cap": 0.5})
    result = runner.invoke(
        main, ["solve", str(path), "--case", "A", "--dsm", "off", "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 1
    assert "case=A dsm=off status=infeasible" in result.output
    assert "hint: grid: import cap 0.5 kW" in result.output


def test_solve_honours_import_cap_in_case_d(runner, tmp_path, hourly_sweep):
    from lp_oracle import highs_solve

    path = write_limits(tmp_path, {"import_cap": 3.0})
    out = tmp_path / "capped"
    result = runner.invoke(main, ["solve", str(path), "--case", "D", "--out", str(out)])
    assert result.exit_code == 0, result.output
    capped = read_costs(out, "D_dsm")["objective_cents"]
    assert capped > hourly_sweep[("D", True)][1].cost.objective + 1.0

    result = runner.invoke(main, ["validate", str(path), str(out / "schedule_D_dsm.csv")])
    assert result.exit_code == 0, result.output
    sc = synth_case("D", True, load_scenario(path))
    assert sc.caps[0] == 3.0
    status, full = highs_solve(build_model(sc, full=True)[0])
    assert status == "optimal"
    assert capped == pytest.approx(full, abs=1e-6 * (1 + abs(full)))


def test_sweep_summary_and_determinism(runner, tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    for out in (out1, out2):
        result = runner.invoke(
            main, ["sweep", HOURLY, "--cases", "all", "--dsm", "both", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
    summary1 = (out1 / "summary.csv").read_bytes()
    summary2 = (out2 / "summary.csv").read_bytes()
    assert summary1 == summary2

    lines = summary1.decode().splitlines()
    assert lines[0] == "# schema: hems-sweep/1"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 8
    bills = {(r[0], r[1]): float(r[3]) for r in rows}
    for case in "ABCD":
        assert bills[(case, "on")] <= bills[(case, "off")] + 1e-9
    for worse, better in (("A", "B"), ("B", "C"), ("C", "D")):
        assert bills[(better, "on")] <= bills[(worse, "on")] + 1e-9
    assert (out1 / "stats.json").exists()
    # every per-case artifact pair exists
    for case in "ABCD":
        for tag in (f"{case}_dsm", f"{case}_nodsm"):
            assert (out1 / f"schedule_{tag}.csv").exists()
            assert (out1 / f"costs_{tag}.json").exists()


def test_sweep_case_subset(runner, tmp_path):
    out = tmp_path / "s"
    result = runner.invoke(
        main, ["sweep", HOURLY, "--cases", "A,B", "--dsm", "on", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    rows = (out / "summary.csv").read_text().splitlines()[2:]
    assert len(rows) == 2


def test_sweep_rejects_empty_case_list(runner, tmp_path):
    out = tmp_path / "s"
    result = runner.invoke(main, ["sweep", HOURLY, "--cases", ",", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--cases names no case" in result.output
    assert not out.exists()


def test_sweep_rejects_unknown_case(runner, tmp_path):
    out = tmp_path / "s"
    result = runner.invoke(main, ["sweep", HOURLY, "--cases", "A,X", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "unknown case(s) ['X']" in result.output
    assert not out.exists()


def test_sweep_rejects_non_day_horizon(runner, tmp_path):
    import yaml

    doc = {
        "schema": "hems-scenario/1",
        "grid": {"intervals": 3, "interval_hours": 1.0},
        "tariff": {"buy": [5.0, 5.0, 5.0], "sell": 3.0},
        "non_deferrable": [1.0, 1.0, 1.0],
    }
    path = tmp_path / "short.yaml"
    path.write_text(yaml.safe_dump(doc))
    result = runner.invoke(main, ["sweep", str(path)])
    assert result.exit_code == 2
    assert "24" in result.output


def test_validate_round_trip(runner, tmp_path):
    out = tmp_path / "runs"
    result = runner.invoke(main, ["solve", HOURLY, "--case", "C", "--out", str(out)])
    assert result.exit_code == 0, result.output
    scenario_path = tmp_path / "case_c.yaml"
    save_scenario(synth_case("C", True, load_scenario(HOURLY)), scenario_path)
    result = runner.invoke(
        main,
        ["validate", str(scenario_path), str(out / "schedule_C_dsm.csv"),
         "--report", str(tmp_path / "audit.json")],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "audit.json").read_text())
    assert report["passed"] is True


def test_validate_flags_tampered_soe(runner, tmp_path):
    scenario = synth_case("C", True, load_scenario(HOURLY))
    scenario_path = tmp_path / "case_c.yaml"
    save_scenario(scenario, scenario_path)
    result_obj = solve_scenario(scenario)
    csv_path = tmp_path / "schedule.csv"
    result_obj.schedule.ess.soe[5] += 0.7
    schedule_to_csv(result_obj.schedule, scenario, csv_path)
    result = runner.invoke(main, ["validate", str(scenario_path), str(csv_path)])
    assert result.exit_code == 1
    assert "ess" in result.output
    assert "FAIL" in result.output


def test_validate_flags_a_device_the_scenario_lacks(runner, tmp_path, hourly_sweep):
    # Case C has no EV; a schedule that charges one must not pass.
    scenario, result = hourly_sweep[("C", False)]
    scenario_path = tmp_path / "case_c.yaml"
    save_scenario(scenario, scenario_path)
    csv_path = tmp_path / "schedule.csv"
    schedule_to_csv(result.schedule, scenario, csv_path)
    lines = csv_path.read_text().splitlines()
    header = lines[1].split(",")
    charge, soe = header.index("ev_charge_kw"), header.index("ev_soe_kwh")
    for k in range(2, len(lines)):
        row = lines[k].split(",")
        row[charge], row[soe] = "5", "99"
        lines[k] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["validate", str(scenario_path), str(csv_path)])
    assert result.exit_code == 1, result.output
    ev_line = next(l for l in result.output.splitlines() if l.startswith("ev "))
    assert "FAIL" in ev_line
    assert "interval" not in ev_line


def test_validate_rejects_undecodable_schedule_csv(runner, tmp_path, hourly_sweep):
    scenario, result = hourly_sweep[("A", True)]
    scenario_path = tmp_path / "case_a.yaml"
    save_scenario(scenario, scenario_path)
    csv_path = tmp_path / "schedule.csv"
    schedule_to_csv(result.schedule, scenario, csv_path)
    csv_path.write_bytes(csv_path.read_bytes().replace(b"\n5,1,", b"\n5,1,\xff", 1))
    result = runner.invoke(main, ["validate", str(scenario_path), str(csv_path)])
    assert result.exit_code == 2, result.output
    assert "not UTF-8" in result.output


def test_validate_mismatched_horizon_is_usage_error(runner, tmp_path):
    halfhour = SCENARIOS / "reference_halfhour.yaml"
    out = tmp_path / "runs"
    result = runner.invoke(main, ["solve", HOURLY, "--case", "A", "--out", str(out)])
    assert result.exit_code == 0
    result = runner.invoke(
        main, ["validate", str(halfhour), str(out / "schedule_A_dsm.csv")]
    )
    assert result.exit_code == 2
    assert "48" in result.output or "header" in result.output


def test_schedule_csv_round_trip(tmp_path, hourly_sweep):
    scenario, result = hourly_sweep[("D", True)]
    path = tmp_path / "d.csv"
    schedule_to_csv(result.schedule, scenario, path, origin_hour=20.0)
    header = path.read_text().splitlines()[0]
    assert header == "# schema: hems-schedule/1"
    again = schedule_from_csv(path, scenario)
    assert audit(scenario, again).passed
    import numpy as np

    assert np.allclose(again.grid_buy, result.schedule.grid_buy, atol=1e-9)
    assert np.allclose(again.ev.soe, result.schedule.ev.soe, atol=1e-9)
    assert again.shifts.dtype == np.int16
    assert np.array_equal(again.shifts, result.schedule.shifts)


@pytest.mark.parametrize("dest", ["-1", "32768", "2.5"])
def test_schedule_csv_rejects_unrepresentable_destination(tmp_path, hourly_sweep, dest):
    scenario, result = hourly_sweep[("D", True)]
    path = tmp_path / "d.csv"
    schedule_to_csv(result.schedule, scenario, path)
    lines = path.read_text().splitlines()
    fields = lines[4].split(",")
    fields[-1] = dest
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    from hems.io import ScheduleCSVError

    with pytest.raises(ScheduleCSVError, match="line 5: bad destination"):
        schedule_from_csv(path, scenario)


@pytest.mark.parametrize(
    "line, edit, message",
    [
        (1, lambda text: "# schema: x", "line 1: expected '# schema: hems-schedule/1'"),
        (2, lambda text: text.replace("grid_buy_kw", "grid_buy"), "line 2: header mismatch"),
        (5, lambda text: text + ",0", "line 5: expected 21 fields, got 22"),
        (5, lambda text: "x" + text[1:], "line 5: bad interval 'x'"),
        (5, lambda text: "7" + text[1:], "line 5: expected interval 2, got 7"),
    ],
    ids=["schema", "header", "field-count", "non-integer-interval", "interval-out-of-order"],
)
def test_schedule_csv_structure_errors_name_their_line(tmp_path, hourly_sweep, line, edit, message):
    scenario, result = hourly_sweep[("A", True)]
    path = tmp_path / "a.csv"
    schedule_to_csv(result.schedule, scenario, path)
    lines = path.read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("\n".join(lines) + "\n")
    from hems.io import ScheduleCSVError

    with pytest.raises(ScheduleCSVError, match=re.escape(message)):
        schedule_from_csv(path, scenario)


def set_cells(path: Path, line: int, cells: dict[str, str]) -> None:
    """Overwrite the named columns of one line (1-based) of a schedule CSV."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    fields = lines[line - 1].split(",")
    for column, value in cells.items():
        fields[header.index(column)] = value
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_schedule_csv_parse_error_has_line_number(tmp_path, hourly_sweep):
    scenario, result = hourly_sweep[("A", True)]
    path = tmp_path / "a.csv"
    from hems.io import ScheduleCSVError

    for raw in ("oops", "nan", "inf", "-inf"):
        schedule_to_csv(result.schedule, scenario, path)
        set_cells(path, 6, {"grid_buy_kw": raw})
        message = f"line 6: bad number '{raw}' in column grid_buy_kw"
        with pytest.raises(ScheduleCSVError, match=re.escape(message)):
            schedule_from_csv(path, scenario)


def test_validate_rejects_a_non_finite_cell(runner, tmp_path, hourly_sweep):
    scenario, result = hourly_sweep[("C", False)]
    scenario_path = tmp_path / "case_c.yaml"
    save_scenario(scenario, scenario_path)
    csv_path = tmp_path / "schedule.csv"
    schedule_to_csv(result.schedule, scenario, csv_path)
    set_cells(csv_path, 3, {"ess_soe_kwh": "nan"})
    result = runner.invoke(main, ["validate", str(scenario_path), str(csv_path)])
    assert result.exit_code == 2, result.output
    assert "line 3: bad number 'nan' in column ess_soe_kwh" in result.output


def test_validate_report_is_strict_json_when_a_violation_overflows(
    runner, tmp_path, hourly_sweep
):
    # Finite cells whose sum overflows: the balance violation is infinite.
    scenario, result = hourly_sweep[("C", False)]
    scenario_path = tmp_path / "case_c.yaml"
    save_scenario(scenario, scenario_path)
    csv_path = tmp_path / "schedule.csv"
    schedule_to_csv(result.schedule, scenario, csv_path)
    set_cells(csv_path, 6, {"grid_buy_kw": "1e308", "pv_used_kw": "1e308"})  # interval 3
    report_path = tmp_path / "audit.json"
    result = runner.invoke(
        main, ["validate", str(scenario_path), str(csv_path), "--report", str(report_path)]
    )
    assert result.exit_code == 1, result.output

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    report = json.loads(report_path.read_text(), parse_constant=reject)
    balance = next(f for f in report["families"] if f["name"] == "balance")
    assert balance["passed"] is False
    assert balance["worst_violation"] is None
    assert balance["worst_interval"] == 3


def test_validate_unwritable_report_is_a_usage_error(runner, tmp_path, hourly_sweep):
    scenario, result = hourly_sweep[("C", False)]
    scenario_path = tmp_path / "case_c.yaml"
    save_scenario(scenario, scenario_path)
    csv_path = tmp_path / "schedule.csv"
    schedule_to_csv(result.schedule, scenario, csv_path)
    report_path = tmp_path / "missing" / "audit.json"
    result = runner.invoke(
        main, ["validate", str(scenario_path), str(csv_path), "--report", str(report_path)]
    )
    assert result.exit_code == 2, result.output
    assert f"--report {report_path}: cannot write: No such file or directory" in result.output
    assert not report_path.parent.exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_out_below_a_file_is_a_usage_error(runner, tmp_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    result = runner.invoke(main, [command, HOURLY, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"--out {out}: cannot create the directory: Not a directory" in result.output


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_shared_options_have_help_text(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    for text in ("Artifact directory.", "Wall-clock hour", "Branch-and-bound node cap."):
        assert text in result.output
