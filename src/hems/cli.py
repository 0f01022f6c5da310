"""Command-line front end: solve scenarios, run the case sweep, validate
schedule files.

Exit codes: 0 optimal/pass, 1 infeasible/unbounded/limit/numerical/audit-fail,
2 usage or parse errors.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .formulation import build_model, compute_cost, extract_schedule
from .io import (
    SWEEP_SCHEMA,
    cost_to_mapping,
    schedule_from_csv,
    schedule_to_csv,
    write_audit_report,
    write_json,
    ScheduleCSVError,
)
from .milp import MilpOptions, OPTIMAL, solve_milp
from .scenario import CASES, Scenario, ScenarioError, load_scenario, synth_case
from .validation import audit, diagnose_infeasibility

_DAY_HOURS = 24.0


def _load(path: Path) -> Scenario:
    try:
        return load_scenario(path)
    except ScenarioError as exc:
        raise click.UsageError(str(exc))


def _options(node_limit, lp_iteration_limit, integrality_tol, gap_tol) -> MilpOptions:
    base = MilpOptions()
    return MilpOptions(
        node_limit=node_limit if node_limit is not None else base.node_limit,
        lp_iteration_limit=(
            lp_iteration_limit if lp_iteration_limit is not None else base.lp_iteration_limit
        ),
        integrality_tol=(
            integrality_tol if integrality_tol is not None else base.integrality_tol
        ),
        gap_tol=gap_tol if gap_tol is not None else base.gap_tol,
    )


def _run_case(scenario: Scenario, case: str, dsm: bool, opts: MilpOptions):
    """Solve one (case, dsm) combination; returns a result dict."""
    sc = synth_case(case, dsm, scenario)
    model, varmap = build_model(sc)
    t0 = time.perf_counter()
    solution = solve_milp(model, opts)
    elapsed = time.perf_counter() - t0
    out = {
        "case": case,
        "dsm": dsm,
        "status": solution.status,
        "solution": solution,
        "seconds": elapsed,
        "scenario": sc,
        "model": model,
    }
    if solution.status == OPTIMAL:
        schedule = extract_schedule(sc, varmap, solution)
        cost = compute_cost(schedule, sc.tariff, sc.penalties, sc.grid.dt)
        out["schedule"] = schedule
        out["cost"] = cost
        out["exported_kwh"] = float(np.sum(schedule.grid_sell) * sc.grid.dt)
        out["imported_kwh"] = float(np.sum(schedule.grid_buy) * sc.grid.dt)
    return out


def _print_result(res: dict) -> None:
    label = f"case={res['case']} dsm={'on' if res['dsm'] else 'off'}"
    if res["status"] == OPTIMAL:
        cost = res["cost"]
        sol = res["solution"]
        click.echo(
            f"{label} status=optimal bill={cost.bill:.3f}c "
            f"penalty={cost.penalty:.6f}c objective={cost.objective:.3f}c "
            f"exported={res['exported_kwh']:.3f}kWh "
            f"nodes={sol.nodes_explored} lp_iterations={sol.lp_iterations} "
            f"({res['seconds']:.2f}s)"
        )
    else:
        click.echo(f"{label} status={res['status']}")
        for hint in diagnose_infeasibility(res["scenario"]):
            click.echo(f"  hint: {hint}")


def _write_artifacts(res: dict, out_dir: Path, origin_hour: float) -> None:
    tag = f"{res['case']}_{'dsm' if res['dsm'] else 'nodsm'}"
    if res["status"] != OPTIMAL:
        return
    schedule_to_csv(res["schedule"], res["scenario"], out_dir / f"schedule_{tag}.csv", origin_hour)
    sol = res["solution"]
    write_json(
        cost_to_mapping(
            res["cost"],
            res["exported_kwh"],
            res["imported_kwh"],
            sol.status,
            sol.nodes_explored,
            sol.lp_iterations,
            case=res["case"],
            dsm=res["dsm"],
        ),
        out_dir / f"costs_{tag}.json",
    )


def _dsm_flags(dsm: str) -> list[bool]:
    return {"on": [True], "off": [False], "both": [False, True]}[dsm]


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Day-ahead home energy scheduling with an embedded MILP solver."""


@main.command()
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--case", type=click.Choice(CASES, case_sensitive=False), default="D",
              help="Device combination to keep (A loads, B +PV, C +ESS, D +EV).")
@click.option("--dsm", type=click.Choice(["on", "off", "both"]), default="on",
              help="Honor acceptable delay times, zero them, or run both.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False, path_type=Path),
              default=Path("runs"), show_default=True, help="Artifact directory.")
@click.option("--origin-hour", type=float, default=20.0, show_default=True,
              help="Wall-clock hour of interval 0 (labels output rows).")
@click.option("--node-limit", type=int, default=None, help="Branch-and-bound node cap.")
@click.option("--lp-iteration-limit", type=int, default=None, help="Simplex pivot cap per LP.")
@click.option("--integrality-tol", type=float, default=None)
@click.option("--gap-tol", type=float, default=None)
@click.option("--dump-lp", is_flag=True, default=False,
              help="Also write 'model_<tag>.lp' (LP text format) for external solvers.")
def solve(scenario_file, case, dsm, out_dir, origin_hour, node_limit,
          lp_iteration_limit, integrality_tol, gap_tol, dump_lp):
    """Solve one scenario case and write schedule/cost artifacts."""
    scenario = _load(scenario_file)
    opts = _options(node_limit, lp_iteration_limit, integrality_tol, gap_tol)
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for flag in _dsm_flags(dsm):
        res = _run_case(scenario, case.upper(), flag, opts)
        _print_result(res)
        _write_artifacts(res, out_dir, origin_hour)
        if dump_lp:
            tag = f"{res['case']}_{'dsm' if res['dsm'] else 'nodsm'}"
            res["model"].write_lp(out_dir / f"model_{tag}.lp")
        ok = ok and res["status"] == OPTIMAL
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--cases", default="all", show_default=True,
              help="Comma-separated subset of A,B,C,D or 'all'.")
@click.option("--dsm", type=click.Choice(["on", "off", "both"]), default="both",
              show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False, path_type=Path),
              default=Path("runs"), show_default=True)
@click.option("--origin-hour", type=float, default=20.0, show_default=True)
@click.option("--node-limit", type=int, default=None)
@click.option("--lp-iteration-limit", type=int, default=None)
@click.option("--integrality-tol", type=float, default=None)
@click.option("--gap-tol", type=float, default=None)
def sweep(scenario_file, cases, dsm, out_dir, origin_hour, node_limit,
          lp_iteration_limit, integrality_tol, gap_tol):
    """Run the case-study sweep and write a summary table.

    The summary CSV is deterministic (byte-identical across runs); wall-clock
    times go to stats.json.
    """
    scenario = _load(scenario_file)
    if abs(scenario.grid.T * scenario.grid.dt - _DAY_HOURS) > 1e-9:
        raise click.UsageError(
            f"case-study sweep expects a 24 h horizon, scenario covers "
            f"{scenario.grid.T * scenario.grid.dt} h"
        )
    if cases.strip().lower() == "all":
        case_list = list(CASES)
    else:
        case_list = [c.strip().upper() for c in cases.split(",") if c.strip()]
        bad = [c for c in case_list if c not in CASES]
        if bad:
            raise click.UsageError(f"unknown case(s) {bad}; choose from {list(CASES)}")
    opts = _options(node_limit, lp_iteration_limit, integrality_tol, gap_tol)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for case in case_list:
        for flag in _dsm_flags(dsm):
            res = _run_case(scenario, case, flag, opts)
            _print_result(res)
            _write_artifacts(res, out_dir, origin_hour)
            results.append(res)

    lines = [f"# schema: {SWEEP_SCHEMA}"]
    lines.append(
        "case,dsm,status,bill_cents,penalty_cents,objective_cents,"
        "exported_kwh,nodes,lp_iterations"
    )
    for res in results:
        sol = res["solution"]
        if res["status"] == OPTIMAL:
            cost = res["cost"]
            lines.append(
                f"{res['case']},{'on' if res['dsm'] else 'off'},{res['status']},"
                f"{cost.bill:.6f},{cost.penalty:.6f},{cost.objective:.6f},"
                f"{res['exported_kwh']:.6f},{sol.nodes_explored},{sol.lp_iterations}"
            )
        else:
            lines.append(
                f"{res['case']},{'on' if res['dsm'] else 'off'},{res['status']},"
                f",,,,{sol.nodes_explored},{sol.lp_iterations}"
            )
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    write_json(
        {
            "runs": [
                {"case": r["case"], "dsm": r["dsm"], "status": r["status"],
                 "seconds": r["seconds"]}
                for r in results
            ]
        },
        out_dir / "stats.json",
    )
    click.echo(f"summary written to {out_dir / 'summary.csv'}")
    sys.exit(0 if all(r["status"] == OPTIMAL for r in results) else 1)


@main.command()
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("schedule_csv", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--report", "report_path", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Where to write the audit report JSON.")
def validate(scenario_file, schedule_csv, report_path):
    """Audit a schedule CSV against a scenario; exit 0 iff every family passes."""
    scenario = _load(scenario_file)
    try:
        schedule = schedule_from_csv(schedule_csv, scenario)
    except ScheduleCSVError as exc:
        raise click.UsageError(str(exc))
    report = audit(scenario, schedule)
    for fam in report.families:
        status = "pass" if fam.passed else "FAIL"
        where = ""
        if not fam.passed:
            where = f" at interval {fam.worst_interval}"
            if fam.worst_appliance:
                where += f" ({fam.worst_appliance})"
        click.echo(
            f"{fam.name:<12} {status}  worst={fam.worst_violation:.3e} "
            f"rows={fam.rows_checked}{where}"
        )
    if report_path is not None:
        write_audit_report(report, report_path)
        click.echo(f"report written to {report_path}")
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
