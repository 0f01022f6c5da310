"""Command-line front end: solve scenarios, run the case sweep, validate
schedule files.

Exit codes: 0 optimal/pass, 1 infeasible/unbounded/limit/numerical/audit-fail,
2 usage or parse errors.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .formulation import solve_scenario
from .io import (
    SWEEP_SCHEMA,
    cost_to_mapping,
    schedule_from_csv,
    schedule_to_csv,
    write_json,
    ScheduleCSVError,
)
from .milp import INFEASIBLE, OPTIMAL, MilpOptions
from .scenario import CASES, Scenario, ScenarioError, load_scenario, synth_case
from .validation import audit, diagnose_infeasibility

_DAY_HOURS = 24.0
_DSM_FLAGS = {"on": [True], "off": [False], "both": [False, True]}


def _load(path: Path) -> Scenario:
    try:
        return load_scenario(path)
    except ScenarioError as exc:
        raise click.UsageError(str(exc))


def _finite_hour(ctx, param, value: float) -> float:
    if not math.isfinite(value):
        raise click.BadParameter(f"must be a finite hour, got {value}")
    return value


def _solve_cases(
    scenario: Scenario,
    cases: list[str],
    dsm: str,
    out_dir: Path,
    origin_hour: float,
    opts: MilpOptions,
    dump_lp: bool = False,
) -> list[tuple[dict, str]]:
    """Solve every (case, dsm) combination through `solve_scenario`, print
    each outcome and write its artifacts: schedule and costs whenever a
    schedule exists, the LP text on request.

    Returns, per run, its stats.json entry (seconds cover build + solve +
    decode) and its summary.csv row (money columns empty without a schedule).
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"--out {out_dir}: cannot create the directory: {exc.strerror}")
    runs = []
    for case in cases:
        for flag in _DSM_FLAGS[dsm]:
            sc = synth_case(case, flag, scenario)
            t0 = time.perf_counter()
            result = solve_scenario(sc, opts)
            seconds = time.perf_counter() - t0
            sol, cost, schedule = result.solution, result.cost, result.schedule
            label = f"case={case} dsm={'on' if flag else 'off'}"
            tag = f"{case}_{'dsm' if flag else 'nodsm'}"
            if dump_lp:
                result.model.write_lp(out_dir / f"model_{tag}.lp")
            work = f"nodes={sol.nodes_explored} lp_iterations={sol.lp_iterations} ({seconds:.2f}s)"
            money, fields = ",,,", ""
            if schedule is not None:
                exported = float(np.sum(schedule.grid_sell) * sc.grid.dt)
                imported = float(np.sum(schedule.grid_buy) * sc.grid.dt)
                fields = (
                    f" bill={cost.bill:.3f}c penalty={cost.penalty:.6f}c "
                    f"objective={cost.objective:.3f}c exported={exported:.3f}kWh"
                )
                schedule_to_csv(schedule, sc, out_dir / f"schedule_{tag}.csv", origin_hour)
                write_json(
                    cost_to_mapping(
                        cost, exported, imported, sol.status, sol.nodes_explored,
                        sol.lp_iterations, case=case, dsm=flag, bound=sol.bound,
                    ),
                    out_dir / f"costs_{tag}.json",
                )
                money = f"{cost.bill:.6f},{cost.penalty:.6f},{cost.objective:.6f},{exported:.6f}"
            if sol.status != OPTIMAL:
                work += f" bound={sol.bound:.3f}"
                if schedule is not None:
                    work += f" gap={sol.objective - sol.bound:.3f}"
            click.echo(f"{label} status={sol.status}{fields} {work}")
            if sol.status == INFEASIBLE:
                for hint in diagnose_infeasibility(sc):
                    click.echo(f"  hint: {hint}")
            stats = {"case": case, "dsm": flag, "status": sol.status, "seconds": seconds}
            row = (
                f"{case},{'on' if flag else 'off'},{sol.status},{money},"
                f"{sol.nodes_explored},{sol.lp_iterations}"
            )
            runs.append((stats, row))
    return runs


def _exit_code(runs: list[tuple[dict, str]]) -> int:
    return 0 if all(stats["status"] == OPTIMAL for stats, _ in runs) else 1


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Day-ahead home energy scheduling with an embedded MILP solver."""


_SCENARIO_FILE = click.argument(
    "scenario_file", type=click.Path(exists=True, dir_okay=False, path_type=Path)
)
_SOLVE_PARAMS = (  # shared by `solve` and `sweep`, in display order
    _SCENARIO_FILE,
    click.option("--out", "out_dir", type=click.Path(file_okay=False, path_type=Path),
                 default=Path("runs"), show_default=True, help="Artifact directory."),
    click.option("--origin-hour", type=float, default=20.0, show_default=True,
                 callback=_finite_hour, help="Wall-clock hour of interval 0 (labels output rows)."),
    click.option("--node-limit", type=click.IntRange(min=1), default=MilpOptions().node_limit,
                 show_default=True, help="Branch-and-bound node cap."),
)


def _solve_params(command):
    for param in reversed(_SOLVE_PARAMS):  # the last applied is listed first
        command = param(command)
    return command


@main.command()
@click.option("--case", type=click.Choice(CASES, case_sensitive=False), default="D",
              help="Device combination to keep (A loads, B +PV, C +ESS, D +EV).")
@click.option("--dsm", type=click.Choice(["on", "off", "both"]), default="on",
              help="Honor acceptable delay times, zero them, or run both.")
@click.option("--dump-lp", is_flag=True, default=False,
              help="Also write 'model_<tag>.lp' (LP text format) for external solvers.")
@_solve_params
def solve(scenario_file, case, dsm, out_dir, origin_hour, node_limit, dump_lp):
    """Solve one scenario case and write schedule/cost artifacts."""
    scenario = _load(scenario_file)
    opts = MilpOptions(node_limit=node_limit)
    runs = _solve_cases(scenario, [case.upper()], dsm, out_dir, origin_hour, opts, dump_lp)
    sys.exit(_exit_code(runs))


@main.command()
@click.option("--cases", default="all", show_default=True,
              help="Comma-separated subset of A,B,C,D or 'all'.")
@click.option("--dsm", type=click.Choice(["on", "off", "both"]), default="both",
              show_default=True, help="Honor acceptable delay times, zero them, or run both.")
@_solve_params
def sweep(scenario_file, cases, dsm, out_dir, origin_hour, node_limit):
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
        if not case_list:
            raise click.UsageError(f"--cases names no case; choose from {list(CASES)} or 'all'")
    opts = MilpOptions(node_limit=node_limit)
    runs = _solve_cases(scenario, case_list, dsm, out_dir, origin_hour, opts)

    lines = [
        f"# schema: {SWEEP_SCHEMA}",
        "case,dsm,status,bill_cents,penalty_cents,objective_cents,"
        "exported_kwh,nodes,lp_iterations",
        *(row for _, row in runs),
    ]
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    write_json({"runs": [stats for stats, _ in runs]}, out_dir / "stats.json")
    click.echo(f"summary written to {out_dir / 'summary.csv'}")
    sys.exit(_exit_code(runs))


@main.command()
@_SCENARIO_FILE
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
            if fam.worst_interval is not None:
                where = f" at interval {fam.worst_interval}"
            if fam.worst_appliance:
                where += f" ({fam.worst_appliance})"
        click.echo(
            f"{fam.name:<12} {status}  worst={fam.worst_violation:.3e} "
            f"rows={fam.rows_checked}{where}"
        )
    if report_path is not None:
        try:
            write_json(report.to_mapping(), report_path)
        except OSError as exc:
            raise click.UsageError(f"--report {report_path}: cannot write: {exc.strerror}")
        click.echo(f"report written to {report_path}")
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
