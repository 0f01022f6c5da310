"""Print the exact solver counts of the ROADMAP gate set, one line per run.

Run from the repository root:

    python tools/gate_counts.py > counts.txt

The gate set is four sets of runs:

- `ref`: the 16 reference runs (both reference files, cases A-D, DSM off and
  on);
- `households`: 80 DSM-on households, the perfbench `HouseholdStream` at
  seed 3, hourly members 4-63 and half-hour members 4-23, solved with a
  3 000-node limit;
- `fallback`: the mode-binary fallback cases of `tests/test_mode_binaries.py`
  on the hourly reference, cases C and D, DSM off and on, for each of three
  variants: `sell[12] = buy[12]` (`tied`), a lossless ESS (`lossless`) and
  the export cap at peak PV (`exportcap`); then the half-hour reference with
  its export cap at peak PV, 4 kW (`halfhour-exportcap`), whose DSM-on
  trees are the largest of the set;
- `quarterhour`: the half-hour reference upsampled to 96 intervals (each
  value twice, `interval_hours` 0.25, EV arrival 2a and departure 2d + 1),
  cases B-D, DSM off and on, solved with a 100-node limit.

Each line holds the set, the run, the status, the B&B nodes, the LP
iterations and `objective.hex()`, then the audit verdict of the schedule
(`audit=pass`, or `audit=FAIL` when it fails or no schedule exists) and
`highs=`, the relative difference |ours - HiGHS| / (1 + |HiGHS|) from the
HiGHS optimum of the paper's full model, `build_model(sc, full=True)`. A
`quarterhour` line ends instead in `bound=`, the proven lower bound as
`float.hex()`; its runs are neither audited nor solved by HiGHS. The last
line holds the totals of each set, then the number of audit failures and the
largest HiGHS difference over the first three sets. To compare two commits,
run `python tools/gate_diff.py old.txt new.txt` on their outputs: it checks
the ROADMAP rule that counts may move but statuses and objectives may not.

The exit code is 1, after the totals line, when a run fails the audit or
differs from HiGHS by more than 1e-6 (perfbench's oracle tolerance); each
such run is then named on stderr. Otherwise it is 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hems import MilpOptions, audit, build_model, load_scenario, solve_scenario, synth_case  # noqa: E402
from hems.milp import OPTIMAL  # noqa: E402
from hems.scenario import Tariff, TimeGrid  # noqa: E402
from households import CASES, HouseholdStream  # noqa: E402
from oracle import highs_optimum  # noqa: E402

FILES = {"hourly": "reference_hourly.yaml", "halfhour": "reference_halfhour.yaml"}
SEED = 3
MEMBERS = {"hourly": range(4, 64), "halfhour": range(4, 24)}
NODE_LIMIT = 3_000
QUARTERHOUR_NODE_LIMIT = 100
HIGHS_TOL = 1e-6   # perfbench's `oracle.tolerance`, relative to 1 + |HiGHS|


def quarter_hour(half):
    """The half-hour day at 96 intervals: each value twice, the EV window
    doubled, delay tolerances unchanged."""
    up = partial(np.repeat, repeats=2)
    ev = half.ev
    return replace(
        half,
        grid=TimeGrid(2 * half.grid.T, half.grid.dt / 2),
        tariff=Tariff(up(half.tariff.buy), up(half.tariff.sell)),
        non_deferrable=up(half.non_deferrable),
        pv_gen=up(half.pv_gen),
        appliances=tuple(replace(a, profile=up(a.profile)) for a in half.appliances),
        ev=replace(ev, arrival=2 * ev.arrival, departure=2 * ev.departure + 1),
    )


def runs():
    """(set, run id, scenario, options) for every run of the gate set."""
    for name, file in FILES.items():
        base = load_scenario(ROOT / "scenarios" / file)
        for dsm in (False, True):
            for case in CASES:
                yield "ref", f"{name}-{case}-dsm{'on' if dsm else 'off'}", synth_case(case, dsm, base), None
    options = MilpOptions(node_limit=NODE_LIMIT)
    for name, file in FILES.items():
        stream = HouseholdStream(ROOT / "scenarios" / file, SEED, True)
        for index in MEMBERS[name]:
            h = stream.member(index)
            yield "households", f"{name}-{h.hid}", synth_case(h.case, True, h.base), options
    base = load_scenario(ROOT / "scenarios" / FILES["hourly"])
    sell = base.tariff.sell.copy()
    sell[12] = base.tariff.buy[12]
    variants = {
        "tied": replace(base, tariff=replace(base.tariff, sell=sell)),
        "lossless": replace(base, ess=replace(base.ess, charge_eff=1.0, discharge_eff=1.0)),
        "exportcap": replace(base, big_m=(None, max(base.pv_gen))),
    }
    half = load_scenario(ROOT / "scenarios" / FILES["halfhour"])
    variants["halfhour-exportcap"] = replace(half, big_m=(None, max(half.pv_gen)))
    for variant, sc in variants.items():
        for case in "CD":
            for dsm in (False, True):
                yield "fallback", f"{variant}-{case}-dsm{'on' if dsm else 'off'}", synth_case(case, dsm, sc), None
    quarter = quarter_hour(half)
    options = MilpOptions(node_limit=QUARTERHOUR_NODE_LIMIT)
    for case in "BCD":
        for dsm in (False, True):
            yield "quarterhour", f"{case}-dsm{'on' if dsm else 'off'}", synth_case(case, dsm, quarter), options


def main() -> int:
    totals: dict[str, list[int]] = {}
    audit_failures = 0
    highs_max = 0.0
    failed: list[str] = []
    for kind, rid, sc, options in runs():
        result = solve_scenario(sc, options)
        sol = result.solution
        total = totals.setdefault(kind, [0, 0])
        total[0] += sol.nodes_explored
        total[1] += sol.lp_iterations
        if kind == "quarterhour":
            print(kind, rid, sol.status, sol.nodes_explored, sol.lp_iterations, sol.objective.hex(),
                  f"bound={sol.bound.hex()}")
            continue
        passed = result.schedule is not None and audit(sc, result.schedule).passed
        audit_failures += not passed
        highs = highs_optimum(build_model(sc, full=True)[0])
        # HiGHS proved an optimum, so any other status of ours disagrees.
        diff = abs(sol.objective - highs) / (1.0 + abs(highs)) if sol.status == OPTIMAL else math.inf
        highs_max = max(highs_max, diff)
        if not passed or diff > HIGHS_TOL:
            failed.append(f"{kind} {rid}")
        print(kind, rid, sol.status, sol.nodes_explored, sol.lp_iterations, sol.objective.hex(),
              f"audit={'pass' if passed else 'FAIL'}", f"highs={diff:.1e}")
    print("totals", " ".join(f"{kind} {n} / {i}" for kind, (n, i) in totals.items()),
          f"audit_failures {audit_failures} highs_max {highs_max:.1e}")
    for run in failed:
        print("gate failure:", run, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
