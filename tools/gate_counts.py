"""Print the exact solver counts of the ROADMAP gate set, one line per run.

Run from the repository root:

    python tools/gate_counts.py > counts.txt

The gate set is three sets of runs:

- `ref`: the 16 reference runs (both reference files, cases A-D, DSM off and
  on);
- `households`: 80 DSM-on households, the perfbench `HouseholdStream` at
  seed 3, hourly members 4-63 and half-hour members 4-23, solved with a
  3 000-node limit;
- `fallback`: the mode-binary fallback cases of `tests/test_mode_binaries.py`
  on the hourly reference, cases C and D, DSM off and on, for each of three
  variants: `sell[12] = buy[12]` (`tied`), a lossless ESS (`lossless`) and
  the export cap at peak PV (`exportcap`).

Each line holds the set, the run, the status, the B&B nodes, the LP
iterations and `objective.hex()`; the last line holds the totals. Comparing
two commits is a `diff` of their outputs.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hems import MilpOptions, build_model, load_scenario, solve_milp, synth_case  # noqa: E402
from households import CASES, HouseholdStream  # noqa: E402

FILES = {"hourly": "reference_hourly.yaml", "halfhour": "reference_halfhour.yaml"}
SEED = 3
MEMBERS = {"hourly": range(4, 64), "halfhour": range(4, 24)}
NODE_LIMIT = 3_000


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
    for variant, sc in variants.items():
        for case in "CD":
            for dsm in (False, True):
                yield "fallback", f"{variant}-{case}-dsm{'on' if dsm else 'off'}", synth_case(case, dsm, sc), None


def main() -> int:
    totals: dict[str, list[int]] = {}
    for kind, rid, sc, options in runs():
        model, _ = build_model(sc)
        sol = solve_milp(model, options)
        print(kind, rid, sol.status, sol.nodes_explored, sol.lp_iterations, sol.objective.hex())
        total = totals.setdefault(kind, [0, 0])
        total[0] += sol.nodes_explored
        total[1] += sol.lp_iterations
    print("totals", " ".join(f"{kind} {n} / {i}" for kind, (n, i) in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
