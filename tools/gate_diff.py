"""Compare two outputs of `tools/gate_counts.py` under the ROADMAP gate rule:
node and iteration counts may move, statuses and optimal objectives may not.

Run from the repository root:

    python tools/gate_diff.py old.txt new.txt

It prints each run whose nodes, iterations or objective changed (its old
line after `-`, its new line after `+`), then both totals lines, then the
largest relative move |new - old| / (1 + |old|) of an optimal objective.

The exit code is 1, with each failure named on stderr, when a run is in one
file only, a status differs, an audit verdict is not `pass`, or an optimal
objective moves by more than OBJECTIVE_TOL·(1 + |old|). A line that is not
optimal (a `quarterhour` run at its node limit) compares status only: its
bound moves with the search. Otherwise the exit code is 0.
"""

from __future__ import annotations

import sys

OBJECTIVE_TOL = 1e-9


def read(path: str) -> tuple[dict[tuple[str, str], list[str]], str]:
    """The fields of every run line, keyed by (set, run), and the totals line."""
    runs: dict[tuple[str, str], list[str]] = {}
    totals = ""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if fields and fields[0] == "totals":
                totals = line.rstrip("\n")
            elif fields:
                runs[fields[0], fields[1]] = fields
    return runs, totals


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/gate_diff.py OLD NEW", file=sys.stderr)
        return 2
    (old, old_totals), (new, new_totals) = read(argv[0]), read(argv[1])
    failures = [f"{key[0]} {key[1]} is in {path} only"
                for path, keys in ((argv[0], old.keys() - new.keys()), (argv[1], new.keys() - old.keys()))
                for key in sorted(keys)]
    worst, worst_run = 0.0, ""
    for key in [k for k in old if k in new]:
        a, b = old[key], new[key]
        run = f"{key[0]} {key[1]}"
        if a[2:6] != b[2:6]:   # status, nodes, iterations, objective
            print("-", " ".join(a))
            print("+", " ".join(b))
        if a[2] != b[2]:
            failures.append(f"{run} status {a[2]} -> {b[2]}")
        failures += [f"{run} {verdict}" for verdict in sorted({a[6], b[6]})
                     if verdict.startswith("audit=") and verdict != "audit=pass"]
        if a[2] == b[2] == "optimal":
            x, y = float.fromhex(a[5]), float.fromhex(b[5])
            move = abs(y - x) / (1.0 + abs(x))
            if move > OBJECTIVE_TOL:
                failures.append(f"{run} objective {x!r} -> {y!r}, {move:.1e} relative")
            if move > worst:
                worst, worst_run = move, run
    print("-", old_totals)
    print("+", new_totals)
    print(f"largest optimal objective move {worst:.1e}", worst_run)
    for failure in failures:
        print("gate failure:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
