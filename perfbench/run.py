"""Day-ahead scheduling benchmark.

    python3 perfbench/run.py --workload halfhour-lp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout: hems is imported from ./src and the
reference households from ./scenarios. Each workload is a closed loop with
one client: the next household starts when the previous one is done.

--trace 0 measures the end-to-end metrics over --seconds of household time
(drawing a household and writing its YAML document is set-up and is not
counted). --trace 1 runs the workload's fixed traced batch, each household
once untraced and once with spans, and reports the per-layer metrics. Both
check every household against HiGHS outside the timed region and exit 1 on
a wrong answer or a nondeterministic count. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.

The benchmark never sets the BLAS thread count; the value it found is
recorded with the environment.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

_STARTED = perf_counter()   # a probe's set-up time counts from the import of hems
import hems  # noqa: E402

IMPORT_S = perf_counter() - _STARTED
if not Path(hems.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"hems was imported from {hems.__file__}, not from {ROOT / 'src'}")

import numpy  # noqa: E402
import scipy  # noqa: E402
from hems import audit, build_model, compute_cost, solve_lp  # noqa: E402
from hems.milp import ITERATION_LIMIT, OPTIMAL  # noqa: E402

from households import CASES, REFERENCE_MEMBERS  # noqa: E402
from pipeline import WORKLOADS, Context, process  # noqa: E402
from spans import Tracer, no_span  # noqa: E402

WORK_ROOT = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
SETUP_PROBES = 5      # fresh interpreters per run; setup_s is their median
PROBES_BEFORE = 2     # run before the measured pass, the rest after it
STEADY_REPEATS = 5    # warm re-runs of member 0 after the timed pass
PROBE_TIMEOUT_S = 120


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def same_solve(a, b) -> bool:
    """Bit-identical status, objective and work counts."""
    same_obj = a.objective == b.objective or (math.isnan(a.objective) and math.isnan(b.objective))
    return (a.status, a.nodes, a.lp_iterations) == (b.status, b.nodes, b.lp_iterations) and same_obj


def differs(what: str, a, b) -> str:
    return (f"{a.hid}: {what} (nodes {a.nodes} vs {b.nodes}, iterations "
            f"{a.lp_iterations} vs {b.lp_iterations}, objective {a.objective!r} vs {b.objective!r})")


def check(outcomes) -> tuple[list[str], int]:
    """Errors found and the number of failed households (not proven optimal)."""
    from oracle import highs_optimum, tolerance   # not part of hems' set-up time

    errors: list[str] = []
    failed = 0
    for out in outcomes:
        where = f"{out.hid}: "
        objective = float(out.objective)
        # Rebuilt rather than kept from the timed pass, so that holding every
        # model does not show in peak_rss_mb.
        model, _ = build_model(out.scenario)
        best = highs_optimum(model)
        if out.status == OPTIMAL:
            sc = out.scenario
            if not out.audit_passed:
                errors.append(where + "schedule read back from the CSV fails the audit")
            if not audit(sc, out.written).passed:
                errors.append(where + "schedule as solved fails the audit")
            if abs(objective - best) > tolerance(best):
                errors.append(where + f"objective {objective!r} != HiGHS {best!r}")
            if abs(out.cost.objective - objective) > tolerance(objective):
                errors.append(where + f"cost {out.cost.objective!r} != objective {objective!r}")
            back = compute_cost(out.read_back, sc.tariff, sc.penalties, sc.grid.dt)
            if abs(back.objective - out.cost.objective) > tolerance(out.cost.objective):
                errors.append(where + f"CSV read-back costs {back.objective!r}, "
                              f"written {out.cost.objective!r}")
            continue
        failed += 1
        if out.status != ITERATION_LIMIT:
            errors.append(where + f"status {out.status} on a feasible household")
        elif math.isfinite(objective) and objective < best - tolerance(best):
            errors.append(where + f"incumbent {objective!r} beats the HiGHS optimum {best!r}")
    return errors, failed


# ---------------------------------------------------------------------------
# set-up


def probe(args) -> None:
    """In a fresh interpreter: finish the first household after importing hems."""
    ctx = Context(WORKLOADS[args.workload], args.seed, ROOT, Path(args.work_dir))
    out = untraced(ctx, 0)
    if not out.audit_passed:
        raise SystemExit(f"{out.hid}: first household did not reach an audited schedule")
    print(json.dumps({"import_s": IMPORT_S, "first_s": out.seconds,
                      "total_s": perf_counter() - _STARTED}))


def run_probes(args, work_dir: Path, numbers: range) -> list[dict]:
    results = []
    for k in numbers:
        probe_dir = work_dir / f"probe{k}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--probe", "--workload", args.workload,
             "--seed", str(args.seed), "--work-dir", str(probe_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


# ---------------------------------------------------------------------------
# passes


def untraced(ctx, index: int):
    """Process member `index` without spans; its draw and document are not timed."""
    prep = ctx.prepare(index)
    t0 = perf_counter()
    out, _ = process(prep, ctx, no_span)
    out.seconds = perf_counter() - t0
    return out


def timed_pass(ctx, seconds: float):
    """Untraced closed loop over the members until `seconds` of household time.

    The loop stops only after a whole A-D cycle, so every run holds the four
    cases in equal shares.
    """
    outcomes = []
    elapsed = 0.0
    while elapsed < seconds or len(outcomes) % len(CASES):
        outcomes.append(untraced(ctx, len(outcomes)))
        elapsed += outcomes[-1].seconds
    return outcomes, elapsed


def steady_first(ctx, first) -> tuple[float, list[str]]:
    """Median warm time of member 0, and any repeat that solved differently."""
    times, errors = [], []
    for _ in range(STEADY_REPEATS):
        out = untraced(ctx, 0)
        times.append(out.seconds)
        if not same_solve(out, first):
            errors.append(differs("repeat solve differs", out, first))
    return statistics.median(times), errors


def traced_pass(ctx, tracer):
    """Each member of the traced batch once untraced and once traced.

    The order alternates between members so that neither side always runs
    second, on warm caches. Returns untraced outcomes, traced outcomes, model
    sizes and determinism errors.
    """
    plain, traced, sizes, errors = [], [], [], []
    for index in range(ctx.workload.trace_households):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(untraced(ctx, index))
                continue
            prep = ctx.prepare(index)
            tracer.household = prep.household.hid
            tracer.install()
            try:
                t0 = perf_counter()
                with tracer.span("household"):
                    out, model = process(prep, ctx, tracer.span)
                out.seconds = perf_counter() - t0
            finally:
                tracer.uninstall()
            traced.append(out)
            sizes.append((len(model.binary_ids()), model.num_constraints, model.num_variables))
            with tracer.span("simplex.root") as attrs:
                attrs["root_iterations"] = solve_lp(model).lp_iterations
        if not same_solve(plain[-1], traced[-1]):
            errors.append(differs("traced solve differs", plain[-1], traced[-1]))
    return plain, traced, sizes, errors


# ---------------------------------------------------------------------------
# metrics


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(outcomes, elapsed, setup_s, peak_rss_mb) -> dict:
    """The gated metrics of one timed pass.

    household_s_p50 is the median over the pass's A-D cycles of the time per
    household in the cycle. The four cases take times an order of magnitude
    apart, so a plain median over households lands in the gap between the B
    and C clusters and jumps with whichever household sits at either edge.
    """
    k = len(CASES)
    cycles = [sum(out.seconds for out in outcomes[i:i + k]) / k
              for i in range(0, len(outcomes), k)]
    solved = sum(out.status == OPTIMAL for out in outcomes)
    return {
        "households_per_s": metric(len(outcomes) / elapsed, "1/s"),
        "household_s_p50": metric(statistics.median(cycles), "s"),
        "solved_share": metric(solved / len(outcomes), "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(tracer, plain, traced, sizes, probes) -> tuple[dict, list[dict]]:
    """Per-layer metrics of the traced batch, and one row per reference member."""
    tot = tracer.totals()
    sec, children, count = tot["seconds"], tot["children"], tot["count"]
    nodes = sum(out.nodes for out in traced)
    iterations = tot["iterations"]
    lp_calls = count["simplex.solve"]
    root_iterations = sum(s[5].get("root_iterations", 0) for s in tracer.spans)
    values = {
        "scenario.load_s": metric(sec["scenario.load"], "s"),
        "scenario.synth_s": metric(sec["scenario.synth"], "s"),
        "formulation.build_s": metric(sec["formulation.build"], "s"),
        "formulation.extract_s": metric(sec["formulation.extract"], "s"),
        "formulation.binaries": metric(sum(s[0] for s in sizes), "count"),
        "formulation.rows": metric(sum(s[1] for s in sizes), "count"),
        "formulation.vars": metric(sum(s[2] for s in sizes), "count"),
        "simplex.compile_s": metric(sec["simplex.compile"], "s"),
        "simplex.lp_calls": metric(lp_calls, "count"),
        "simplex.iterations": metric(iterations, "count"),
        "simplex.iters_per_lp": metric(iterations / max(lp_calls, 1), "ratio"),
        "simplex.busy_s": metric(sec["simplex.solve"], "s"),
        "simplex.us_per_iter": metric(1e6 * sec["simplex.solve"] / max(iterations, 1), "us"),
        "simplex.root_iterations": metric(root_iterations, "count"),
        "simplex.root_s": metric(sec["simplex.root"], "s"),
        "bb.nodes": metric(nodes, "count"),
        "bb.budget_exhausted": metric(sum(out.status == ITERATION_LIMIT for out in traced), "count"),
        "bb.lps_per_node": metric(lp_calls / max(nodes, 1), "ratio"),
        "bb.self_s": metric(sec["milp.solve"] - children["milp.solve"], "s"),
        "validation.audit_s": metric(sec["validation.audit"], "s"),
        "io.write_s": metric(sec["io.write"], "s"),
        "io.read_s": metric(sec["io.read"], "s"),
        "setup.import_s": metric(statistics.median(p["import_s"] for p in probes), "s"),
        "setup.first_solve_s": metric(statistics.median(p["first_s"] for p in probes), "s"),
        "unattributed_s": metric(sec["household"] - children["household"], "s"),
        "trace.overhead_share": metric(
            sum(out.seconds for out in traced) / sum(out.seconds for out in plain) - 1.0, "ratio"),
    }
    for name in tracer.missing:
        values.pop(name, None)

    # One row per reference member: solve wall time and its simplex share.
    solve_s: dict[str, float] = {}
    busy_s: dict[str, float] = {}
    for name, start, end, _, hid, _ in tracer.spans:
        if name == "milp.solve":
            solve_s[hid] = solve_s.get(hid, 0.0) + end - start
        elif name == "simplex.solve":
            busy_s[hid] = busy_s.get(hid, 0.0) + end - start
    rows = [
        {
            "household": out.hid,
            "status": out.status,
            "nodes": out.nodes,
            "lp_iterations": out.lp_iterations,
            "solve_s": solve_s[out.hid],
            "us_per_iter": 1e6 * busy_s[out.hid] / out.lp_iterations if out.hid in busy_s else None,
        }
        for out in traced
        if out.index < REFERENCE_MEMBERS
    ]
    return values, rows


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    env = environment()
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    tracer = Tracer()
    record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "environment": env}
    try:
        # Probes on both sides of the measured pass sample the machine's
        # speed over the whole run, not over a few seconds of it.
        probes = run_probes(args, work_dir, range(PROBES_BEFORE))
        ctx = Context(workload, args.seed, ROOT, work_dir)
        warm = untraced(ctx, 0)   # first solve in this process: lazy set-up, not measured
        if args.trace:
            plain, traced, sizes, errors = traced_pass(ctx, tracer)
            outcomes = plain
            probes += run_probes(args, work_dir, range(PROBES_BEFORE, SETUP_PROBES))
            metrics, record["reference_members"] = per_layer(tracer, plain, traced, sizes, probes)
            record["missing"] = tracer.missing
        else:
            outcomes, elapsed = timed_pass(ctx, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            steady, errors = steady_first(ctx, outcomes[0])
            probes += run_probes(args, work_dir, range(PROBES_BEFORE, SETUP_PROBES))
            setup_s = statistics.median(p["total_s"] for p in probes) - steady
            metrics = end_to_end(outcomes, elapsed, setup_s, peak_rss_mb)
            record["first_household_steady_s"] = steady
        if not same_solve(warm, outcomes[0]):
            errors.append(differs("warm-up and first measured solve differ", warm, outcomes[0]))
        check_errors, failed = check(outcomes)
        errors += check_errors
        record["probes"] = probes
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    record["households"] = [
        {"household": o.hid, "status": o.status, "nodes": o.nodes,
         "lp_iterations": o.lp_iterations, "seconds": o.seconds}
        for o in outcomes
    ]
    record["errors"] = errors
    record["metrics"] = metrics
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(RESULTS_DIR / f"{stem}.spans.jsonl")

    print(f"# {workload.name} seed={args.seed}: {workload.why}")
    print(f"# environment: {json.dumps(env)}")
    for error in errors:
        print(f"# ERROR {error}")
    if args.trace:
        print(f"# missing metrics: {', '.join(tracer.missing) or 'none'}")
        for row in record["reference_members"]:
            print(f"# reference {json.dumps(row)}")
    for name, m in metrics.items():
        extra = f"  (n={len(outcomes) // len(CASES)} cycles)" if name == "household_s_p50" else ""
        print(f"{name:24s} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": not errors, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 1 if errors else 0


def run_all(args) -> int:
    """Every workload in its own interpreter, so each set-up starts fresh."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return status if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
