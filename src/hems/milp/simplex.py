"""Bounded-variable two-phase primal simplex over a sparse constraint matrix.

Simple bounds are handled implicitly (nonbasic variables rest at a bound and
may flip between bounds without a basis change); only the linear rows enter
the basis matrix. Rows are equilibrated to unit max-|coefficient| before
solving. Anti-cycling: Bland's rule is engaged after a run of degenerate
pivots and released on the next improving step.

One float array, `side`, holds the rest side of every column: −1 at its
lower bound, +1 at its upper bound, 0 when it is basic, fixed or free (a
nonbasic free column rests at zero and is also listed in `free`). Pricing
scores d·side, and |d| for a free column; a bound flip negates the side. A
nonbasic column always holds its true range, so phase 2 starts from the
sides phase 1 left.

Columns are [structural | slacks], and the whole matrix [A | I] is stored
in compressed sparse column (CSC) form: the slack (logical) columns are the
m unit columns that follow the n structural ones, so every column is read,
priced and scattered the same way.

Phase 1 needs no artificial columns. The start puts structural variables at
their nearest finite bound and makes every slack basic, carrying the row
residual b − A·x. Any basic variable that lies above its range is relaxed to
[upper, +inf) with phase-1 cost +1, one below its range to (−inf, lower] with
cost −1, so phase 1 minimizes the sum of bound violations (Maros,
*Computational Techniques of the Simplex Method*, 2003). A relaxed variable
can only leave the basis on the bound it violated, which is a bound of its
true range: it gets that range back and loses its phase-1 cost there. At the
end of phase 1 every variable gets its true range back.

The basis inverse B⁻¹ is a dense m×m array, but each pivot only touches the
part of it that the entering column w = B⁻¹a_q needs, and w is very sparse on
the home energy models (a median of 1–10 nonzeros in the 48–194 rows of the
half-hour reference LPs without DSM). FTRAN multiplies only the columns of
B⁻¹ that a_q touches; the ratio test and the basic-value update run over the
nonzeros of w; the product-form update rewrites only the entries of B⁻¹ in a
nonzero row of w and a nonzero column of the pivot row; and the reduced
costs are updated from the old pivot row ρ = e_rᵀB⁻¹ as d -= θ·[A | I]ᵀρ
with θ = d_q / w_r. A pivot so costs at most O(m·nnz(w) + nnz(A)) rather
than O(m² + m·n). Reduced costs are recomputed from scratch at phase start,
at every refresh and refactorization, and before every optimality claim. A
refactorization scatters the CSC columns of the whole basis matrix B into a
dense array and inverts it.

Measured on a 2-vCPU x86 host, the half-hour reference solves without DSM
(A/B 48 rows, C 145, D 194) take about 40–60 µs per pivot. When B⁻¹ fills
in, as on random sparse LPs, the indexed update costs more per touched entry
than a BLAS rank-1 update does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    INFEASIBLE,
    ITERATION_LIMIT,
    NUMERICAL,
    OPTIMAL,
    UNBOUNDED,
    MILPModel,
    MILPSolution,
)

FEAS_TOL = 1e-7          # primal feasibility, relative to (1 + |rhs|)
DUAL_TOL_BASE = 1e-9     # reduced-cost threshold, scaled by max(1, |c|_inf)
DEGEN_TOL = 1e-10        # step length below which a pivot counts as degenerate
PIVOT_TOL = 1e-11        # smallest acceptable pivot magnitude
BLAND_AFTER = 100        # degenerate pivots in a row before Bland's rule
REFRESH_EVERY = 100      # recompute basic values from the factorization
REFACTOR_EVERY = 1000    # rebuild the basis inverse from scratch

LP_ITERATION_LIMIT = 50_000  # pivots per LP before status iteration_limit


class CompiledLP:
    """Row-scaled standard form of a model: [A | I] (x, s) = b with box bounds.

    [A | I] is held in CSC form: the nonzeros of column j (structural for
    j < n, the slack of row j − n otherwise) are
    `row_idx[col_ptr[j]:col_ptr[j + 1]]` / `vals[...]`, and `col_of` gives
    the column of every nonzero. Slack bounds encode the row sense.
    """

    __slots__ = ("n", "m", "col_ptr", "row_idx", "vals", "col_of", "b",
                 "slack_lower", "slack_upper", "cost")

    def __init__(self, model: MILPModel):
        n = model.num_variables
        m = model.num_constraints
        rows: list[int] = []
        cols: list[int] = []
        coefs: list[float] = []
        b = np.zeros(m)
        slack_lo = np.zeros(m)
        slack_hi = np.zeros(m)
        for i, con in enumerate(model.constraints):
            for vid, coef in con.terms:
                rows.append(i)
                cols.append(vid)
                coefs.append(coef)
            b[i] = con.rhs
            if con.sense == "<=":
                slack_lo[i], slack_hi[i] = 0.0, np.inf
            elif con.sense == ">=":
                slack_lo[i], slack_hi[i] = -np.inf, 0.0
        row = np.array(rows, dtype=np.intp)
        col = np.array(cols, dtype=np.intp)
        val = np.array(coefs, dtype=float)
        keep = val != 0.0
        row, col, val = row[keep], col[keep], val[keep]
        # Row equilibration on the structural part; slacks keep coefficient 1.
        scale = np.zeros(m)
        np.maximum.at(scale, row, np.abs(val))
        scale[scale == 0.0] = 1.0
        val /= scale[row]
        b /= scale
        order = np.lexsort((row, col))
        slacks = np.arange(m)
        self.n = n
        self.m = m
        self.row_idx = np.concatenate((row[order], slacks))
        self.col_of = np.concatenate((col[order], n + slacks))
        self.vals = np.concatenate((val[order], np.ones(m)))
        self.col_ptr = np.concatenate(([0], np.cumsum(np.bincount(self.col_of, minlength=n + m))))
        self.b = b
        self.slack_lower = slack_lo
        self.slack_upper = slack_hi
        self.cost = model.objective_vector()

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of the nonzeros of column j of [A | I]."""
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.row_idx[lo:hi], self.vals[lo:hi]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product of the first x.size columns of [A | I] with x: A @ x
        for n structural values, A @ x + s for all n + m."""
        k = self.col_ptr[x.size]
        return np.bincount(self.row_idx[:k], weights=self.vals[:k] * x[self.col_of[:k]],
                           minlength=self.m)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """[A | I].T @ y for a row vector y: (A.T @ y, y)."""
        return np.bincount(self.col_of, weights=self.vals * y[self.row_idx],
                           minlength=self.n + self.m)


@dataclass(eq=False)
class SimplexResult:
    status: str
    x: np.ndarray          # structural values
    objective: float
    iterations: int


def solve_compiled(core: CompiledLP, lower: np.ndarray, upper: np.ndarray) -> SimplexResult:
    """Solve the LP over the compiled rows with the given structural bounds,
    in at most LP_ITERATION_LIMIT pivots.

    Status "numerical" means the arithmetic broke an invariant the method
    relies on: a phase-1 objective that decreases without bound, or a basis
    that is singular at refactorization. The objective is finite only when
    the status is optimal, −inf when it is unbounded and nan otherwise; `x`
    always holds the structural values where the method stopped.
    """
    n, m = core.n, core.m
    ntot = n + m
    b = core.b

    # The true ranges of all n + m columns; phase 1 relaxes the working lo/hi.
    true_lo = np.concatenate((lower, core.slack_lower))
    true_hi = np.concatenate((upper, core.slack_upper))
    lo = true_lo.copy()
    hi = true_hi.copy()

    # Start: structural variables rest at their nearest finite bound (`side`
    # and `free` as in the module docstring); every slack is basic and
    # carries the row residual.
    x = np.zeros(ntot)
    side = np.zeros(ntot)
    finite_lo = np.isfinite(lower)
    finite_hi = np.isfinite(upper)
    x[:n] = np.where(finite_lo, lower, np.where(finite_hi, upper, 0.0))
    side[:n] = np.where(finite_lo, -1.0, np.where(finite_hi, 1.0, 0.0))
    side[:n][lower == upper] = 0.0  # a fixed column never enters
    free = np.flatnonzero(~(finite_lo | finite_hi))
    basis = np.arange(n, ntot)
    x[n:] = b - core.matvec(x[:n])

    # A basic variable outside its range is relaxed to the far side of the
    # bound it violates, with a phase-1 cost that pulls it back towards that
    # bound.
    above = basis[x[basis] > hi[basis]]
    below = basis[x[basis] < lo[basis]]
    lo[above], hi[above] = hi[above], np.inf
    lo[below], hi[below] = -np.inf, lo[below]
    phase1_cost = np.zeros(ntot)
    phase1_cost[above] = 1.0
    phase1_cost[below] = -1.0

    phase2_cost = np.zeros(ntot)
    phase2_cost[:n] = core.cost

    Binv = np.eye(m)  # the all-slack start basis is I: nothing to invert
    iters = 0
    pivots_since_refactor = 0
    feas_eps = FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))

    def refresh_basics() -> None:
        xn = x.copy()
        xn[basis] = 0.0
        x[basis] = Binv @ (b - core.matvec(xn))

    def refactor() -> None:
        # B in one scatter: the CSC nonzeros of every basic column, slacks
        # included.
        nonlocal Binv, pivots_since_refactor
        starts = core.col_ptr[basis]
        counts = core.col_ptr[basis + 1] - starts
        # Offsets of every nonzero of those columns in the CSC arrays.
        at = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        B = np.zeros((m, m))
        B[core.row_idx[at], np.repeat(np.arange(m), counts)] = core.vals[at]
        Binv = np.linalg.inv(B)
        pivots_since_refactor = 0
        refresh_basics()

    def residual_ok() -> bool:
        resid = np.abs(b - core.matvec(x))
        return bool(np.all(resid <= FEAS_TOL * (1.0 + np.abs(b))))

    def run_phase(cost: np.ndarray, phase: int) -> str:
        nonlocal iters, pivots_since_refactor, free
        dual_tol = DUAL_TOL_BASE * max(1.0, float(np.abs(cost).max(initial=0.0)))
        bland = False
        degen_run = 0
        verify_rounds = 0
        ray_rounds = 0
        d = np.empty(ntot)

        def reprice() -> None:
            d[:] = cost - core.rmatvec(Binv.T @ cost[basis])

        def entering() -> int:
            """The most improving candidate (the first one under Bland's
            rule), or -1 when no reduced cost crosses the tolerance."""
            score = d * side
            if free.size:
                score[free] = np.abs(d[free])
            q = int(np.argmax(score > dual_tol)) if bland else int(np.argmax(score))
            return q if score[q] > dual_tol else -1

        reprice()
        while True:
            if iters >= LP_ITERATION_LIMIT:
                return ITERATION_LIMIT
            if iters and iters % REFACTOR_EVERY == 0:
                refactor()
                reprice()
            elif iters and iters % REFRESH_EVERY == 0:
                refresh_basics()
                reprice()

            q = entering()
            if q < 0:
                reprice()
                q = entering()
            if q < 0:
                # Claimed optimal: the row residual check is cheap and always
                # runs; the expensive refactor only when enough pivots have
                # accumulated on the factorization for drift to be a
                # plausible concern (or the residuals say it already is). The
                # loop then re-prices before it claims again.
                if pivots_since_refactor == 0 or verify_rounds >= 2:
                    return OPTIMAL
                if pivots_since_refactor <= 300 and residual_ok():
                    return OPTIMAL
                verify_rounds += 1
                refactor()
                continue

            # q moves against d: a bounded column enters only when d has the
            # sign of its side, so this also leaves the bound it rests on.
            sq = side[q]
            sigma = -1.0 if d[q] > 0 else 1.0

            rows_q, vals_q = core.column(q)
            w = Binv[:, rows_q] @ vals_q
            nz = w.nonzero()[0]
            wz = w[nz]
            delta = sigma * wz
            bnz = basis[nz]

            # Ratio test over the nonzeros of w: first blocking basic bound,
            # or the entering variable's own opposite bound. An open bound on
            # the blocking side, or a pivot below PIVOT_TOL, gives +inf.
            t_best = np.inf
            r_best = -1
            hit_upper = False
            if nz.size:
                piv = np.abs(delta)
                ts = np.divide(x[bnz] - np.where(delta > 0, lo[bnz], hi[bnz]), delta,
                               out=np.full(nz.size, np.inf), where=piv > PIVOT_TOL)
                np.maximum(ts, 0.0, out=ts)
                tmin = ts.min()
                if tmin < np.inf:
                    tie = ts - tmin <= 1e-12 * (1.0 + tmin)
                    if not bland:
                        tie &= piv >= piv[tie].max() - 1e-12
                    k = tie.nonzero()[0]
                    k = int(k[np.argmin(bnz[k])])
                    r_best = int(nz[k])
                    t_best = float(tmin)
                    hit_upper = bool(delta[k] < 0)

            t_own = hi[q] - lo[q]  # inf when one side is open
            if t_own <= t_best:
                t = t_own
                if not np.isfinite(t):
                    # Confirm the ray against an exact factorization before
                    # declaring unboundedness; drift can fake an open column.
                    if ray_rounds < 1:
                        ray_rounds += 1
                        refactor()
                        reprice()
                        continue
                    # Phase 1 minimizes a sum of bound violations, which is
                    # bounded below: a ray there is an arithmetic failure.
                    return NUMERICAL if phase == 1 else UNBOUNDED
                x[bnz] -= t * delta
                x[q] = hi[q] if sq < 0 else lo[q]
                side[q] = -sq
            else:
                t = t_best
                leave = int(basis[r_best])
                x[bnz] -= t * delta
                x[q] += sigma * t
                x[leave] = hi[leave] if hit_upper else lo[leave]
                basis[r_best] = q
                # New pivot row br = ρ / w_r. The reduced costs move by
                # d_q·[A | I]ᵀbr, whose slack part is d_q·br; row i of B⁻¹
                # by w_i·br, so only the entries in a nonzero row of w and a
                # nonzero column of br change.
                br = Binv[r_best] / w[r_best]
                d -= core.rmatvec(d[q] * br)
                d[q] = 0.0
                cols = br.nonzero()[0]
                Binv[nz[:, None], cols] -= wz[:, None] * br[cols]
                Binv[r_best] = br
                pivots_since_refactor += 1
                if phase == 1:
                    # A relaxed variable leaves on the bound it violated: give
                    # it back its true range, rest it on that same bound, and
                    # drop its phase-1 cost. (A no-op for unrelaxed ones.)
                    lo[leave], hi[leave] = true_lo[leave], true_hi[leave]
                    hit_upper = bool(x[leave] == hi[leave])
                    d[leave] -= cost[leave]
                    cost[leave] = 0.0
                side[q] = 0.0
                side[leave] = 0.0 if lo[leave] == hi[leave] else (1.0 if hit_upper else -1.0)
                if sq == 0.0:
                    free = free[free != q]

            iters += 1
            if t <= DEGEN_TOL:
                degen_run += 1
                if degen_run >= BLAND_AFTER:
                    bland = True
            else:
                degen_run = 0
                bland = False
                verify_rounds = 0

    status = OPTIMAL
    try:
        # Phase 1 only if some variable was relaxed.
        if above.size or below.size:
            status = run_phase(phase1_cost, phase=1)
            if status == OPTIMAL:
                infeas = np.maximum(true_lo - x, 0.0) + np.maximum(x - true_hi, 0.0)
                if infeas.sum() > feas_eps:
                    status = INFEASIBLE
                else:
                    lo[:], hi[:] = true_lo, true_hi
                    np.clip(x, lo, hi, out=x)
        if status == OPTIMAL:
            status = run_phase(phase2_cost, phase=2)
    except np.linalg.LinAlgError:
        status = NUMERICAL

    xs = x[:n].copy()
    objective = float(core.cost @ xs) if status == OPTIMAL else (
        -np.inf if status == UNBOUNDED else float("nan"))
    return SimplexResult(status, xs, objective, iters)


def solve_lp(model: MILPModel) -> MILPSolution:
    """Solve the LP relaxation of a model (integrality ignored)."""
    core = CompiledLP(model)
    lo, hi = model.bounds_arrays()
    res = solve_compiled(core, lo, hi)
    return MILPSolution(
        status=res.status,
        values=res.x,
        objective=res.objective,
        nodes_explored=0,
        lp_iterations=res.iterations,
        bound=res.objective,
    )
