"""Branch-and-bound over binary variables.

Best-bound node selection (ties: deeper node, then insertion order) and
most-fractional branching (ties: lowest variable id). Node LPs are solved by
the bounded-variable simplex with the branching decisions applied as bounds.
A binary counts as integral within INTEGRALITY_TOL, and the search proves
optimality within GAP_TOL; both are fixed. The only incumbent is a node LP
point with no fractional binary.
"""

from __future__ import annotations

import heapq
import itertools
import math
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
from .simplex import CompiledLP, solve_compiled

INTEGRALITY_TOL = 1e-6   # distance from 0/1 below which a binary is integral
GAP_TOL = 1e-9           # absolute objective gap that proves optimality


@dataclass(frozen=True)
class MilpOptions:
    node_limit: int = 1_000_000


@dataclass(eq=False)
class _Node:
    lower: np.ndarray
    upper: np.ndarray
    depth: int


def _fractional(values: np.ndarray, binary_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the binaries farther than INTEGRALITY_TOL from integrality, and
    their distances."""
    v = values[binary_ids]
    dist = np.minimum(np.abs(v), np.abs(1.0 - v))
    keep = dist > INTEGRALITY_TOL
    return binary_ids[keep], dist[keep]


def solve_milp(model: MILPModel, options: MilpOptions | None = None) -> MILPSolution:
    """Minimize the model over its binary variables.

    Returns status "optimal" with the incumbent proven within GAP_TOL,
    "infeasible"/"unbounded" from the root relaxation, "iteration_limit"
    with the best incumbent found when a node or LP budget runs out, or
    "numerical" with the best incumbent found when a node LP fails
    numerically (a simplex failure, or an unbounded LP below a bounded root).
    """
    opts = options or MilpOptions()

    core = CompiledLP(model)
    lo, hi = model.bounds_arrays()
    binary_ids = np.array(model.binary_ids(), dtype=int)
    n = model.num_variables

    nodes_explored = 0
    lp_iterations = 0
    incumbent: np.ndarray | None = None
    best_obj = math.inf
    seq = itertools.count()

    # Heap entries: (bound, -depth, seq, node). The bound of a node is its
    # parent's LP objective, a valid lower bound since children are
    # restrictions of the parent.
    heap: list[tuple[float, int, int, _Node]] = []
    heapq.heappush(heap, (-math.inf, 0, next(seq), _Node(lo, hi, 0)))

    # At a stop, the key of the node the search stopped at is the smallest
    # open bound: nodes leave the heap in bound order.
    stop = None   # ITERATION_LIMIT or NUMERICAL when the search ends early
    while heap:
        bound, _, _, node = heapq.heappop(heap)
        if incumbent is not None and bound >= best_obj - GAP_TOL:
            continue
        if nodes_explored >= opts.node_limit:
            stop = ITERATION_LIMIT
            break
        nodes_explored += 1

        res = solve_compiled(core, node.lower, node.upper)
        lp_iterations += res.iterations
        if res.status == INFEASIBLE:
            continue
        if res.status == UNBOUNDED and node.depth == 0:
            return MILPSolution(UNBOUNDED, res.x, -math.inf, nodes_explored, lp_iterations, -math.inf)
        if res.status != OPTIMAL:
            # Short of the LP budget, this is numerical trouble: the
            # simplex's own, or an unbounded child of a bounded parent.
            stop = ITERATION_LIMIT if res.status == ITERATION_LIMIT else NUMERICAL
            break
        x, obj = res.x, res.objective

        if obj >= best_obj - GAP_TOL:
            continue

        # The prune above makes an integral point a strict improvement, which
        # keeps the first solution found among ties, deterministically.
        frac_ids, dist = _fractional(x, binary_ids)
        if frac_ids.size == 0:
            best_obj, incumbent = obj, x
            continue

        j = int(frac_ids[np.argmax(dist)])
        for val in (0.0, 1.0):
            clo = node.lower if val == 0.0 else node.lower.copy()
            chi = node.upper if val == 1.0 else node.upper.copy()
            if val == 0.0:
                chi[j] = 0.0
            else:
                clo[j] = 1.0
            child = _Node(clo, chi, node.depth + 1)
            heapq.heappush(heap, (obj, -child.depth, next(seq), child))

    if incumbent is None:
        incumbent, best_obj = np.zeros(n), math.nan
    if stop is None:  # the search finished: the incumbent is optimal, or none exists
        stop, bound = (INFEASIBLE if math.isnan(best_obj) else OPTIMAL), best_obj
    return MILPSolution(stop, incumbent, best_obj, nodes_explored, lp_iterations, bound)
