"""Containers for mixed-integer linear programs.

Models are held in bounded-variable form: every variable carries its own
finite [lower, upper] range (every column is boxed) and every constraint is
a sparse linear row with a sense and right-hand side. Minimization only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

VarKind = Literal["continuous", "binary"]
Sense = Literal["<=", "=", ">="]

# Solver status labels shared by the LP and MILP engines.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"
NUMERICAL = "numerical"  # the solver's arithmetic broke an invariant of the method


class ModelError(ValueError):
    """Raised for malformed variables, constraints or objectives."""


@dataclass(frozen=True)
class Variable:
    id: int
    kind: VarKind
    lower: float
    upper: float
    name: str


@dataclass(frozen=True)
class LinearConstraint:
    terms: tuple[tuple[int, float], ...]
    sense: Sense
    rhs: float
    tag: str = ""


@dataclass(frozen=True, eq=False)
class MILPSolution:
    """Result of an LP or MILP solve.

    `values` holds one entry per model variable. It is a feasible point
    exactly when `objective` is finite: the optimum, or the incumbent kept
    when a search stops at a limit or on numerical trouble.

    `bound` is a proven lower bound on the optimum: the objective when
    optimal, nan when infeasible. A branch-and-bound search that stops
    early reports the smallest bound of its open nodes (-inf if the root LP
    never finished); an LP solve that stops, nan.
    """

    status: str
    values: np.ndarray
    objective: float
    nodes_explored: int = 0
    lp_iterations: int = 0
    bound: float = math.nan


class MILPModel:
    """Mutable builder for a minimization MILP."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[LinearConstraint] = []
        self.objective: tuple[tuple[int, float], ...] = ()

    # -- construction -----------------------------------------------------

    def add_variable(self, kind: VarKind, lower: float, upper: float, name: str = "") -> int:
        """Add a variable and return its id.

        Rejects bounds that are not finite, inverted bounds and binary
        bounds outside [0, 1].
        """
        if kind not in ("continuous", "binary"):
            raise ModelError(f"unknown variable kind {kind!r}")
        lower = float(lower)
        upper = float(upper)
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise ModelError(f"variable {name!r}: bounds [{lower}, {upper}] are not finite")
        if lower > upper:
            raise ModelError(
                f"variable {name!r}: lower bound {lower} exceeds upper bound {upper}"
            )
        if kind == "binary" and (lower < 0.0 or upper > 1.0):
            raise ModelError(f"variable {name!r}: binary bounds must lie in [0, 1]")
        vid = len(self.variables)
        self.variables.append(Variable(vid, kind, lower, upper, name or f"x{vid}"))
        return vid

    def add_continuous(self, name: str, lower: float, upper: float) -> int:
        return self.add_variable("continuous", lower, upper, name)

    def add_binary(self, name: str) -> int:
        return self.add_variable("binary", 0.0, 1.0, name)

    def _check_terms(self, terms: Sequence[tuple[int, float]], what: str) -> tuple[tuple[int, float], ...]:
        seen: set[int] = set()
        out = []
        for vid, coef in terms:
            if not (0 <= vid < len(self.variables)):
                raise ModelError(f"{what}: unknown variable id {vid}")
            if vid in seen:
                raise ModelError(f"{what}: duplicate variable id {vid}")
            if not math.isfinite(coef):
                raise ModelError(f"{what}: non-finite coefficient for variable {vid}")
            seen.add(vid)
            out.append((int(vid), float(coef)))
        return tuple(out)

    def add_constraint(
        self,
        terms: Sequence[tuple[int, float]],
        sense: Sense,
        rhs: float,
        tag: str = "",
    ) -> int:
        """Add a linear row; returns its index."""
        if sense not in ("<=", "=", ">="):
            raise ModelError(f"constraint {tag!r}: unknown sense {sense!r}")
        if not terms:
            raise ModelError(f"constraint {tag!r}: empty term list")
        if not math.isfinite(rhs):
            raise ModelError(f"constraint {tag!r}: non-finite rhs")
        checked = self._check_terms(terms, f"constraint {tag!r}")
        self.constraints.append(LinearConstraint(checked, sense, float(rhs), tag))
        return len(self.constraints) - 1

    def set_objective(self, terms: Sequence[tuple[int, float]]) -> None:
        self.objective = self._check_terms(terms, "objective")

    # -- queries -----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def binary_ids(self) -> list[int]:
        return [v.id for v in self.variables if v.kind == "binary"]

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([v.lower for v in self.variables], dtype=float)
        hi = np.array([v.upper for v in self.variables], dtype=float)
        return lo, hi

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self.variables))
        for vid, coef in self.objective:
            c[vid] = coef
        return c

    # -- LP text dump --------------------------------------------------------

    def _safe_names(self) -> list[str]:
        used: set[str] = set()
        names = []
        for v in self.variables:
            base = re.sub(r"[^A-Za-z0-9_]", "_", v.name) or f"x{v.id}"
            if base[0].isdigit():
                base = "x" + base
            name = base
            if name in used:
                name = f"{base}_{v.id}"
            used.add(name)
            names.append(name)
        return names

    def to_lp_text(self) -> str:
        """Render the model in LP text format for external cross-checking.

        Layout: Minimize / Subject To / Bounds / Binaries / End. Constraint
        labels are the row tag (or c<i> when untagged), sanitized the same
        way as variable names.
        """
        names = self._safe_names()

        def fmt_terms(terms: Iterable[tuple[int, float]]) -> str:
            parts = []
            for vid, coef in terms:
                sign = "-" if coef < 0 else "+"
                parts.append(f"{sign} {abs(coef):.12g} {names[vid]}")
            if not parts:
                return "0"
            text = " ".join(parts)
            return text[2:] if text.startswith("+ ") else text

        def wrap(line: str, width: int = 78) -> list[str]:
            # LP-format continuation: break between terms, indent the rest.
            if len(line) <= width:
                return [line]
            out = []
            cur = ""
            for token in line.split(" "):
                if cur and len(cur) + 1 + len(token) > width:
                    out.append(cur)
                    cur = "   " + token
                else:
                    cur = token if not cur else f"{cur} {token}"
            if cur:
                out.append(cur)
            return out

        lines = [f"\\ {self.name}", "Minimize"]
        lines += wrap(f" obj: {fmt_terms(self.objective)}")
        lines.append("Subject To")
        seen_tags: set[str] = set()
        for i, con in enumerate(self.constraints):
            tag = re.sub(r"[^A-Za-z0-9_]", "_", con.tag) or f"c{i}"
            if tag in seen_tags:
                tag = f"{tag}_{i}"
            seen_tags.add(tag)
            lines += wrap(f" {tag}: {fmt_terms(con.terms)} {con.sense} {con.rhs:.12g}")
        lines.append("Bounds")
        for v in self.variables:
            name = names[v.id]
            if v.lower == v.upper:
                lines.append(f" {name} = {v.lower:.12g}")
            else:
                lines.append(f" {v.lower:.12g} <= {name} <= {v.upper:.12g}")
        binaries = [names[i] for i in self.binary_ids()]
        if binaries:
            lines.append("Binaries")
            lines += wrap(" " + " ".join(binaries))
        lines.append("End")
        return "\n".join(lines) + "\n"

    def write_lp(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_lp_text())
