"""Two-phase primal simplex for small certificate and design LPs.

Problem form:  minimize  objective · z
               subject to  ineq_lhs · z ≤ ineq_rhs
with z sign-free.  Internally every variable is split into a difference
of nonnegative parts, every row gets its own slack, and phase 1 drives
artificial variables out of the rows whose right-hand side had to be
negated.

Bland's rule is used for both the entering and the leaving choice, so
the solver cannot cycle and identical inputs always produce identical
solutions.  The rule must stay Bland: when the optimum is not unique
(many design LPs), which optimal vertex comes back, and so the returned
gain L, depends on the pivot sequence.  Each pivot is made cheap
without changing that sequence:

- the entering column is the first negative reduced cost, found in one
  vector comparison;
- the leaving row runs Bland's sequential tie rule only over the rows
  whose ratio is close enough to the minimum to be chosen or to change
  the choice (see ``_leaving_row``), usually one row;
- the tableau is stored dense, but elimination touches only the entries
  whose row has a nonzero in the pivot column and whose column has a
  nonzero in the pivot row.  Every other entry would have 0 · x
  subtracted, so the values are those of a full dense update (up to
  the sign of a zero, which changes no pivot and no nonzero value).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, SolverFailureError
from .linalg import as_matrix, as_vector

# Reduced costs above -EPS count as optimal; pivot candidates need a
# column entry above EPS.
EPS = 1e-9

# Leaving-row ratios within TIE of each other are tied; Bland's rule
# then picks the row whose basic variable has the lower index.
TIE = 1e-12

# Phase-1 objective above this value certifies infeasibility.
FEAS_TOL = 1e-9


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """minimize objective·z s.t. ineq_lhs·z ≤ ineq_rhs."""

    objective: np.ndarray
    ineq_lhs: np.ndarray
    ineq_rhs: np.ndarray

    def __post_init__(self):
        self.objective = as_vector(self.objective, "objective")
        n = self.objective.size
        if n == 0:
            raise DimensionError("LinearProgram needs at least one variable")
        lhs = np.asarray(self.ineq_lhs, dtype=float)
        self.ineq_lhs = as_matrix(lhs, "ineq_lhs") if lhs.size else np.zeros((0, n))
        if self.ineq_lhs.shape[1] != n:
            raise DimensionError(f"ineq_lhs has {self.ineq_lhs.shape[1]} columns, expected {n}")
        self.ineq_rhs = as_vector(self.ineq_rhs, "ineq_rhs", self.ineq_lhs.shape[0])

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.ineq_lhs.shape[0]


@dataclass
class LpSolution:
    """Status, optimal point and value (OPTIMAL only), and pivot count.

    ``iterations`` counts every pivot: those of phase 1, those that drive
    leftover artificials out of the basis, and those of phase 2.
    """

    status: LpStatus
    primal: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0


def _pivot(T: np.ndarray, b: np.ndarray, basis: np.ndarray, row: int, col: int):
    piv = T[row, col]
    T[row] /= piv
    b[row] /= piv
    factors = T[:, col].copy()
    factors[row] = 0.0
    b -= factors * b[row]
    # an entry changes only where both its pivot-column factor and its
    # pivot-row entry are nonzero; elsewhere 0 * x would be subtracted
    rows = factors.nonzero()[0]
    cols = T[row].nonzero()[0]
    T[rows[:, None], cols] -= np.multiply.outer(factors[rows], T[row, cols])
    # re-zero the pivot column explicitly; the update can leave roundoff
    # dust that later pivots would amplify
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _leaving_row(b: np.ndarray, col: np.ndarray, basis: np.ndarray) -> int:
    """Bland's leaving row for one entering column, or -1 if unbounded.

    The rule is sequential: scanning the candidate rows in order, a
    ratio more than TIE below the best so far replaces it, and one
    within TIE of it replaces it when its basic variable has the lower
    index.  With k candidates, a row whose ratio is more than
    (k + 1) * TIE above the minimum can neither be chosen nor change the
    choice, so the scan runs over the rows inside that window only.  A
    tie moves the best by at most TIE, and a clearly smaller ratio
    replaces the best in both scans unless it ties with one of them; so
    while the full and the windowed scan disagree after c rows, both
    bests lie more than (k + 2 - c) * TIE above the minimum.  The
    minimum's row (c <= k) brings both within TIE of it, after which the
    scans agree and the best stays too low for an outside row to tie.
    """
    cand = (col > EPS).nonzero()[0]
    if cand.size < 2:
        return int(cand[0]) if cand.size else -1
    ratios = b[cand] / col[cand]
    inside = ratios <= ratios.min() + (cand.size + 1) * TIE
    cand = cand[inside]
    if cand.size == 1:
        return int(cand[0])
    leave = -1
    best = np.inf
    for i, ratio in zip(cand.tolist(), ratios[inside].tolist()):
        if ratio < best - TIE or (
            abs(ratio - best) <= TIE and (leave < 0 or basis[i] < basis[leave])
        ):
            best = ratio
            leave = i
    return leave


def _simplex(
    T: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    basis: np.ndarray,
    max_iter: int,
    used: int,
) -> tuple[str, int]:
    """Run Bland-rule simplex until optimal or unbounded.

    T, b, basis are mutated in place.  Returns (verdict, iterations)
    where verdict is "optimal" or "unbounded".
    """
    m = T.shape[0]
    it = used
    while True:
        reduced = cost - cost[basis] @ T if m else cost
        improving = reduced < -EPS
        enter = int(improving.argmax())
        if not improving[enter]:
            return "optimal", it
        leave = _leaving_row(b, T[:, enter], basis)
        if leave < 0:
            return "unbounded", it
        it += 1
        if it > max_iter:
            raise SolverFailureError(
                f"simplex exceeded the iteration cap ({max_iter})"
            )
        _pivot(T, b, basis, leave, enter)


def solve(lp: LinearProgram, max_iter: int | None = None) -> LpSolution:
    """Solve the LP; statuses Optimal / Infeasible / Unbounded.

    Raises :class:`SolverFailureError` when the iteration cap is hit,
    which is a numerical failure, not a statement about the problem.
    """
    n = lp.num_vars
    m = lp.num_constraints
    if max_iter is None:
        max_iter = 50 * (n + m)

    # columns: [z+ (n) | z- (n) | slacks (m)]
    width = 2 * n + m
    T = np.hstack([lp.ineq_lhs, -lp.ineq_lhs, np.eye(m)])
    b = lp.ineq_rhs.astype(float)

    # rows with a negative right-hand side are negated and start with an
    # artificial basic; the rest start with their own slack basic
    flip = b < 0.0
    T[flip] *= -1.0
    b[flip] *= -1.0
    art_rows = np.flatnonzero(flip)
    basis = np.arange(2 * n, width)
    basis[art_rows] = width + np.arange(art_rows.size)

    iterations = 0
    if art_rows.size:
        art_cols = np.zeros((m, art_rows.size))
        art_cols[art_rows, np.arange(art_rows.size)] = 1.0
        T = np.hstack([T, art_cols])
        cost1 = np.zeros(T.shape[1])
        cost1[width:] = 1.0
        verdict, iterations = _simplex(T, b, cost1, basis, max_iter, iterations)
        if verdict == "unbounded":
            raise SolverFailureError("phase-1 objective reported unbounded")
        phase1 = float(cost1[basis] @ b)
        if phase1 > FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, iterations=iterations)
        # pivot leftover artificials out of the basis (degenerate rows);
        # every row keeps its own slack column, so none is all zero
        for i in np.flatnonzero(basis >= width):
            entries = np.flatnonzero(np.abs(T[i, :width]) > EPS)
            if entries.size == 0:  # pragma: no cover - nonzero slack entry
                raise SolverFailureError("phase 1 left an artificial on a zero row")
            iterations += 1
            _pivot(T, b, basis, i, int(entries[0]))
        T = T[:, :width]

    cost2 = np.concatenate([lp.objective, -lp.objective, np.zeros(m)])
    verdict, iterations = _simplex(T, b, cost2, basis, max_iter, iterations)
    if verdict == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, iterations=iterations)

    full = np.zeros(width)
    full[basis] = b
    z = full[:n] - full[n : 2 * n]
    return LpSolution(LpStatus.OPTIMAL, z, float(lp.objective @ z), iterations)


def check_feasible(lp: LinearProgram) -> bool:
    """True iff the constraint set admits a point (zero-objective solve)."""
    probe = LinearProgram(np.zeros(lp.num_vars), lp.ineq_lhs, lp.ineq_rhs)
    return solve(probe).status is LpStatus.OPTIMAL
