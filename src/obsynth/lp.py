"""Two-phase primal simplex for small certificate and design LPs.

Problem form:  minimize  objective · z
               subject to  ineq_lhs · z ≤ ineq_rhs
with z sign-free.  Internally every variable is split into a difference
of nonnegative parts, every row gets its own slack, and phase 1 drives
artificial variables out of the rows whose right-hand side had to be
negated.

The entering column is the one with the most negative reduced cost
(Dantzig's rule, the first slot on exact ties); the leaving row is the
minimum ratio, with ties going to the lower basic index.  Three guards
keep the rule safe:

- a phase ends, optimal or unbounded, only on a fresh price (below);
- a pivot entry below PIVOT_RATIO times its column's largest is not
  taken: that pivot's entering column is chosen by Bland's rule (the
  improving one with the smallest variable index) instead;
- after STALL consecutive degenerate pivots, Bland's rule chooses the
  entering column until a pivot is nondegenerate.  Cycling needs an
  endless run of degenerate pivots, which Bland's rule cannot make,
  and every nondegenerate pivot lowers the objective, so the solver
  terminates.

The rule is deterministic, so identical inputs always produce identical
solutions.  When the optimum is not unique (many design LPs), which
optimal vertex comes back, and so the returned gain L, depends on the
pivot sequence.  Each pivot is made cheap without changing that
sequence:

- the tableau is condensed and stored by column: T keeps one row per
  nonbasic variable, its slot, holding the variable's tableau column
  and then its reduced cost, with ``nonbasic`` giving each slot's index
  in [z+ | z- | slacks | artificials]; b is the last row (its entry in
  the reduced-cost column is never read).  So the entering column, the
  ratio test and the pivot factors read contiguous memory, and the
  division of the pivot row (a column of T) and the elimination update
  b and the reduced costs in the same calls as the rest.  The m basic
  columns are unit vectors and are not stored.  In a pivot the leaving
  variable takes the entering variable's slot: the slot is set to the
  unit vector e_row and eliminated with the others.  That is what the
  full m x (2N + m) tableau computes for the leaving column, because
  there a basic column holds e_row exactly: it is re-zeroed when its
  variable enters, and no later elimination touches it, since its entry
  in every pivot row is zero.  So every stored value is the full
  tableau's (up to the sign of a zero, which changes no pivot and no
  nonzero value; a zero in b keeps the -0.0 a negative pivot of the
  artificial sweep leaves, so the read-out turns it to +0.0);
- the reduced costs are carried: they are priced afresh,
  ``cost[nonbasic] - T[:-1, :-1] @ cost[basis]``, when a phase starts,
  and from then on the elimination updates them like any other column
  entry, so the entering choice is one ``argmin``.  The update drifts
  from a fresh price by rounding, so a phase ends, and an entering
  column within DRIFT of the threshold is chosen, only on a fresh price;
- the leaving row runs the sequential tie rule only over the rows
  whose ratio is close enough to the minimum to be chosen or to change
  the choice (see ``_leaving_row``), usually one row, and when those
  ratios are all equal it takes the lowest basic index in one step;
- elimination changes only the slots whose entry in the pivot row is
  nonzero, each by a multiple of the pivot column
  (``T[slots] -= prow[slots, None] * factors``), whole rows at a time
  and with no index into single entries.  An entry whose pivot-column
  factor is zero has 0 · x subtracted, which changes at most the sign
  of a zero.  The slots go BLOCK entries (at least one slot) per call,
  so the temporaries stay in cache while a slot's row fits in BLOCK.
  On the benchmark's design sweep a pivot changes 15 of about 90 slots,
  each 128 entries long, on average, in one call; only the largest
  LPs' pivots span several blocks.

An optimal solution carries the dual ``y`` of maximize -ineq_rhs · y
subject to ineq_lhsᵀ y = -objective, y ≥ 0: y_i is the final reduced
cost of row i's slack when the slack is nonbasic, and 0 when it is
basic.  Rows negated for phase 1 need no sign fix, because scaling a
row changes no reduced cost.  So y ≥ 0 up to EPS, and -ineq_rhs · y
equals the optimum up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, SolverFailureError
from .linalg import _shaped, as_vector

# Reduced costs above -EPS count as optimal; pivot candidates need a
# column entry above EPS.
EPS = 1e-9

# Leaving-row ratios within TIE of each other are tied; the row whose
# basic variable has the lower index is then picked.
TIE = 1e-12

# The reduced costs that elimination carries drift from a fresh price
# by rounding (up to 3e-8 on design LPs of about 1,000 rows).  An
# entering column whose carried reduced cost lies within DRIFT of -EPS
# is chosen only on a fresh price, and a phase ends (optimal or
# unbounded) only on a fresh price.
DRIFT = 1e-6

# A pivot entry below PIVOT_RATIO times the largest entry of the most
# negative reduced cost's column is not taken; that pivot is chosen by
# Bland's rule instead.
PIVOT_RATIO = 1e-3

# After STALL consecutive degenerate pivots (b[leave] == 0) the entering
# column is chosen by Bland's rule until a pivot is nondegenerate, so
# the solver cannot cycle.
STALL = 5

# Elimination updates at most BLOCK tableau entries per numpy call, or
# one slot's row where that is longer (m + 1 > BLOCK), so its two
# temporaries (512 KB each) stay in cache.  On a 2-core Xeon with 2 MB
# of L2 per core, whole rows at once ran the n = 64 design LPs about
# 1.7x slower, and at n = 96 (9,505 rows) malloc handed each 1.7 MB
# temporary back to the OS, so every pivot faulted its pages in again
# (100k faults per solve).
BLOCK = 65536

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
        lhs = self.ineq_lhs
        self.ineq_lhs = _shaped(lhs, "ineq_lhs", cols=n) if np.size(lhs) else np.zeros((0, n))
        self.ineq_rhs = as_vector(self.ineq_rhs, "ineq_rhs", self.ineq_lhs.shape[0])

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.ineq_lhs.shape[0]


@dataclass
class LpSolution:
    """Status, optimal point, value and dual (OPTIMAL only), and pivot count.

    ``iterations`` counts every pivot: those of phase 1, those that drive
    leftover artificials out of the basis, and those of phase 2.
    ``dual`` holds one multiplier per inequality row (see the module
    docstring).
    """

    status: LpStatus
    primal: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0
    dual: np.ndarray | None = None


def _pivot(T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, row: int, slot: int):
    """The variable of slot ``slot`` enters the basis at ``row``; the
    leaving variable takes the slot."""
    factors = T[slot].copy()
    piv = factors[row]
    # the leaving variable's column is the unit vector e_row; eliminating
    # it with the others turns it into its new nonbasic column
    T[slot] = 0.0
    T[slot, row] = 1.0
    # the pivot row: one entry per slot, then b's
    prow = T[:, row]
    prow /= piv
    factors[row] = 0.0
    # only the slots with a nonzero pivot-row entry change, each by a
    # multiple of the pivot column (reduced cost included); elsewhere
    # 0 * x would be subtracted.  BLOCK entries (at least one slot) at a
    # time, which on all but the largest LPs is every slot in one call
    slots = prow.nonzero()[0]
    step = max(1, BLOCK // T.shape[1])
    for at in range(0, slots.size, step):
        block = slots[at : at + step]
        T[block] -= prow[block, None] * factors
    basis[row], nonbasic[slot] = nonbasic[slot], basis[row]


def _leaving_row(b: np.ndarray, col: np.ndarray, basis: np.ndarray) -> int:
    """The leaving row for one entering column, or -1 if unbounded.

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
    low = ratios.argmin()
    inside = ratios <= ratios[low] + (cand.size + 1) * TIE
    count = np.count_nonzero(inside)
    if count == 1:
        return int(cand[low])
    tied = ratios == ratios[low]
    if np.count_nonzero(tied) == count:
        # every ratio in the window equals the minimum, so each row ties
        # with the best so far and the scan keeps the lowest basic index
        rows = cand[tied]
        return int(rows[basis[rows].argmin()])
    window = inside.nonzero()[0]
    leave = -1
    best = np.inf
    for i, ratio in zip(cand[window].tolist(), ratios[window].tolist()):
        if ratio < best - TIE or (
            abs(ratio - best) <= TIE and (leave < 0 or basis[i] < basis[leave])
        ):
            best = ratio
            leave = i
    return leave


def _entering(reduced: np.ndarray, nonbasic: np.ndarray, bland: bool) -> int:
    """The entering slot, or -1 if no reduced cost is below -EPS: the most
    negative reduced cost (the first slot on exact ties), or by Bland's
    rule the improving column with the smallest variable index."""
    if bland:
        improving = (reduced < -EPS).nonzero()[0]
        return int(improving[nonbasic[improving].argmin()]) if improving.size else -1
    slot = int(reduced.argmin())
    return slot if reduced[slot] < -EPS else -1


def _simplex(
    T: np.ndarray,
    cost: np.ndarray,
    basis: np.ndarray,
    nonbasic: np.ndarray,
    max_iter: int,
    used: int,
) -> tuple[str, int]:
    """Run the simplex method until optimal or unbounded.

    T, basis and nonbasic are mutated in place.  Returns (verdict,
    iterations) where verdict is "optimal" or "unbounded".  The column
    with the most negative reduced cost enters (Dantzig's rule), except
    that Bland's rule chooses a pivot whose entry would be below
    PIVOT_RATIO of its column's largest, and every pivot after STALL
    consecutive degenerate ones until one is not.  The reduced costs,
    T's last column, are priced afresh when the phase starts.  From then
    on the carried reduced costs decide an entering column only when it
    improves by more than DRIFT beyond the threshold and has a leaving
    row; otherwise they are priced afresh and decide, so either verdict
    rests on a fresh price.
    """
    body = T[:-1, :-1]
    reduced = T[:-1, -1]
    b = T[-1, :-1]
    fresh = True
    bland = False  # set by the pivot-size guard for one pivot
    stall = 0
    it = used
    while True:
        if fresh:
            reduced[:] = cost[nonbasic] - body @ cost[basis]
        by_bland = bland or stall >= STALL
        slot = _entering(reduced, nonbasic, by_bland)
        if not fresh and (slot < 0 or reduced[slot] > -EPS - DRIFT):
            fresh = True
            continue
        if slot < 0:
            return "optimal", it
        col = T[slot, :-1]
        leave = _leaving_row(b, col, basis)
        if leave < 0:
            if fresh:
                return "unbounded", it
            fresh = True
            continue
        # argmax is a C method; max goes through a Python wrapper first
        if not by_bland and col[leave] < PIVOT_RATIO * col[col.argmax()]:
            bland = True
            continue
        it += 1
        if it > max_iter:
            raise SolverFailureError(
                f"simplex exceeded the iteration cap ({max_iter})"
            )
        stall = stall + 1 if b[leave] == 0.0 else 0
        _pivot(T, basis, nonbasic, leave, slot)
        fresh = bland = False


def solve(lp: LinearProgram, max_iter: int | None = None) -> LpSolution:
    """Solve the LP; statuses Optimal / Infeasible / Unbounded.

    Raises :class:`SolverFailureError` when the iteration cap is hit,
    which is a numerical failure, not a statement about the problem.
    """
    n = lp.num_vars
    m = lp.num_constraints
    if max_iter is None:
        max_iter = 50 * (n + m)

    # variables: [z+ (n) | z- (n) | slacks (m) | artificials].  Rows with
    # a negative right-hand side are negated and start with an
    # artificial basic; the rest start with their own slack basic.
    width = 2 * n + m
    art_rows = (lp.ineq_rhs < 0.0).nonzero()[0]
    k = art_rows.size
    arts = np.arange(k)
    basis = np.arange(2 * n, width)
    basis[art_rows] = width + arts
    nonbasic = np.concatenate([np.arange(2 * n), 2 * n + art_rows])

    # one row per nonbasic variable, holding its tableau column and then
    # its reduced cost; b is the last row
    T = np.zeros((2 * n + k + 1, m + 1))
    lhs = lp.ineq_lhs.T
    T[:n, :m] = lhs
    np.negative(lhs, out=T[n : 2 * n, :m])
    T[2 * n + arts, art_rows] = 1.0
    T[-1, :m] = lp.ineq_rhs
    T[:, art_rows] *= -1.0

    iterations = 0
    if k:
        cost1 = np.zeros(width + k)
        cost1[width:] = 1.0
        verdict, iterations = _simplex(T, cost1, basis, nonbasic, max_iter, iterations)
        if verdict == "unbounded":
            raise SolverFailureError("phase-1 objective reported unbounded")
        phase1 = float(cost1[basis] @ T[-1, :-1])
        if phase1 > FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, iterations=iterations)
        # pivot leftover artificials out of the basis (degenerate rows) on
        # the lowest-index column with an entry; every row keeps its own
        # slack column, so none is all zero
        for i in (basis >= width).nonzero()[0]:
            entries = ((np.abs(T[:-1, i]) > EPS) & (nonbasic < width)).nonzero()[0]
            if entries.size == 0:  # pragma: no cover - nonzero slack entry
                raise SolverFailureError("phase 1 left an artificial on a zero row")
            iterations += 1
            _pivot(T, basis, nonbasic, i, int(entries[nonbasic[entries].argmin()]))
        keep = np.ones(T.shape[0], dtype=bool)  # b's row stays
        np.less(nonbasic, width, out=keep[:-1])
        T = T.compress(keep, axis=0)
        nonbasic = nonbasic[keep[:-1]]

    cost2 = np.concatenate([lp.objective, -lp.objective, np.zeros(m)])
    verdict, iterations = _simplex(T, cost2, basis, nonbasic, max_iter, iterations)
    if verdict == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, iterations=iterations)

    # + 0.0: a basic variable at level zero reads +0.0 (module docstring)
    full = np.zeros(width)
    full[basis] = T[-1, :-1] + 0.0
    z = full[:n] - full[n : 2 * n]
    # a basic variable's reduced cost is 0
    reduced = np.zeros(width)
    reduced[nonbasic] = T[:-1, -1]
    return LpSolution(
        LpStatus.OPTIMAL, z, float(lp.objective @ z), iterations, reduced[2 * n :]
    )


def check_feasible(lp: LinearProgram) -> bool:
    """True iff the constraint set admits a point (zero-objective solve)."""
    probe = LinearProgram(np.zeros(lp.num_vars), lp.ineq_lhs, lp.ineq_rhs)
    return solve(probe).status is LpStatus.OPTIMAL
