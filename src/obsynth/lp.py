"""Simplex solver for small certificate and design LPs.

Problem form:  minimize  objective · z
               subject to  ineq_lhs · z ≤ ineq_rhs
with z sign-free.  Internally every variable is split into a difference
of nonnegative parts, every row gets its own slack, and phase 1 drives
artificial variables out of the rows whose right-hand side had to be
negated.

A square LP (as many rows as variables) whose ineq_lhs `solve_linear`
certifies nonsingular skips phase 1.  Its feasible set has exactly one
vertex, ineq_lhs⁻¹ ineq_rhs, and that vertex is always feasible
(Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*, 1997,
§2.2).  So the solve builds the tableau at the basis where every part
z+ is basic, from the one factorization, and phase 2 prices it: OPTIMAL
when the dual -ineq_lhs⁻ᵀ objective is nonnegative (up to EPS), else
UNBOUNDED, since every row is then a free row (below) and no ratio test
has a candidate.  No pivot is made, and the answer is the two-phase
path's up to rounding, because there is no other vertex to return.

Any other LP may name n rows in ``LinearProgram.start``: the rows it
expects tight at an optimum (`synthesis.design` names the stability
rows, the gamma row and r sign rows per row of L).  When the dense
start tableau is neither tiny nor past one BLOCK, START_MIN <= n (m + 1)
<= BLOCK (`takes_start`), and `solve_linear` certifies those rows G
nonsingular, the solve starts at their vertex, G⁻¹ h, in the basis
where every z+ is basic and every other row keeps its slack (the square
start is the case where the rows are all rows).  That vertex may break
other rows, so a dual simplex phase (Maros, *Computational Techniques
of the Simplex Method*, 2003, ch. 9; Koberstein, *The Dual Simplex
Method*, 2005) drives them out:

- the reduced costs are priced once, a negative one raised to 0 (a
  cost shift that phase 2's fresh price undoes), and carried;
- the leaving row is the most negative b of the rows whose basic
  variable is no part of z (the first row on exact ties), below -EPS;
- of the slots with an entry below -EPS in that row, Harris's two-pass
  ratio test keeps those within the step that holds every reduced cost
  above -EPS, and the largest entry enters (the first slot on exact
  ties).  Taking the least ratio alone entered entries of 1e-4 among
  entries near 1 and sent the tableau far off;
- after STALL consecutive pivots on a reduced cost at or below 0,
  until a pivot moves the dual objective, Bland's rule for the dual
  chooses: the leaving row is the one whose basic variable has the
  lowest index, and of the slots whose ratio lies within TIE of the
  least, the one whose variable has the lowest index enters.  As in
  the primal rule below, that terminates in exact arithmetic, and in
  floating point the ITERATION_CAP ends a cycle.

A slack leaves and a slack enters, so every z+ stays basic.  Rows the
dual phase leaves below zero at rounding level start phase 1 on
artificials as the two-phase path's rows do, and phase 2 follows.  A
row below -EPS that no slot can enter proves the LP infeasible up to
rounding; the two-phase path then decides, so FEAS_TOL stays the only
infeasibility rule.

The optimum is then read afresh, not from the tableau: on the lifted
discrete-delay plants of the tests the tableau's point broke rows by
up to 6.8e-9 (1 + max|ineq_rhs|), the fresh read by 2.2e-15.  The
final tight rows F, whose slacks are nonbasic, are factored once by
`solve_linear` (the start's factorization serves when F is the start),
z = G_F⁻¹ h_F and y_F = -G_F⁻ᵀ objective, except that a variable two
one-entry rows fix (a gain pinned at zero) reads that value exactly,
as the two-phase path's degenerate rows read it.  That read is
returned only as a certificate: z breaks no row by more than FEAS_TOL
(1 + max|ineq_rhs|), y ≥ -EPS, and G_Fᵀ y_F = -objective holds within
EPS (1 + max|objective|).  A start that ends anywhere else (infeasible,
unbounded, singular, not so certified, or stopped by a
:class:`SolverFailureError`) is solved again by the two-phase path,
whose pivots count on; a stopped start counts as the cap's pivots.

The start is chosen from the LP's shape, START_MIN, BLOCK and the
certified factorizations alone.  Below START_MIN its fixed work costs
more than the pivots it saves (see the constant).  Above BLOCK every
dual pivot updates all n dense slack slots: forced past BLOCK, the
start ran 1.0-4.2x as long as the two-phase path on design LPs at
n = 32-64 (one plant per class, a 2-core host), with a third of the
pivots.

The entering column is the one with the most negative reduced cost
(Dantzig's rule, the first slot on exact ties).  The leaving row is,
of the rows whose ratio lies within TIE of the minimum ratio, the one
whose basic variable has the lowest index; so exact ties, the ones
Bland's anti-cycling argument needs, go to the lowest index.  A row
whose basic variable is a part z+ or z- of z is left out of the ratio
test: z is sign-free, so nothing bounds that part, which may go
negative (z+ - z- still reads z); once basic, a part of z stays basic
(the textbook rule for free variables; Maros 2003).  The certificate
LP of `positive.linf_gain_lp` at q = 1 is square, n + 1 rows and
variables, and takes no pivot; a pass of the benchmark's design sweep
takes 1,746 from its start rows (5,849 on the two-phase path).
Three guards keep the primal rule safe:

- a phase ends, optimal or unbounded, only on a fresh price (below);
- a pivot entry below PIVOT_RATIO times its column's largest is not
  taken: that pivot's entering column is chosen by Bland's rule (the
  improving one with the smallest variable index) instead;
- after STALL consecutive degenerate pivots, Bland's rule chooses the
  entering column until a pivot is nondegenerate.  Cycling needs an
  endless run of degenerate pivots, and every nondegenerate pivot
  lowers the objective.  In exact arithmetic Bland's rule cannot make
  such a run, so the solver terminates; in floating point rounding can
  still make one cycle, which the ITERATION_CAP turns into a
  :class:`SolverFailureError`.

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
- elimination changes only the slots whose entry in the pivot row is
  nonzero, each by a multiple of the pivot column
  (``T[slots] -= prow[slots, None] * factors``), whole rows at a time
  and with no index into single entries.  An entry whose pivot-column
  factor is zero has 0 · x subtracted, which changes at most the sign
  of a zero.  The slots go BLOCK entries (at least one slot) per call,
  so the temporaries stay in cache while a slot's row fits in BLOCK.

An optimal solution carries the dual ``y`` of maximize -ineq_rhs · y
subject to ineq_lhsᵀ y = -objective, y ≥ 0: y_i is the final reduced
cost of row i's slack when the slack is nonbasic, and 0 when it is
basic (on a started solve, y_F above).  Rows negated for phase 1 need
no sign fix, because scaling a row changes no reduced cost.  So y ≥ 0
up to EPS, and -ineq_rhs · y equals the optimum up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, SingularMatrixError, SolverFailureError
from .linalg import _shaped, as_vector, solve_linear

# Reduced costs above -EPS count as optimal; pivot candidates need a
# column entry above EPS.
EPS = 1e-9

# Leaving-row ratios within TIE of the minimum ratio are tied; of those
# rows, the one whose basic variable has the lowest index leaves.
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

# After STALL consecutive degenerate pivots (b[leave] == 0; in the dual
# phase, reduced[enter] <= 0) Bland's rule chooses until a pivot is
# nondegenerate, so the solver cannot cycle.
STALL = 5

# Elimination updates at most BLOCK tableau entries per numpy call, or
# one slot's row where that is longer (m + 1 > BLOCK), so its two
# temporaries (512 KB each) stay in cache.  On a 2-core Xeon with 2 MB
# of L2 per core, whole rows at once ran the n = 64 design LPs about
# 1.7x slower, and at n = 96 (9,505 rows) malloc handed each 1.7 MB
# temporary back to the OS, so every pivot faulted its pages in again
# (100k faults per solve).
BLOCK = 65536

# A start pays for its fixed work (the picks, two factorizations and
# the certificate, about 0.1 ms) only where it saves more pivots than
# that: on design LPs of n = 2-8 (one draw per class and r) it ran
# 0.73-1.54x the two-phase time below START_MIN entries of start
# tableau, N (m + 1), and mostly 0.4-0.95x above.  The corpus designs
# have 18-55 entries, the benchmark's design sweep 374-13,680.
START_MIN = 256

# Phase-1 objective above this value certifies infeasibility.
FEAS_TOL = 1e-9

# A solve of n variables and m rows that needs more than
# ITERATION_CAP * (n + m) pivots raises SolverFailureError.
ITERATION_CAP = 50


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """minimize objective·z s.t. ineq_lhs·z ≤ ineq_rhs.

    ``start`` optionally names num_vars distinct rows to start the solve
    at (module docstring); it is kept sorted.
    """

    objective: np.ndarray
    ineq_lhs: np.ndarray
    ineq_rhs: np.ndarray
    start: np.ndarray | None = None

    def __post_init__(self):
        self.objective = as_vector(self.objective, "objective")
        n = self.objective.size
        if n == 0:
            raise DimensionError("LinearProgram needs at least one variable")
        lhs = self.ineq_lhs
        self.ineq_lhs = _shaped(lhs, "ineq_lhs", cols=n) if np.size(lhs) else np.zeros((0, n))
        self.ineq_rhs = as_vector(self.ineq_rhs, "ineq_rhs", self.ineq_lhs.shape[0])
        if self.start is not None:
            # sorted, not np.unique, which imports numpy.ma (1.5 MB)
            rows = np.sort(np.asarray(self.start, dtype=np.intp).reshape(-1))
            if (
                rows.size != n
                or rows[0] < 0
                or rows[-1] >= self.num_constraints
                or (rows[1:] == rows[:-1]).any()
            ):
                raise DimensionError(f"start must name {n} distinct rows of ineq_lhs")
            self.start = rows

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.ineq_lhs.shape[0]


@dataclass
class LpSolution:
    """Status, optimal point, value and dual (OPTIMAL only), and pivot count.

    ``iterations`` counts every pivot: those of the dual phase, of phase
    1, those that drive leftover artificials out of the basis, and those
    of phase 2, on a start and on the two-phase path after it.  A square
    LP started at its one vertex makes none: the factorizations that
    build a start and read its end count no pivot.
    ``dual`` holds one multiplier per inequality row (see the module
    docstring).
    """

    status: LpStatus
    primal: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0
    dual: np.ndarray | None = None


def takes_start(n: int, m: int) -> bool:
    """True when `solve` starts an LP of n variables and m rows at start
    rows it names: the LP is not square, and its dense start tableau,
    n (m + 1) entries, holds at least START_MIN and at most BLOCK."""
    return m != n and START_MIN <= n * (m + 1) <= BLOCK


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


def _leaving_row(b: np.ndarray, col: np.ndarray, basis: np.ndarray, free: int) -> int:
    """The leaving row for one entering column, or -1 if unbounded: of the
    candidate rows (column entry above EPS, basic variable not one of the
    ``free`` parts of z) whose ratio lies within TIE of the minimum
    ratio, the one whose basic variable has the lowest index."""
    cand = ((col > EPS) & (basis >= free)).nonzero()[0]
    if cand.size < 2:
        return int(cand[0]) if cand.size else -1
    ratios = b[cand] / col[cand]
    # argmin is a C method; min goes through a Python wrapper first
    rows = cand[ratios <= ratios[ratios.argmin()] + TIE]
    return int(rows[basis[rows].argmin()])


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
    free: int,
    cap: int,
    used: int,
) -> tuple[str, int]:
    """Run one phase, by the rules of the module docstring, until optimal
    or unbounded.

    The first ``free`` variables are the parts of z, which no ratio test
    bounds.  T, basis and nonbasic are mutated in place.  Returns (verdict,
    iterations), verdict "optimal" or "unbounded", with iterations
    counted on from ``used``; beyond ``cap`` of them it raises
    :class:`SolverFailureError`.
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
        leave = _leaving_row(b, col, basis, free)
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
        if it > cap:
            raise SolverFailureError(f"simplex exceeded the iteration cap ({cap})")
        stall = stall + 1 if b[leave] == 0.0 else 0
        _pivot(T, basis, nonbasic, leave, slot)
        fresh = bland = False


def _factor(lp: LinearProgram, rows: np.ndarray | None):
    """X = G⁻¹ [h | I] for the rows ``rows`` of ineq_lhs (G) and ineq_rhs
    (h), all rows when None, or None when `solve_linear` cannot certify
    G nonsingular: X[:, 0] is the vertex where those rows are tight and
    X[:, 1:] is G⁻¹."""
    G, h = lp.ineq_lhs, lp.ineq_rhs
    if rows is not None:
        G, h = G[rows], h[rows]
    try:
        return solve_linear(G, np.column_stack([h, np.eye(lp.num_vars)]))
    except SingularMatrixError:
        return None


def _vertex_tableau(lp: LinearProgram, rows: np.ndarray | None):
    """The condensed tableau at the vertex where the n rows ``rows`` are
    tight (all rows of a square LP when None), with basis, slots and the
    factorization X of `_factor`, or None when `solve_linear` cannot
    certify them nonsingular.

    Every z+ is basic, z+_k in row rows[k], and every other row keeps its
    slack basic.  With G = ineq_lhs[rows] and O the other rows, the
    tableau is B⁻¹ [ineq_lhs | -ineq_lhs | I]: in rows ``rows`` it reads
    [I | -I | G⁻¹] with b = G⁻¹ h, and in the rows O, z- and the tight
    slacks read 0 and -ineq_lhs[O] G⁻¹ with b = h[O] - ineq_lhs[O] G⁻¹ h.
    The slots are z- (column -e_rows[j]) and then the slacks of
    ``rows``, all from one factorization.  A z+ may be basic at a
    negative level (it is a part of the sign-free z); a slack of O below
    zero marks a row the vertex breaks, which the dual phase drives out.
    """
    n, m = lp.num_vars, lp.num_constraints
    X = _factor(lp, rows)
    if X is None:
        return None
    T = np.zeros((2 * n + 1, m + 1))
    if rows is None:
        T[np.arange(n), np.arange(n)] = -1.0
        T[n : 2 * n, :n] = X[:, 1:].T
        T[-1, :n] = X[:, 0]
        return T, np.arange(n), np.arange(n, 3 * n), X
    loose = np.ones(m, dtype=bool)
    loose[rows] = False
    other = loose.nonzero()[0]
    W = lp.ineq_lhs[other] @ X
    T[np.arange(n), rows] = -1.0
    T[n : 2 * n, rows] = X[:, 1:].T
    T[n : 2 * n, other] = -W[:, 1:].T
    T[-1, rows] = X[:, 0]
    T[-1, other] = lp.ineq_rhs[other] - W[:, 0]
    basis = np.arange(2 * n, 2 * n + m)
    basis[rows] = np.arange(n)
    return T, basis, np.concatenate([np.arange(n, 2 * n), 2 * n + rows]), X


def _dual(
    T: np.ndarray,
    cost: np.ndarray,
    basis: np.ndarray,
    nonbasic: np.ndarray,
    free: int,
    cap: int,
    used: int,
) -> int:
    """Dual simplex from a started tableau, by the rules of the module
    docstring, until no row whose basic variable is bounded has b below
    -EPS, or such a row has no entering candidate.  The reduced costs are
    priced once, negative ones raised to 0, and carried.  T, basis and
    nonbasic are mutated in place; returns the iterations counted on from
    ``used``, raising :class:`SolverFailureError` beyond ``cap``."""
    reduced = T[:-1, -1]
    b = T[-1, :-1]
    reduced[:] = cost[nonbasic] - T[:-1, :-1] @ cost[basis]
    np.maximum(reduced, 0.0, out=reduced)
    # a slack leaves and a slack enters, so the rows whose basic variable
    # is a part of z stay those rows; they read 0 here and never leave
    bounded = basis >= free
    stall = 0
    it = used
    while True:
        level = np.where(bounded, b, 0.0)
        row = int(level.argmin())
        if level[row] >= -EPS:
            return it
        bland = stall >= STALL
        if bland:
            rows = (level < -EPS).nonzero()[0]
            row = int(rows[basis[rows].argmin()])
        alpha = T[:-1, row]
        cand = (alpha < -EPS).nonzero()[0]
        if cand.size == 0:
            return it
        entry = alpha[cand]
        costs = reduced[cand]
        if bland:
            # of the least ratios (within TIE), the lowest variable index
            ratios = costs / -entry
            tied = cand[ratios <= ratios[ratios.argmin()] + TIE]
            slot = int(tied[nonbasic[tied].argmin()])
        else:
            # Harris's two passes: the step that keeps every reduced cost
            # above -EPS bounds the ratios, and of the candidates within
            # it the largest pivot entry enters (the first slot on exact
            # ties)
            ok = costs <= ((costs + EPS) / entry).max() * entry
            slot = int(cand[np.where(ok, entry, 0.0).argmin()])
        it += 1
        if it > cap:
            raise SolverFailureError(f"simplex exceeded the iteration cap ({cap})")
        stall = stall + 1 if reduced[slot] <= 0.0 else 0
        _pivot(T, basis, nonbasic, row, slot)


def _phase1(
    T: np.ndarray,
    basis: np.ndarray,
    nonbasic: np.ndarray,
    rows: np.ndarray,
    width: int,
    free: int,
    cap: int,
    used: int,
):
    """Phase 1 from a tableau whose last ``rows.size`` slots, before b's
    row, are spare: the slack basic in each of ``rows`` (b < 0 there)
    moves to a spare slot, the row is negated and an artificial takes
    its place.  Returns (T, nonbasic, iterations), with the artificials
    driven out of the basis and their slots dropped, or T None when the
    phase-1 objective certifies infeasibility."""
    k = rows.size
    arts = np.arange(k)
    T[T.shape[0] - 1 - k + arts, rows] = 1.0
    T[:, rows] *= -1.0
    nonbasic = np.concatenate([nonbasic, basis[rows]])
    basis[rows] = width + arts
    cost1 = np.zeros(width + k)
    cost1[width:] = 1.0
    verdict, it = _simplex(T, cost1, basis, nonbasic, free, cap, used)
    if verdict == "unbounded":
        raise SolverFailureError("phase-1 objective reported unbounded")
    if float(cost1[basis] @ T[-1, :-1]) > FEAS_TOL:
        return None, nonbasic, it
    # pivot leftover artificials out of the basis (degenerate rows) on
    # the lowest-index column with an entry; every row keeps its own
    # slack column, so none is all zero
    for i in (basis >= width).nonzero()[0]:
        entries = ((np.abs(T[:-1, i]) > EPS) & (nonbasic < width)).nonzero()[0]
        if entries.size == 0:  # pragma: no cover - nonzero slack entry
            raise SolverFailureError("phase 1 left an artificial on a zero row")
        it += 1
        _pivot(T, basis, nonbasic, i, int(entries[nonbasic[entries].argmin()]))
    keep = np.ones(T.shape[0], dtype=bool)  # b's row stays
    np.less(nonbasic, width, out=keep[:-1])
    return T.compress(keep, axis=0), nonbasic[keep[:-1]], it


def _phases(lp: LinearProgram, T, basis, nonbasic, art_rows, cap: int, used: int):
    """Phase 1 on an artificial in each of ``art_rows`` (when there are
    any; T then has as many spare slots), and phase 2.  Returns (status,
    T, nonbasic, iterations) with T, basis and nonbasic at the end."""
    n, m = lp.num_vars, lp.num_constraints
    width = 2 * n + m
    it = used
    if art_rows.size:
        T, nonbasic, it = _phase1(T, basis, nonbasic, art_rows, width, 2 * n, cap, it)
        if T is None:
            return LpStatus.INFEASIBLE, T, nonbasic, it
    cost = np.concatenate([lp.objective, -lp.objective, np.zeros(m)])
    verdict, it = _simplex(T, cost, basis, nonbasic, 2 * n, cap, it)
    status = LpStatus.OPTIMAL if verdict == "optimal" else LpStatus.UNBOUNDED
    return status, T, nonbasic, it


def _tableau_solution(lp: LinearProgram, T, basis, nonbasic, iterations: int) -> LpSolution:
    """The optimum read from the final tableau."""
    n = lp.num_vars
    width = 2 * n + lp.num_constraints
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


def _fixed(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """The variables z_k that two rows with one nonzero each fix, g z_k <=
    h with g > 0 and g' z_k <= h' with g' < 0 where h / g == h' / g' (a
    gain entry pinned at zero), and that value."""
    G, h = lp.ineq_lhs, lp.ineq_rhs
    rows = (np.count_nonzero(G, axis=1) == 1).nonzero()[0]
    k = np.abs(G[rows]).argmax(axis=1)
    g = G[rows, k]
    # most LPs bound no variable from both sides by such rows
    sides = np.bincount(k[g > 0.0], minlength=lp.num_vars)
    if not sides[k[g < 0.0]].any():
        return rows[:0], h[:0]
    level = h[rows] / g
    upper = np.full(lp.num_vars, np.inf)
    lower = np.full(lp.num_vars, -np.inf)
    np.minimum.at(upper, k[g > 0.0], level[g > 0.0])
    np.maximum.at(lower, k[g < 0.0], level[g < 0.0])
    fixed = (upper == lower).nonzero()[0]
    return fixed, upper[fixed]


def _tight_solution(
    lp: LinearProgram, tight: np.ndarray, X: np.ndarray | None, iterations: int
) -> LpSolution | None:
    """The optimum read afresh at the final tight rows ``tight`` (sorted),
    factored as X by `_factor`, or None when it is not certified: when X
    is None (`solve_linear` cannot certify the rows nonsingular), or the
    point and dual it gives break a row by more than FEAS_TOL, a sign by
    more than EPS, or ineq_lhsᵀ y = -objective by more than EPS (scaled).
    A variable that the rows fix (`_fixed`) reads its value exactly, as
    on the two-phase path, not the factorization's (2e-16 off on the
    lifted discrete-delay designs of the tests)."""
    m = lp.num_constraints
    if X is None:
        return None
    z = X[:, 0].copy()
    fixed, value = _fixed(lp)
    z[fixed] = value
    z += 0.0
    y = -(X[:, 1:].T @ lp.objective)
    G, h, c = lp.ineq_lhs, lp.ineq_rhs, lp.objective
    if (
        y.min() < -EPS
        or (G @ z - h).max() > FEAS_TOL * (1.0 + np.abs(h).max())
        or np.abs(G[tight].T @ y + c).max() > EPS * (1.0 + np.abs(c).max())
    ):
        return None
    dual = np.zeros(m)
    dual[tight] = y
    return LpSolution(LpStatus.OPTIMAL, z, float(c @ z), iterations, dual)


def _slack_start(lp: LinearProgram):
    """The condensed tableau at the slack basis, with basis and slots,
    and the rows that start phase 1.

    Variables: [z+ (n) | z- (n) | slacks (m) | artificials].  Rows with a
    negative right-hand side start with an artificial basic (phase 1);
    the rest start with their own slack basic.  T holds one row per
    nonbasic variable, its tableau column and then its reduced cost, and
    b as its last row; the slots of the slacks that the artificials keep
    out come after z+ and z-, and are filled by `_phase1`."""
    n, m = lp.num_vars, lp.num_constraints
    art_rows = (lp.ineq_rhs < 0.0).nonzero()[0]
    T = np.zeros((2 * n + art_rows.size + 1, m + 1))
    lhs = lp.ineq_lhs.T
    T[:n, :m] = lhs
    np.negative(lhs, out=T[n : 2 * n, :m])
    T[-1, :m] = lp.ineq_rhs
    return T, np.arange(2 * n, 2 * n + m), np.arange(2 * n), art_rows


def _started(lp: LinearProgram, cap: int) -> tuple[LpSolution | None, int]:
    """The optimum from the LP's start rows, with the pivots it took, or
    None when the start is singular or its end is not a certified
    optimum (the module docstring)."""
    n, m = lp.num_vars, lp.num_constraints
    start = _vertex_tableau(lp, lp.start)
    if start is None:
        return None, 0
    T, basis, nonbasic, X = start
    cost = np.concatenate([lp.objective, -lp.objective, np.zeros(m)])
    used = _dual(T, cost, basis, nonbasic, 2 * n, cap, 0)
    level = np.where(basis >= 2 * n, T[-1, :-1], 0.0)
    if level.min() < -EPS:  # a row no slot can enter: infeasible, or nearly
        return None, used
    # rounding-level leftovers below zero go to phase 1 on an artificial
    art_rows = (level < 0.0).nonzero()[0]
    if art_rows.size:  # spare slots for phase 1
        T = np.concatenate([T[:-1], np.zeros((art_rows.size, m + 1)), T[-1:]])
    status, T, nonbasic, used = _phases(lp, T, basis, nonbasic, art_rows, cap, used)
    if status is not LpStatus.OPTIMAL:
        return None, used
    # the slacks of the tight rows are the nonbasic ones; the start's
    # factorization serves when they are the start rows
    tight = np.sort(nonbasic[nonbasic >= 2 * n]) - 2 * n
    if not np.array_equal(tight, lp.start):
        X = _factor(lp, tight) if tight.size == n else None
    return _tight_solution(lp, tight, X, used), used


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP; statuses Optimal / Infeasible / Unbounded.

    Raises :class:`SolverFailureError` after ITERATION_CAP * (n + m)
    pivots at a square LP's vertex or on the two-phase path, which is a
    numerical failure, not a statement about the problem; a started
    solve that reaches the cap falls back to the two-phase path.
    """
    n = lp.num_vars
    m = lp.num_constraints
    cap = ITERATION_CAP * (n + m)
    used = 0
    square = _vertex_tableau(lp, None) if m == n else None
    if square is not None:
        T, basis, nonbasic, _ = square
        cost = np.concatenate([lp.objective, -lp.objective, np.zeros(m)])
        verdict, iterations = _simplex(T, cost, basis, nonbasic, 2 * n, cap, 0)
        if verdict == "unbounded":
            return LpSolution(LpStatus.UNBOUNDED, iterations=iterations)
        return _tableau_solution(lp, T, basis, nonbasic, iterations)
    if lp.start is not None and takes_start(n, m):
        try:
            sol, used = _started(lp, cap)
        except SolverFailureError:
            # the start reached the cap (or broke down): cap pivots count
            sol, used = None, cap
        if sol is not None:
            return sol
    # the two-phase path from the slack basis, also after a start that
    # ended uncertified (its pivots count on)
    T, basis, nonbasic, art_rows = _slack_start(lp)
    status, T, nonbasic, iterations = _phases(lp, T, basis, nonbasic, art_rows, cap + used, used)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status, iterations=iterations)
    return _tableau_solution(lp, T, basis, nonbasic, iterations)


def check_feasible(lp: LinearProgram) -> bool:
    """True iff the constraint set admits a point (zero-objective solve)."""
    probe = LinearProgram(np.zeros(lp.num_vars), lp.ineq_lhs, lp.ineq_rhs)
    return solve(probe).status is LpStatus.OPTIMAL
