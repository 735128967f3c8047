"""Observer gain synthesis via linear programming.

The admissible gains L make A - LC Metzler and Hurwitz with E - LF
nonnegative (the relaxed form drops the E - LF requirement).  After the
change of variables U = XL with X diagonal positive, optimality of the
peak-to-peak gain for the aggregate output (every error component
summed, no feedthrough) becomes a finite LP:

    minimize gamma over (X, U, gamma) such that
      (X A - U C)_ij       >= 0          for i != j (A - LC Metzler)
      X E - U F            >= 0          (standard form only)
      X hi - U, U - X lo   >= 0          (the gain bounds, where given)
      sum_i (X S - U T)_ij + 1 <= -eps   for every column j (stability)
      sum_ij (X E - U F)_ij - gamma <= -eps

with (S, T) = (A, C) in continuous time, (A + A_h, C + C_h) with delay,
and the Schur shift (A_d - I, C_d) in discrete time.  Gain bounds are
the nonnegative sign families (hi, I) and (-lo, -I).  The Metzler
condition leaves the diagonal of A - LC free, so it has off-diagonal
rows only.  A sign row (X P - U Q)_ij >= 0 whose Q column is zero
reads P_ij x_i >= 0, which x_i >= eps implies unless P_ij < 0; only
those conflicting rows are kept, and they make the LP infeasible.  So
the LP holds no sign row that can never bind, and a delayed family
that vanishes adds none.  The one gain L* recovered as X^{-1} U is
optimal simultaneously for every nonnegative output weighting, which is
why a single aggregate LP suffices.

An infeasible standard design asks whether the relaxed rows are
feasible: they drop only E - LF >= 0, and their gamma row holds for a
large enough gamma, so they are feasible exactly when some gain within
the bounds makes A - LC Metzler and Hurwitz; then E - LF >= 0 conflicts.

Every sign row and gain bound involves one row (x_i, U_i) of the
unknowns; only the n stability rows and the gamma row couple the rows.
So at an optimum, generically, exactly n + nr + 1 rows are tight: the
n + 1 coupling rows and r sign rows per row of L.  `design` names such
a set as the LP's start, and `lp.solve` starts at its vertex and
reaches feasibility by dual simplex (on all but the smallest LPs, see
`lp.takes_start`); `certify` builds the LP with no start.

X carries no normalization beyond X_ii >= eps: the stability rows pin
its scale, and any stronger floor (say X_ii >= 1) breaks the change of
variables by letting U drift off the X L* ray when the floor binds,
returning suboptimal gains.

The plant's reduction (`positive.Plant`) supplies (S, T), the sign
families and the loop input, and checks every observer form;
`design`, `certify` and `closed_loop` read it, and `certify` judges L
with `positive._admissible`, as observer membership does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import PIVOT_RTOL, STRUCTURAL_TOL, _shaped, as_vector
from .lp import LinearProgram, LpStatus, check_feasible, solve, takes_start
from .positive import (
    DEFAULT_EPSILON,
    Plant,
    _admissible,
    _positive_epsilon,
    hurwitz_certificate,  # noqa: F401 - perfbench/tracer.py patches this name here
)

DIAG_SIGN_CONFLICT = (
    "E - L F >= 0 conflicts with the stability requirement: some gain "
    "makes A - L C Metzler and Hurwitz within the bounds, but every such "
    "gain leaves a negative entry in E - L F"
)
DIAG_NO_STABILIZER = (
    "no admissible gain: A - L C cannot be made Metzler and Hurwitz "
    "within the gain bounds"
)


@dataclass
class ObserverSpec:
    """Synthesis options: observer form, entrywise gain bounds, margin.

    Equal lower and upper bound entries pin gain entries exactly, which
    is how structural zeros (or a fully fixed L) are expressed.
    """

    form: str = "standard"
    gain_lower: np.ndarray | None = None
    gain_upper: np.ndarray | None = None
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        Plant.check_form(self.form)
        self.epsilon = _positive_epsilon(self.epsilon)

    def bounds(self, n: int, r: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The bounds as n×r matrices (a number fills one), None where
        absent; their order can only be judged once both are shaped."""
        lo, hi = (
            None if B is None else _shaped(B, name, n, r)
            for B, name in ((self.gain_lower, "gain_lower"), (self.gain_upper, "gain_upper"))
        )
        if lo is not None and hi is not None and np.any(lo > hi):
            raise PreconditionError("gain_lower exceeds gain_upper somewhere")
        return lo, hi


@dataclass
class DesignResult:
    """Outcome of a synthesis LP.

    On success L is the optimal gain, gamma the certified peak-to-peak
    gain of the aggregate error output, and (X_diag, U) the LP
    certificate with L = diag(X_diag)^{-1} U.  On infeasibility the
    diagnostic says which requirement could not be met.
    """

    status: str
    kind: str
    form: str
    epsilon: float
    L: np.ndarray | None = None
    gamma: float | None = None
    X_diag: np.ndarray | None = None
    U: np.ndarray | None = None
    diagnostic: str | None = None


@dataclass
class CertificationReport:
    """Re-derived checks on a DesignResult; empty flags means sound."""

    passed: bool
    flags: list[str]
    gamma_independent: float | None


def _plant(system, form: str) -> Plant:
    """The system, checked to be a plant type that design takes in this form."""
    if not isinstance(system, Plant):
        names = ", ".join(cls.__name__ for cls in Plant.__subclasses__())
        raise PreconditionError(
            f"cannot design for a {type(system).__name__}; expected one of {names}"
        )
    system.check_form(form)
    return system


def _assemble(
    plant: Plant,
    form: str,
    epsilon: float,
    lo: np.ndarray | None,
    hi: np.ndarray | None,
    start: bool = False,
) -> LinearProgram:
    """The design LP: minimize gamma s.t. lhs z <= rhs over
    z = [x, U row-major, gamma].

    lhs is allocated once and each constraint family is scattered into
    its block of rows.  A sign row (X P - U Q)_ij >= 0 holds -P_ij at
    column i and Q[:, j] at U's row i; a Metzler family skips its
    diagonal, and a row whose Q column is zero is kept only when
    P_ij < 0 (module docstring).  The gain-bound families follow the
    stability, gamma and x >= eps rows; 0.0 - I keeps -0.0 out of the LP.
    With ``start`` the LP names its start rows (module docstring) where
    `lp.solve` would take them (`lp.takes_start`): the stability rows,
    the gamma row and, for each row of U, r of its sign rows that
    `_sign_picks` finds independent; none when some row of U has fewer.
    """
    n, r = plant.n, plant.r
    S, T = plant.stability_pair()
    E, F, inputs = plant.loop_input(form)
    bounds = [("L - lo", -lo, 0.0 - np.eye(r), False)] if lo is not None else []
    bounds += [("hi - L", hi, np.eye(r), False)] if hi is not None else []
    signs = []  # (P, Q, kept entries (i, j) in row-major order)
    for _, P, Q, metzler in plant.sign_families() + inputs + bounds:
        keep = (P < 0.0) | np.any(Q != 0.0, axis=0)
        if metzler:
            keep &= ~np.eye(n, dtype=bool)
        signs.append((P, Q, keep.nonzero()))
    stable = len(signs) - len(bounds)  # the stability, gamma and x >= eps rows go here
    rows = sum(i.size for _, _, (i, _) in signs) + 2 * n + 1
    lhs = np.zeros((rows, n + n * r + 1))
    rhs = np.zeros(rows)
    U = lhs[:, n:-1].reshape(rows, n, r)  # a view; U[row, i] holds U's row i
    at = 0
    owners = []  # (rows, the row of U each holds)
    for f, (P, Q, (i, j)) in enumerate(signs):
        at += 2 * n + 1 if f == stable else 0
        kept = at + np.arange(i.size)
        lhs[kept, i] = -P[i, j]
        U[kept, i] = Q[:, j].T
        owners.append((kept, i))
        at += i.size
    at = sum(i.size for _, _, (i, _) in signs[:stable])
    lhs[at : at + n, :n] = S.T
    U[at : at + n] = -T.T[:, None, :]
    ones = np.ones(E.shape[1])
    lhs[at + n, :n] = E @ ones
    U[at + n] = -(F @ ones)
    lhs[at + n, -1] = -1.0
    lhs[at + n + 1 + np.arange(n), np.arange(n)] = -1.0
    rhs[at : at + n] = -1.0 - epsilon
    rhs[at + n : at + 2 * n + 1] = -epsilon
    objective = np.zeros(lhs.shape[1])
    objective[-1] = 1.0
    named = None
    if start and takes_start(lhs.shape[1], rows):
        kept, i = (np.concatenate(parts) for parts in zip(*owners))
        picks = _sign_picks(kept, i, U[kept, i], n)
        if picks is not None:
            named = np.concatenate([picks, at + np.arange(n + 1)])
    return LinearProgram(objective, lhs, rhs, named)


def _sign_picks(rows: np.ndarray, owner: np.ndarray, q: np.ndarray, n: int):
    """For each row i of U, r of the sign rows ``rows`` that it owns whose
    U coefficients ``q`` are independent, or None where some row owns
    fewer than r.  One elimination with partial pivoting runs on all n
    rows of U at once: step k takes, of each row's candidates, the one
    with the largest entry k, and eliminates entry k from the others.  A
    taken candidate is eliminated to exact zeros, so it is not taken
    again unless a row has no independent candidate left, which the
    pivot floor then refuses."""
    r = q.shape[1]
    counts = np.bincount(owner, minlength=n)
    if r == 0:
        return rows[:0]
    if counts.min() < r:
        return None
    # the candidates of row i of U in M[i], zero-padded: slot s of row i
    # holds candidate order[first[i] + s]
    order = np.argsort(owner, kind="stable")
    first = np.cumsum(counts) - counts
    slot = np.arange(owner.size) - first[owner[order]]
    M = np.zeros((n, counts.max(), r))
    M[owner[order], slot] = q[order]
    floor = PIVOT_RTOL * np.abs(q).max()
    each = np.arange(n)
    picks = np.empty((n, r), dtype=np.intp)
    for k in range(r):
        p = np.abs(M[:, :, k]).argmax(axis=1)
        pivot = M[each, p]
        if not np.abs(pivot[:, k]).min() > floor:
            return None
        picks[:, k] = p
        if k + 1 < r:
            M -= (M[:, :, k] / pivot[:, k, None])[:, :, None] * pivot[:, None, :]
    return rows[order[first[:, None] + picks]].reshape(-1)


def design(system, spec: ObserverSpec) -> DesignResult:
    """Optimal interval-observer gain for a plant of any supported type.

    A ContinuousSystem takes either observer form; DelaySystem,
    DiscreteSystem and DiscreteDelaySystem take the standard form.  The
    relaxed form lets E - LF change sign: the disturbance input of the
    gain condition is replaced by the identity input aggregated over the
    n error channels, so gamma then measures the n-channel relaxed error
    system rather than the p-channel one driven through E - LF.  Delayed
    plants are designed on their zero-delay aggregate, so the result
    does not depend on the delay.
    """
    plant = _plant(system, spec.form)
    n, r = plant.n, plant.r
    lo, hi = spec.bounds(n, r)
    eps = spec.epsilon
    sol = solve(_assemble(plant, spec.form, eps, lo, hi, start=True))
    if sol.status is LpStatus.OPTIMAL:
        x = sol.primal[:n]
        U = sol.primal[n : n + n * r].reshape(n, r)
        L = U / x[:, None]
        return DesignResult(
            status="optimal",
            kind=plant.KIND,
            form=spec.form,
            epsilon=eps,
            L=L,
            gamma=float(sol.primal[-1]),
            X_diag=x,
            U=U,
        )
    if sol.status is not LpStatus.INFEASIBLE:  # pragma: no cover - gamma bounded
        raise PreconditionError("design LP reported unbounded")
    # feasible relaxed rows leave E - L F >= 0 as the conflict (module docstring)
    conflict = spec.form == "standard" and check_feasible(
        _assemble(plant, "relaxed", eps, lo, hi)
    )
    return DesignResult(
        status="infeasible",
        kind=plant.KIND,
        form=spec.form,
        epsilon=eps,
        diagnostic=DIAG_SIGN_CONFLICT if conflict else DIAG_NO_STABILIZER,
    )


# perfbench/tracer.py patches these names and perfbench/workloads.py calls them
design_ct = design_relaxed = design_delay = design_dt = design


def closed_loop(system, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard-form error-system matrices (stability matrix, input
    matrix) at gain L, reduced to the equivalent undelayed continuous
    pair: the discrete stability matrix carries the Schur shift - I."""
    plant = _plant(system, "standard")
    L = _shaped(L, "L", plant.n, plant.r)
    S, T = plant.stability_pair()
    E, F, _ = plant.loop_input("standard")
    return S - L @ T, E - L @ F


def certify(result: DesignResult, system, spec: ObserverSpec) -> CertificationReport:
    """Re-derive every design condition from the returned certificate.

    Checks the LP rows at (X, U, gamma) with a 10-epsilon slack and the
    consistency L = X^{-1} U, the independent route; then judges the
    closed loop at L as observer membership does, at a tolerance scaled
    to the slack, and checks that its closed-form gain stays below
    gamma.  Flags are human-readable violation notes; none means sound.
    A result that is not optimal, whose gamma is not a finite real or
    whose epsilon is not positive raises :class:`PreconditionError`.
    """
    if result.status != "optimal":
        raise PreconditionError("certify needs an optimal DesignResult")
    gamma = result.gamma
    if not (isinstance(gamma, numbers.Real) and math.isfinite(gamma)):
        raise PreconditionError("certify needs a finite real gamma")
    eps = _positive_epsilon(result.epsilon)
    plant = _plant(system, result.form)
    if plant.KIND != result.kind:
        raise PreconditionError(
            f"result was designed for a {result.kind} plant, not a {plant.KIND} one"
        )
    n, r = plant.n, plant.r
    L, U = _shaped(result.L, "L", n, r), _shaped(result.U, "U", n, r)
    x = as_vector(result.X_diag, "X_diag", n)
    slack = 10.0 * eps
    flags: list[str] = []

    lp = _assemble(plant, result.form, eps, *spec.bounds(n, r))
    z = np.concatenate([x, U.reshape(-1), [gamma]])
    residual = lp.ineq_lhs @ z - lp.ineq_rhs
    worst = int(np.argmax(residual))
    if residual[worst] > slack:
        flags.append(
            f"LP row {worst} violated by {residual[worst]:.3g} at the certificate"
        )

    # initial=0.0: a plant with no outputs has an n×0 L
    scale = max(1.0, float(np.abs(U).max(initial=0.0)))
    if np.abs(x[:, None] * L - U).max(initial=0.0) > 1e-9 * scale:
        flags.append("L is not X^{-1} U")

    # the positive-loop condition at L, judged as membership is but with
    # the tolerance scaled to the margin and the design's relaxed input
    violations, Y = _admissible(
        plant, L, result.form, max(STRUCTURAL_TOL, slack), "closed-loop stability matrix",
        split=False,
    )
    flags += violations
    gamma_indep = None
    if Y is not None:
        # the aggregate output 1^T with no feedthrough
        gamma_indep = float(np.sum(Y))
        if gamma_indep > gamma + slack:
            flags.append(
                f"independent gain {gamma_indep:.6g} exceeds certified gamma {gamma:.6g}"
            )

    return CertificationReport(not flags, flags, gamma_indep)
