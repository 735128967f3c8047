"""Observer gain synthesis via linear programming.

The admissible gains L make A - LC Metzler and Hurwitz with E - LF
nonnegative (the relaxed form drops the E - LF requirement).  After the
change of variables U = XL with X diagonal positive, optimality of the
peak-to-peak gain for the aggregate output (every error component
summed, no feedthrough) becomes a finite LP:

    minimize gamma over (X, U, gamma) such that
      (X A - U C)_ij       >= 0          for i != j (A - LC Metzler)
      X E - U F            >= 0          (standard form only)
      sum_i (X S - U T)_ij + 1 <= -eps   for every column j (stability)
      sum_ij (X E - U F)_ij - gamma <= -eps

with (S, T) = (A, C) in continuous time, (A + A_h, C + C_h) with delay,
and the Schur shift (A_d - I, C_d) in discrete time.  The Metzler
condition leaves the diagonal of A - LC free, so it has off-diagonal
rows only.  The one gain L* recovered as X^{-1} U is optimal
simultaneously for every nonnegative output weighting, which is why a
single aggregate LP suffices.

X carries no normalization beyond X_ii >= eps: the stability rows pin
its scale, and any stronger floor (say X_ii >= 1) breaks the change of
variables by letting U drift off the X L* ray when the floor binds,
returning suboptimal gains.

Every plant type maps to the matrices of its LP through one table,
which `design`, `certify` and `closed_loop` share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError
from .linalg import STRUCTURAL_TOL, as_matrix, is_metzler, is_nonnegative
from .lp import LinearProgram, LpStatus, check_feasible, solve
from .positive import (
    DEFAULT_EPSILON,
    ContinuousSystem,
    DelaySystem,
    DiscreteDelaySystem,
    DiscreteSystem,
    _certified_solve,
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
        if self.form not in ("standard", "relaxed"):
            raise PreconditionError(f"unknown observer form {self.form!r}")
        self.epsilon = float(self.epsilon)
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise PreconditionError("epsilon must be a positive real")
        if self.gain_lower is not None:
            self.gain_lower = as_matrix(self.gain_lower, "gain_lower")
        if self.gain_upper is not None:
            self.gain_upper = as_matrix(self.gain_upper, "gain_upper")
        if (
            self.gain_lower is not None
            and self.gain_upper is not None
            and self.gain_lower.shape == self.gain_upper.shape
            and np.any(self.gain_lower > self.gain_upper)
        ):
            raise PreconditionError("gain_lower exceeds gain_upper somewhere")

    def bounds(self, n: int, r: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        lo, hi = self.gain_lower, self.gain_upper
        for name, B in (("gain_lower", lo), ("gain_upper", hi)):
            if B is not None and B.shape != (n, r):
                raise DimensionError(
                    f"{name} has shape {B.shape}, expected {(n, r)}"
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


@dataclass
class _DesignData:
    """Canonical matrices one design LP is assembled from."""

    kind: str
    form: str
    structural: list[tuple[str, np.ndarray, np.ndarray]]  # (label, P, Q): XP - UQ >= 0
    first_metzler: bool  # structural[0] constrains off-diagonal entries only
    S: np.ndarray  # stability pair: columns of X S - U T
    T: np.ndarray
    E: np.ndarray  # error-loop input pair; gamma bounds 1^T (X E - U F) 1
    F: np.ndarray
    input_label: str | None  # E - L F >= 0 is a family; None in the relaxed form

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def r(self) -> int:
        return self.T.shape[0]

    def sign_families(self, with_input: bool = True) -> list[tuple[str, np.ndarray, np.ndarray]]:
        if with_input and self.input_label is not None:
            return [*self.structural, (self.input_label, self.E, self.F)]
        return list(self.structural)


def _standard_only(kind: str, form: str) -> None:
    if form != "standard":
        raise PreconditionError(f"{kind} design supports the standard form only")


def _delayed(label: str, P: np.ndarray, Q: np.ndarray) -> list:
    """The delayed-term family, left out when the delayed terms vanish."""
    return [(label, P, Q)] if np.any(P != 0.0) or np.any(Q != 0.0) else []


def _data_ct(sys: ContinuousSystem, form: str) -> _DesignData:
    if form == "standard":
        E, F, input_label = sys.E, sys.F, "E - L F nonnegative"
    else:
        E, F, input_label = np.eye(sys.n), np.zeros((sys.r, sys.n)), None
    return _DesignData(
        "continuous", form, [("A - L C Metzler", sys.A, sys.C)], True,
        sys.A, sys.C, E, F, input_label,
    )


def _data_delay(sys: DelaySystem, form: str) -> _DesignData:
    _standard_only("delay", form)
    families = [("A - L C Metzler", sys.A, sys.C)]
    families += _delayed("A_h - L C_h nonnegative", sys.A_h, sys.C_h)
    return _DesignData(
        "delay", form, families, True,
        sys.A + sys.A_h, sys.C + sys.C_h, sys.E, sys.F, "E - L F nonnegative",
    )


def _data_dt(sys: DiscreteSystem, form: str) -> _DesignData:
    _standard_only("discrete", form)
    return _DesignData(
        "discrete", form, [("A_d - L C_d nonnegative", sys.A_d, sys.C_d)], False,
        sys.A_d - np.eye(sys.n), sys.C_d, sys.E_d, sys.F_d, "E_d - L F_d nonnegative",
    )


def _data_dt_delay(sys: DiscreteDelaySystem, form: str) -> _DesignData:
    _standard_only("discrete", form)
    families = [("A_d - L C_d nonnegative", sys.A_d, sys.C_d)]
    families += _delayed("A_dh - L C_dh nonnegative", sys.A_dh, sys.C_dh)
    return _DesignData(
        "discrete-delay", form, families, False,
        sys.A_d + sys.A_dh - np.eye(sys.n), sys.C_d + sys.C_dh, sys.E_d, sys.F_d,
        "E_d - L F_d nonnegative",
    )


_DESIGN_DATA = {
    ContinuousSystem: _data_ct,
    DelaySystem: _data_delay,
    DiscreteSystem: _data_dt,
    DiscreteDelaySystem: _data_dt_delay,
}


def _design_data(system, form: str) -> _DesignData:
    build = _DESIGN_DATA.get(type(system))
    if build is None:
        names = ", ".join(cls.__name__ for cls in _DESIGN_DATA)
        raise PreconditionError(
            f"cannot design for a {type(system).__name__}; expected one of {names}"
        )
    return build(system, form)


def _assemble(
    data: _DesignData,
    epsilon: float,
    lo: np.ndarray | None,
    hi: np.ndarray | None,
    with_gain_rows: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (lhs, rhs) with lhs z <= rhs over z = [x, U row-major, gamma].

    with_gain_rows=False drops the E - L F family and the gamma row,
    leaving pure stabilizability; that is the diagnostic solve.
    """
    n, r = data.n, data.r
    nv = n + n * r + 1

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    def add(row, b):
        rows.append(row)
        rhs.append(b)

    for fam_index, (_, P, Q) in enumerate(data.sign_families(with_gain_rows)):
        off_diagonal_only = data.first_metzler and fam_index == 0
        for i in range(n):
            for j in range(P.shape[1]):
                if off_diagonal_only and i == j:
                    continue
                row = np.zeros(nv)
                row[i] = -P[i, j]
                row[n + i * r : n + (i + 1) * r] = Q[:, j]
                add(row, 0.0)

    for j in range(n):
        row = np.zeros(nv)
        row[:n] = data.S[:, j]
        for i in range(n):
            row[n + i * r : n + (i + 1) * r] = -data.T[:, j]
        add(row, -1.0 - epsilon)

    if with_gain_rows:
        ones = np.ones(data.E.shape[1])
        row = np.zeros(nv)
        row[:n] = data.E @ ones
        for i in range(n):
            row[n + i * r : n + (i + 1) * r] -= data.F @ ones
        row[-1] = -1.0
        add(row, -epsilon)

    for i in range(n):
        row = np.zeros(nv)
        row[i] = -1.0
        add(row, -epsilon)

    for B, sign in ((lo, 1.0), (hi, -1.0)):
        if B is None:
            continue
        for i in range(n):
            for j in range(r):
                row = np.zeros(nv)
                row[i] = sign * B[i, j]
                row[n + i * r + j] = -sign
                add(row, 0.0)

    return np.array(rows), np.array(rhs)


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
    data = _design_data(system, spec.form)
    n, r = data.n, data.r
    lo, hi = spec.bounds(n, r)
    eps = spec.epsilon
    lhs, rhs = _assemble(data, eps, lo, hi)
    objective = np.zeros(lhs.shape[1])
    objective[-1] = 1.0
    sol = solve(LinearProgram(objective, lhs, rhs))
    if sol.status is LpStatus.OPTIMAL:
        x = sol.primal[:n]
        U = sol.primal[n : n + n * r].reshape(n, r)
        return DesignResult(
            status="optimal",
            kind=data.kind,
            form=data.form,
            epsilon=eps,
            L=U / x[:, None],
            gamma=float(sol.primal[-1]),
            X_diag=x,
            U=U,
        )
    if sol.status is not LpStatus.INFEASIBLE:  # pragma: no cover - gamma bounded
        raise PreconditionError("design LP reported unbounded")
    diagnostic = DIAG_NO_STABILIZER
    if data.input_label is not None:
        d_lhs, d_rhs = _assemble(data, eps, lo, hi, with_gain_rows=False)
        if check_feasible(LinearProgram(np.zeros(d_lhs.shape[1]), d_lhs, d_rhs)):
            diagnostic = DIAG_SIGN_CONFLICT
    return DesignResult(
        status="infeasible",
        kind=data.kind,
        form=data.form,
        epsilon=eps,
        diagnostic=diagnostic,
    )


def _design_as(cls, form: str, system, spec: ObserverSpec) -> DesignResult:
    if type(system) is not cls or spec.form != form:
        raise PreconditionError(
            f"this entry point takes a {cls.__name__} with form {form!r}; "
            "design() takes every plant type and form"
        )
    return design(system, spec)


def design_ct(sys: ContinuousSystem, spec: ObserverSpec) -> DesignResult:
    """`design` restricted to a standard-form continuous-time plant."""
    return _design_as(ContinuousSystem, "standard", sys, spec)


def design_relaxed(sys: ContinuousSystem, spec: ObserverSpec) -> DesignResult:
    """`design` restricted to a relaxed-form continuous-time plant."""
    return _design_as(ContinuousSystem, "relaxed", sys, spec)


def design_delay(sys: DelaySystem, spec: ObserverSpec) -> DesignResult:
    """`design` restricted to a delayed continuous-time plant."""
    return _design_as(DelaySystem, "standard", sys, spec)


def design_dt(sys: DiscreteSystem, spec: ObserverSpec) -> DesignResult:
    """`design` restricted to a discrete-time plant."""
    return _design_as(DiscreteSystem, "standard", sys, spec)


def closed_loop(system, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard-form error-system matrices (stability matrix, input
    matrix) at gain L, reduced to the equivalent undelayed continuous
    pair: the discrete stability matrix carries the Schur shift - I."""
    data = _design_data(system, "standard")
    return data.S - L @ data.T, data.E - L @ data.F


def certify(result: DesignResult, system, spec: ObserverSpec) -> CertificationReport:
    """Re-derive every design condition from the returned certificate.

    Checks the LP rows at (X, U, gamma) with a 10-epsilon slack, the
    consistency L = X^{-1} U, the structure of the closed loop at L, and
    that an independently computed closed-form gain stays below gamma.
    Flags are human-readable violation notes; none means sound.
    """
    if result.status != "optimal":
        raise PreconditionError("certify needs an optimal DesignResult")
    data = _design_data(system, result.form)
    if data.kind != result.kind:
        raise PreconditionError(
            f"result was designed for a {result.kind} plant, not a {data.kind} one"
        )
    eps = result.epsilon
    slack = 10.0 * eps
    flags: list[str] = []

    lo, hi = spec.bounds(data.n, data.r)
    lhs, rhs = _assemble(data, eps, lo, hi)
    z = np.concatenate([result.X_diag, result.U.reshape(-1), [result.gamma]])
    residual = lhs @ z - rhs
    worst = int(np.argmax(residual))
    if residual[worst] > slack:
        flags.append(
            f"LP row {worst} violated by {residual[worst]:.3g} at the certificate"
        )

    recon = result.X_diag[:, None] * result.L
    if np.max(np.abs(recon - result.U)) > 1e-9 * max(1.0, float(np.max(np.abs(result.U)))):
        flags.append("L is not X^{-1} U")

    tol = max(STRUCTURAL_TOL, slack)
    L = result.L
    for k, (label, P, Q) in enumerate(data.sign_families()):
        closed = P - L @ Q
        holds = is_metzler if k == 0 and data.first_metzler else is_nonnegative
        if not holds(closed, tol):
            flags.append(f"{label} fails at L")

    Scl = data.S - L @ data.T
    gamma_indep = None
    if not is_metzler(Scl, tol):
        flags.append("closed-loop stability matrix is not Metzler at L")
    else:
        # Off-diagonal entries within tol of zero are taken as zero, as
        # the negative entries of E - L F are below.
        Scl = np.where(np.eye(data.n, dtype=bool), Scl, np.clip(Scl, 0.0, None))
        Bcl = np.clip(data.E - L @ data.F, 0.0, None)
        vector, Y = _certified_solve(Scl, Bcl)
        if vector is None:
            flags.append("closed-loop stability matrix is not Hurwitz at L")
        else:
            # the aggregate output 1^T with no feedthrough
            gamma_indep = float(np.sum(Y))
            if gamma_indep > result.gamma + slack:
                flags.append(
                    f"independent gain {gamma_indep:.6g} exceeds certified "
                    f"gamma {result.gamma:.6g}"
                )

    return CertificationReport(not flags, flags, gamma_indep)
