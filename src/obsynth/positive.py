"""Analysis of linear positive systems.

Positivity checks, Hurwitz certificates, and peak-to-peak (L∞ to L∞)
gains for continuous, discrete, and delayed dynamics.  Stability is
always certified by an explicit positive vector v with A v < 0; no
eigenvalues are computed anywhere in this module.

A Metzler A is Hurwitz exactly when -A is a nonsingular M-matrix, that
is when v = (-A)^{-1} 1 exists and is positive (Berman & Plemmons,
*Nonnegative Matrices in the Mathematical Sciences*).  For a positive
system (A Metzler and Hurwitz, E, Cz, Fz nonnegative) the peak-to-peak
gain has the closed form

    gamma = max row sum of (-Cz A^{-1} E + Fz)

so one solve (-A) [v | Y] = [1 | E] yields both the certificate and
Y = -A^{-1} E; that is what the gain functions report.  The LP variant
`linf_gain_lp` is an independent route that cross-validates the closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InstabilityError,
    MembershipError,
    PreconditionError,
    SingularMatrixError,
)
from .linalg import (
    STRUCTURAL_TOL,
    as_matrix,
    is_metzler,
    is_nonnegative,
    max_row_sum,
    solve_linear,
    split_pos_neg,
)
from .lp import LinearProgram, LpStatus, solve

# Default margin used to encode the strict inequalities ("< 0") of
# stability and gain conditions as "<= -epsilon" inside LPs.
DEFAULT_EPSILON = 1e-6


# ---------------------------------------------------------------------------
# shaping helpers: the public API accepts scalars and flat sequences where
# the intent is unambiguous (input maps are columns, output maps are rows)


def _square(A, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    A = as_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


def _input_map(M, n: int, name: str) -> np.ndarray:
    """Coerce to an n×p matrix; 1-D input is read as a single column."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    elif M.ndim == 1:
        M = M.reshape(-1, 1)
    M = as_matrix(M, name)
    if M.shape[0] != n:
        raise DimensionError(f"{name} has {M.shape[0]} rows, expected {n}")
    return M


def _output_map(M, n: int, name: str) -> np.ndarray:
    """Coerce to a q×n matrix; 1-D input is read as a single row."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    elif M.ndim == 1:
        M = M.reshape(1, -1)
    M = as_matrix(M, name)
    if M.shape[1] != n:
        raise DimensionError(f"{name} has {M.shape[1]} columns, expected {n}")
    return M


def _feedthrough(F, q: int, p: int, name: str) -> np.ndarray:
    """Coerce to a q×p matrix; a scalar broadcasts (so N=0 reads naturally)."""
    F = np.asarray(F, dtype=float)
    if F.ndim == 0:
        return np.full((q, p), float(F))
    if F.ndim == 1:
        if q == 1:
            F = F.reshape(1, -1)
        elif p == 1:
            F = F.reshape(-1, 1)
    F = as_matrix(F, name)
    if F.shape != (q, p):
        raise DimensionError(f"{name} has shape {F.shape}, expected {(q, p)}")
    return F


# ---------------------------------------------------------------------------
# system descriptions


@dataclass
class ContinuousSystem:
    """dx/dt = A x + E w, measured y = C x + F w, optional performance
    output z = Cz x + Fz w."""

    A: np.ndarray
    E: np.ndarray
    C: np.ndarray
    F: np.ndarray
    Cz: np.ndarray | None = None
    Fz: np.ndarray | None = None

    def __post_init__(self):
        self.A = _square(self.A, "A")
        n = self.A.shape[0]
        self.E = _input_map(self.E, n, "E")
        p = self.E.shape[1]
        self.C = _output_map(self.C, n, "C")
        r = self.C.shape[0]
        self.F = _feedthrough(self.F, r, p, "F")
        if self.Cz is not None:
            self.Cz = _output_map(self.Cz, n, "Cz")
            q = self.Cz.shape[0]
            self.Fz = _feedthrough(
                self.Fz if self.Fz is not None else 0.0, q, p, "Fz"
            )
        elif self.Fz is not None:
            raise DimensionError("Fz given without Cz")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.E.shape[1]

    @property
    def r(self) -> int:
        return self.C.shape[0]


@dataclass
class DiscreteSystem:
    """x(k+1) = A_d x(k) + E_d w(k), y(k) = C_d x(k) + F_d w(k)."""

    A_d: np.ndarray
    E_d: np.ndarray
    C_d: np.ndarray
    F_d: np.ndarray

    def __post_init__(self):
        self.A_d = _square(self.A_d, "A_d")
        n = self.A_d.shape[0]
        self.E_d = _input_map(self.E_d, n, "E_d")
        self.C_d = _output_map(self.C_d, n, "C_d")
        self.F_d = _feedthrough(
            self.F_d, self.C_d.shape[0], self.E_d.shape[1], "F_d"
        )

    @property
    def n(self) -> int:
        return self.A_d.shape[0]

    @property
    def p(self) -> int:
        return self.E_d.shape[1]

    @property
    def r(self) -> int:
        return self.C_d.shape[0]


@dataclass
class DelaySystem:
    """dx/dt = A x(t) + A_h x(t-h) + E w(t),
    y = C x(t) + C_h x(t-h) + F w(t)."""

    A: np.ndarray
    A_h: np.ndarray
    E: np.ndarray
    C: np.ndarray
    C_h: np.ndarray
    F: np.ndarray
    h: float

    def __post_init__(self):
        self.A = _square(self.A, "A")
        n = self.A.shape[0]
        self.A_h = _square(self.A_h, "A_h")
        if self.A_h.shape[0] != n:
            raise DimensionError("A and A_h sizes differ")
        self.E = _input_map(self.E, n, "E")
        self.C = _output_map(self.C, n, "C")
        self.C_h = _output_map(self.C_h, n, "C_h")
        if self.C_h.shape[0] != self.C.shape[0]:
            raise DimensionError("C and C_h row counts differ")
        self.F = _feedthrough(self.F, self.C.shape[0], self.E.shape[1], "F")
        self.h = float(self.h)
        if not np.isfinite(self.h) or self.h < 0.0:
            raise PreconditionError("delay h must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.E.shape[1]

    @property
    def r(self) -> int:
        return self.C.shape[0]


@dataclass
class DiscreteDelaySystem:
    """x(k+1) = A_d x(k) + A_dh x(k-d) + E_d w(k),
    y(k) = C_d x(k) + C_dh x(k-d) + F_d w(k).

    The delay d is not stored: design and gain depend only on the
    zero-delay aggregate (A_d + A_dh, C_d + C_dh).
    """

    A_d: np.ndarray
    A_dh: np.ndarray
    E_d: np.ndarray
    C_d: np.ndarray
    C_dh: np.ndarray
    F_d: np.ndarray

    def __post_init__(self):
        self.A_d = _square(self.A_d, "A_d")
        n = self.A_d.shape[0]
        self.A_dh = _square(self.A_dh, "A_dh")
        if self.A_dh.shape[0] != n:
            raise DimensionError("A_d and A_dh sizes differ")
        self.E_d = _input_map(self.E_d, n, "E_d")
        self.C_d = _output_map(self.C_d, n, "C_d")
        self.C_dh = _output_map(self.C_dh, n, "C_dh")
        if self.C_dh.shape[0] != self.C_d.shape[0]:
            raise DimensionError("C_d and C_dh row counts differ")
        self.F_d = _feedthrough(
            self.F_d, self.C_d.shape[0], self.E_d.shape[1], "F_d"
        )

    @property
    def n(self) -> int:
        return self.A_d.shape[0]

    @property
    def p(self) -> int:
        return self.E_d.shape[1]

    @property
    def r(self) -> int:
        return self.C_d.shape[0]


@dataclass
class StabilityCertificate:
    """Positive vector proving a Metzler matrix Hurwitz.

    kind "right" means A @ vector < 0 entrywise (margin >= margin);
    kind "left" means vector @ A < 0 entrywise.
    """

    kind: str
    vector: np.ndarray
    margin: float


# ---------------------------------------------------------------------------
# structural checks and certificates


def is_positive_system(sys: ContinuousSystem, tol: float = STRUCTURAL_TOL) -> bool:
    """A Metzler and E (plus Cz, Fz when present) nonnegative."""
    if not is_metzler(sys.A, tol):
        return False
    if not is_nonnegative(sys.E, tol):
        return False
    if sys.Cz is not None and not is_nonnegative(sys.Cz, tol):
        return False
    if sys.Fz is not None and not is_nonnegative(sys.Fz, tol):
        return False
    return True


def hurwitz_certificate(
    A,
    kind: str = "right",
    epsilon: float = DEFAULT_EPSILON,
) -> StabilityCertificate | None:
    """Stability certificate for a Metzler matrix from one linear solve.

    Returns a positive vector mu with A mu <= -epsilon (kind "right") or
    mu^T A <= -epsilon (kind "left"), or None when no such vector exists.
    With W = A (or A^T), mu is v scaled so that min(-W v) becomes
    epsilon, where v solves (-W) v = 1; this is the smallest such
    vector, epsilon (-W)^{-1} 1.  For Metzler A, None is equivalent to A
    not being Hurwitz, and a matrix singular to working precision gets
    None.
    """
    A = _square(A, "A")
    if not is_metzler(A):
        raise PreconditionError("hurwitz_certificate needs a Metzler matrix")
    if kind not in ("right", "left"):
        raise PreconditionError(f"unknown certificate kind {kind!r}")
    W = A if kind == "right" else A.T
    vector, _ = _certified_solve(W, np.zeros((W.shape[0], 0)), epsilon)
    return None if vector is None else StabilityCertificate(kind, vector, epsilon)


def _certified_solve(
    W, B, epsilon: float = DEFAULT_EPSILON
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Solve (-W) [v | Y] = [1 | B] for Metzler W in one factorization.

    Returns (mu, Y), mu = v epsilon / min(-W v), when v > 0 and the
    computed W v < 0, which proves W Hurwitz; otherwise (None, None).
    Then Y = -W^{-1} B >= 0 whenever B >= 0.
    """
    n = W.shape[0]
    try:
        VY = solve_linear(-W, np.hstack([np.ones((n, 1)), B]))
    except SingularMatrixError:
        return None, None
    v = VY[:, 0]
    decay = -(W @ v)
    if not ((v > 0.0).all() and (decay > 0.0).all()):
        return None, None
    return v * (epsilon / decay.min()), VY[:, 1:]


# ---------------------------------------------------------------------------
# peak-to-peak gains


def _check_gain_structure(A, E, Cz, Fz):
    A = _square(A, "A")
    n = A.shape[0]
    E = _input_map(E, n, "E")
    Cz = _output_map(Cz, n, "Cz")
    Fz = _feedthrough(Fz, Cz.shape[0], E.shape[1], "Fz")
    if not is_metzler(A):
        raise PreconditionError("gain is defined for Metzler A only")
    for name, M in (("E", E), ("Cz", Cz), ("Fz", Fz)):
        if not is_nonnegative(M):
            raise PreconditionError(f"gain needs nonnegative {name}")
    return A, E, Cz, Fz


def linf_gain_closed(A, E, Cz, Fz) -> float:
    """Exact L∞-gain of the positive system (A, E, Cz, Fz).

    One solve (-A) [v | Y] = [1 | E] both certifies stability (as in
    `hurwitz_certificate`) and gives Y = -A^{-1} E; an uncertifiable A
    raises :class:`InstabilityError`.  Degenerate p=0 or q=0 returns 0.
    """
    A, E, Cz, Fz = _check_gain_structure(A, E, Cz, Fz)
    vector, Y = _certified_solve(A, E)
    if vector is None:
        raise InstabilityError("A is not Hurwitz stable; the gain is undefined")
    if E.shape[1] == 0 or Cz.shape[0] == 0:
        return 0.0
    return max_row_sum(Cz @ Y + Fz)


def linf_gain_lp(
    A, E, Cz, Fz, epsilon: float = DEFAULT_EPSILON
) -> tuple[float, np.ndarray]:
    """L∞-gain via the certificate LP.

    minimize gamma over lambda > 0 subject to
        A lambda + E 1 < 0
        Cz lambda + Fz 1 - gamma 1 < 0
    (strict inequalities encoded with the epsilon margin).  Returns
    (gamma, lambda); gamma exceeds the closed form by O(epsilon).
    """
    A, E, Cz, Fz = _check_gain_structure(A, E, Cz, Fz)
    n = A.shape[0]
    p = E.shape[1]
    q = Cz.shape[0]
    if p == 0 or q == 0:
        cert = hurwitz_certificate(A, epsilon=epsilon)
        if cert is None:
            raise InstabilityError("A is not Hurwitz stable; the gain is undefined")
        return 0.0, cert.vector
    # variables z = [lambda (n), gamma]
    lhs = np.zeros((n + q + n, n + 1))
    rhs = np.zeros(n + q + n)
    lhs[:n, :n] = A
    rhs[:n] = -E @ np.ones(p) - epsilon
    lhs[n : n + q, :n] = Cz
    lhs[n : n + q, n] = -1.0
    rhs[n : n + q] = -Fz @ np.ones(p) - epsilon
    lhs[n + q :, :n] = -np.eye(n)
    objective = np.zeros(n + 1)
    objective[n] = 1.0
    sol = solve(LinearProgram(objective, lhs, rhs))
    if sol.status is LpStatus.INFEASIBLE:
        raise InstabilityError(
            "gain LP infeasible: A is not Hurwitz stable for this margin"
        )
    if sol.status is not LpStatus.OPTIMAL:  # pragma: no cover - gamma >= 0
        raise InstabilityError("gain LP reported unbounded")
    return float(sol.objective_value), sol.primal[:n]


def linf_gain_discrete(sys: DiscreteSystem) -> float:
    """ℓ∞-gain of a nonnegative Schur system.

    A nonnegative A_d is Schur exactly when A_d - I is (Metzler) Hurwitz,
    and the discrete gain equals the continuous gain of the shifted
    system, so this is literally the closed form on (A_d - I, E_d, C_d, F_d).
    """
    for name, M in (
        ("A_d", sys.A_d),
        ("E_d", sys.E_d),
        ("C_d", sys.C_d),
        ("F_d", sys.F_d),
    ):
        if not is_nonnegative(M):
            raise PreconditionError(f"discrete gain needs nonnegative {name}")
    return linf_gain_closed(
        sys.A_d - np.eye(sys.n), sys.E_d, sys.C_d, sys.F_d
    )


def linf_gain_delay(sys: DelaySystem, Cz, Fz) -> float:
    """L∞-gain of a positive delay system; independent of the delay h.

    Stability and gain of a positive delayed system coincide with those
    of the zero-delay aggregate, so the value is the closed form on
    (A + A_h, E, Cz, Fz) after validating the delayed structure.
    """
    if not is_metzler(sys.A):
        raise PreconditionError("delay gain needs Metzler A")
    if not is_nonnegative(sys.A_h):
        raise PreconditionError("delay gain needs nonnegative A_h")
    return linf_gain_closed(sys.A + sys.A_h, sys.E, Cz, Fz)


# ---------------------------------------------------------------------------
# observer-loop helpers


def observer_membership(A, E, C, F, L, form: str = "standard") -> list[str]:
    """Reasons (possibly none) why L is not an admissible observer gain.

    Standard form needs A - LC Metzler and Hurwitz and E - LF >= 0; the
    relaxed form drops the E - LF condition.
    """
    return _error_loop(A, E, C, F, L, form)[0]


def _error_loop(A, E, C, F, L, form: str) -> tuple[list[str], np.ndarray | None]:
    """Membership violations of L and the error loop's solved inputs.

    The error loop has state matrix A - LC and input matrix E - LF in
    the standard form, its split [B+ B-] in the relaxed one.  When A - LC
    is Metzler, the solve that tests it Hurwitz also returns Y, the
    input matrix premultiplied by (LC - A)^{-1}; Y is None when A - LC
    is not Metzler and Hurwitz.
    """
    A = _square(A, "A")
    n = A.shape[0]
    E = _input_map(E, n, "E")
    C = _output_map(C, n, "C")
    F = _feedthrough(F, C.shape[0], E.shape[1], "F")
    L = _input_map(L, n, "L")
    if L.shape[1] != C.shape[0]:
        raise DimensionError(
            f"L has {L.shape[1]} columns, expected {C.shape[0]}"
        )
    if form not in ("standard", "relaxed"):
        raise PreconditionError(f"unknown observer form {form!r}")
    Acl = A - L @ C
    B = E - L @ F
    violations = []
    Y = None
    if not is_metzler(Acl):
        off = Acl - np.diag(np.diag(Acl))
        worst = np.unravel_index(np.argmin(off), off.shape)
        violations.append(
            f"A - L C is not Metzler: entry {worst} is {off[worst]:.6g}"
        )
    else:
        inputs = B if form == "standard" else np.hstack(split_pos_neg(B))
        vector, Y = _certified_solve(Acl, inputs)
        if vector is None:
            violations.append("A - L C is not Hurwitz stable")
    if form == "standard" and not is_nonnegative(B):
        worst = np.unravel_index(np.argmin(B), B.shape)
        violations.append(
            f"E - L F has a negative entry: {worst} is {B[worst]:.6g}"
        )
    return violations, Y


def gain_for_output(A, E, C, F, L, M, N) -> float:
    """L∞-gain of the observer error loop (A-LC, E-LF, M, N).

    L must be admissible (A-LC Metzler and Hurwitz, E-LF >= 0), else a
    :class:`MembershipError` lists the violated conditions.  M and N
    weight the error and the disturbance gap in the performance output.
    """
    violations, Y = _error_loop(A, E, C, F, L, "standard")
    if violations:
        raise MembershipError(
            "gain not defined: L is not an admissible observer gain ("
            + "; ".join(violations)
            + ")",
            violations,
        )
    n, p = Y.shape
    M = _output_map(M, n, "M")
    N = _feedthrough(N, M.shape[0], p, "N")
    for name, W in (("M", M), ("N", N)):
        if not is_nonnegative(W):
            raise PreconditionError(f"gain_for_output needs nonnegative {name}")
    if p == 0 or M.shape[0] == 0:
        return 0.0
    return max_row_sum(M @ Y + N)


def relaxed_error_gain(A, E, C, F, L, M) -> float:
    """L∞-gain of the relaxed observer error loop.

    The relaxed observer splits B = E - LF into positive and negative
    parts driven by the two disturbance gaps, so the error system has
    input matrix [B+ B-] and no feedthrough.  Only A - LC Metzler and
    Hurwitz is required of L.
    """
    violations, Y = _error_loop(A, E, C, F, L, "relaxed")
    if violations:
        raise MembershipError(
            "relaxed gain not defined: " + "; ".join(violations), violations
        )
    M = _output_map(M, Y.shape[0], "M")
    if not is_nonnegative(M):
        raise PreconditionError("relaxed_error_gain needs nonnegative M")
    if Y.shape[1] == 0 or M.shape[0] == 0:
        return 0.0
    return max_row_sum(M @ Y)


def rowwise_gain_decomposition(A, E, C, F, L, M, N, gamma: float) -> bool:
    """Row-by-row gain test via augmented Metzler matrices.

    True iff for every output row i the (n+1)x(n+1) matrix

        [[A-LC,   (E-LF) 1],
         [e_i^T M, e_i^T N 1 - gamma]]

    is Metzler and Hurwitz, which is equivalent to the loop gain being
    strictly below gamma.
    """
    if not gamma > 0.0:
        raise PreconditionError("rowwise decomposition needs gamma > 0")
    A = _square(A, "A")
    n = A.shape[0]
    violations = observer_membership(A, E, C, F, L, "standard")
    if violations:
        raise MembershipError(
            "decomposition not defined: " + "; ".join(violations), violations
        )
    E = _input_map(E, n, "E")
    C = _output_map(C, n, "C")
    F = _feedthrough(F, C.shape[0], E.shape[1], "F")
    L = _input_map(L, n, "L")
    M = _output_map(M, n, "M")
    N = _feedthrough(N, M.shape[0], E.shape[1], "N")
    for name, W in (("M", M), ("N", N)):
        if not is_nonnegative(W):
            raise PreconditionError(f"rowwise decomposition needs nonnegative {name}")
    Acl = A - L @ C
    Bcol = (E - L @ F) @ np.ones(E.shape[1])
    T = np.zeros((n + 1, n + 1))
    T[:n, :n] = Acl
    T[:n, n] = Bcol
    for i in range(M.shape[0]):
        T[n, :n] = M[i]
        T[n, n] = float(np.sum(N[i])) - gamma
        if not is_metzler(T):
            return False
        if hurwitz_certificate(T) is None:
            return False
    return True


def common_certificate_rank_one(
    W, u, vs, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray | None:
    """Common positive vector psi with (W + u v_i^T) psi < 0 for all i.

    Such a psi exists exactly when every rank-one perturbation W + u v_i^T
    is Hurwitz (W Metzler Hurwitz, u and all v_i nonnegative).  Returns
    None when the family is not simultaneously stabilizable.
    """
    W = _square(W, "W")
    n = W.shape[0]
    if not is_metzler(W):
        raise PreconditionError("common certificate needs Metzler W")
    base = hurwitz_certificate(W, epsilon=epsilon)
    if base is None:
        raise PreconditionError("common certificate needs Hurwitz W")
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != n or not is_nonnegative(u.reshape(1, -1)):
        raise PreconditionError("u must be a nonnegative n-vector")
    mats = []
    for k, v in enumerate(vs):
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.size != n or not is_nonnegative(v.reshape(1, -1)):
            raise PreconditionError(f"v[{k}] must be a nonnegative n-vector")
        mats.append(W + np.outer(u, v))
    if not mats:
        return base.vector
    lhs = np.vstack(mats + [-np.eye(n)])
    rhs = np.concatenate(
        [-epsilon * np.ones(n * len(mats)), np.zeros(n)]
    )
    sol = solve(LinearProgram(np.ones(n), lhs, rhs))
    if sol.status is LpStatus.INFEASIBLE:
        return None
    if sol.status is not LpStatus.OPTIMAL:  # pragma: no cover - cost >= 0
        raise PreconditionError("common certificate LP reported unbounded")
    return sol.primal
