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
Y = -A^{-1} E; that is what the gain functions report.  Every
observer-loop gain, and the row-wise test of the augmented matrices,
comes from the one solve of the error loop.  The LP variant
`linf_gain_lp` is an independent route that cross-validates the closed
form.  The four plant types share one base, `Plant`, which coerces
their matrices once and reduces each to the undelayed continuous loop
that design, `certify` and the delay and discrete gains read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

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


# (label, P, Q, metzler): an admissible gain L keeps P - L Q Metzler
# (off the diagonal) when metzler is set, nonnegative otherwise.
Family = tuple[str, np.ndarray, np.ndarray, bool]


class Plant:
    """What the four plant types share: coercion, sizes and the reduction.

    MATRICES names a type's maps by role: state, input, output and
    feedthrough (A, E, C, F), then the delayed state and output maps
    (A_h, C_h) of a delayed type.  The reduction is what design, certify
    and the delay and discrete gains read: the sign families an
    admissible gain must keep, and the stability pair (S, T) of the
    equivalent undelayed continuous loop S - L T.  A delayed plant
    aggregates its maps (A + A_h, C + C_h), since a positive delayed
    loop is stable exactly when its zero-delay aggregate is; a discrete
    one shifts its state map by - I, since a nonnegative A_d is Schur
    exactly when A_d - I is Hurwitz.
    """

    MATRICES: ClassVar[tuple[str, ...]]
    KIND: ClassVar[str]
    DISCRETE: ClassVar[bool] = False
    RELAXED: ClassVar[bool] = False  # whether design takes the relaxed form

    def __post_init__(self):
        a, e, c, f, *lag = self.MATRICES
        m = vars(self)
        m[a] = _square(m[a], a)
        n = m[a].shape[0]
        if lag:
            m[lag[0]] = _square(m[lag[0]], lag[0])
            if m[lag[0]].shape[0] != n:
                raise DimensionError(f"{a} and {lag[0]} sizes differ")
        m[e] = _input_map(m[e], n, e)
        m[c] = _output_map(m[c], n, c)
        r = m[c].shape[0]
        if lag:
            m[lag[1]] = _output_map(m[lag[1]], n, lag[1])
            if m[lag[1]].shape[0] != r:
                raise DimensionError(f"{c} and {lag[1]} row counts differ")
        m[f] = _feedthrough(m[f], r, m[e].shape[1], f)

    @property
    def n(self) -> int:
        return getattr(self, self.MATRICES[0]).shape[0]

    @property
    def p(self) -> int:
        return getattr(self, self.MATRICES[1]).shape[1]

    @property
    def r(self) -> int:
        return getattr(self, self.MATRICES[2]).shape[0]

    @classmethod
    def check_form(cls, form: str) -> None:
        if form != "standard" and not cls.RELAXED:
            raise PreconditionError(f"{cls.KIND} design supports the standard form only")

    def sign_families(self) -> list[Family]:
        """One family per state map, delayed last; only the undelayed
        continuous state map must stay Metzler rather than nonnegative."""
        a, _, c, _, *lag = self.MATRICES
        pairs = [(a, c, not self.DISCRETE)] + ([(*lag, False)] if lag else [])
        return [
            (f"{P} - L {Q} {'Metzler' if m else 'nonnegative'}",
             getattr(self, P), getattr(self, Q), m)
            for P, Q, m in pairs
        ]

    def input_family(self) -> Family:
        """E - L F >= 0, which the standard observer form requires."""
        _, e, _, f, *_ = self.MATRICES
        return f"{e} - L {f} nonnegative", getattr(self, e), getattr(self, f), False

    def stability_pair(self) -> tuple[np.ndarray, np.ndarray]:
        a, _, c, _, *lag = self.MATRICES
        S, T = getattr(self, a), getattr(self, c)
        if lag:
            S, T = S + getattr(self, lag[0]), T + getattr(self, lag[1])
        if self.DISCRETE:
            S = S - np.eye(self.n)
        return S, T


@dataclass
class ContinuousSystem(Plant):
    """dx/dt = A x + E w, measured y = C x + F w, optional performance
    output z = Cz x + Fz w."""

    A: np.ndarray
    E: np.ndarray
    C: np.ndarray
    F: np.ndarray
    Cz: np.ndarray | None = None
    Fz: np.ndarray | None = None

    MATRICES = ("A", "E", "C", "F")
    KIND = "continuous"
    RELAXED = True

    def __post_init__(self):
        super().__post_init__()
        if self.Cz is not None:
            self.Cz = _output_map(self.Cz, self.n, "Cz")
            q = self.Cz.shape[0]
            self.Fz = _feedthrough(
                self.Fz if self.Fz is not None else 0.0, q, self.p, "Fz"
            )
        elif self.Fz is not None:
            raise DimensionError("Fz given without Cz")


@dataclass
class DelaySystem(Plant):
    """dx/dt = A x(t) + A_h x(t-h) + E w(t),
    y = C x(t) + C_h x(t-h) + F w(t)."""

    A: np.ndarray
    A_h: np.ndarray
    E: np.ndarray
    C: np.ndarray
    C_h: np.ndarray
    F: np.ndarray
    h: float

    MATRICES = ("A", "E", "C", "F", "A_h", "C_h")
    KIND = "delay"

    def __post_init__(self):
        super().__post_init__()
        self.h = float(self.h)
        if not np.isfinite(self.h) or self.h < 0.0:
            raise PreconditionError("delay h must be finite and nonnegative")


@dataclass
class DiscreteSystem(Plant):
    """x(k+1) = A_d x(k) + E_d w(k), y(k) = C_d x(k) + F_d w(k)."""

    A_d: np.ndarray
    E_d: np.ndarray
    C_d: np.ndarray
    F_d: np.ndarray

    MATRICES = ("A_d", "E_d", "C_d", "F_d")
    KIND = "discrete"
    DISCRETE = True


@dataclass
class DiscreteDelaySystem(Plant):
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

    MATRICES = ("A_d", "E_d", "C_d", "F_d", "A_dh", "C_dh")
    KIND = "discrete-delay"
    DISCRETE = True


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


def _weights(M, N, n: int, p: int, names: tuple[str, str], caller: str):
    """Coerce an output weighting (q×n M, q×p N) and check it nonnegative."""
    M = _output_map(M, n, names[0])
    N = _feedthrough(N, M.shape[0], p, names[1])
    for name, W in zip(names, (M, N)):
        if not is_nonnegative(W):
            raise PreconditionError(f"{caller} needs nonnegative {name}")
    return M, N


def _weighted_gain(Y, M, N) -> float:
    """Gain max row sum (M Y + N) of a loop with solved inputs Y; 0 when
    the loop has no input or no output."""
    if Y.shape[1] == 0 or M.shape[0] == 0:
        return 0.0
    return max_row_sum(M @ Y + N)


def _check_gain_structure(A, E, Cz, Fz):
    A = _square(A, "A")
    E = _input_map(E, A.shape[0], "E")
    Cz, Fz = _weights(Cz, Fz, *E.shape, ("Cz", "Fz"), "gain")
    if not is_metzler(A):
        raise PreconditionError("gain is defined for Metzler A only")
    if not is_nonnegative(E):
        raise PreconditionError("gain needs nonnegative E")
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
    return _weighted_gain(Y, Cz, Fz)


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


def _reduced_gain(sys: Plant, Cz, Fz) -> float:
    """Closed-form gain on the plant's stability matrix S after checking
    its state maps at L = 0 (see `Plant`)."""
    for label, P, _, metzler in sys.sign_families():
        if not (is_metzler if metzler else is_nonnegative)(P):
            name = label.split(" ", 1)[0]  # the label starts with P's name
            condition = "Metzler" if metzler else "nonnegative"
            raise PreconditionError(f"{sys.KIND} gain needs {condition} {name}")
    S, _ = sys.stability_pair()
    _, E, _, _ = sys.input_family()
    return linf_gain_closed(S, E, Cz, Fz)


def linf_gain_discrete(sys: DiscreteSystem) -> float:
    """ℓ∞-gain of a nonnegative Schur system.

    A nonnegative A_d is Schur exactly when A_d - I is (Metzler) Hurwitz,
    and the discrete gain equals the continuous gain of the shifted
    system, so this is literally the closed form on (A_d - I, E_d, C_d, F_d).
    """
    return _reduced_gain(sys, sys.C_d, sys.F_d)


def linf_gain_delay(sys: DelaySystem, Cz, Fz) -> float:
    """L∞-gain of a positive delay system; independent of the delay h.

    Stability and gain of a positive delayed system coincide with those
    of the zero-delay aggregate, so the value is the closed form on
    (A + A_h, E, Cz, Fz) after validating the delayed structure.
    """
    return _reduced_gain(sys, Cz, Fz)


# ---------------------------------------------------------------------------
# observer-loop helpers


def observer_membership(A, E, C, F, L, form: str = "standard") -> list[str]:
    """Reasons (possibly none) why L is not an admissible observer gain.

    Standard form needs A - LC Metzler and Hurwitz and E - LF >= 0; the
    relaxed form drops the E - LF condition.
    """
    return _error_loop(A, E, C, F, L, form)[0]


def _error_loop(A, E, C, F, L, form: str) -> tuple[list[str], np.ndarray | None]:
    """Membership violations of a gain and the error loop's solved inputs.

    The error loop has state matrix Acl = A - LC and input matrix
    B = E - LF in the standard form, its split [B+ B-] in the relaxed
    one.  When Acl is Metzler, the solve that tests it Hurwitz also
    returns Y, the input matrix premultiplied by (-Acl)^{-1}; Y is None
    when Acl is not Metzler and Hurwitz.
    """
    A = _square(A, "A")
    n = A.shape[0]
    E = _input_map(E, n, "E")
    C = _output_map(C, n, "C")
    F = _feedthrough(F, C.shape[0], E.shape[1], "F")
    L = _input_map(L, n, "L")
    if L.shape[1] != C.shape[0]:
        raise DimensionError(f"L has {L.shape[1]} columns, expected {C.shape[0]}")
    if form not in ("standard", "relaxed"):
        raise PreconditionError(f"unknown observer form {form!r}")
    Acl, B = A - L @ C, E - L @ F
    violations = []
    Y = None
    if not is_metzler(Acl):
        off = Acl - np.diag(np.diag(Acl))
        worst = divmod(int(np.argmin(off)), n)  # plain ints print alike on numpy 1 and 2
        violations.append(
            f"A - L C is not Metzler: entry {worst} is {off[worst]:.6g}"
        )
    else:
        inputs = B if form == "standard" else np.hstack(split_pos_neg(B))
        vector, Y = _certified_solve(Acl, inputs)
        if vector is None:
            violations.append("A - L C is not Hurwitz stable")
    if form == "standard" and not is_nonnegative(B):
        worst = divmod(int(np.argmin(B)), B.shape[1])
        violations.append(
            f"E - L F has a negative entry: {worst} is {B[worst]:.6g}"
        )
    return violations, Y


def _observer_gain(A, E, C, F, L, M, N, form: str, caller: str) -> float:
    """Gain of the error loop of an admissible L under the weighting
    (M, N); :class:`MembershipError` lists the violated conditions."""
    violations, Y = _error_loop(A, E, C, F, L, form)
    if violations:
        raise MembershipError(
            "gain not defined: L is not an admissible observer gain ("
            + "; ".join(violations)
            + ")",
            violations,
        )
    return _weighted_gain(Y, *_weights(M, N, *Y.shape, ("M", "N"), caller))


def gain_for_output(A, E, C, F, L, M, N) -> float:
    """L∞-gain of the observer error loop (A-LC, E-LF, M, N).

    L must be admissible (A-LC Metzler and Hurwitz, E-LF >= 0), else a
    :class:`MembershipError` lists the violated conditions.  M and N
    weight the error and the disturbance gap in the performance output.
    """
    return _observer_gain(A, E, C, F, L, M, N, "standard", "gain_for_output")


def relaxed_error_gain(A, E, C, F, L, M) -> float:
    """L∞-gain of the relaxed observer error loop.

    The relaxed observer splits B = E - LF into positive and negative
    parts driven by the two disturbance gaps, so the error system has
    input matrix [B+ B-] and no feedthrough.  Only A - LC Metzler and
    Hurwitz is required of L.
    """
    return _observer_gain(A, E, C, F, L, M, 0.0, "relaxed", "relaxed_error_gain")


def rowwise_gain_decomposition(A, E, C, F, L, M, N, gamma: float) -> bool:
    """Row-by-row gain test of the augmented Metzler matrices.

    True iff for every output row i the (n+1)x(n+1) matrix

        [[A-LC,   (E-LF) 1],
         [e_i^T M, e_i^T N 1 - gamma]]

    is Metzler and Hurwitz.  For an admissible L its Schur complement
    e_i^T (M Y + N) 1 - gamma, with Y = (-(A-LC))^{-1} (E-LF), must be
    negative, so the test is exactly "loop gain < gamma" and reads the
    gain from the same solve.
    """
    if not gamma > 0.0:
        raise PreconditionError("rowwise decomposition needs gamma > 0")
    gain = _observer_gain(A, E, C, F, L, M, N, "standard", "rowwise decomposition")
    return gain < gamma


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
