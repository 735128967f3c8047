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
form.  The four plant types share one base, `Plant`, which coerces
their matrices by `linalg._shaped`, checks observer forms, and reduces
each to the undelayed continuous loop that design, `certify` and the
plant gain `linf_gain` read.  `_admissible` is the one judgement of
a gain on a plant: membership and every observer-loop gain call it on
a `ContinuousSystem`, `certify` on its plant.  The observer-loop gains
reuse the last error loop solved when they are handed the same loop,
so one membership check and any number of weighted gains of a gain L
cost one solve.
Sign conditions are judged by `linalg`'s one sign rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    InstabilityError,
    MembershipError,
    PreconditionError,
    SingularMatrixError,
)
from .linalg import (
    STRUCTURAL_TOL,
    _floats,
    _real,
    _require,
    _shaped,
    _sign_violations,
    solve_linear,
    split_pos_neg,
)
from .lp import LinearProgram, LpStatus, solve

# Default margin used to encode the strict inequalities ("< 0") of
# stability and gain conditions as "<= -epsilon" inside LPs.
DEFAULT_EPSILON = 1e-6


# ---------------------------------------------------------------------------
# argument checks


def _positive_epsilon(epsilon) -> float:
    """The strictness margin, checked to be a positive real.  Anything
    float() reads counts, so a margin may come as text."""
    epsilon = _real(epsilon)
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise PreconditionError("epsilon must be a positive real")
    return epsilon


# ---------------------------------------------------------------------------
# system descriptions


# (label, P, Q, metzler): an admissible gain L keeps P - L Q, which the
# label names, Metzler (off the diagonal) when metzler is set and
# nonnegative otherwise.
Family = tuple[str, np.ndarray, np.ndarray, bool]


class Plant:
    """What the four plant types share: coercion, sizes and the reduction.

    MATRICES names a type's maps by role: state, input, output and
    feedthrough (A, E, C, F), then the delayed state and output maps
    (A_h, C_h) of a delayed type.  The reduction is what design, certify
    and `linf_gain` read: the sign families an admissible gain must
    keep, and the stability pair (S, T) of the equivalent undelayed
    continuous loop S - L T.  A delayed plant aggregates its maps
    (A + A_h, C + C_h), since a positive delayed loop is stable exactly
    when its zero-delay aggregate is; a discrete one shifts its state
    map by - I, since a nonnegative A_d is Schur exactly when A_d - I
    is Hurwitz.
    """

    MATRICES: ClassVar[tuple[str, ...]]
    KIND: ClassVar[str]
    DISCRETE: ClassVar[bool] = False
    RELAXED: ClassVar[bool] = True  # whether design takes the relaxed form

    def __post_init__(self):
        a, e, c, f, *lag = self.MATRICES
        m = vars(self)
        m[a] = _shaped(m[a], a)
        n = m[a].shape[0]
        if lag:
            m[lag[0]] = _shaped(m[lag[0]], lag[0], n, n)
        m[e] = _shaped(m[e], e, n)
        m[c] = _shaped(m[c], c, cols=n)
        r = m[c].shape[0]
        if lag:
            m[lag[1]] = _shaped(m[lag[1]], lag[1], r, n)
        m[f] = _shaped(m[f], f, r, m[e].shape[1])

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
        """The one check of an observer form, for a plant type or for
        `Plant` itself, which knows every form."""
        if form not in ("standard", "relaxed"):
            raise PreconditionError(f"unknown observer form {form!r}")
        if form != "standard" and not cls.RELAXED:
            raise PreconditionError(f"{cls.KIND} design supports the standard form only")

    def sign_families(self) -> list[Family]:
        """One family per state map, delayed last; only the undelayed
        continuous state map must stay Metzler rather than nonnegative."""
        a, _, c, _, *lag = self.MATRICES
        pairs = [(a, c, not self.DISCRETE)] + ([(*lag, False)] if lag else [])
        return [(f"{P} - L {Q}", getattr(self, P), getattr(self, Q), m) for P, Q, m in pairs]

    def loop_input(self, form: str) -> tuple[np.ndarray, np.ndarray, list[Family]]:
        """The error loop's input pair (E, F), whose aggregate gain the
        design's gamma bounds, and the sign family E - L F >= 0 that the
        standard form adds.  The relaxed form drives the loop with the
        identity, with no feedthrough, and drops that family."""
        if form == "relaxed":
            return np.eye(self.n), np.zeros((self.r, self.n)), []
        _, e, _, f, *_ = self.MATRICES
        E, F = getattr(self, e), getattr(self, f)
        return E, F, [(f"{e} - L {f}", E, F, False)]

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
    """dx/dt = A x + E w, measured y = C x + F w."""

    A: np.ndarray
    E: np.ndarray
    C: np.ndarray
    F: np.ndarray

    MATRICES = ("A", "E", "C", "F")
    KIND = "continuous"


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
    RELAXED = False

    def __post_init__(self):
        super().__post_init__()
        self.h = _real(self.h)
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
    RELAXED = False


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
    RELAXED = False


# ---------------------------------------------------------------------------
# certificates


def hurwitz_certificate(A, *, epsilon: float = DEFAULT_EPSILON) -> np.ndarray | None:
    """Stability certificate for a Metzler matrix from one linear solve.

    Returns the positive vector mu with A mu <= -epsilon, or None when no
    such vector exists.  mu is v scaled so that min(-A v) becomes
    epsilon, where v solves (-A) v = 1; this is the smallest such
    vector, epsilon (-A)^{-1} 1.  For Metzler A, None is equivalent to A
    not being Hurwitz, and a matrix singular to working precision gets
    None.  A^T is Metzler exactly when A is, so a left certificate,
    mu^T A <= -epsilon, is hurwitz_certificate(A.T).
    """
    A = _shaped(A, "A")
    _require("hurwitz_certificate", [("A", A, True)])
    vector, _ = _certified_solve(A, np.zeros((A.shape[0], 0)), _positive_epsilon(epsilon))
    return vector


def _certified_solve(
    W, B, epsilon: float = DEFAULT_EPSILON
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Solve (-W) [v | Y] = [1 | B] for Metzler W in one factorization.

    Returns (mu, Y), mu = v epsilon / min(-W v), when v > 0 and the
    computed W v < 0, which proves W Hurwitz; otherwise (None, None).
    Then Y = -W^{-1} B >= 0 whenever B >= 0.
    """
    rhs = np.empty((W.shape[0], 1 + B.shape[1]))  # [1 | B] in one array
    rhs[:, 0] = 1.0
    rhs[:, 1:] = B
    try:
        VY = solve_linear(-W, rhs)
    except SingularMatrixError:
        return None, None
    v = VY[:, 0]
    decay = -(W @ v)
    low = decay.min()
    if not (v.min() > 0.0 and low > 0.0):  # a NaN fails too
        return None, None
    return v * (epsilon / low), VY[:, 1:]


# ---------------------------------------------------------------------------
# peak-to-peak gains


def _weights(M, N, n: int, p: int, names: tuple[str, str], caller: str, *maps):
    """Coerce an output weighting (q×n M, q×p N) and check it nonnegative,
    then the sign of each further (name, matrix, metzler) of maps, in one
    `_require`."""
    M = _shaped(M, names[0], cols=n)
    N = _shaped(N, names[1], M.shape[0], p)
    _require(caller, [(names[0], M, False), (names[1], N, False), *maps])
    return M, N


def _weighted_gain(Y, M, N) -> float:
    """Gain max row sum (M Y + N) of a loop with solved inputs Y; 0 when
    the loop has no input or no output."""
    if Y.shape[1] == 0 or M.shape[0] == 0:
        return 0.0
    return float((M @ Y + N).sum(axis=1).max())


def _check_gain_structure(A, E, Cz, Fz):
    A = _shaped(A, "A")
    E = _shaped(E, "E", A.shape[0])
    Cz, Fz = _weights(Cz, Fz, *E.shape, ("Cz", "Fz"), "gain", ("A", A, True), ("E", E, False))
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
    """L∞-gain via the certificate LP of n + q rows.

    minimize gamma subject to
        A lambda + E 1 < 0
        Cz lambda + Fz 1 - gamma 1 < 0
    (strict inequalities encoded with the epsilon margin).  Returns
    (gamma, lambda); gamma exceeds the closed form by O(epsilon).  For
    Metzler Hurwitz A, (-A)^{-1} >= 0 has a positive diagonal, so the
    first rows force lambda > 0; conversely an optimal lambda > 0 with
    A lambda < 0 proves A Hurwitz.  Any other outcome (infeasible,
    unbounded, or optimal with some lambda_i <= 0) raises
    :class:`InstabilityError`.
    """
    A, E, Cz, Fz = _check_gain_structure(A, E, Cz, Fz)
    epsilon = _positive_epsilon(epsilon)
    n = A.shape[0]
    p = E.shape[1]
    q = Cz.shape[0]
    if p == 0 or q == 0:
        vector = hurwitz_certificate(A, epsilon=epsilon)
        if vector is None:
            raise InstabilityError("A is not Hurwitz stable; the gain is undefined")
        return 0.0, vector
    # variables z = [lambda (n), gamma]
    ones = np.ones(p)
    lhs = np.zeros((n + q, n + 1))
    rhs = np.empty(n + q)
    lhs[:n, :n] = A
    rhs[:n] = -(E @ ones) - epsilon
    lhs[n:, :n] = Cz
    lhs[n:, n] = -1.0
    rhs[n:] = -(Fz @ ones) - epsilon
    objective = np.zeros(n + 1)
    objective[n] = 1.0
    sol = solve(LinearProgram(objective, lhs, rhs))
    if sol.status is not LpStatus.OPTIMAL or not sol.primal[:n].min() > 0.0:
        raise InstabilityError(
            "gain LP has no positive certificate: A is not Hurwitz stable for this margin"
        )
    return float(sol.objective_value), sol.primal[:n]


def linf_gain(plant: Plant, Cz, Fz) -> float:
    """L∞-gain (ℓ∞ if discrete) of a positive plant of any type to the
    output z = Cz x + Fz w: the closed form on the plant's stability
    matrix S (see `Plant`), so a delayed plant's gain is independent of
    the delay and a discrete one's is that of A_d - I.  Its state and
    input maps, Cz and Fz are judged by one sign rule; an unstable plant
    raises :class:`InstabilityError`."""
    a, e, _, _, *lag = plant.MATRICES
    states = [a, *lag[:1]]  # named in the order of their sign families
    E = getattr(plant, e)
    Cz = _shaped(Cz, "Cz", cols=plant.n)
    Fz = _shaped(Fz, "Fz", Cz.shape[0], plant.p)
    maps = [(name, P, metzler) for name, (_, P, _, metzler) in zip(states, plant.sign_families())]
    _require(f"{plant.KIND} gain", [*maps, (e, E, False), ("Cz", Cz, False), ("Fz", Fz, False)])
    vector, Y = _certified_solve(plant.stability_pair()[0], E)
    if vector is None:
        judged = " + ".join(states)
        stable = "Schur" if plant.DISCRETE else "Hurwitz"
        raise InstabilityError(
            f"{plant.KIND} gain: {judged} is not {stable} stable; the gain is undefined"
        )
    return _weighted_gain(Y, Cz, Fz)


# ---------------------------------------------------------------------------
# observer-loop helpers


def observer_membership(A, E, C, F, L, form: str = "standard") -> list[str]:
    """Reasons (possibly none) why L is not an admissible observer gain.

    Standard form needs A - LC Metzler and Hurwitz and E - LF >= 0; the
    relaxed form drops the E - LF condition.  The verdict always comes
    from a fresh solve, which the gain functions may then reuse.
    """
    return _error_loop(A, E, C, F, L, form, reuse=False)[0]


# The last error loop solved: (key, violations, Y) with Y read-only.
# It is replaced whole, never mutated, so a reader needs no lock.
_last_loop: tuple | None = None


def _error_loop(
    A, E, C, F, L, form: str, reuse: bool
) -> tuple[list[str], np.ndarray | None]:
    """Membership violations of a gain and the error loop's solved inputs,
    judged at the structural tolerance.  The loop has state matrix
    A - LC and input B = E - LF, or its split [B+ B-] in relaxed form.

    The loop is keyed by its form and the shapes and bytes of A, E, C, F
    and L as float arrays, before any validation.  A call that may reuse
    returns the last loop solved when the keys match: validation is a
    function of those bytes alone, and the last loop passed it, so that
    is what validating and solving afresh would return.  Any other call
    validates its arguments and solves, and every solve replaces the
    last loop.
    """
    global _last_loop
    raw = [_floats(M, name) for name, M in zip("AECFL", (A, E, C, F, L))]
    key = (form, *((M.shape, M.tobytes()) for M in raw))
    last = _last_loop
    if reuse and last is not None and last[0] == key:
        return list(last[1]), last[2]
    plant = ContinuousSystem(*raw[:4])
    L = _shaped(raw[4], "L", plant.n, plant.r)
    plant.check_form(form)
    violations, Y = _admissible(plant, L, form, STRUCTURAL_TOL, "A - L C", split=True)
    if Y is not None:
        Y.flags.writeable = False
    _last_loop = (key, tuple(violations), Y)
    return violations, Y


def _admissible(plant: Plant, L, form: str, tol: float, stability: str, split: bool):
    """Violations of the positive-loop condition at gain L, and the
    loop's solved inputs Y = (-(S - L T))^{-1} B.

    From the plant's reduction: the state maps P - L Q, the matrix
    S - L T (named stability) and B = E - L F, kept nonnegative in the
    standard form; the relaxed form drives the loop with [B+ B-] when
    split, else with the design's identity.  Once the state maps pass,
    the negatives of B and of S - L T off its diagonal, bounded by tol,
    are zeroed, which keeps Y an upper bound; one solve then certifies
    S - L T Hurwitz and gives Y, which is None otherwise.
    """
    S, T = plant.stability_pair()
    Scl = S - L @ T
    # a continuous plant's stability pair is its undelayed family (A, C)
    states = [
        (label, Scl if P is S and Q is T else P - L @ Q, metzler)
        for label, P, Q, metzler in plant.sign_families()
    ]
    E, F, inputs = plant.loop_input("standard" if split else form)
    B = E - L @ F
    inputs = [(label, B, False) for label, *_ in inputs if form == "standard"]
    if form == "relaxed" and split:
        B = np.hstack(split_pos_neg(B))
    violations, Y = _sign_violations(states, tol), None
    if not violations:
        clipped = np.maximum(Scl, 0.0)
        clipped.flat[:: clipped.shape[0] + 1] = Scl.diagonal()
        vector, Y = _certified_solve(clipped, np.maximum(B, 0.0))
        if vector is None:
            violations.append(f"{stability} is not Hurwitz stable")
    return violations + _sign_violations(inputs, tol), Y


def _observer_gain(A, E, C, F, L, M, N, form: str, caller: str) -> float:
    """Gain of the error loop of an admissible L under the weighting
    (M, N); :class:`MembershipError` lists the violated conditions."""
    violations, Y = _error_loop(A, E, C, F, L, form, reuse=True)
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
