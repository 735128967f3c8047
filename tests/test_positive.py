"""Gains and certificates for positive systems.

Closed-form values below are frozen from hand computations on 2x2
loops (inverses by hand, determinant checked) before the library code
existed; randomized sections cross-check the LP path against the
closed form and against a truncated impulse-response sum.
"""

import numpy as np
import pytest

from obsynth import (
    ContinuousSystem,
    DelaySystem,
    DimensionError,
    DiscreteDelaySystem,
    DiscreteSystem,
    InstabilityError,
    MembershipError,
    NonFiniteError,
    ObserverSpec,
    PreconditionError,
    gain_for_output,
    hurwitz_certificate,
    linf_gain,
    linf_gain_closed,
    linf_gain_lp,
    observer_membership,
    relaxed_error_gain,
)
from obsynth import positive
from obsynth.linalg import is_metzler
from obsynth.lp import LinearProgram, LpStatus, solve
from obsynth.positive import DEFAULT_EPSILON
from obsynth.simulation import ConstantSignal, DisturbanceModel, SimConfig, _linear_setup

from conftest import random_feasible_loop, random_metzler_hurwitz, random_schur

# the two-state loops used throughout: one with a Metzler plant, one
# whose plant needs the observer to restore Metzler structure
A_CASE1 = np.array([[-2.0, 1.0], [3.0, -5.0]])
A_CASE2 = np.array([[-2.0, -1.0], [3.0, -5.0]])
E2 = np.array([[1.0], [2.0]])
C2 = np.array([[0.0, 1.0]])
F2 = np.array([[1.0]])


def test_system_types_validate_dimensions():
    with pytest.raises(DimensionError):
        ContinuousSystem(A_CASE1, E2, np.array([[1.0, 0.0, 0.0]]), F2)
    with pytest.raises(DimensionError):
        DiscreteSystem(np.eye(2) * 0.5, E2, C2, np.array([[1.0, 2.0]]))
    with pytest.raises(DimensionError):
        DelaySystem(A_CASE1, np.eye(3), E2, C2, np.zeros((1, 2)), F2, 1.0)
    with pytest.raises(PreconditionError):
        DelaySystem(A_CASE1, np.eye(2), E2, C2, np.zeros((1, 2)), F2, -1.0)


Z12 = np.zeros((1, 2))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: DelaySystem(A_CASE1, np.eye(3), E2, C2, Z12, F2, 1.0),
         DimensionError, "A_h has shape (3, 3), expected (2, 2)"),
        (lambda: DiscreteDelaySystem(0.5 * np.eye(2), np.eye(3), E2, C2, Z12, F2),
         DimensionError, "A_dh has shape (3, 3), expected (2, 2)"),
        (lambda: DelaySystem(A_CASE1, np.eye(2), E2, C2, np.zeros((2, 2)), F2, 1.0),
         DimensionError, "C_h has shape (2, 2), expected (1, 2)"),
        (lambda: DiscreteDelaySystem(0.5 * np.eye(2), np.eye(2), E2, C2, np.zeros((2, 2)), F2),
         DimensionError, "C_dh has shape (2, 2), expected (1, 2)"),
        (lambda: DelaySystem(A_CASE1, np.eye(2), E2, C2, Z12, F2, -1.0),
         PreconditionError, "delay h must be finite and nonnegative"),
    ],
)
def test_system_type_errors_name_the_matrices(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_hurwitz_certificate_right_and_left():
    # a left certificate of A is the right certificate of A^T
    for W in (A_CASE1, A_CASE1.T):
        mu = hurwitz_certificate(W)
        assert mu is not None and np.all(mu > 0.0)
        assert np.all(W @ mu < 0.0)
    # the all-ones vector already certifies this matrix
    assert np.all(A_CASE1 @ np.ones(2) == np.array([-1.0, -2.0]))

    assert hurwitz_certificate(np.array([[1.0]])) is None
    assert hurwitz_certificate(-np.eye(3)) is not None
    with pytest.raises(PreconditionError):
        hurwitz_certificate(A_CASE2)
    # epsilon is keyword-only, so a call that still names a side fails
    with pytest.raises(TypeError):
        hurwitz_certificate(A_CASE1, "left")


def _lp_certificate(W, epsilon=DEFAULT_EPSILON):
    """Reference route: minimize 1^T mu subject to W mu <= -epsilon,
    mu >= 0; None when the LP is infeasible."""
    n = W.shape[0]
    lhs = np.vstack([W, -np.eye(n)])
    rhs = np.concatenate([-epsilon * np.ones(n), np.zeros(n)])
    sol = solve(LinearProgram(np.ones(n), lhs, rhs))
    return None if sol.status is LpStatus.INFEASIBLE else sol.primal


def _not_hurwitz(rng, n):
    """Metzler A with A x > 0 for some x > 0, hence not Hurwitz: were it
    Hurwitz, (-A)^{-1} >= 0 would give x = -(-A)^{-1} A x <= 0."""
    A = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(A, 0.0)
    x = rng.uniform(0.5, 2.0, size=n)
    A[np.diag_indices(n)] = (rng.uniform(0.1, 1.0, size=n) - A @ x) / x
    return A


def test_hurwitz_certificate_matches_the_certificate_lp():
    rng = np.random.default_rng(67)
    for _ in range(60):
        n = int(rng.integers(1, 16))
        A = random_metzler_hurwitz(rng, n)
        for W in (A, A.T):
            mu = hurwitz_certificate(W)
            ref = _lp_certificate(W)
            assert np.max(np.abs(mu - ref)) <= 1e-12 * np.max(ref)
            assert np.all(mu > 0.0)
            assert np.all(W @ mu <= -DEFAULT_EPSILON * (1.0 - 1e-12))
        B = _not_hurwitz(rng, n)
        for W in (B, B.T):
            assert hurwitz_certificate(W) is None
            assert _lp_certificate(W) is None


@pytest.mark.parametrize("n", [2, 5, 12])
def test_hurwitz_verdict_flips_where_the_row_sum_crosses_zero(n):
    # Constant row sums s make 1 a positive eigenvector with eigenvalue
    # s, so the Perron root is s.  Dyadic off-diagonal entries keep the
    # row sums exact, and s = 0 exactly singular.
    rng = np.random.default_rng(71 + n)
    for _ in range(4):
        off = rng.integers(0, 9, size=(n, n)) / 8.0
        np.fill_diagonal(off, 0.0)
        for s in (-0.5, -1e-3, -1e-6, 0.0, 1e-6, 1e-3, 0.5):
            A = off.copy()
            A[np.diag_indices(n)] = s - off.sum(axis=1)
            for side, W in (("right", A), ("left", A.T)):
                mu = hurwitz_certificate(W)
                assert (mu is not None) == (s < 0.0), (n, s, side)
                if mu is not None:
                    assert np.all(mu > 0.0)
                    assert np.all(W @ mu <= -DEFAULT_EPSILON * (1.0 - 1e-9))


def test_gain_closed_scalar_lag():
    assert linf_gain_closed([[-1.0]], [[1.0]], [[1.0]], [[0.0]]) == 1.0


def test_gain_closed_two_state_loop():
    Acl = np.array([[-2.0, 0.0], [3.0, -7.0]])
    Ecl = np.array([[2.0], [0.0]])
    # -Acl^{-1} Ecl = [1, 3/7]; identity output takes the max entry
    assert abs(linf_gain_closed(Acl, Ecl, np.eye(2), np.zeros((2, 1))) - 1.0) <= 1e-12
    g = linf_gain_closed(Acl, Ecl, np.ones((1, 2)), np.zeros((1, 1)))
    assert abs(g - 10.0 / 7.0) <= 1e-12


def test_gain_closed_rejects_bad_structure():
    with pytest.raises(InstabilityError):
        linf_gain_closed([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(PreconditionError):
        linf_gain_closed(A_CASE2, E2, np.eye(2), np.zeros((2, 1)))
    for E, Cz, Fz in (
        (-E2, np.eye(2), np.zeros((2, 1))),
        (E2, -np.eye(2), np.zeros((2, 1))),
        (E2, np.eye(2), -np.ones((2, 1))),
    ):
        with pytest.raises(PreconditionError):
            linf_gain_closed(A_CASE1, E, Cz, Fz)


def test_gain_lp_matches_closed_form():
    cases = [
        ([[-1.0]], [[1.0]], [[1.0]], [[0.0]]),
        (
            [[-2.0, 0.0], [3.0, -7.0]],
            [[2.0], [0.0]],
            np.eye(2),
            np.zeros((2, 1)),
        ),
        (
            [[-2.0, 0.0], [3.0, -7.0]],
            [[2.0], [0.0]],
            np.ones((1, 2)),
            np.zeros((1, 1)),
        ),
        ([[-1.0]], [[1.0]], [[1.0]], [[1.0]]),
    ]
    for A, E, Cz, Fz in cases:
        closed = linf_gain_closed(A, E, Cz, Fz)
        gamma, lam = linf_gain_lp(A, E, Cz, Fz)
        assert abs(gamma - closed) <= 1e-4
        # the certificate itself must satisfy the defining rows
        A = np.asarray(A)
        E = np.asarray(E)
        assert np.all(lam > 0.0)
        assert np.all(A @ lam + E @ np.ones(E.shape[1]) <= 0.0)


def test_gain_lp_feedthrough_example():
    gamma, _ = linf_gain_lp([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(gamma - 2.0) <= 1e-4


def test_gain_with_zero_input_matrix():
    gamma, _ = linf_gain_lp(
        [[-2.0, 0.0], [3.0, -7.0]], np.zeros((2, 1)), np.eye(2), np.zeros((2, 1))
    )
    assert gamma <= 2e-6
    assert (
        linf_gain_closed(
            [[-2.0, 0.0], [3.0, -7.0]], np.zeros((2, 1)), np.eye(2), np.zeros((2, 1))
        )
        == 0.0
    )


def test_gain_degenerate_dimensions_are_zero():
    A = np.array([[-1.0]])
    assert linf_gain_closed(A, np.zeros((1, 0)), [[1.0]], np.zeros((1, 0))) == 0.0
    assert linf_gain_closed(A, [[1.0]], np.zeros((0, 1)), np.zeros((0, 1))) == 0.0
    gamma, lam = linf_gain_lp(A, np.zeros((1, 0)), [[1.0]], np.zeros((1, 0)))
    assert gamma == 0.0 and np.all(lam > 0.0)
    with pytest.raises(InstabilityError):
        linf_gain_lp([[1.0]], np.zeros((1, 0)), [[1.0]], np.zeros((1, 0)))


@pytest.mark.parametrize(
    "call",
    [
        lambda A: hurwitz_certificate(A),
        lambda A: linf_gain_closed(A, np.zeros((0, 1)), np.zeros((1, 0)), np.zeros((1, 1))),
        lambda A: gain_for_output(
            A, np.zeros((0, 1)), np.zeros((1, 0)), np.zeros((1, 1)),
            np.zeros((0, 1)), np.zeros((1, 0)), np.zeros((1, 1)),
        ),
    ],
    ids=["hurwitz_certificate", "linf_gain_closed", "gain_for_output"],
)
def test_a_zero_state_loop_is_refused_by_the_shape_rule(call):
    # numpy's reductions have no identity on a 0×0 map; the shape rule
    # refuses it by name before any of them runs
    with pytest.raises(DimensionError, match=r"^A is a square matrix with no rows$"):
        call(np.zeros((0, 0)))


@pytest.mark.parametrize("p, q", [(0, 2), (2, 0)], ids=["no-input", "no-output"])
def test_gain_lp_of_a_degenerate_loop_returns_the_hurwitz_certificate(p, q):
    # with no input or no output the gain is 0 and lambda is the
    # certificate itself, at the margin the LP was asked for
    A = random_metzler_hurwitz(np.random.default_rng(73), 4)
    gamma, lam = linf_gain_lp(A, np.ones((4, p)), np.ones((q, 4)), np.zeros((q, p)), epsilon=1e-3)
    assert gamma == 0.0
    assert np.array_equal(lam, hurwitz_certificate(A, epsilon=1e-3))


@pytest.fixture
def gain_lps(monkeypatch):
    """The LPs that linf_gain_lp solves, with their solutions."""
    seen = []

    def recording(lp):
        seen.append((lp, solve(lp)))
        return seen[-1][1]

    monkeypatch.setattr(positive, "solve", recording)
    return seen


@pytest.mark.parametrize(
    "A, E, Cz, status",
    [
        ([[1.0, 0.0], [0.0, -1.0]], [[1.0], [1.0]], [[0.0, 1.0]], LpStatus.OPTIMAL),
        ([[1.0]], [[1.0]], [[1.0]], LpStatus.UNBOUNDED),
        ([[0.0]], [[1.0]], [[1.0]], LpStatus.INFEASIBLE),
    ],
    ids=["optimal-with-a-negative-lambda", "unbounded", "infeasible"],
)
def test_gain_lp_of_a_non_hurwitz_loop_raises_one_error(gain_lps, A, E, Cz, status):
    # a non-Hurwitz A reaches every LP outcome; all but an optimum with
    # lambda > 0 are the one verdict
    with pytest.raises(InstabilityError) as exc:
        linf_gain_lp(A, E, Cz, 0.0)
    assert str(exc.value) == (
        "gain LP has no positive certificate: A is not Hurwitz stable for this margin"
    )
    ((_, sol),) = gain_lps
    assert sol.status is status
    if status is LpStatus.OPTIMAL:
        assert sol.primal[0] < 0.0


def test_gain_lp_has_one_row_per_state_and_output(gain_lps):
    # no lambda >= 0 rows: A lambda < 0 with A Metzler Hurwitz forces
    # lambda > 0 already
    rng = np.random.default_rng(71)
    A = random_metzler_hurwitz(rng, 5)
    gamma, lam = linf_gain_lp(A, np.ones((5, 2)), rng.uniform(size=(3, 5)), np.zeros((3, 2)))
    ((lp, sol),) = gain_lps
    assert (lp.num_constraints, lp.num_vars) == (5 + 3, 5 + 1)
    assert sol.status is LpStatus.OPTIMAL and gamma == sol.objective_value
    assert lam.min() > 0.0


def test_gain_lp_random_agreement():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        A = random_metzler_hurwitz(rng, n)
        E = rng.uniform(0.0, 2.0, size=(n, p))
        Cz = rng.uniform(0.0, 1.0, size=(q, n))
        Fz = rng.uniform(0.0, 1.0, size=(q, p))
        closed = linf_gain_closed(A, E, Cz, Fz)
        gamma, _ = linf_gain_lp(A, E, Cz, Fz)
        assert abs(gamma - closed) <= 1e-4 * (1.0 + closed)


def test_gain_monotone_in_input_matrix():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = random_metzler_hurwitz(rng, n)
        E = rng.uniform(0.0, 1.0, size=(n, 2))
        Cz = rng.uniform(0.0, 1.0, size=(2, n))
        Fz = np.zeros((2, 2))
        base = linf_gain_closed(A, E, Cz, Fz)
        bumped = E.copy()
        bumped[rng.integers(n), rng.integers(2)] += 0.5
        assert linf_gain_closed(A, bumped, Cz, Fz) >= base - 1e-12


def test_discrete_gain_examples():
    assert (
        linf_gain(DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[0.0]]), [[1.0]], [[0.0]]) == 2.0
    )
    assert (
        linf_gain(DiscreteSystem([[0.0]], [[1.0]], [[1.0]], [[0.0]]), [[1.0]], [[0.0]]) == 1.0
    )
    assert (
        linf_gain(DiscreteSystem([[0.5]], [[0.0]], [[0.0]], [[3.0]]), [[0.0]], [[3.0]]) == 3.0
    )


def test_discrete_gain_is_the_shifted_continuous_gain():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        sys = DiscreteSystem(
            random_schur(rng, n),
            rng.uniform(0.0, 1.0, size=(n, 2)),
            rng.uniform(0.0, 1.0, size=(1, n)),
            rng.uniform(0.0, 1.0, size=(1, 2)),
        )
        direct = linf_gain_closed(sys.A_d - np.eye(n), sys.E_d, sys.C_d, sys.F_d)
        assert linf_gain(sys, sys.C_d, sys.F_d) == direct


def test_discrete_gain_rejects_unstable_or_negative():
    with pytest.raises(InstabilityError):
        linf_gain(DiscreteSystem([[1.5]], [[1.0]], [[1.0]], [[0.0]]), [[1.0]], [[0.0]])
    # a negative A_d, E_d, C_d or F_d, the gain read at the measured output
    for args in (
        ([[-0.5]], [[1.0]], [[1.0]], [[0.0]]),
        ([[0.5]], [[-1.0]], [[1.0]], [[0.0]]),
        ([[0.5]], [[1.0]], [[-1.0]], [[0.0]]),
        ([[0.5]], [[1.0]], [[1.0]], [[-1.0]]),
    ):
        sys = DiscreteSystem(*args)
        with pytest.raises(PreconditionError):
            linf_gain(sys, sys.C_d, sys.F_d)


ONES12 = np.ones((1, 2))


def _ct(A=A_CASE1, E=E2):
    return ContinuousSystem(A, E, C2, F2)


def _delay(A=A_CASE1, A_h=np.eye(2), E=E2):
    return DelaySystem(A, A_h, E, C2, Z12, F2, 1.0)


def _dt(A_d=0.5, E_d=1.0, C_d=1.0):
    return DiscreteSystem(A_d, E_d, C_d, 0.0)


def _dt_delay(A_d=0.5, A_dh=0.2, E_d=1.0):
    return DiscreteDelaySystem(A_d, A_dh, E_d, 1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "gain, message",
    [
        (lambda: linf_gain(_ct(A=A_CASE2), ONES12, 0.0), "continuous gain needs Metzler A"),
        (lambda: linf_gain(_ct(E=-E2), ONES12, 0.0), "continuous gain needs nonnegative E"),
        (lambda: linf_gain(_ct(), -ONES12, 0.0), "continuous gain needs nonnegative Cz"),
        (lambda: linf_gain(_ct(A=A_CASE1 + 3.0 * np.eye(2)), ONES12, 0.0),
         "continuous gain: A is not Hurwitz stable; the gain is undefined"),
        (lambda: linf_gain(_delay(A=A_CASE2), ONES12, 0.0), "delay gain needs Metzler A"),
        (lambda: linf_gain(_delay(A_h=-np.eye(2)), ONES12, 0.0),
         "delay gain needs nonnegative A_h"),
        (lambda: linf_gain(_delay(E=-E2), ONES12, 0.0), "delay gain needs nonnegative E"),
        (lambda: linf_gain(_delay(), ONES12, -1.0), "delay gain needs nonnegative Fz"),
        # A alone is Hurwitz; the aggregate A + A_h is not
        (lambda: linf_gain(_delay(A_h=3.0 * np.eye(2)), ONES12, 0.0),
         "delay gain: A + A_h is not Hurwitz stable; the gain is undefined"),
        (lambda: linf_gain(_dt(A_d=-0.5), 1.0, 0.0), "discrete gain needs nonnegative A_d"),
        (lambda: linf_gain(_dt(E_d=-1.0), 1.0, 0.0), "discrete gain needs nonnegative E_d"),
        # the measured output as the performance output is the caller's Cz
        (lambda: linf_gain(sys := _dt(C_d=-1.0), sys.C_d, sys.F_d),
         "discrete gain needs nonnegative Cz"),
        (lambda: linf_gain(_dt(A_d=1.5), 1.0, 0.0),
         "discrete gain: A_d is not Schur stable; the gain is undefined"),
        (lambda: linf_gain(_dt_delay(A_d=-0.5), 1.0, 0.0),
         "discrete-delay gain needs nonnegative A_d"),
        (lambda: linf_gain(_dt_delay(A_dh=-0.2), 1.0, 0.0),
         "discrete-delay gain needs nonnegative A_dh"),
        (lambda: linf_gain(_dt_delay(E_d=-1.0), 1.0, 0.0),
         "discrete-delay gain needs nonnegative E_d"),
        (lambda: linf_gain(_dt_delay(), -1.0, 0.0), "discrete-delay gain needs nonnegative Cz"),
        # A_d alone is Schur; the aggregate A_d + A_dh is not
        (lambda: linf_gain(_dt_delay(A_dh=0.6), 1.0, 0.0),
         "discrete-delay gain: A_d + A_dh is not Schur stable; the gain is undefined"),
    ],
)
def test_delay_and_discrete_gains_name_the_sign_violation(gain, message):
    # a sign error names what the gain needs; an unstable plant, the
    # matrix that is not stable
    error = PreconditionError if " needs " in message else InstabilityError
    with pytest.raises(error) as exc:
        gain()
    assert str(exc.value) == message


def _impulse_sum(sys, terms=20000, tol=1e-13):
    """Independent oracle: F_d plus the summed impulse response."""
    total = np.array(sys.F_d, dtype=float).copy()
    P = np.eye(sys.n)
    for _ in range(terms):
        term = sys.C_d @ P @ sys.E_d
        total += term
        if np.max(np.abs(term)) < tol:
            break
        P = P @ sys.A_d
    return float(np.max(total.sum(axis=1)))


def test_discrete_gain_matches_impulse_response():
    rng = np.random.default_rng(53)
    for _ in range(15):
        n = int(rng.integers(1, 3))
        sys = DiscreteSystem(
            random_schur(rng, n),
            rng.uniform(0.0, 1.0, size=(n, 1)),
            rng.uniform(0.0, 1.0, size=(1, n)),
            rng.uniform(0.0, 1.0, size=(1, 1)),
        )
        assert abs(linf_gain(sys, sys.C_d, sys.F_d) - _impulse_sum(sys)) <= 1e-6


def test_delay_gain_scalar_example():
    sys = DelaySystem([[-3.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], 1.0)
    assert linf_gain(sys, [[1.0]], [[0.0]]) == 0.5


def test_delay_gain_reduces_and_ignores_h():
    A = np.array([[-2.0, 0.5], [0.3, -3.0]])
    E = np.array([[1.0], [0.5]])
    Cz = np.ones((1, 2))
    Fz = np.zeros((1, 1))
    zero_h = DelaySystem(A, np.zeros((2, 2)), E, Cz, np.zeros((1, 2)), Fz, 2.0)
    assert linf_gain(zero_h, Cz, Fz) == linf_gain_closed(A, E, Cz, Fz)

    Ah = np.array([[0.0, 0.2], [0.1, 0.0]])
    values = {
        linf_gain(DelaySystem(A, Ah, E, Cz, np.zeros((1, 2)), Fz, h), Cz, Fz)
        for h in (0.1, 1.0, 10.0)
    }
    assert len(values) == 1


def test_gain_for_output_examples():
    # decoupled loop: E - L F vanishes, so the gain does too
    assert gain_for_output(A_CASE1, E2, C2, F2, [[1.0], [2.0]], np.eye(2), 0.0) == 0.0
    g = gain_for_output(A_CASE2, E2, C2, F2, [[-1.0], [2.0]], np.ones((1, 2)), 0.0)
    assert abs(g - 10.0 / 7.0) <= 1e-12
    assert (
        gain_for_output(A_CASE2, E2, C2, F2, [[-1.0], [2.0]], np.zeros((1, 2)), 0.0)
        == 0.0
    )
    for M, N in ((-np.eye(2), 0.0), (np.eye(2), -1.0)):
        with pytest.raises(PreconditionError):
            gain_for_output(A_CASE2, E2, C2, F2, [[-1.0], [2.0]], M, N)


def test_observer_membership_violations():
    assert observer_membership(A_CASE2, E2, C2, F2, [[-1.0], [2.0]]) == []
    # off-diagonal entry goes negative
    notes = observer_membership(A_CASE1, E2, C2, F2, [[5.0], [0.0]])
    assert any("Metzler" in note for note in notes)
    # the worst entry is named by plain integer indices
    notes = observer_membership(A_CASE2, E2, C2, F2, [[1.0], [0.0]])
    assert notes == ["A - L C is not Metzler: entry (0, 1) is -2"]
    # Metzler survives but the loop is unstable
    notes = observer_membership(A_CASE1, E2, C2, F2, [[0.0], [-100.0]])
    assert any("Hurwitz" in note for note in notes)
    # disturbance matrix picks up a negative entry
    notes = observer_membership(A_CASE1, E2, C2, F2, [[2.0], [0.0]])
    assert notes[-1] == "E - L F has a negative entry: (0, 0) is -1"
    with pytest.raises(MembershipError) as exc:
        gain_for_output(A_CASE1, E2, C2, F2, [[2.0], [0.0]], np.eye(2), 0.0)
    assert exc.value.violations
    with pytest.raises(PreconditionError) as exc:
        observer_membership(A_CASE2, E2, C2, F2, [[-1.0], [2.0]], form="loose")
    assert str(exc.value) == "unknown observer form 'loose'"


def test_relaxed_error_gain_hand_values():
    # split input [B+, B-] against the stable loops used by the bench
    L = np.array([[1.0], [10.0]])
    assert (
        abs(relaxed_error_gain(A_CASE1, E2, C2, F2, L, np.eye(2)) - 8.0 / 15.0)
        <= 1e-12
    )
    L = np.array([[-1.0], [10.0]])
    assert abs(relaxed_error_gain(A_CASE2, E2, C2, F2, L, np.eye(2)) - 1.0) <= 1e-12
    E3 = np.array([[0.0], [-6.0]])
    assert (
        abs(relaxed_error_gain(A_CASE2, E3, C2, F2, L, np.eye(2)) - 7.0 / 6.0)
        <= 1e-12
    )
    # relaxed membership only needs the loop stable, not E - L F >= 0
    with pytest.raises(MembershipError, match="not an admissible observer gain"):
        relaxed_error_gain(A_CASE1, E2, C2, F2, [[0.0], [-100.0]], np.eye(2))
    with pytest.raises(PreconditionError, match="relaxed_error_gain needs nonnegative M"):
        relaxed_error_gain(A_CASE2, E2, C2, F2, L, -np.eye(2))


def _augmented_rowwise_test(A, E, C, F, L, M, N, gamma) -> bool:
    """Reference: each augmented matrix [[A-LC, (E-LF)1], [M_i, N_i 1 - gamma]]
    must be Metzler and carry a Hurwitz certificate."""
    Acl, B = A - L @ C, E - L @ F
    n, p = B.shape
    T = np.zeros((n + 1, n + 1))
    T[:n, :n] = Acl
    T[:n, n] = B @ np.ones(p)
    for i in range(M.shape[0]):
        T[n, :n] = M[i]
        T[n, n] = float(np.sum(N[i])) - gamma
        if not is_metzler(T) or hurwitz_certificate(T) is None:
            return False
    return True


def test_rowwise_decomposition_matches_gain_threshold():
    # the augmented matrices' Schur complement is e_i^T (M Y + N) 1 - gamma,
    # so the row-wise test passes exactly when the loop gain is below gamma
    rng = np.random.default_rng(59)
    for trial in range(15):
        n = int(rng.integers(1, 5))
        A = random_metzler_hurwitz(rng, n)
        E = rng.uniform(0.0, 1.0, size=(n, 2))
        C = rng.uniform(0.0, 1.0, size=(1, n))
        F = np.zeros((1, 2))
        L = np.zeros((n, 1))
        q = 0 if trial == 0 else 2
        M = rng.uniform(0.0, 1.0, size=(q, n))
        N = rng.uniform(0.0, 1.0, size=(q, 2))
        gamma = gain_for_output(A, E, C, F, L, M, N)
        for scale in (0.5, 0.999, 1.001, 2.0):
            g = gamma * scale if gamma > 0.0 else scale
            got = gamma < g
            assert got == _augmented_rowwise_test(A, E, C, F, L, M, N, g)
            assert got == (scale > 1.0 or q == 0)


# ---------------------------------------------------------------------------
# the one reading rule for matrix arguments: a scalar is 1x1 unless both
# sizes are known (a feedthrough, a gain L), a flat input map is a
# column, a flat output map a row, and a flat feedthrough or gain runs
# along its size that is not 1 (a row when it has one row)


def _plant_with(n, p, r, **override):
    maps = {
        "A": -np.eye(n), "E": np.ones((n, p)), "C": np.ones((r, n)), "F": 0.0,
    }
    maps.update(override)
    return ContinuousSystem(**maps)


def _simulator_gain(n, p, r, L):
    """L as the linear simulators read it."""
    config = SimConfig(1.0, 1.0, np.zeros(n), np.zeros(n), np.zeros(n))
    dist = DisturbanceModel(*[[ConstantSignal(0.0)] * p] * 3)
    return _linear_setup(_plant_with(n, p, r), L, dist, config, 1.0)[0]


# readers other than the plant types: (n, p, r) and the value -> matrix
_READERS = {
    "L": _simulator_gain,
    "gain_lower": lambda n, p, r, B: ObserverSpec(gain_lower=B).bounds(n, r)[0],
    "ineq_lhs": lambda n, p, r, G: LinearProgram(
        np.zeros(n), G, np.zeros(np.size(G) // n)
    ).ineq_lhs,
}


def _read(sizes, role, value):
    if role in _READERS:
        return _READERS[role](*sizes, value)
    return getattr(_plant_with(*sizes, **{role: value}), role)


@pytest.mark.parametrize(
    "sizes, role, value, shape",
    [
        # state
        ((1, 1, 1), "A", -2.0, (1, 1)),
        ((3, 1, 1), "A", [-1.0, -1.0, -1.0], DimensionError),
        ((3, 1, 1), "A", -np.eye(3), (3, 3)),
        ((3, 1, 1), "A", -np.ones((3, 2)), DimensionError),
        # input map
        ((1, 1, 1), "E", 2.0, (1, 1)),
        ((3, 1, 1), "E", 2.0, DimensionError),
        ((3, 1, 1), "E", [1.0, 2.0, 3.0], (3, 1)),
        ((1, 1, 1), "E", [1.0, 2.0, 3.0], DimensionError),
        ((3, 2, 1), "E", np.ones((3, 2)), (3, 2)),
        # output map
        ((1, 1, 1), "C", 2.0, (1, 1)),
        ((3, 1, 1), "C", 2.0, DimensionError),
        ((3, 1, 1), "C", [1.0, 2.0, 3.0], (1, 3)),
        ((1, 1, 1), "C", [1.0, 2.0, 3.0], DimensionError),
        ((3, 1, 2), "C", np.ones((2, 3)), (2, 3)),
        # feedthrough
        ((3, 2, 2), "F", 0.5, (2, 2)),
        ((1, 1, 1), "F", [0.5], (1, 1)),
        ((3, 2, 1), "F", [0.5, 1.0], (1, 2)),
        ((3, 1, 2), "F", [0.5, 1.0], (2, 1)),
        ((3, 2, 2), "F", [0.5, 1.0], DimensionError),
        ((3, 2, 2), "F", np.ones((2, 2)), (2, 2)),
        ((3, 2, 2), "F", np.ones((2, 1)), DimensionError),
        # simulator gain
        ((3, 2, 2), "L", 0.5, (3, 2)),
        ((3, 2, 1), "L", [0.5, 1.0, 2.0], (3, 1)),
        ((1, 1, 2), "L", [0.5, 1.0], (1, 2)),
        ((3, 2, 2), "L", [0.5, 1.0, 2.0], DimensionError),
        ((3, 1, 1), "L", np.ones((1, 3)), DimensionError),
        # gain bounds of an observer spec
        ((3, 1, 2), "gain_lower", np.zeros((3, 2)), (3, 2)),
        ((3, 1, 2), "gain_lower", np.zeros((2, 3)), DimensionError),
        # LP constraint rows (n variables; p and r unused)
        ((2, 0, 0), "ineq_lhs", np.ones((3, 2)), (3, 2)),
        ((2, 0, 0), "ineq_lhs", [1.0, 2.0], (1, 2)),
        ((2, 0, 0), "ineq_lhs", np.zeros((0, 2)), (0, 2)),
        ((2, 0, 0), "ineq_lhs", np.ones((2, 3)), DimensionError),
    ],
)
def test_matrix_arguments_follow_one_reading_rule(sizes, role, value, shape):
    if shape is DimensionError:
        with pytest.raises(DimensionError):
            _read(sizes, role, value)
        return
    M = _read(sizes, role, value)
    assert M.shape == shape
    want = np.full(shape, value) if np.ndim(value) == 0 else np.reshape(value, shape)
    assert np.array_equal(M, want)


def test_delayed_maps_follow_the_same_rule():
    # A_h is read at n x n and C_h at r x n, so a number fills either
    sys = DelaySystem(A_CASE1, 0.0, E2, C2, 0.5, F2, 1.0)
    assert np.array_equal(sys.A_h, np.zeros((2, 2)))
    assert np.array_equal(sys.C_h, np.full((1, 2), 0.5))
    with pytest.raises(DimensionError, match=r"^C_h has shape \(2, 1\), expected \(1, 2\)$"):
        DelaySystem(A_CASE1, np.eye(2), E2, C2, np.ones((2, 1)), F2, 1.0)


def test_loop_functions_follow_the_same_rule():
    # every map of a one-state loop may be a scalar
    assert observer_membership(-1.0, 1.0, 1.0, 0.0, 0.0) == []
    assert gain_for_output(-2.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0) == 0.5
    # flat E and L are columns, a flat C is a row
    assert observer_membership(-np.eye(3), [1.0, 1.0, 1.0], [1.0, 0.0, 0.0], 0.0,
                               [0.5, 0.0, 0.0]) == []
    for args in (
        (-np.eye(3), 1.0, np.ones((1, 3)), 0.0, np.zeros((3, 1))),  # scalar E, n = 3
        (-np.ones((3, 2)), np.ones((3, 1)), np.ones((1, 2)), 0.0, np.zeros((3, 1))),
        ([-1.0, -1.0], np.ones((2, 1)), np.ones((1, 2)), 0.0, np.zeros((2, 1))),
        (-np.eye(2), np.ones((2, 2)), np.ones((2, 2)), [0.0, 0.0], np.zeros((2, 2))),
        (-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), 0.0, np.zeros((2, 2))),
    ):
        with pytest.raises(DimensionError):
            observer_membership(*args)
    with pytest.raises(DimensionError):
        hurwitz_certificate([-1.0, -2.0])
    assert hurwitz_certificate(-3.0).shape == (1,)
    # L is n x r: a scalar fills it, and a wrong shape names both
    assert observer_membership(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), 0.0, 0.0) == []
    with pytest.raises(DimensionError) as exc:
        observer_membership(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), 0.0, np.ones((1, 2)))
    assert str(exc.value) == "L has shape (1, 2), expected (2, 1)"


def test_gain_bounds_name_their_expected_shape():
    spec = ObserverSpec(gain_lower=np.zeros((3, 1)), gain_upper=np.ones((1, 3)))
    with pytest.raises(DimensionError) as exc:
        spec.bounds(3, 2)
    assert str(exc.value) == "gain_lower has shape (3, 1), expected (3, 2)"
    with pytest.raises(DimensionError) as exc:
        ObserverSpec(gain_upper=np.ones((1, 3))).bounds(3, 1)
    assert str(exc.value) == "gain_upper has shape (1, 3), expected (3, 1)"


@pytest.mark.parametrize(
    "epsilon", [0.0, -1.0, np.inf, np.nan, None, "x", pytest.param(10**400, id="1e400")]
)
def test_every_epsilon_taker_rejects_a_non_positive_margin(epsilon):
    A = np.array([[-2.0, 1.0], [1.0, -3.0]])
    calls = (
        lambda: hurwitz_certificate(A, epsilon=epsilon),
        lambda: linf_gain_lp(A, np.ones((2, 1)), np.ones((1, 2)), 0.0, epsilon=epsilon),
        lambda: linf_gain_lp(A, np.zeros((2, 0)), np.ones((1, 2)), 0.0, epsilon=epsilon),
        lambda: ObserverSpec(epsilon=epsilon),
    )
    for call in calls:
        with pytest.raises(PreconditionError) as exc:
            call()
        assert str(exc.value) == "epsilon must be a positive real"


def test_error_loop_zeroes_off_diagonal_entries_within_the_tolerance():
    # dyadic entries keep A - L C exact, so the loop below has exactly
    # one off-diagonal entry at -2^-31, inside the structural tolerance
    Acl = np.array([[-3.0, 1.0, -(2.0**-31)], [0.5, -2.0, 1.0], [1.0, 0.25, -4.0]])
    L = np.array([[0.5], [0.25], [1.0]])
    C = np.array([[1.0, 0.5, 0.25]])
    E = np.array([[1.0, 0.5], [0.25, 1.0], [2.0, 1.0]])
    F = np.array([[0.5, 0.25]])
    clipped = Acl.copy()
    clipped[0, 2] = 0.0
    M, N = np.ones((2, 3)), np.full((2, 2), 0.125)
    assert observer_membership(Acl + L @ C, E, C, F, L) == []
    got = gain_for_output(Acl + L @ C, E, C, F, L, M, N)
    want = gain_for_output(clipped + L @ C, E, C, F, L, M, N)
    assert abs(got - want) <= 1e-13 * want


# ---------------------------------------------------------------------------
# reuse of the last error loop solved


@pytest.fixture
def solves(monkeypatch):
    """Count the error-loop solves, starting with no loop stored."""
    count = [0]
    inner = positive.solve_linear

    def counting(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(positive, "solve_linear", counting)
    monkeypatch.setattr(positive, "_last_loop", None)
    return count


def _fresh_gain(gain, *args):
    """The gain of a loop solved afresh: the stored loop is dropped."""
    positive._last_loop = None
    return gain(*args)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


_LOOP = random_feasible_loop(np.random.default_rng(28), 5, 2, 3)
_FORMS = {
    "standard": lambda A, E, C, F, L: gain_for_output(A, E, C, F, L, np.eye(5), np.ones((5, 2))),
    "relaxed": lambda A, E, C, F, L: relaxed_error_gain(A, E, C, F, L, np.eye(5)),
}


@pytest.mark.parametrize("form", list(_FORMS))
def test_a_reused_gain_is_the_fresh_solve(solves, form):
    loop = [M.copy() for M in _LOOP]
    assert observer_membership(*loop, form=form) == []
    reused = _FORMS[form](*loop)
    assert solves[0] == 1
    _, Y = positive._last_loop[1:]
    assert not Y.flags.writeable
    fresh = _fresh_gain(_FORMS[form], *loop)
    assert solves[0] == 2
    assert _bits(reused) == _bits(fresh)
    assert positive._last_loop[2].tobytes() == Y.tobytes()


def _nudged(loop, index, in_place):
    """The loop with 2^-40, far inside every tolerance, added to entry
    (0, 0) of one matrix, in place or on a copy."""
    loop = list(loop)
    M = loop[index] if in_place else loop[index].copy()
    M[0, 0] += 2.0**-40
    loop[index] = M
    return loop


@pytest.mark.parametrize("in_place", [False, True], ids=["copy", "in-place"])
@pytest.mark.parametrize("index", range(5), ids=list("AECFL"))
@pytest.mark.parametrize("form", list(_FORMS))
def test_any_changed_input_solves_again(solves, form, index, in_place):
    loop = [M.copy() for M in _LOOP]
    assert observer_membership(*loop, form=form) == []
    changed = _nudged(loop, index, in_place)
    got = _FORMS[form](*changed)
    assert solves[0] == 2
    assert _bits(got) == _bits(_fresh_gain(_FORMS[form], *changed))


def test_an_in_place_edit_of_A_after_membership_solves_again(solves):
    # the stored loop is keyed by a copy of the bytes, so an edit that
    # leaves A - L C Metzler but not Hurwitz is judged, not the stored
    # verdict
    loop = [M.copy() for M in _LOOP]
    assert observer_membership(*loop) == []
    loop[0][0, 0] += 100.0
    with pytest.raises(MembershipError) as exc:
        _FORMS["standard"](*loop)
    assert solves[0] == 2
    assert exc.value.violations == observer_membership(*loop) == ["A - L C is not Hurwitz stable"]


@pytest.mark.parametrize("in_place", [False, True], ids=["copy", "in-place"])
def test_a_non_finite_gain_after_a_valid_call_is_refused(solves, in_place):
    loop = [M.copy() for M in _LOOP]
    assert observer_membership(*loop) == []
    _FORMS["standard"](*loop)
    L = loop[4] if in_place else loop[4].copy()
    L[1, 2] = np.nan
    with pytest.raises(NonFiniteError) as exc:
        _FORMS["standard"](*loop[:4], L)
    assert str(exc.value) == "L contains non-finite entries"
    assert solves[0] == 1


def test_list_and_array_inputs_give_the_same_gain(solves):
    rng = np.random.default_rng(7)
    M = rng.uniform(0.0, 1.0, size=(2, 5))
    N = rng.uniform(0.0, 1.0, size=(2, 2))
    assert observer_membership(*_LOOP) == []
    arrays = gain_for_output(*_LOOP, M, N)
    lists = gain_for_output(*(X.tolist() for X in _LOOP), M.tolist(), N.tolist())
    assert solves[0] == 1
    assert _bits(lists) == _bits(arrays)
    assert _bits(lists) == _bits(_fresh_gain(gain_for_output, *_LOOP, M, N))


def test_a_changed_form_solves_again(solves):
    assert observer_membership(*_LOOP, form="standard") == []
    relaxed = _FORMS["relaxed"](*_LOOP)
    assert solves[0] == 2
    assert observer_membership(*_LOOP, form="relaxed") == []
    standard = _FORMS["standard"](*_LOOP)
    assert solves[0] == 4
    assert _bits(relaxed) == _bits(_fresh_gain(_FORMS["relaxed"], *_LOOP))
    assert _bits(standard) == _bits(_fresh_gain(_FORMS["standard"], *_LOOP))


def test_one_membership_and_k_gains_solve_once(solves):
    rng = np.random.default_rng(5)
    assert observer_membership(*_LOOP) == []
    for _ in range(7):
        M = rng.uniform(0.0, 1.0, size=(2, 5))
        N = rng.uniform(0.0, 1.0, size=(2, 2))
        gain_for_output(*_LOOP, M, N)
    assert solves[0] == 1
    # a membership verdict never rests on a stored loop
    for k in (2, 3):
        assert observer_membership(*_LOOP) == []
        assert solves[0] == k
    # a gain that solves stores its loop for the next gain
    _FORMS["relaxed"](*_LOOP)
    _FORMS["relaxed"](*_LOOP)
    assert solves[0] == 4


@pytest.mark.parametrize(
    "A, L, solved",
    [
        (A_CASE1, [[0.0], [-100.0]], 1),
        (A_CASE2, [[-1.0], [3.0]], 1),
        (A_CASE1, [[5.0], [0.0]], 0),
    ],
    ids=["not-hurwitz", "negative-input", "not-metzler"],
)
def test_a_reused_inadmissible_gain_raises_the_same_error(solves, A, L, solved):
    violations = observer_membership(A, E2, C2, F2, L)
    assert violations
    with pytest.raises(MembershipError) as reused:
        gain_for_output(A, E2, C2, F2, L, np.eye(2), 0.0)
    assert solves[0] == solved
    with pytest.raises(MembershipError) as fresh:
        _fresh_gain(gain_for_output, A, E2, C2, F2, L, np.eye(2), 0.0)
    assert str(reused.value) == str(fresh.value)
    assert reused.value.violations == fresh.value.violations == violations


def test_a_returned_membership_list_is_the_callers_own(solves):
    admissible = observer_membership(*_LOOP)
    admissible.append("appended by the caller")
    assert gain_for_output(*_LOOP, np.eye(5), 0.0) > 0.0
    L = [[2.0], [0.0]]
    violations = observer_membership(A_CASE1, E2, C2, F2, L)
    want = list(violations)
    violations.clear()
    with pytest.raises(MembershipError) as exc:
        gain_for_output(A_CASE1, E2, C2, F2, L, np.eye(2), 0.0)
    assert exc.value.violations == want
    exc.value.violations.append("appended by the caller")
    with pytest.raises(MembershipError) as again:
        gain_for_output(A_CASE1, E2, C2, F2, L, np.eye(2), 0.0)
    assert again.value.violations == want
    assert observer_membership(A_CASE1, E2, C2, F2, L) == want
