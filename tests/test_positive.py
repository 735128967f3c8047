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
    DiscreteSystem,
    InstabilityError,
    MembershipError,
    PreconditionError,
    common_certificate_rank_one,
    gain_for_output,
    hurwitz_certificate,
    is_positive_system,
    linf_gain_closed,
    linf_gain_delay,
    linf_gain_discrete,
    linf_gain_lp,
    observer_membership,
    relaxed_error_gain,
    rowwise_gain_decomposition,
)
from obsynth.lp import LinearProgram, LpStatus, solve
from obsynth.positive import DEFAULT_EPSILON

from conftest import random_metzler_hurwitz, random_schur

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


def test_performance_output_is_optional():
    sys = ContinuousSystem(A_CASE1, E2, C2, F2)
    assert sys.Cz is None and sys.Fz is None
    # giving Cz alone fills in a zero feedthrough of matching shape
    sys = ContinuousSystem(A_CASE1, E2, C2, F2, Cz=np.ones((1, 2)))
    assert np.array_equal(sys.Fz, np.zeros((1, 1)))
    with pytest.raises(DimensionError):
        ContinuousSystem(A_CASE1, E2, C2, F2, Fz=np.zeros((1, 1)))


def test_is_positive_system():
    closed = ContinuousSystem(
        np.array([[-2.0, 0.0], [3.0, -7.0]]),
        np.array([[2.0], [0.0]]),
        C2,
        F2,
    )
    assert is_positive_system(closed)
    assert not is_positive_system(ContinuousSystem(A_CASE2, E2, C2, F2))
    zero = ContinuousSystem(
        np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
        Cz=np.zeros((1, 1)), Fz=np.zeros((1, 1)),
    )
    assert is_positive_system(zero)


def test_hurwitz_certificate_right_and_left():
    cert = hurwitz_certificate(A_CASE1)
    assert cert is not None and cert.kind == "right"
    assert np.all(cert.vector > 0.0)
    assert np.all(A_CASE1 @ cert.vector < 0.0)
    # the all-ones vector already certifies this matrix
    assert np.all(A_CASE1 @ np.ones(2) == np.array([-1.0, -2.0]))

    left = hurwitz_certificate(A_CASE1, kind="left")
    assert np.all(left.vector @ A_CASE1 < 0.0)

    assert hurwitz_certificate(np.array([[1.0]])) is None
    assert hurwitz_certificate(-np.eye(3)) is not None
    with pytest.raises(PreconditionError):
        hurwitz_certificate(A_CASE2)
    with pytest.raises(PreconditionError):
        hurwitz_certificate(A_CASE1, kind="sideways")


def _lp_certificate(A, kind, epsilon=DEFAULT_EPSILON):
    """Reference route: minimize 1^T mu subject to W mu <= -epsilon,
    mu >= 0, with W = A or A^T; None when the LP is infeasible."""
    n = A.shape[0]
    W = A if kind == "right" else A.T
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
        for kind in ("right", "left"):
            W = A if kind == "right" else A.T
            cert = hurwitz_certificate(A, kind)
            ref = _lp_certificate(A, kind)
            assert cert.kind == kind and cert.margin == DEFAULT_EPSILON
            assert np.max(np.abs(cert.vector - ref)) <= 1e-12 * np.max(ref)
            assert np.all(cert.vector > 0.0)
            assert np.all(W @ cert.vector <= -DEFAULT_EPSILON * (1.0 - 1e-12))
        B = _not_hurwitz(rng, n)
        for kind in ("right", "left"):
            assert hurwitz_certificate(B, kind) is None
            assert _lp_certificate(B, kind) is None


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
            for kind in ("right", "left"):
                cert = hurwitz_certificate(A, kind)
                assert (cert is not None) == (s < 0.0), (n, s, kind)
                if cert is not None:
                    W = A if kind == "right" else A.T
                    assert np.all(cert.vector > 0.0)
                    assert np.all(W @ cert.vector <= -DEFAULT_EPSILON * (1.0 - 1e-9))


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
    with pytest.raises(PreconditionError):
        linf_gain_closed(A_CASE1, -E2, np.eye(2), np.zeros((2, 1)))


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
        assert np.all(lam >= 0.0)
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
        linf_gain_discrete(DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[0.0]])) == 2.0
    )
    assert (
        linf_gain_discrete(DiscreteSystem([[0.0]], [[1.0]], [[1.0]], [[0.0]])) == 1.0
    )
    assert (
        linf_gain_discrete(DiscreteSystem([[0.5]], [[0.0]], [[0.0]], [[3.0]])) == 3.0
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
        assert linf_gain_discrete(sys) == direct


def test_discrete_gain_rejects_unstable_or_negative():
    with pytest.raises(InstabilityError):
        linf_gain_discrete(DiscreteSystem([[1.5]], [[1.0]], [[1.0]], [[0.0]]))
    with pytest.raises(PreconditionError):
        linf_gain_discrete(DiscreteSystem([[-0.5]], [[1.0]], [[1.0]], [[0.0]]))


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
        assert abs(linf_gain_discrete(sys) - _impulse_sum(sys)) <= 1e-6


def test_delay_gain_scalar_example():
    sys = DelaySystem([[-3.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], 1.0)
    assert linf_gain_delay(sys, [[1.0]], [[0.0]]) == 0.5


def test_delay_gain_reduces_and_ignores_h():
    A = np.array([[-2.0, 0.5], [0.3, -3.0]])
    E = np.array([[1.0], [0.5]])
    Cz = np.ones((1, 2))
    Fz = np.zeros((1, 1))
    zero_h = DelaySystem(A, np.zeros((2, 2)), E, Cz, np.zeros((1, 2)), Fz, 2.0)
    assert linf_gain_delay(zero_h, Cz, Fz) == linf_gain_closed(A, E, Cz, Fz)

    Ah = np.array([[0.0, 0.2], [0.1, 0.0]])
    values = {
        linf_gain_delay(
            DelaySystem(A, Ah, E, Cz, np.zeros((1, 2)), Fz, h), Cz, Fz
        )
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


def test_observer_membership_violations():
    assert observer_membership(A_CASE2, E2, C2, F2, [[-1.0], [2.0]]) == []
    # off-diagonal entry goes negative
    notes = observer_membership(A_CASE1, E2, C2, F2, [[5.0], [0.0]])
    assert any("Metzler" in note for note in notes)
    # Metzler survives but the loop is unstable
    notes = observer_membership(A_CASE1, E2, C2, F2, [[0.0], [-100.0]])
    assert any("Hurwitz" in note for note in notes)
    # disturbance matrix picks up a negative entry
    notes = observer_membership(A_CASE1, E2, C2, F2, [[2.0], [0.0]])
    assert any("E - L F" in note for note in notes)
    with pytest.raises(MembershipError) as exc:
        gain_for_output(A_CASE1, E2, C2, F2, [[2.0], [0.0]], np.eye(2), 0.0)
    assert exc.value.violations


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
    with pytest.raises(MembershipError):
        relaxed_error_gain(A_CASE1, E2, C2, F2, [[0.0], [-100.0]], np.eye(2))


def test_rowwise_decomposition_examples():
    L = [[-1.0], [2.0]]
    assert rowwise_gain_decomposition(A_CASE2, E2, C2, F2, L, np.eye(2), 0.0, 1.1)
    assert not rowwise_gain_decomposition(A_CASE2, E2, C2, F2, L, np.eye(2), 0.0, 0.9)
    assert rowwise_gain_decomposition(
        A_CASE2, E2, C2, F2, L, np.zeros((2, 2)), 0.0, 0.5
    )
    with pytest.raises(PreconditionError):
        rowwise_gain_decomposition(A_CASE2, E2, C2, F2, L, np.eye(2), 0.0, 0.0)


def test_rowwise_decomposition_matches_gain_threshold():
    rng = np.random.default_rng(59)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        A = random_metzler_hurwitz(rng, n)
        E = rng.uniform(0.0, 1.0, size=(n, 2))
        C = rng.uniform(0.0, 1.0, size=(1, n))
        F = np.zeros((1, 2))
        L = np.zeros((n, 1))
        M = rng.uniform(0.0, 1.0, size=(2, n))
        N = rng.uniform(0.0, 1.0, size=(2, 2))
        gamma = gain_for_output(A, E, C, F, L, M, N)
        assert rowwise_gain_decomposition(A, E, C, F, L, M, N, gamma * 1.1 + 1e-9)
        below = gamma * 0.9
        if below > 0.0:
            assert not rowwise_gain_decomposition(A, E, C, F, L, M, N, below)


def test_common_certificate_rank_one():
    psi = common_certificate_rank_one(-np.eye(2), np.zeros(2), [[1, 0], [0, 1]])
    assert psi is not None and np.all(psi > 0.0)

    W = np.array([[-2.0, 0.0], [3.0, -7.0]])
    u = np.zeros(2)
    psi = common_certificate_rank_one(W, u, [[1.0, 0.0]])
    assert np.all((W + np.outer(u, [1.0, 0.0])) @ psi < 0.0)

    # W + u v^T = [[1, 0], [0, -1]] is not Hurwitz
    assert (
        common_certificate_rank_one(-np.eye(2), [1.0, 0.0], [[2.0, 0.0]]) is None
    )

    # empty family falls back to a certificate for W alone
    psi = common_certificate_rank_one(-np.eye(3), np.zeros(3), [])
    assert np.all(-np.eye(3) @ psi < 0.0)

    with pytest.raises(PreconditionError):
        common_certificate_rank_one(np.eye(2), np.zeros(2), [[1.0, 0.0]])
    with pytest.raises(PreconditionError):
        common_certificate_rank_one(-np.eye(2), [-1.0, 0.0], [[1.0, 0.0]])


def test_common_certificate_on_random_stable_families():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        W = random_metzler_hurwitz(rng, n)
        u = rng.uniform(0.0, 0.2, size=n)
        vs = [rng.uniform(0.0, 0.2, size=n) for _ in range(3)]
        psi = common_certificate_rank_one(W, u, vs)
        if psi is None:
            # some perturbation must then be unstable on its own
            assert any(
                hurwitz_certificate(W + np.outer(u, v)) is None for v in vs
            )
        else:
            for v in vs:
                assert np.all((W + np.outer(u, v)) @ psi < 0.0)
