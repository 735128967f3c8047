"""Simplex solver behaviour, cross-checked against scipy's HiGHS.

The scipy path is test-only: it never backs a library result, it just
gives an independent optimum and dual certificate to compare against.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from obsynth import (
    DimensionError,
    LinearProgram,
    LpStatus,
    SolverFailureError,
    check_feasible,
    solve,
)


def _lp(c, G, h):
    return LinearProgram(
        np.asarray(c, dtype=float),
        np.asarray(G, dtype=float),
        np.asarray(h, dtype=float),
    )


def test_minimize_above_three():
    sol = solve(_lp([1.0], [[-1.0]], [-3.0]))
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.objective_value - 3.0) <= 1e-9
    assert abs(sol.primal[0] - 3.0) <= 1e-9


def test_contradictory_pair_is_infeasible():
    sol = solve(_lp([0.0], [[1.0], [-1.0]], [-1.0, -1.0]))
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.primal is None


def test_unbounded_ray():
    sol = solve(_lp([-1.0], [[-1.0]], [0.0]))
    assert sol.status is LpStatus.UNBOUNDED


def test_equality_as_two_inequalities():
    # min x + y subject to 1 <= x + y <= 1, x >= 0, y >= 0: phase 1 ends
    # with an artificial basic at zero that must be pivoted out
    sol = solve(
        _lp(
            [1.0, 1.0],
            [[1.0, 1.0], [-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]],
            [1.0, -1.0, 0.0, 0.0],
        )
    )
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.objective_value - 1.0) <= 1e-9
    assert abs(sol.primal.sum() - 1.0) <= 1e-8


def test_sign_free_variables():
    # min x subject to x >= -4: the optimum is negative
    sol = solve(_lp([1.0], [[-1.0]], [4.0]))
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.objective_value + 4.0) <= 1e-9


def test_dimension_validation():
    with pytest.raises(DimensionError):
        _lp([1.0, 2.0], [[1.0]], [0.0])
    with pytest.raises(DimensionError):
        _lp([1.0], [[1.0], [2.0]], [0.0])


def test_iteration_cap_is_a_distinct_failure():
    # a few pivots are needed; a cap of one cannot finish phase 1
    G = -np.eye(3)
    h = -np.ones(3)
    with pytest.raises(SolverFailureError):
        solve(_lp(np.ones(3), G, h), max_iter=1)


def test_determinism_bytes():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(8, 4))
    h = rng.normal(size=8) + 4.0
    c = rng.normal(size=4)
    box = np.vstack([np.eye(4), -np.eye(4)])
    lp = _lp(c, np.vstack([G, box]), np.concatenate([h, 5.0 * np.ones(8)]))
    a, b = solve(lp), solve(lp)
    assert a.status is b.status is LpStatus.OPTIMAL
    assert a.primal.tobytes() == b.primal.tobytes()
    assert a.iterations == b.iterations


def test_check_feasible():
    assert check_feasible(_lp([1.0], np.zeros((0, 1)), np.zeros(0)))
    assert not check_feasible(_lp([0.0], [[1.0], [-1.0]], [-1.0, -1.0]))
    # stability certificate constraints A mu <= -eps, mu >= 0
    A = np.array([[-2.0, 1.0], [3.0, -5.0]])
    lhs = np.vstack([A, -np.eye(2)])
    rhs = np.concatenate([-1e-6 * np.ones(2), np.zeros(2)])
    assert check_feasible(_lp(np.zeros(2), lhs, rhs))


def _random_boxed_lp(rng, n, m):
    """Bounded feasible LP: random rows plus a box keeping it finite."""
    G = rng.normal(size=(m, n))
    z0 = rng.uniform(-1.0, 1.0, size=n)  # kept feasible by construction
    h = G @ z0 + rng.uniform(0.1, 2.0, size=m)
    box = np.vstack([np.eye(n), -np.eye(n)])
    hbox = 3.0 * np.ones(2 * n)
    return _lp(rng.normal(size=n), np.vstack([G, box]), np.concatenate([h, hbox]))


def test_optimum_matches_scipy_highs():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 11))
        lp = _random_boxed_lp(rng, n, m)
        sol = solve(lp)
        ref = linprog(
            lp.objective,
            A_ub=lp.ineq_lhs,
            b_ub=lp.ineq_rhs,
            bounds=[(None, None)] * n,
            method="highs",
        )
        assert sol.status is LpStatus.OPTIMAL and ref.status == 0
        assert abs(sol.objective_value - ref.fun) <= 1e-6 * (1.0 + abs(ref.fun))
        # returned point is feasible with bounded slack violation
        assert np.max(lp.ineq_lhs @ sol.primal - lp.ineq_rhs) <= 1e-8


def test_duality_bound_from_highs_multipliers():
    # min c.z s.t. G z <= h has dual max -h.y s.t. G'y = -c, y >= 0;
    # HiGHS multipliers certify our primal value from below and above.
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        lp = _random_boxed_lp(rng, n, int(rng.integers(2, 8)))
        sol = solve(lp)
        ref = linprog(
            lp.objective,
            A_ub=lp.ineq_lhs,
            b_ub=lp.ineq_rhs,
            bounds=[(None, None)] * n,
            method="highs",
        )
        y = -ref.ineqlin.marginals
        assert np.all(y >= -1e-9)
        assert np.max(np.abs(lp.ineq_lhs.T @ y + lp.objective)) <= 1e-7
        dual_value = -float(lp.ineq_rhs @ y)
        assert dual_value <= sol.objective_value + 1e-6
        assert sol.objective_value <= dual_value + 1e-6


def test_infeasibility_agrees_with_scipy():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        G = rng.normal(size=(3, n))
        h = rng.normal(size=3)
        row = rng.normal(size=n)
        # append a contradiction: row.z <= -1 and -row.z <= -1
        lp = _lp(
            np.ones(n),
            np.vstack([G, row, -row]),
            np.concatenate([h, [-1.0, -1.0]]),
        )
        sol = solve(lp)
        ref = linprog(
            lp.objective,
            A_ub=lp.ineq_lhs,
            b_ub=lp.ineq_rhs,
            bounds=[(None, None)] * n,
            method="highs",
        )
        assert sol.status is LpStatus.INFEASIBLE
        assert ref.status == 2
