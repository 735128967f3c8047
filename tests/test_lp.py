"""Simplex solver behaviour, cross-checked against scipy's HiGHS and
against a scan-based transcription of the pivot kernel.

The scipy path is test-only: it never backs a library result, it just
gives an independent optimum and dual certificate to compare against.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

import obsynth.lp as lp_module
import obsynth.positive as positive
from obsynth import (
    ContinuousSystem,
    DelaySystem,
    DimensionError,
    DiscreteDelaySystem,
    DiscreteSystem,
    LinearProgram,
    LpSolution,
    LpStatus,
    ObserverSpec,
    SingularMatrixError,
    SolverFailureError,
    certify,
    check_feasible,
    design,
    solve,
    solve_linear,
)
import obsynth.synthesis as synthesis
from obsynth.synthesis import DIAG_SIGN_CONFLICT, _assemble

from conftest import random_feasible_loop, random_metzler_hurwitz, random_schur


def _lp(c, G, h):
    return LinearProgram(
        np.asarray(c, dtype=float),
        np.asarray(G, dtype=float),
        np.asarray(h, dtype=float),
    )


def _with_loose_row(lp):
    """The same LP with the row 0 · z <= 1 appended, so it is not square.
    That row starts on its slack and its tableau row stays zero, so it
    is never a ratio-test candidate: the solve takes the two-phase path,
    with the pivots of the LP without it."""
    return _lp(
        lp.objective,
        np.vstack([lp.ineq_lhs, np.zeros((1, lp.num_vars))]),
        np.append(lp.ineq_rhs, 1.0),
    )


def test_minimize_above_three():
    # square, so solved at its one vertex with no pivot; with a loose row,
    # by phase 1 and phase 2
    square = _lp([1.0], [[-1.0]], [-3.0])
    for lp, pivots in ((square, 0), (_with_loose_row(square), 1)):
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.iterations == pivots
        assert abs(sol.objective_value - 3.0) <= 1e-9
        assert abs(sol.primal[0] - 3.0) <= 1e-9
        # the flipped row -x <= -3 binds with multiplier 1: G'y = -c
        assert sol.dual.tolist() == [1.0, 0.0][: lp.num_constraints]


def test_contradictory_pair_is_infeasible():
    sol = solve(_lp([0.0], [[1.0], [-1.0]], [-1.0, -1.0]))
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.primal is None
    assert sol.dual is None


def test_unbounded_ray():
    square = _lp([-1.0], [[-1.0]], [0.0])
    # at the one vertex the row's dual is -1 < 0: unbounded on the first price
    assert solve(square).status is LpStatus.UNBOUNDED
    assert solve(square).iterations == 0
    assert solve(_with_loose_row(square)).status is LpStatus.UNBOUNDED


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
    # min x subject to x >= -4: the optimum is negative, the square start's
    # z+ basic at a negative level and the two-phase path's z- at 4
    square = _lp([1.0], [[-1.0]], [4.0])
    for lp in (square, _with_loose_row(square)):
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert abs(sol.objective_value + 4.0) <= 1e-9


def test_dimension_validation():
    with pytest.raises(DimensionError):
        _lp([1.0, 2.0], [[1.0]], [0.0])
    with pytest.raises(DimensionError):
        _lp([1.0], [[1.0], [2.0]], [0.0])
    with pytest.raises(DimensionError, match="^LinearProgram needs at least one variable$"):
        LinearProgram([], [], [])


def test_iteration_cap_is_a_distinct_failure(monkeypatch):
    # phase 1 needs three pivots; a cap of 0 * (n + m) stops the first.
    # The square LP without the loose row takes none, so no cap stops it
    square = _lp(np.ones(3), -np.eye(3), -np.ones(3))
    lp = _with_loose_row(square)
    assert solve(lp).status is LpStatus.OPTIMAL
    monkeypatch.setattr(lp_module, "ITERATION_CAP", 0)
    with pytest.raises(SolverFailureError, match=r"^simplex exceeded the iteration cap \(0\)$"):
        solve(lp)
    assert solve(square).status is LpStatus.OPTIMAL


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


# ---------------------------------------------------------------------------
# the condensed kernel, against a transcription of the full-tableau solve
#
# The reference keeps a column for every variable, basic or not, and
# subtracts an outer product from the whole tableau.  It carries its
# own reduced-cost row through that elimination and prices it afresh at
# the moments the kernel does.  It scans the kernel's slot order for the
# most negative reduced cost (so exact ties go the kernel's way), every
# variable for Bland's entering choice and every row for the leaving
# choice.  The kernel must make the same pivots and return the same
# bytes: on non-unique optima the returned point depends on the pivots.


@pytest.fixture(params=["dantzig", "bland"])
def rule(request, monkeypatch):
    """Run a test under the kernel's rule, and again with the anti-cycling
    fallback in force from the first pivot, so that Bland's path is
    pinned to the reference too."""
    if request.param == "bland":
        monkeypatch.setattr(lp_module, "STALL", -1)
    return request.param


def _ref_pivot(T, b, reduced, basis, slots, row, col):
    piv = T[row, col]
    T[row] /= piv
    b[row] /= piv
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    b -= factors * b[row]
    reduced -= reduced[col] * T[row]
    T[:, col] = 0.0
    T[row, col] = 1.0
    reduced[col] = 0.0
    # the leaving variable takes the entering column's slot
    slots[slots.index(col)] = int(basis[row])
    basis[row] = col


def _ref_leaving_row(b, col, basis, free):
    # of the candidate rows whose ratio lies within 1e-12 of the minimum,
    # the one whose basic variable has the lowest index; a row whose basic
    # variable is one of the first free (a part of the sign-free z) is no
    # candidate
    rows = [i for i in range(col.size) if col[i] > lp_module.EPS and basis[i] >= free]
    if not rows:
        return -1
    low = min(b[i] / col[i] for i in rows)
    tied = [i for i in rows if b[i] / col[i] <= low + 1e-12]
    return min(tied, key=lambda i: basis[i])


def _ref_entering(reduced, slots, bland):
    if bland:
        for j in sorted(slots):
            if reduced[j] < -lp_module.EPS:
                return j
        return -1
    enter = slots[0]
    for j in slots:
        if reduced[j] < reduced[enter]:
            enter = j
    return enter if reduced[enter] < -lp_module.EPS else -1


def _ref_simplex(T, b, cost, basis, slots, free, cap, used):
    reduced = np.zeros(T.shape[1])
    fresh, bland, stall = True, False, 0
    it = used
    while True:
        if fresh:
            # the kernel's price: one row per nonbasic column, in its
            # slot order, times cost[basis] (the same BLAS summation);
            # a basic variable's reduced cost is 0
            reduced[:] = 0.0
            reduced[slots] = cost[slots] - np.ascontiguousarray(T[:, slots].T) @ cost[basis]
        by_bland = bland or stall >= lp_module.STALL
        enter = _ref_entering(reduced, slots, by_bland)
        if not fresh and (enter < 0 or reduced[enter] > -lp_module.EPS - lp_module.DRIFT):
            fresh = True
            continue
        if enter < 0:
            return "optimal", it
        leave = _ref_leaving_row(b, T[:, enter], basis, free)
        if leave < 0:
            if fresh:
                return "unbounded", it
            fresh = True
            continue
        if not by_bland and T[leave, enter] < lp_module.PIVOT_RATIO * T[:, enter].max():
            bland = True
            continue
        it += 1
        if it > cap:
            raise SolverFailureError(f"simplex exceeded the iteration cap ({cap})")
        stall = stall + 1 if b[leave] == 0.0 else 0
        _ref_pivot(T, b, reduced, basis, slots, leave, enter)
        fresh = bland = False


def _ref_vertex_start(lp):
    """The start, or None.  A square LP starts at its one vertex, and an
    LP that names start rows, when its start tableau holds from START_MIN
    to BLOCK entries, at the vertex where those rows are tight; either
    only when
    solve_linear certifies the tight rows G nonsingular.  Every z+ is
    basic, z+_k in row rows[k], every other row keeps its slack, and the
    full tableau is [I | -I | G^-1] in the tight rows with b = G^-1 h,
    and -lhs[O] G^-1 with b = h[O] - lhs[O] G^-1 h in the others, from
    the kernel's one factorization and product (so the bytes are the
    kernel's)."""
    n, m = lp.num_vars, lp.num_constraints
    if m == n:
        rows = np.arange(n)
    elif lp.start is not None and lp_module.START_MIN <= n * (m + 1) <= lp_module.BLOCK:
        rows = lp.start
    else:
        return None
    h = lp.ineq_rhs[rows]
    try:
        X = solve_linear(lp.ineq_lhs[rows], np.column_stack([h, np.eye(n)]))
    except SingularMatrixError:
        return None
    other = np.setdiff1d(np.arange(m), rows)
    W = lp.ineq_lhs[other] @ X
    T = np.zeros((m, 2 * n + m))
    b = np.zeros(m)
    T[rows, np.arange(n)] = 1.0
    T[rows, n + np.arange(n)] = -1.0
    T[np.ix_(rows, 2 * n + rows)] = X[:, 1:]
    T[np.ix_(other, 2 * n + rows)] = -W[:, 1:]
    T[other, 2 * n + other] = 1.0
    b[rows] = X[:, 0]
    b[other] = lp.ineq_rhs[other] - W[:, 0]
    basis = np.arange(2 * n, 2 * n + m)
    basis[rows] = np.arange(n)
    # the kernel's slot order: z-, then the slacks of the tight rows
    return T, b, basis, list(range(n, 2 * n)) + [2 * n + int(i) for i in rows]


def _ref_dual(T, b, cost, basis, slots, free, cap, used):
    # price once and raise negative reduced costs to 0.  The leaving row
    # is, of the rows below -EPS whose basic variable is no part of z, the
    # one with the most negative b (the first row on exact ties).  Of the
    # variables with an entry below -EPS in that row, those whose ratio
    # lies within Harris's bound (the least ratio with EPS added to every
    # reduced cost) are candidates, and the one with the most negative
    # entry enters (the first in slot order on exact ties).  After STALL
    # pivots on a reduced cost at or below 0, Bland's rule: the row whose
    # basic variable has the lowest index leaves, and of the variables
    # whose ratio lies within 1e-12 of the least, the lowest index enters
    reduced = np.zeros(T.shape[1])
    reduced[slots] = cost[slots] - np.ascontiguousarray(T[:, slots].T) @ cost[basis]
    reduced[slots] = np.maximum(reduced[slots], 0.0)
    stall = 0
    it = used
    while True:
        rows = [i for i in range(b.size) if b[i] < -lp_module.EPS and basis[i] >= free]
        if not rows:
            return it
        bland = stall >= lp_module.STALL
        if bland:
            row = min(rows, key=lambda i: basis[i])
        else:
            row = min(rows, key=lambda i: b[i])
        cand = [j for j in slots if T[row, j] < -lp_module.EPS]
        if not cand:
            return it
        if bland:
            low = min(reduced[j] / -T[row, j] for j in cand)
            enter = min(j for j in cand if reduced[j] / -T[row, j] <= low + 1e-12)
        else:
            bound = min((reduced[j] + lp_module.EPS) / -T[row, j] for j in cand)
            ok = [j for j in cand if reduced[j] <= bound * -T[row, j]]
            enter = min(ok, key=lambda j: T[row, j])
        it += 1
        if it > cap:
            raise SolverFailureError(f"simplex exceeded the iteration cap ({cap})")
        stall = stall + 1 if reduced[enter] <= 0.0 else 0
        _ref_pivot(T, b, reduced, basis, slots, row, enter)


def _ref_phases(lp, T, b, basis, slots, flip, cap, used):
    """Phase 1 on an artificial in each row of ``flip`` (negated), then
    phase 2; returns (status, T, b, slots, iterations)."""
    n, m = lp.num_vars, lp.num_constraints
    width = 2 * n + m
    iterations = used
    art_rows = np.flatnonzero(flip)
    T[flip] *= -1.0
    b[flip] *= -1.0
    # the kernel's slot order: then the slacks the artificials keep out
    slots = slots + [int(basis[i]) for i in art_rows]
    basis[art_rows] = width + np.arange(art_rows.size)
    if art_rows.size:
        art_cols = np.zeros((m, art_rows.size))
        art_cols[art_rows, np.arange(art_rows.size)] = 1.0
        T = np.hstack([T, art_cols])
        cost1 = np.zeros(T.shape[1])
        cost1[width:] = 1.0
        verdict, iterations = _ref_simplex(T, b, cost1, basis, slots, 2 * n, cap, iterations)
        assert verdict == "optimal"
        if float(cost1[basis] @ b) > lp_module.FEAS_TOL:
            return LpStatus.INFEASIBLE, T, b, slots, iterations
        for i in np.flatnonzero(basis >= width):
            entries = np.flatnonzero(np.abs(T[i, :width]) > lp_module.EPS)
            iterations += 1
            _ref_pivot(T, b, np.zeros(T.shape[1]), basis, slots, i, int(entries[0]))
        T = T[:, :width]
        slots = [j for j in slots if j < width]
    cost2 = np.concatenate([lp.objective, -lp.objective, np.zeros(m)])
    verdict, iterations = _ref_simplex(T, b, cost2, basis, slots, 2 * n, cap, iterations)
    status = LpStatus.OPTIMAL if verdict == "optimal" else LpStatus.UNBOUNDED
    return status, T, b, slots, iterations


def _ref_tight_point(lp, slots):
    """The point at the rows whose slacks are nonbasic, solved afresh by
    the kernel's solve, or None where it is not certified: not n rows,
    singular to solve_linear, or a point and dual that break a row by
    more than FEAS_TOL, a sign by more than EPS, or G^T y = -c by more
    than EPS (scaled)."""
    n = lp.num_vars
    tight = np.array(sorted(j - 2 * n for j in slots if j >= 2 * n), dtype=np.intp)
    if tight.size != n:
        return None
    G, h, c = lp.ineq_lhs, lp.ineq_rhs, lp.objective
    try:
        X = solve_linear(G[tight], np.column_stack([h[tight], np.eye(n)]))
    except SingularMatrixError:
        return None
    z, y = X[:, 0].copy(), -(X[:, 1:].T @ c)
    # a variable that two singleton rows fix at one value reads it exactly
    upper, lower = np.full(n, np.inf), np.full(n, -np.inf)
    for i in np.flatnonzero(np.count_nonzero(G, axis=1) == 1):
        k = int(np.flatnonzero(G[i])[0])
        if G[i, k] > 0.0:
            upper[k] = min(upper[k], h[i] / G[i, k])
        else:
            lower[k] = max(lower[k], h[i] / G[i, k])
    z[upper == lower] = upper[upper == lower]
    z += 0.0
    if y.min() < -lp_module.EPS:
        return None
    if (G @ z - h).max() > lp_module.FEAS_TOL * (1.0 + np.abs(h).max()):
        return None
    if np.abs(G[tight].T @ y + c).max() > lp_module.EPS * (1.0 + np.abs(c).max()):
        return None
    return z


def _ref_read(lp, b, basis, iterations):
    n = lp.num_vars
    full = np.zeros(2 * n + lp.num_constraints)
    full[basis] = b
    z = full[:n] - full[n : 2 * n]
    return LpSolution(LpStatus.OPTIMAL, z, float(lp.objective @ z), iterations)


def _ref_solve(lp):
    n, m = lp.num_vars, lp.num_constraints
    cap = lp_module.ITERATION_CAP * (n + m)
    used = 0
    start = _ref_vertex_start(lp)
    if start is not None:
        T, b, basis, slots = start
        if m == n:
            status, T, b, slots, used = _ref_phases(
                lp, T, b, basis, slots, np.zeros(m, dtype=bool), cap, 0
            )
            if status is LpStatus.UNBOUNDED:
                return LpSolution(status, iterations=used)
            return _ref_read(lp, b, basis, used)
        cost2 = np.concatenate([lp.objective, -lp.objective, np.zeros(m)])
        z = None
        try:
            used = _ref_dual(T, b, cost2, basis, slots, 2 * n, cap, 0)
            if not np.any((b < -lp_module.EPS) & (basis >= 2 * n)):
                # leftovers below zero start phase 1 on an artificial
                flip = (b < 0.0) & (basis >= 2 * n)
                status, T, b, slots, used = _ref_phases(lp, T, b, basis, slots, flip, cap, used)
                z = _ref_tight_point(lp, slots) if status is LpStatus.OPTIMAL else None
        except SolverFailureError:
            used = cap  # a start stopped by the cap counts the cap's pivots
        if z is not None:
            return LpSolution(LpStatus.OPTIMAL, z, float(lp.objective @ z), used)
    # the two-phase path, from the slack basis, after an uncertified start too
    T = np.hstack([lp.ineq_lhs, -lp.ineq_lhs, np.eye(m)])
    b = lp.ineq_rhs.astype(float)
    basis = np.arange(2 * n, 2 * n + m)
    status, T, b, slots, iterations = _ref_phases(
        lp, T, b, basis, list(range(2 * n)), b < 0.0, cap + used, used
    )
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status, iterations=iterations)
    return _ref_read(lp, b, basis, iterations)


def _assert_same_as_reference(lp):
    got = solve(lp)
    ref = _ref_solve(lp)
    assert got.status is ref.status
    assert got.iterations == ref.iterations
    if ref.primal is None:
        assert got.primal is None and got.dual is None
    else:
        # bytes, so a -0.0 where the reference holds +0.0 fails too
        assert got.primal.tobytes() == ref.primal.tobytes()
        assert got.objective_value == ref.objective_value
        _assert_dual_certifies(lp, got)
    return got


def _assert_dual_certifies(lp, sol):
    # min c.z s.t. G z <= h has dual max -h.y s.t. G'y = -c, y >= 0
    y = sol.dual
    assert y.shape == (lp.num_constraints,)
    scale = 1.0 + np.abs(lp.ineq_lhs).max()
    assert np.all(y >= -1e-9)
    assert np.max(np.abs(lp.ineq_lhs.T @ y + lp.objective)) <= 1e-8 * scale
    value = -float(lp.ineq_rhs @ y)
    assert abs(value - sol.objective_value) <= 1e-9 * (1.0 + abs(sol.objective_value))


def test_kernel_matches_reference_on_random_lps(rule):
    rng = np.random.default_rng(41)
    statuses = set()
    for _ in range(40):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 16))
        G = rng.normal(size=(m, n))
        G[rng.random(size=(m, n)) < 0.4] = 0.0
        h = rng.normal(size=m)
        sol = _assert_same_as_reference(_lp(rng.normal(size=n), G, h))
        statuses.add(sol.status)
        _assert_same_as_reference(_random_boxed_lp(rng, n, m))
    assert statuses == set(LpStatus)


def test_kernel_matches_reference_on_degenerate_lps(rule):
    # many rows through one vertex: every ratio test starts with exact
    # zero-ratio ties, which the leaving rule breaks by the lower basic
    # index, and runs of degenerate pivots bring in the Bland fallback
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 4 * n))
        G = rng.integers(-2, 3, size=(m, n)).astype(float)
        box = np.vstack([np.eye(n), -np.eye(n)])
        lhs = np.vstack([G, G, box])  # each row twice: duplicate ratios
        rhs = np.concatenate([np.zeros(2 * m), np.ones(2 * n)])
        c = rng.integers(-3, 4, size=n).astype(float)
        _assert_same_as_reference(_lp(c, lhs, rhs))
        # the same vertex reached from a shifted origin needs phase 1
        shift = rng.uniform(0.5, 1.5, size=n)
        _assert_same_as_reference(_lp(c, lhs, rhs - lhs @ shift))
    # phase 1 leaves row 4's artificial basic at level 0; the sweep brings
    # row 1's slack in on a -1 entry, which turns that row's zero in b
    # into -0.0, and phase 2 then makes z+_0 basic in that row at level 0
    G = [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, -1.0], [-1.0, -1.0]]
    _assert_same_as_reference(_lp([-1.0, -1.0], G, [1.0, 1.0, 0.0, -1.0, -1.0]))


def test_kernel_matches_reference_when_near_ties_decide(rule):
    # maximize z subject to z <= h_i: the ratios are the h_i, spaced
    # 0.5e-12 apart and falling, so rows 5, 6 and 7 lie within 1e-12 of
    # the smallest ratio (row 7's) and row 5, whose slack has the lowest
    # index of the three, leaves
    h = 1.0 + 0.5e-12 * np.arange(8.0)[::-1]
    lp = _lp([-1.0], np.ones((8, 1)), h)
    sol = _assert_same_as_reference(lp)
    assert sol.primal[0] == h[5] != h.min()
    assert sol.iterations == 1


def _design_plant(rng, klass, n, p=2, r=3):
    """An admissible plant of one design class, built around a gain."""
    if klass in ("continuous", "relaxed"):
        A, E, C, F, _ = random_feasible_loop(rng, n, p, r)
        return ContinuousSystem(A, E, C, F)
    C = rng.uniform(0.0, 1.0, size=(r, n))
    F = rng.uniform(0.0, 0.5, size=(r, p))
    L0 = rng.uniform(-0.5, 0.5, size=(n, r))
    Bcl = rng.uniform(0.0, 1.0, size=(n, p))
    if klass == "delay":
        S = random_metzler_hurwitz(rng, n)
        Ah_cl = rng.uniform(0.1, 0.5) * (S - np.diag(np.diag(S)))
        C_h = rng.uniform(0.0, 0.5, size=(r, n))
        return DelaySystem(
            S - Ah_cl + L0 @ C, Ah_cl + L0 @ C_h, Bcl + L0 @ F, C, C_h, F, 1.0
        )
    if klass == "discrete-delay":
        # the Schur matrix split between the current and the delayed state
        W = random_schur(rng, n)
        share = rng.uniform(0.2, 0.8, size=(n, n))
        C_dh = rng.uniform(0.0, 0.5, size=(r, n))
        return DiscreteDelaySystem(
            share * W + L0 @ C, (1.0 - share) * W + L0 @ C_dh, Bcl + L0 @ F, C, C_dh, F
        )
    return DiscreteSystem(random_schur(rng, n) + L0 @ C, Bcl + L0 @ F, C, F)


def _design_lp(plant, form="standard", start=True):
    """The design LP as design builds it, start rows named, or as certify
    builds it (start False), which takes the two-phase path."""
    return _assemble(plant, form, 1e-6, None, None, start=start)


def _bounds_around(rng, L):
    """Gain bounds that keep L feasible: lower only, upper only, both, and
    both with about half the entries pinned at L (lo == hi)."""
    lo, hi = L - 0.25, L + 0.25
    pinned = rng.random(L.shape) < 0.5
    return [(lo, None), (None, hi), (lo, hi), (np.where(pinned, L, lo), np.where(pinned, L, hi))]


@pytest.mark.parametrize("start", [True, False], ids=["started", "two-phase"])
@pytest.mark.parametrize("klass", ["continuous", "relaxed", "delay", "discrete", "discrete-delay"])
def test_kernel_matches_reference_on_design_lps(klass, start, rule):
    rng = np.random.default_rng(47)
    form = "relaxed" if klass == "relaxed" else "standard"
    for n in (4, 6, 8, 10, 12):
        plant = _design_plant(rng, klass, n)
        sol = _assert_same_as_reference(_design_lp(plant, form, start))
        assert sol.status is LpStatus.OPTIMAL
        if n > 8:
            continue
        # the same plant with gain bounds around its optimal gain
        L = design(plant, ObserverSpec(form=form)).L
        for lo, hi in _bounds_around(np.random.default_rng(n), L):
            sol = _assert_same_as_reference(_assemble(plant, form, 1e-6, lo, hi, start=start))
            assert sol.status is LpStatus.OPTIMAL


def test_kernel_matches_reference_through_an_infeasible_design(monkeypatch, rule):
    # F = 0 leaves E - L F = E, which has a negative entry whatever L is,
    # while L0 makes A - L C Metzler and Hurwitz: the standard LP is
    # infeasible, and check_feasible then solves the relaxed rows
    A, E, C, F, _ = random_feasible_loop(np.random.default_rng(73), 6, 2, 3)
    E[0, 0] = -0.5
    plant = ContinuousSystem(A, E, C, np.zeros_like(F))
    programs = []
    real = lp_module.solve

    def recording(lp):
        programs.append(lp)
        return real(lp)

    monkeypatch.setattr(lp_module, "solve", recording)
    monkeypatch.setattr(synthesis, "solve", recording)
    result = design(plant, ObserverSpec())
    assert (result.status, result.diagnostic) == ("infeasible", DIAG_SIGN_CONFLICT)
    statuses = [_assert_same_as_reference(lp).status for lp in programs]
    assert statuses == [LpStatus.INFEASIBLE, LpStatus.OPTIMAL]


@pytest.mark.parametrize("start", [True, False], ids=["started", "two-phase"])
@pytest.mark.parametrize("klass, n, rows", [("continuous", 16, 305), ("delay", 12, 325)])
def test_kernel_matches_reference_with_many_more_rows_than_columns(klass, n, rows, start, rule):
    # the condensed tableau drops the m basic columns, which here are
    # most of the full tableau's 2N + m
    lp = _design_lp(_design_plant(np.random.default_rng(59), klass, n), start=start)
    assert lp.num_constraints == rows
    sol = _assert_same_as_reference(lp)
    assert sol.status is LpStatus.OPTIMAL


@pytest.mark.parametrize("start", [True, False], ids=["started", "two-phase"])
@pytest.mark.parametrize("block", [1, 100])
def test_elimination_in_blocks_makes_the_same_pivots(monkeypatch, block, start, rule):
    # one slot (BLOCK = 1) or a few go per numpy call, so every pivot
    # of these small LPs spans several blocks, as only the largest
    # LPs' pivots do at the real BLOCK
    monkeypatch.setattr(lp_module, "BLOCK", block)
    rng = np.random.default_rng(79)
    for klass in ("continuous", "relaxed", "delay", "discrete"):
        form = "relaxed" if klass == "relaxed" else "standard"
        _assert_same_as_reference(_design_lp(_design_plant(rng, klass, 4), form, start))
    for _ in range(5):
        _assert_same_as_reference(_random_boxed_lp(rng, 4, 8))


def test_solve_never_writes_into_its_input():
    # solve builds its tableau from a transposed copy of ineq_lhs and
    # negates the rows with a negative right-hand side in it for phase 1;
    # the caller's arrays keep their bytes
    design_lp = _design_lp(_design_plant(np.random.default_rng(71), "continuous", 4))
    assert (design_lp.ineq_rhs < 0.0).any()
    square_unbounded = _lp([-1.0, 0.5], [[-1.0, 0.0], [1.0, -1.0]], [-2.0, 0.0])
    cases = [
        (design_lp, LpStatus.OPTIMAL),
        (_lp([0.0], [[1.0], [-1.0]], [-1.0, -1.0]), LpStatus.INFEASIBLE),
        (_with_loose_row(square_unbounded), LpStatus.UNBOUNDED),
        (_lp([0.0, 0.0], np.zeros((0, 2)), np.zeros(0)), LpStatus.OPTIMAL),
        # square: solved at the one vertex from solve_linear's copy
        (square_unbounded, LpStatus.UNBOUNDED),
        (_lp([1.0, 1.0], [[-1.0, 0.0], [1.0, -1.0]], [-2.0, 0.0]), LpStatus.OPTIMAL),
    ]
    for lp, status in cases:
        before = [a.copy() for a in (lp.objective, lp.ineq_lhs, lp.ineq_rhs)]
        assert solve(lp).status is status
        after = (lp.objective, lp.ineq_lhs, lp.ineq_rhs)
        assert [a.tobytes() for a in after] == [a.tobytes() for a in before]


def test_drift_in_carried_reduced_costs_changes_no_pivot(monkeypatch, rule):
    # after every pivot, move each carried reduced cost in [-EPS, DRIFT/2)
    # just below -EPS, as rounding drift might: a choice that close to
    # the threshold is priced afresh, so the pivots stay the reference's.
    # The last row of T is b, so its corner is no reduced cost.  The
    # design LPs name no start rows: the dual phase of a started solve
    # carries its prices with no fresh price, and phase 2 prices afresh
    real = lp_module._pivot

    def drifting(T, basis, nonbasic, row, slot):
        real(T, basis, nonbasic, row, slot)
        reduced = T[:-1, -1]
        near = (reduced >= -lp_module.EPS) & (reduced < lp_module.DRIFT / 2)
        reduced[near] = -2.0 * lp_module.EPS

    monkeypatch.setattr(lp_module, "_pivot", drifting)
    rng = np.random.default_rng(67)
    for klass in ("continuous", "delay"):
        plant = _design_plant(rng, klass, 6)
        _assert_same_as_reference(_assemble(plant, "standard", 1e-6, None, None))
    for _ in range(10):
        _assert_same_as_reference(_random_boxed_lp(rng, 4, 8))


def _slack_start_lp(rng, n, m):
    """Bounded LP whose origin is feasible: every row starts on its
    slack, so the solve is phase 2 alone."""
    G = rng.normal(size=(m, n))
    h = rng.uniform(0.1, 2.0, size=m)
    box = np.vstack([np.eye(n), -np.eye(n)])
    return _lp(rng.normal(size=n), np.vstack([G, box]), np.concatenate([h, 3.0 * np.ones(2 * n)]))


@pytest.mark.parametrize("phase", [1, 2])
def test_an_unbounded_verdict_on_a_carried_price_is_priced_afresh(monkeypatch, phase):
    # the first ratio test after the first pivot runs on carried reduced
    # costs; reporting no leaving row there must send the solve back to a
    # fresh price, not end the phase as unbounded
    events = []
    real_pivot, real_leaving = lp_module._pivot, lp_module._leaving_row

    def pivot(*args):
        events.append("pivot")
        real_pivot(*args)

    def leaving(*args):
        if events[-1:] == ["pivot"] and "forced" not in events:
            events.append("forced")
            return -1
        events.append("ratio")
        return real_leaving(*args)

    monkeypatch.setattr(lp_module, "_pivot", pivot)
    monkeypatch.setattr(lp_module, "_leaving_row", leaving)
    rng = np.random.default_rng(71)
    if phase == 1:
        # no start rows named: the design LP takes the two-phase path
        lp = _assemble(_design_plant(rng, "continuous", 4), "standard", 1e-6, None, None)
    else:
        lp = _slack_start_lp(rng, 4, 8)
    assert (lp.ineq_rhs < 0.0).any() == (phase == 1)
    sol = solve(lp)
    assert "forced" in events
    # the fresh price asks the same question again before any pivot
    assert events[events.index("forced") + 1] == "ratio"
    ref = linprog(
        lp.objective,
        A_ub=lp.ineq_lhs,
        b_ub=lp.ineq_rhs,
        bounds=[(None, None)] * lp.num_vars,
        method="highs",
    )
    assert sol.status is LpStatus.OPTIMAL and ref.status == 0
    assert abs(sol.objective_value - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))


def test_pivot_size_guard_keeps_a_half_pinned_relaxed_design_certified():
    # the relaxed n = 4 plant of test_kernel_matches_reference_on_design_lps
    # with about half its gain entries pinned (the last _bounds_around
    # case).  Entering by the most negative reduced cost alone takes a
    # pivot entry far below its column's largest; the rounding that
    # spreads from there leaves a dual residual of about 6.5e5
    plant = _design_plant(np.random.default_rng(47), "relaxed", 4)
    L = design(plant, ObserverSpec(form="relaxed")).L
    lo, hi = _bounds_around(np.random.default_rng(4), L)[3]
    lp = _assemble(plant, "relaxed", 1e-6, lo, hi)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    _assert_dual_certifies(lp, sol)
    ref = linprog(
        lp.objective,
        A_ub=lp.ineq_lhs,
        b_ub=lp.ineq_rhs,
        bounds=[(None, None)] * lp.num_vars,
        method="highs",
    )
    assert ref.status == 0
    assert abs(sol.objective_value - ref.fun) <= 1e-9 * abs(ref.fun)


def test_leaving_row_matches_the_scan_on_near_ties():
    # near-tie ratio sets: chains that fall, in scan order, by about one
    # tie width per row, exact duplicates, and rows a few tie widths or
    # far above the minimum, with basic-variable indices often rising so
    # that a sequential scan would keep an earlier row
    rng = np.random.default_rng(53)
    tie = 1e-12
    for _ in range(4000):
        m = int(rng.integers(1, 16))
        steps = tie * rng.choice([0.0, 0.5, 0.999, 1.0, 1.0001, 1.5, 2.0], size=m)
        ratios = rng.choice([-0.25, 0.0, 0.37, 1.0, 3.0]) + np.cumsum(steps)[::-1]
        if rng.random() < 0.3:
            ratios = rng.permutation(ratios)
        k = m - int(rng.integers(0, m)) if rng.random() < 0.5 else m
        edge = ratios.min() + (k + 1) * tie
        far = rng.random(size=m) < 0.1
        ratios[far] = edge + tie * rng.choice([-0.5, 0.0, 1e-3, 0.5, 1e6], size=far.sum())
        col = rng.choice([1.0, 0.5, 2.0], size=m)
        b = ratios * col
        col[rng.permutation(m)[k:]] = rng.choice([0.0, -1.0, 1e-10], size=m - k)
        basis = rng.permutation(3 * m)[:m]
        if rng.random() < 0.5:
            basis.sort()
        for free in (0, m):  # no free rows, or about a third of them
            got = lp_module._leaving_row(b, col, basis, free)
            assert got == _ref_leaving_row(b, col, basis, free)
    # ratio sets tied at the minimum, as on most design-LP ratio tests
    # with a tie, with rows just above the tie width, rows far above it
    # and rows that are no candidates
    for _ in range(1000):
        m = int(rng.integers(2, 16))
        ratios = np.full(m, rng.choice([0.0, 0.37, 1.0, 3.0]))
        outside = rng.random(size=m) < 0.3
        ratios[outside] += tie * rng.choice([m + 1.001, m + 2.0, 1e6], size=outside.sum())
        col = rng.choice([1.0, 0.5, 2.0, 0.0, -1.0], size=m)
        b = ratios * col
        basis = rng.permutation(3 * m)[:m]
        for free in (0, m):  # no free rows, or about a third of them
            got = lp_module._leaving_row(b, col, basis, free)
            assert got == _ref_leaving_row(b, col, basis, free)


@pytest.mark.parametrize("klass, rows", [("continuous", 649), ("delay", 1225)])
def test_design_at_n24_is_optimal_certified_and_matches_highs(klass, rows):
    plant = _design_plant(np.random.default_rng(61), klass, 24)
    lp = _design_lp(plant)
    assert lp.num_constraints == rows
    spec = ObserverSpec()
    result = design(plant, spec)
    assert result.status == "optimal"
    assert certify(result, plant, spec).passed
    ref = linprog(
        lp.objective,
        A_ub=lp.ineq_lhs,
        b_ub=lp.ineq_rhs,
        bounds=[(None, None)] * lp.num_vars,
        method="highs",
    )
    assert ref.status == 0
    assert abs(result.gamma - ref.fun) <= 1e-7 * abs(ref.fun)


# ---------------------------------------------------------------------------
# free rows: z is sign-free, so once a part of z is basic no ratio test
# can make it leave


@pytest.mark.parametrize("start", [True, False], ids=["started", "two-phase"])
@pytest.mark.parametrize("klass", ["continuous", "relaxed", "delay", "discrete"])
def test_no_pivot_of_a_design_lp_makes_a_part_of_z_leave(monkeypatch, klass, start):
    left = []  # the variable that leaves the basis at each pivot
    real = lp_module._pivot

    def recording(T, basis, nonbasic, row, slot):
        left.append(int(basis[row]))
        real(T, basis, nonbasic, row, slot)

    monkeypatch.setattr(lp_module, "_pivot", recording)
    rng = np.random.default_rng(83)
    form = "relaxed" if klass == "relaxed" else "standard"
    for n in (4, 8, 12):
        lp = _design_lp(_design_plant(rng, klass, n), form, start)
        left.clear()
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert len(left) == sol.iterations > 0
        assert min(left) >= 2 * lp.num_vars


def test_gain_lp_with_one_output_takes_one_pivot_per_row(monkeypatch):
    # the certificate LP of linf_gain_lp has n + 1 rows at q = 1, each
    # with a negative right-hand side, and n + 1 variables (lambda,
    # gamma).  Square, it starts at its one vertex; with a loose row
    # appended it takes the two-phase path, where every row but the loose
    # one starts on an artificial.  A phase-1 pivot drives out at most one
    # artificial, so n + 1 pivots is the floor.  With no part of z ever
    # leaving, every draw takes exactly that many (when a part of z could
    # leave, about one draw in five took more)
    counts = []
    real = positive.solve

    def counting(lp):
        sol = real(_with_loose_row(lp))
        counts.append((lp.num_constraints, sol.iterations))
        return sol

    monkeypatch.setattr(positive, "solve", counting)
    rng = np.random.default_rng(89)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        A, E, C, F, L0 = random_feasible_loop(rng, n, 2, 2)
        M = rng.uniform(0.0, 1.0, size=(1, n))
        positive.linf_gain_lp(A - L0 @ C, E - L0 @ F, M, 0.0)
    assert [rows for rows, _ in counts] == [pivots for _, pivots in counts]


# ---------------------------------------------------------------------------
# the square start: a square LP whose matrix solve_linear certifies
# nonsingular has one vertex, G^-1 h, and solve prices it with no pivot


def _square_lp(rng, n, optimal):
    """A random nonsingular square LP whose dual -G^-T c is positive
    (optimal) or has one negative entry (unbounded)."""
    G = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    y = rng.uniform(0.5, 2.0, size=n)
    if not optimal:
        y[rng.integers(n)] *= -1.0
    return _lp(-G.T @ y, G, rng.normal(size=n))


def test_square_lps_start_at_their_one_vertex():
    rng = np.random.default_rng(97)
    for n in range(1, 11):
        for optimal in (True, False):
            for _ in range(5):
                lp = _square_lp(rng, n, optimal)
                sol = solve(lp)
                # the sign of -G^-T c decides the status
                dual = -np.linalg.solve(lp.ineq_lhs.T, lp.objective)
                assert (dual.min() >= 0.0) == optimal
                assert sol.iterations == 0
                ref = solve(_with_loose_row(lp))
                assert sol.status is ref.status
                if not optimal:
                    assert sol.status is LpStatus.UNBOUNDED and sol.primal is None
                    continue
                assert sol.status is LpStatus.OPTIMAL
                assert ref.iterations > 0  # the vertex is not the origin
                scale = 1.0 + abs(ref.objective_value)
                assert abs(sol.objective_value - ref.objective_value) <= 1e-12 * scale
                assert np.allclose(sol.primal, ref.primal, rtol=1e-12, atol=1e-12)
                assert np.allclose(sol.dual, ref.dual[:n], rtol=1e-12, atol=1e-12)
                assert ref.dual[n] == 0.0  # the loose row's slack stays basic
                _assert_dual_certifies(lp, sol)


@pytest.mark.parametrize(
    "c, G, h, status",
    [
        # a zero row: z2 is unbounded along it, and only c decides
        ([1.0, 0.0], [[-1.0, 0.0], [0.0, 0.0]], [-3.0, 1.0], LpStatus.OPTIMAL),
        ([1.0, 1.0], [[-1.0, 0.0], [0.0, 0.0]], [-3.0, 1.0], LpStatus.UNBOUNDED),
        # 0 <= -1: a singular square LP can be infeasible
        ([1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], [1.0, -1.0], LpStatus.INFEASIBLE),
        # two equal rows: the tighter one binds
        ([-1.0, -1.0], [[1.0, 1.0], [1.0, 1.0]], [-2.0, 3.0], LpStatus.OPTIMAL),
        ([-1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [-2.0, 3.0], LpStatus.UNBOUNDED),
        # a pivot of 1e-13 against max|G| = 1: below solve_linear's floor
        ([-1.0, -1.0], [[1.0, 1.0], [1.0, 1.0 + 1e-13]], [1.0, 2.0], LpStatus.OPTIMAL),
    ],
    ids=["zero-row", "zero-row-ray", "zero-row-infeasible", "equal-rows", "equal-rows-ray",
         "ill-conditioned"],
)
def test_singular_square_lps_take_the_two_phase_path(c, G, h, status):
    lp = _lp(c, G, h)
    with pytest.raises(SingularMatrixError):
        solve_linear(lp.ineq_lhs, np.eye(2))
    assert lp_module._vertex_tableau(lp, None) is None
    sol = _assert_same_as_reference(lp)
    assert sol.status is status
    ref = linprog(
        lp.objective,
        A_ub=lp.ineq_lhs,
        b_ub=lp.ineq_rhs,
        bounds=[(None, None)] * lp.num_vars,
        method="highs",
    )
    highs_status = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 2, LpStatus.UNBOUNDED: 3}
    assert ref.status == highs_status[status]
    if status is LpStatus.OPTIMAL:
        assert abs(sol.objective_value - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))
        assert np.max(lp.ineq_lhs @ sol.primal - lp.ineq_rhs) <= 1e-9


def test_gain_lp_with_one_output_is_square_and_takes_no_pivot(monkeypatch):
    # the draws of test_gain_lp_with_one_output_takes_one_pivot_per_row:
    # each square certificate LP is solved at its one vertex, and gamma
    # and lambda are the two-phase path's up to rounding
    pairs = []
    real = positive.solve

    def both(lp):
        sol = real(lp)
        pairs.append((lp, sol, real(_with_loose_row(lp))))
        return sol

    monkeypatch.setattr(positive, "solve", both)
    rng = np.random.default_rng(89)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        A, E, C, F, L0 = random_feasible_loop(rng, n, 2, 2)
        M = rng.uniform(0.0, 1.0, size=(1, n))
        positive.linf_gain_lp(A - L0 @ C, E - L0 @ F, M, 0.0)
    assert len(pairs) == 200
    for lp, sol, ref in pairs:
        assert lp.num_constraints == lp.num_vars
        assert sol.status is ref.status is LpStatus.OPTIMAL
        assert sol.iterations == 0
        gamma = ref.objective_value
        assert abs(sol.objective_value - gamma) <= 1e-12 * (1.0 + gamma)
        assert np.allclose(sol.primal, ref.primal, rtol=1e-12, atol=0.0)
        assert sol.primal[:-1].min() > 0.0


# ---------------------------------------------------------------------------
# the started design LP: the vertex where the start rows are tight, a dual
# phase to feasibility, and the optimum read afresh at the final tight rows


def _without_start(lp):
    return LinearProgram(lp.objective, lp.ineq_lhs, lp.ineq_rhs)


def _started_design_lps():
    from test_synthesis import _assembly_cases

    cases = []
    for case in _assembly_cases():
        plant, form, epsilon, lo, hi = case.values
        lp = _assemble(plant, form, epsilon, lo, hi, start=True)
        cases.append(pytest.param(lp, id=case.id))
    for klass in ("continuous", "relaxed", "delay", "discrete", "discrete-delay"):
        form = "relaxed" if klass == "relaxed" else "standard"
        rng = np.random.default_rng(101)
        for n in (4, 8, 12, 24):
            lp = _design_lp(_design_plant(rng, klass, n), form)
            cases.append(pytest.param(lp, id=f"{klass}-{n}"))
    return cases


@pytest.mark.parametrize("lp", _started_design_lps())
def test_started_design_lps_agree_with_the_two_phase_path(lp):
    got, cold = solve(lp), solve(_without_start(lp))
    assert got.status is cold.status
    if cold.status is not LpStatus.OPTIMAL:
        return
    gamma = cold.objective_value
    assert abs(got.objective_value - gamma) <= 1e-9 * (1.0 + abs(gamma))
    worst = np.max(lp.ineq_lhs @ got.primal - lp.ineq_rhs)
    assert worst <= 1e-12 * (1.0 + np.abs(lp.ineq_rhs).max())
    _assert_dual_certifies(lp, got)


def test_the_start_names_the_coupling_rows_and_r_sign_rows_per_row_of_l():
    plant = _design_plant(np.random.default_rng(103), "continuous", 6)
    lp = _design_lp(plant)
    n, r = plant.n, plant.r
    assert lp.start.size == lp.num_vars == n + n * r + 1
    # the stability rows (right-hand side -1 - eps) and the gamma row
    # (the one row with a gamma entry), then r sign rows per row of L
    coupling = np.flatnonzero(lp.ineq_rhs < -1.0)
    gamma_row = int(np.flatnonzero(lp.ineq_lhs[:, -1])[0])
    assert set(coupling) | {gamma_row} <= set(lp.start)
    signs = np.setdiff1d(lp.start, np.append(coupling, gamma_row))
    owners = [np.flatnonzero(lp.ineq_lhs[row, n:-1]) // r for row in signs]
    assert all(np.unique(o).size == 1 for o in owners)
    assert np.bincount([o[0] for o in owners], minlength=n).tolist() == [r] * n
    # certify's LP names none
    assert _assemble(plant, "standard", 1e-6, None, None).start is None


def test_a_singular_start_falls_back_to_the_two_phase_path():
    # the start names a row and its copy: solve_linear cannot factor them
    rng = np.random.default_rng(107)
    base = _random_boxed_lp(rng, 8, 24)
    lhs = np.vstack([base.ineq_lhs, base.ineq_lhs[:1]])
    rhs = np.append(base.ineq_rhs, base.ineq_rhs[0] + 1.0)
    lp = LinearProgram(base.objective, lhs, rhs, list(range(7)) + [lhs.shape[0] - 1])
    assert lp_module.takes_start(lp.num_vars, lp.num_constraints)
    assert lp_module._vertex_tableau(lp, lp.start) is None
    got, cold = solve(lp), solve(_without_start(lp))
    assert got.iterations == cold.iterations > 0
    assert got.primal.tobytes() == cold.primal.tobytes()
    assert got.dual.tobytes() == cold.dual.tobytes()


@pytest.mark.parametrize("bound, outside", [("BLOCK", -1), ("START_MIN", 1)])
def test_an_lp_over_block_or_under_start_min_ignores_its_start(monkeypatch, bound, outside):
    lp = _design_lp(_design_plant(np.random.default_rng(109), "delay", 6))
    size = lp.num_vars * (lp.num_constraints + 1)
    cold = solve(_without_start(lp))
    monkeypatch.setattr(lp_module, bound, size + outside)
    got = solve(lp)
    assert got.iterations == cold.iterations
    assert got.primal.tobytes() == cold.primal.tobytes()
    assert got.dual.tobytes() == cold.dual.tobytes()
    # at the edge the start is taken
    monkeypatch.setattr(lp_module, bound, size)
    assert solve(lp).iterations < cold.iterations


def test_an_uncertified_optimum_falls_back_to_the_two_phase_path(monkeypatch):
    # the started pivots count too
    lp = _design_lp(_design_plant(np.random.default_rng(113), "continuous", 6))
    started = solve(lp)
    cold = solve(_without_start(lp))
    monkeypatch.setattr(lp_module, "_tight_solution", lambda lp, tight, X, iterations: None)
    got = solve(lp)
    assert got.iterations == started.iterations + cold.iterations
    assert got.primal.tobytes() == cold.primal.tobytes()


@pytest.mark.parametrize("stage", ["_dual", "_phases"])
def test_a_start_that_reaches_the_cap_falls_back_to_the_two_phase_path(monkeypatch, stage):
    # the started solve's dual phase, or its phase 2, gets a cap of the
    # pivots made so far, so its next pivot raises as a cycle would; the
    # two-phase path then solves from the slack basis, after the cap
    lp = _design_lp(_design_plant(np.random.default_rng(113), "continuous", 6))
    cap = lp_module.ITERATION_CAP * (lp.num_vars + lp.num_constraints)
    cold = solve(_without_start(lp))
    real = getattr(lp_module, stage)
    calls = []

    def capped(*args):
        if calls:  # the two-phase path's phases keep their cap
            return real(*args)
        calls.append(stage)
        try:
            return real(*args[:-2], args[-1], args[-1])
        except SolverFailureError:
            calls.append("raised")
            raise

    monkeypatch.setattr(lp_module, stage, capped)
    got = solve(lp)
    assert calls[:2] == [stage, "raised"]
    assert got.status is cold.status is LpStatus.OPTIMAL
    assert got.iterations == cap + cold.iterations
    assert got.primal.tobytes() == cold.primal.tobytes()
    assert got.dual.tobytes() == cold.dual.tobytes()


def test_start_rows_are_checked():
    G, h = np.eye(2), np.ones(2)
    for start in ([0], [0, 0], [0, 2], [-1, 0]):
        with pytest.raises(DimensionError):
            LinearProgram([1.0, 1.0], G, h, start)
    assert LinearProgram([1.0, 1.0], G, h, [1, 0]).start.tolist() == [0, 1]


def test_variables_fixed_by_two_one_entry_rows():
    # z1 <= 0 and -z1 <= 0 fix z1 at 0; 3 z2 <= 6 and -2 z2 <= -4 fix z2
    # at 2; z0 has one bound only, and z3's two bounds leave it a range
    G = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 3.0, 0.0],
        [0.0, 0.0, -2.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, -1.0],
        [1.0, 1.0, 1.0, 1.0],
    ]
    lp = _lp(np.ones(4), G, [1.0, 0.0, 0.0, 6.0, -4.0, 1.0, 0.0, 9.0])
    fixed, value = lp_module._fixed(lp)
    assert fixed.tolist() == [1, 2] and value.tolist() == [0.0, 2.0]


def test_the_tight_read_returns_only_a_certified_optimum():
    # maximize z0 + z1 subject to z0 <= 1, z1 <= 1, z0 + z1 <= 1.5, z >= 0
    lp = _lp(
        [-1.0, -1.0],
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 1.0, 1.5, 0.0, 0.0],
    )

    def read(rows):
        rows = np.array(rows)
        return lp_module._tight_solution(lp, rows, lp_module._factor(lp, rows), 7)

    sol = read([1, 2])  # the optimal vertex (0.5, 1), dual (0, 0, 1, 0, 0)
    assert sol.primal.tolist() == [0.5, 1.0] and sol.objective_value == -1.5
    assert sol.dual.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0] and sol.iterations == 7
    assert read([0, 1]) is None  # (1, 1) breaks z0 + z1 <= 1.5
    assert read([3, 4]) is None  # (0, 0) is feasible, but its dual is -1
    assert read([0, 3]) is None  # parallel rows: no vertex
