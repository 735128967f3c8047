"""Matrix primitives pinned to hand-checked values."""

import ast
from pathlib import Path

import numpy as np
import pytest

from obsynth import (
    DimensionError,
    NonFiniteError,
    SingularMatrixError,
    is_metzler,
    is_nonnegative,
    max_row_sum,
    solve_linear,
    split_pos_neg,
)
from obsynth.linalg import _eliminate, as_matrix, as_vector

from conftest import random_metzler_hurwitz


def test_as_matrix_rejects_nonfinite_and_bad_shape():
    with pytest.raises(NonFiniteError):
        as_matrix([[1.0, float("nan")]], "A")
    with pytest.raises(NonFiniteError):
        as_matrix([[float("inf")]], "A")
    with pytest.raises(DimensionError):
        as_matrix([[1.0, 2.0]], "A", (2, 2))
    with pytest.raises(DimensionError):
        as_vector([1.0, 2.0], "v", 3)


def test_is_metzler_examples():
    assert is_metzler(np.array([[-2.0, 1.0], [3.0, -5.0]]), tol=0.0)
    assert not is_metzler(np.array([[-2.0, -1.0], [3.0, -5.0]]), tol=0.0)
    assert is_metzler(np.eye(3), tol=0.0)
    with pytest.raises(DimensionError):
        is_metzler(np.zeros((2, 3)))


def test_is_metzler_closed_under_addition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = random_metzler_hurwitz(rng, 4)
        B = random_metzler_hurwitz(rng, 4)
        assert is_metzler(A + B, tol=0.0)


def test_is_nonnegative_examples():
    assert is_nonnegative(np.array([[1.0], [2.0]]))
    assert not is_nonnegative(np.array([[1.0], [-6.0]]), tol=0.0)
    assert is_nonnegative(np.zeros((3, 3)), tol=0.0)


def test_split_pos_neg_examples():
    P, N = split_pos_neg(np.array([[2.0], [0.0]]))
    assert np.array_equal(P, [[2.0], [0.0]])
    assert np.array_equal(N, [[0.0], [0.0]])
    P, N = split_pos_neg(np.array([[1.0], [-6.0]]))
    assert np.array_equal(P, [[1.0], [0.0]])
    assert np.array_equal(N, [[0.0], [6.0]])
    P, N = split_pos_neg(np.zeros((2, 2)))
    assert not P.any() and not N.any()


def test_split_pos_neg_reconstructs_exactly():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(6, 4))
    P, N = split_pos_neg(M)
    # subtraction of the parts must be bit-exact, not just close
    assert np.array_equal(P - N, M)
    assert is_nonnegative(P, tol=0.0) and is_nonnegative(N, tol=0.0)


def test_max_row_sum_examples():
    assert max_row_sum(np.array([[1.0, 0.0], [3.0 / 7.0, 0.0]])) == 1.0
    assert max_row_sum(np.eye(3)) == 1.0
    assert max_row_sum(np.array([[0.5], [0.75], [0.375]])) == 0.75


def test_max_row_sum_rejects_empty():
    with pytest.raises(DimensionError):
        max_row_sum(np.zeros((0, 0)))
    with pytest.raises(DimensionError):
        max_row_sum(np.zeros((3, 0)))
    with pytest.raises(DimensionError):
        max_row_sum(np.array([1.0, 2.0]))


def test_solve_linear_identity_returns_rhs():
    B = np.array([[1.5, -2.0], [0.0, 3.0]])
    assert np.allclose(solve_linear(np.eye(2), B), B, atol=1e-14)


def test_solve_linear_hand_checked_2x2():
    A = np.array([[-2.0, 0.0], [3.0, -7.0]])
    x = solve_linear(A, np.array([[2.0], [0.0]]))
    assert np.allclose(x, [[-1.0], [-3.0 / 7.0]], atol=1e-14)


def test_solve_linear_singular_reports_pivot():
    with pytest.raises(SingularMatrixError) as exc:
        solve_linear(np.zeros((2, 2)), np.eye(2))
    assert exc.value.pivot_index == 0
    # rank-1 matrix fails at the second pivot
    with pytest.raises(SingularMatrixError) as exc:
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))
    assert exc.value.pivot_index == 1


def test_solve_linear_residual_on_random_systems():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        B = rng.normal(size=(n, 3))
        X = solve_linear(A, B)
        res = np.max(np.abs(A @ X - B))
        assert res <= 1e-10 * (1.0 + np.max(np.abs(B)))


def test_solve_linear_matches_the_elimination_loop():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 5, 8, 13, 21, 30, 40):
        for _ in range(4):
            A = rng.normal(size=(n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
            B = rng.normal(size=(n, 3))
            want = _eliminate(A, B)
            got = solve_linear(A, B)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _second_pivot(delta):
    # Elimination leaves [[4 delta, 5/2], [0, 7/4]] below the first pivot
    # 4 = max|A|, so the second pivot is delta * max|A|.
    return np.array([[4.0, 2.0, 1.0], [2.0, 1.0 + 4.0 * delta, 3.0], [1.0, 0.5, 2.0]])


def test_solve_linear_pivot_floor_is_relative_to_the_largest_entry():
    with pytest.raises(SingularMatrixError) as exc:
        solve_linear(_second_pivot(1e-14), np.ones(3))
    assert exc.value.pivot_index == 1
    A = _second_pivot(1e-9)
    x = solve_linear(A, np.ones(3))
    assert np.max(np.abs(A @ x - 1.0)) <= 1e-6


def test_no_eigenvalue_is_computed_in_the_library():
    # Verdicts rest on certificate vectors, never on a spectrum.
    banned = {"eig", "eigvals", "eigh", "eigvalsh"}
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "obsynth").glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in banned:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
