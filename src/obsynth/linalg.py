"""Small dense linear-algebra helpers.

Everything here works on plain ``numpy`` arrays of ``float64``.  The
helpers are deliberately boring: validation, sign-pattern tests, the
positive/negative part split, row sums, and a linear solve.  The solve
runs on LAPACK and keeps its answer only when a bound on the pivots,
taken from the same factorization, proves that no pivot fell below the
tolerance.  Otherwise a pivoted Gaussian elimination decides, and on
near-singular input it reports *where* elimination broke down instead
of LAPACK's opaque error codes.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError, SingularMatrixError

# Tolerance for structural sign checks (Metzler pattern, nonnegativity).
# Entries this far on the wrong side of zero are treated as violations;
# anything closer is attributed to rounding.
STRUCTURAL_TOL = 1e-9

# A pivot is considered zero when it is below this multiple of the
# largest entry of the original matrix.
PIVOT_RTOL = 1e-12

# How far the certified pivot bound of the LAPACK solve must clear the
# pivot floor.  The bound is read from a computed inverse, whose
# relative error grows with the condition number; within this factor of
# the floor the elimination loop decides instead.
_PIVOT_MARGIN = 100.0


def as_matrix(A, name: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce ``A`` to a 2-D float array, validating finiteness and shape.

    ``name`` labels the argument in error messages.  A 1-D input of
    length ``n`` is treated as an ``n x 1`` column when ``shape`` asks
    for one column, otherwise rejected: silent broadcasting of vectors
    into rows has caused enough grief elsewhere.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim == 1 and shape is not None and shape[1] == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    if shape is not None:
        want = tuple(d for d in shape)
        got = M.shape
        if (want[0] >= 0 and got[0] != want[0]) or (want[1] >= 0 and got[1] != want[1]):
            raise DimensionError(f"{name} has shape {got}, expected {want}")
    return M


def as_vector(v, name: str, size: int = -1) -> np.ndarray:
    """Coerce ``v`` to a 1-D float array of length ``size`` (if given)."""
    x = np.asarray(v, dtype=float)
    if x.ndim == 2 and 1 in x.shape:
        x = x.reshape(-1)
    if x.ndim != 1:
        raise DimensionError(f"{name} must be a vector, got ndim={x.ndim}")
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    if size >= 0 and x.size != size:
        raise DimensionError(f"{name} has length {x.size}, expected {size}")
    return x


def is_metzler(A: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True when all off-diagonal entries of square ``A`` are >= -tol."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"Metzler test needs a square matrix, got shape {A.shape}")
    off = A - np.diag(np.diag(A))
    return bool((off >= -tol).all())


def is_nonnegative(M: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True when every entry of ``M`` is >= -tol."""
    M = np.asarray(M, dtype=float)
    return bool((M >= -tol).all())


def split_pos_neg(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``M`` into its positive and negative parts.

    Returns ``(P, N)`` with ``P = max(M, 0)``, ``N = max(-M, 0)``, both
    entrywise, so that ``P - N == M`` exactly and ``P, N >= 0``.
    """
    M = np.asarray(M, dtype=float)
    P = np.where(M > 0.0, M, 0.0)
    N = np.where(M < 0.0, -M, 0.0)
    return P, N


def max_row_sum(M: np.ndarray) -> float:
    """Largest row sum of ``M`` (the value, not the index)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"max_row_sum needs a matrix, got ndim={M.ndim}")
    if M.size == 0:
        raise DimensionError("max_row_sum of an empty matrix is undefined")
    return float(M.sum(axis=1).max())


def solve_linear(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``A X = B`` with partial pivoting.

    ``B`` may be a vector or a matrix of right-hand sides; the result
    matches its shape.  Raises :class:`SingularMatrixError` carrying the
    elimination step at which the best available pivot was smaller than
    ``PIVOT_RTOL * max|A|``.

    LAPACK solves ``A [X | Z] = [B | I]`` first.  Partial pivoting keeps
    the multipliers of ``PA = LU`` at most 1 in magnitude, and
    ``U^{-1} = A^{-1} P^T L``.  Each ``1/u_kk`` is an entry of ``U^{-1}``,
    so every pivot satisfies
    ``|u_kk| >= 1 / (||A^{-1}||_F sqrt(n(n+1)/2))``.  When that bound,
    with ``Z`` standing for ``A^{-1}``, clears the floor by
    ``_PIVOT_MARGIN``, ``X`` is returned; otherwise Gaussian elimination
    solves the system or locates the failing pivot.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"solve_linear needs a square matrix, got shape {A.shape}")
    n = A.shape[0]
    b = np.asarray(B, dtype=float)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b.reshape(-1, 1)
    if b.shape[0] != n:
        raise DimensionError(
            f"right-hand side has {b.shape[0]} rows, matrix has {n}"
        )
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NonFiniteError("solve_linear inputs contain non-finite entries")

    m = b.shape[1]
    floor = _PIVOT_MARGIN * PIVOT_RTOL * np.abs(A).max(initial=0.0)
    X = None
    # Near-singular input can overflow here; the bound then fails the
    # test and the elimination loop takes over.
    with np.errstate(all="ignore"):
        try:
            XZ = np.linalg.solve(A, np.hstack([b, np.eye(n)]))
        except np.linalg.LinAlgError:  # an exactly zero pivot
            XZ = None
        if XZ is not None and np.isfinite(XZ).all():
            bound = 1.0 / (np.linalg.norm(XZ[:, m:]) * np.sqrt(n * (n + 1) / 2))
            if bound > floor:
                X = XZ[:, :m]
    if X is None:
        X = _eliminate(A, b)
    return X.reshape(-1) if vector_rhs else X


def _eliminate(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on validated ``A``
    (n×n) and ``b`` (n×m), raising at the first pivot below the floor."""
    n = A.shape[0]
    U = A.copy()
    X = b.copy()
    scale = np.max(np.abs(A)) if n > 0 else 0.0
    pivot_floor = PIVOT_RTOL * scale
    for k in range(n):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        if abs(U[p, k]) <= pivot_floor:
            raise SingularMatrixError(
                f"matrix is singular to working precision (pivot {k})", k
            )
        if p != k:
            U[[k, p]] = U[[p, k]]
            X[[k, p]] = X[[p, k]]
        factors = U[k + 1 :, k] / U[k, k]
        U[k + 1 :, k:] -= np.outer(factors, U[k, k:])
        X[k + 1 :] -= np.outer(factors, X[k])
    for k in range(n - 1, -1, -1):
        X[k] = (X[k] - U[k, k + 1 :] @ X[k + 1 :]) / U[k, k]
    return X
