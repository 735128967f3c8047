"""Small dense linear-algebra helpers.

Everything here works on plain ``numpy`` arrays of ``float64``.  The
helpers are deliberately boring: validation, sign-pattern tests, the
positive/negative part split, row sums, and a linear solve.  The
package's one shape rule is `_shaped`, and its one sign rule is
`_sign_violations`, which `is_metzler`, `is_nonnegative` and the one
sign precondition, `_require`, read.  The solve
runs on LAPACK and keeps its answer only when a bound on the pivots,
taken from the same factorization, proves that no pivot fell below the
tolerance.  Otherwise a pivoted Gaussian elimination decides, and on
near-singular input it reports *where* elimination broke down instead
of LAPACK's opaque error codes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NonFiniteError, PreconditionError, SingularMatrixError

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


def _finite(M: np.ndarray) -> bool:
    """True when every entry of M is finite.  Counting the finite
    entries is one C call, where ``.all()`` sets up a ufunc reduction."""
    return np.count_nonzero(np.isfinite(M)) == M.size


def _shaped(M, name: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce M to a rows×cols matrix by the package's one reading rule.

    None leaves a size free, and leaving both free asks for a square
    matrix.  A scalar fills the matrix when both sizes are given (so
    N=0, L=0 or a gain bound of 0 reads naturally) and is 1×1
    otherwise.  A flat sequence runs along the one free size (an input
    map n×p is a column, an output map q×n a row) or, with both sizes
    given, along the one that is not 1 (a row when rows is 1); any
    other input that is not 2-D is rejected, as is a non-finite entry
    and a square matrix with no rows.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = np.full((1, 1) if None in (rows, cols) else (rows, cols), float(M))
    elif M.ndim == 1 and (rows is None) != (cols is None):
        M = M.reshape((-1, 1) if cols is None else (1, -1))
    elif M.ndim == 1 and 1 in (rows, cols):
        M = M.reshape((1, -1) if rows == 1 else (-1, 1))
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got ndim={M.ndim}")
    if not _finite(M):
        raise NonFiniteError(f"{name} contains non-finite entries")
    square = rows is None and cols is None
    if square:
        rows = M.shape[1]
    want = (M.shape[0] if rows is None else rows, M.shape[1] if cols is None else cols)
    if M.shape != want:
        raise DimensionError(f"{name} has shape {M.shape}, expected {want}")
    if square and not rows:
        raise DimensionError(f"{name} is a square matrix with no rows")
    return M


def as_vector(v, name: str, size: int = -1) -> np.ndarray:
    """Coerce ``v`` to a 1-D float array of length ``size`` (if given)."""
    x = np.asarray(v, dtype=float)
    if x.ndim == 2 and 1 in x.shape:
        x = x.reshape(-1)
    if x.ndim != 1:
        raise DimensionError(f"{name} must be a vector, got ndim={x.ndim}")
    if not _finite(x):
        raise NonFiniteError(f"{name} contains non-finite entries")
    if size >= 0 and x.size != size:
        raise DimensionError(f"{name} has length {x.size}, expected {size}")
    return x


def is_metzler(A: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True when all off-diagonal entries of square ``A`` are >= -tol."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"Metzler test needs a square matrix, got shape {A.shape}")
    return not _sign_violations([("A", A, True)], tol)


def is_nonnegative(M: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True when every entry of ``M`` is >= -tol."""
    return not _sign_violations([("M", np.asarray(M, dtype=float), False)], tol)


def _sign_violations(maps: list[tuple[str, np.ndarray, bool]], tol: float) -> list[str]:
    """A note for each (label, matrix, metzler) whose lowest entry, off
    the diagonal when metzler, lies more than tol below zero."""
    notes = []
    for label, P, metzler in maps:
        if metzler:
            P = P.copy()
            P.flat[:: P.shape[0] + 1] = np.inf
        if P.size and not P.min() >= -tol:  # a NaN fails too
            # plain ints print alike on numpy 1 and 2
            worst = tuple(int(k) for k in np.unravel_index(np.argmin(P), P.shape))
            kind = "is not Metzler: entry" if metzler else "has a negative entry:"
            notes.append(f"{label} {kind} {worst} is {P[worst]:.6g}")
    return notes


def _require(caller: str, maps: list[tuple[str, np.ndarray, bool]]) -> None:
    """Raise :class:`PreconditionError` "<caller> needs <Metzler|nonnegative>
    <name>" at the first (name, matrix, metzler) of maps that breaks the
    sign rule at the structural tolerance.  The maps are judged together,
    and one by one only to name the first that breaks the rule."""
    if not _sign_violations(maps, STRUCTURAL_TOL):
        return
    for name, M, metzler in maps:
        if _sign_violations([(name, M, metzler)], STRUCTURAL_TOL):
            sign = "Metzler" if metzler else "nonnegative"
            raise PreconditionError(f"{caller} needs {sign} {name}")


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
    # the pivot floor's max|A| is NaN or inf exactly when A has such an entry
    top = np.abs(A).max(initial=0.0)
    if not (math.isfinite(top) and _finite(b)):
        raise NonFiniteError("solve_linear inputs contain non-finite entries")

    m = b.shape[1]
    rhs = np.zeros((n, m + n))  # [B | I] in one array
    rhs[:, :m] = b
    rhs.flat[m :: m + n + 1] = 1.0
    floor = _PIVOT_MARGIN * PIVOT_RTOL * top
    X = None
    # Near-singular input can overflow here; the bound then fails the
    # test and the elimination loop takes over.
    with np.errstate(all="ignore"):
        try:
            XZ = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:  # an exactly zero pivot
            XZ = None
        if XZ is not None and _finite(XZ):
            # ||Z||_F summed as np.linalg.norm sums it; a norm that
            # underflows to 0 gives an infinite bound, which passes
            z = XZ[:, m:].ravel(order="K")
            scale = math.sqrt(z @ z) * math.sqrt(n * (n + 1) / 2)
            if scale == 0.0 or 1.0 / scale > floor:
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
