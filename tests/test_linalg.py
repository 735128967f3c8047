"""Matrix primitives pinned to hand-checked values."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from obsynth import (
    ContinuousSystem,
    DelaySystem,
    DimensionError,
    LinearProgram,
    NonFiniteError,
    PopulationModel,
    PreconditionError,
    SimConfig,
    SimulationError,
    SingularMatrixError,
    Trace,
    check_inclusion,
    empirical_peak_gain,
    gain_for_output,
    is_metzler,
    is_nonnegative,
    max_row_sum,
    observer_membership,
    solve_linear,
    split_pos_neg,
)
from obsynth.linalg import _eliminate, _shaped, as_vector

from conftest import random_metzler_hurwitz


def test_as_matrix_rejects_nonfinite_and_bad_shape():
    with pytest.raises(NonFiniteError):
        _shaped([[1.0, float("nan")]], "A", 1, 2)
    with pytest.raises(NonFiniteError):
        _shaped([[float("inf")]], "A")
    with pytest.raises(DimensionError):
        _shaped([[1.0, 2.0]], "A", 2, 2)
    with pytest.raises(DimensionError):
        as_vector([1.0, 2.0], "v", 3)
    # a single row or column reads as a vector; a wider array or a NaN does not
    for v in ([[1.0, 2.0, 3.0]], [[1.0], [2.0], [3.0]]):
        assert as_vector(v, "v", 3).tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(DimensionError, match=r"^v must be a vector, got ndim=2$"):
        as_vector(np.eye(2), "v")
    with pytest.raises(NonFiniteError, match=r"^v contains non-finite entries$"):
        as_vector([1.0, float("nan")], "v")


# two samples of x = 0 in [-1, 1] driven by w = 0 in [-1, 1]
_TRACE = Trace(np.array([0.0, 1.0]), *(np.full((2, 1), v) for v in (0.0, -1.0, 1.0) * 2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ContinuousSystem([["a"]], 1.0, 1.0, 0.0),
         DimensionError, "A must be a matrix of real numbers"),
        (lambda: ContinuousSystem([[-1.0, 0.0], [0.0]], 1.0, 1.0, 0.0),
         DimensionError, "A must be a matrix of real numbers"),
        (lambda: observer_membership([[-1.0]], 1.0, 1.0, 0.0, [["a"]]),
         DimensionError, "L must be a matrix of real numbers"),
        (lambda: gain_for_output([[-1.0], [0.0, 1.0]], 1.0, 1.0, 0.0, 0.0, 1.0, 0.0),
         DimensionError, "A must be a matrix of real numbers"),
        (lambda: LinearProgram(["x"], [[1.0]], [1.0]),
         DimensionError, "objective must be a vector of real numbers"),
        (lambda: as_vector("ab", "x0"), DimensionError, "x0 must be a vector of real numbers"),
        (lambda: as_vector([10**400], "x0"), DimensionError, "x0 must be a vector of real numbers"),
        (lambda: SimConfig(t_end="x", dt=0.1, x0=[0.0], x0_lo=[0.0], x0_hi=[0.0]),
         SimulationError, "t_end must be a positive real"),
        (lambda: SimConfig(t_end=1.0, dt=None, x0=[0.0], x0_lo=[0.0], x0_hi=[0.0]),
         SimulationError, "dt must lie in (0, t_end]"),
        (lambda: DelaySystem(-1.0, 0.0, 1.0, 1.0, 0.0, 0.0, h="x"),
         PreconditionError, "delay h must be finite and nonnegative"),
        (lambda: PopulationModel(["a", 1, 1], [1.0, 1.0], 1.0, [1.0, 1.0], 1.0),
         SimulationError, "decay must be positive and finite"),
        (lambda: check_inclusion(_TRACE, tol="x"),
         PreconditionError, "tol must be a nonnegative real, got 'x'"),
        (lambda: empirical_peak_gain(_TRACE, burn_in="x"),
         PreconditionError, "burn_in must be a finite real at most 1, got 'x'"),
    ],
    ids=[
        "text-matrix", "ragged-matrix", "membership", "loop-gain", "text-objective",
        "text-vector", "huge-int", "t_end", "dt", "h", "decay", "tol", "burn_in",
    ],
)
def test_unreadable_arguments_raise_package_errors(call, error, message):
    # each of these once escaped as numpy's or float()'s bare
    # ValueError or TypeError
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_is_metzler_examples():
    assert is_metzler(np.array([[-2.0, 1.0], [3.0, -5.0]]), tol=0.0)
    assert not is_metzler(np.array([[-2.0, -1.0], [3.0, -5.0]]), tol=0.0)
    assert is_metzler(np.eye(3), tol=0.0)
    with pytest.raises(DimensionError):
        is_metzler(np.zeros((2, 3)))
    # the diagonal is free, whatever it holds; off it a NaN fails
    for d in (np.inf, -np.inf, np.nan):
        assert is_metzler(np.array([[d, 1.0], [0.5, -1.0]]))
    assert not is_metzler(np.array([[-1.0, np.nan], [0.5, -1.0]]))


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


def test_solve_linear_refuses_mismatched_shapes():
    with pytest.raises(DimensionError, match=r"^solve_linear needs a square matrix, got shape \(2, 3\)$"):
        solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionError, match=r"^right-hand side has 3 rows, matrix has 2$"):
        solve_linear(np.eye(2), np.ones((3, 1)))


def test_solve_linear_singular_reports_pivot():
    with pytest.raises(SingularMatrixError) as exc:
        solve_linear(np.zeros((2, 2)), np.eye(2))
    assert exc.value.pivot_index == 0
    # rank-1 matrix fails at the second pivot
    with pytest.raises(SingularMatrixError) as exc:
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))
    assert exc.value.pivot_index == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "target, index",
    [("A", (1, 1)), ("A", (2, 0)), ("B", (1, 0))],
    ids=["A-diagonal", "A-off-diagonal", "B"],
)
def test_solve_linear_refuses_non_finite_inputs(value, target, index):
    # A's finiteness is read from the largest |A_ij| of the pivot floor
    mats = {
        "A": np.array([[-2.0, 1.0, 0.0], [3.0, -5.0, 1.0], [0.0, 1.0, -4.0]]),
        "B": np.ones((3, 2)),
    }
    mats[target][index] = value
    for rhs in (mats["B"], mats["B"][:, 0]):
        with pytest.raises(NonFiniteError, match="^solve_linear inputs contain non-finite entries$"):
            solve_linear(mats["A"], rhs)


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


LIBRARY = Path(__file__).resolve().parents[1] / "src" / "obsynth"


def _library_trees() -> list[tuple[str, ast.Module]]:
    paths = sorted(LIBRARY.glob("*.py"))
    assert paths
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in paths]


def _calls(tree: ast.AST):
    """(node, called name) for every call under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield node, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_the_public_surface_is_what_the_package_imports():
    # __all__ is sorted, names each export once, and lists exactly the
    # public names __init__ imports, so a stale export fails here
    import obsynth

    exported = obsynth.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(obsynth, name)] == []
    init = ast.parse((LIBRARY / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert set(exported) == imported


def test_no_eigenvalue_is_computed_in_the_library():
    # Verdicts rest on certificate vectors, never on a spectrum.
    banned = {"eig", "eigvals", "eigh", "eigvalsh"}
    found = []
    for name, tree in _library_trees():
        found += [f"{name}:{node.lineno} {called}" for node, called in _calls(tree) if called in banned]
    assert found == []


# the wordings a second shape rule has used for its messages
SHAPE_MESSAGES = (
    " has shape ",
    "inconsistent with",
    "must be square",
    "expected shape",
    "sizes differ",
    "row counts differ",
)


def test_only_linalg_checks_a_matrix_shape():
    # The one reading rule, linalg._shaped, is the only code that tests a
    # matrix argument's shape; readers elsewhere call it and keep no
    # shape message of their own, and as_matrix, the coercer it
    # replaced, is neither defined nor called.  The design LP is stated
    # once as well: in synthesis only _assemble builds a LinearProgram.
    found = []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if (
                name != "linalg.py"
                and isinstance(node, ast.Constant)
                and any(m in str(node.value) for m in SHAPE_MESSAGES)
            ):
                found.append(f"{name}:{node.lineno} shape message")
            elif isinstance(node, ast.FunctionDef) and node.name == "as_matrix":
                found.append(f"{name}:{node.lineno} as_matrix defined")
        found += [f"{name}:{node.lineno} as_matrix call" for node, called in _calls(tree) if called == "as_matrix"]
        if name == "synthesis.py":
            (assemble,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_assemble"]
            inside = {id(node) for node, _ in _calls(assemble)}
            found += [
                f"{name}:{node.lineno} LinearProgram outside _assemble"
                for node, called in _calls(tree)
                if called == "LinearProgram" and id(node) not in inside
            ]
    assert found == []


def test_problem_reads_every_object_through_one_reader():
    # problem._section is the one reader of a problem file's objects: it
    # checks each object's key set against a field table, and no other
    # problem code calls _check_keys.
    (tree,) = [tree for name, tree in _library_trees() if name == "problem.py"]
    (section,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_section"]
    inside = {id(node) for node, called in _calls(section) if called == "_check_keys"}
    assert inside, "_section no longer checks key sets"
    found = [
        f"problem.py:{node.lineno} _check_keys outside _section"
        for node, called in _calls(tree)
        if called == "_check_keys" and id(node) not in inside
    ]
    assert found == []


def _inside(tree: ast.AST, names: tuple[str, ...]) -> set[int]:
    """ids of the nodes within the functions of tree named in names."""
    return {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in names
        for node in ast.walk(func)
    }


def test_one_function_names_an_unknown_observer_form():
    # Plant.check_form is the one check of an observer form; ObserverSpec,
    # membership, certify and simulate call it.
    found, built = [], False
    for name, tree in _library_trees():
        inside = _inside(tree, ("check_form",)) if name == "positive.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and "unknown observer form" in str(node.value):
                built |= id(node) in inside
                if id(node) not in inside:
                    found.append(f"{name}:{node.lineno} unknown form outside check_form")
    assert built, "Plant.check_form no longer names an unknown form"
    assert found == []


# range checks of a number, not sign rules of a map
SCALAR_MESSAGES = ("delay h must be finite and nonnegative", "tol must be a nonnegative real")


def test_only_linalg_words_a_sign_precondition():
    # A map that must be Metzler or nonnegative is refused by
    # linalg._require, "<caller> needs <Metzler|nonnegative> <name>";
    # no other module words that refusal itself.
    found = []
    for name, tree in _library_trees():
        if name == "linalg.py":
            continue
        for call, called in _calls(tree):
            if called != "PreconditionError":
                continue
            for node in ast.walk(call):
                text = str(node.value) if isinstance(node, ast.Constant) else ""
                sign = "Metzler" in text or "nonnegative" in text
                if sign and not text.startswith(SCALAR_MESSAGES):
                    found.append(f"{name}:{node.lineno} {text!r}")
    assert found == []


def test_only_the_judgement_of_a_gain_reads_the_raw_sign_rule():
    # linalg._sign_violations is the one sign rule.  In positive and
    # synthesis only _admissible, the one judgement of a gain, reads its
    # notes; every other check goes through _require, is_metzler or
    # is_nonnegative.
    found = []
    for name, tree in _library_trees():
        found += [
            f"{name}:{node.lineno} _sign_violations defined"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name == "_sign_violations"
            and name != "linalg.py"
        ]
        if name in ("positive.py", "synthesis.py"):
            inside = _inside(tree, ("_admissible",))
            found += [
                f"{name}:{node.lineno} _sign_violations call"
                for node, called in _calls(tree)
                if called == "_sign_violations" and id(node) not in inside
            ]
    assert found == []


def test_no_library_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export.  Elsewhere the only unused imports
    # are names perfbench/tracer.py patches where they are looked up;
    # each carries "# noqa: F401" on its own line or on the first line
    # of its import statement.
    found = []
    for name, tree in _library_trees():
        if name == "__init__.py":
            continue
        lines = (LIBRARY / name).read_text().splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            imports = isinstance(node, (ast.Import, ast.ImportFrom))
            if not imports or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                marked = any("# noqa: F401" in lines[k - 1] for k in (node.lineno, alias.lineno))
                if bound not in used and not marked:
                    found.append(f"{name}:{alias.lineno} {bound}")
    assert found == []


def test_numpy_is_the_only_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed]
    assert found == []
