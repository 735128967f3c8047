"""Design LPs: optimal gains, infeasibility diagnostics, certification.

Pinned scalar designs are checked against values obtained by solving
the one-variable programs by hand; the generic bound-activation check
uses the analysis-side gain routine as an independent oracle.
"""

import dataclasses
import importlib

import numpy as np
import pytest

from obsynth import (
    ContinuousSystem,
    DelaySystem,
    DimensionError,
    DiscreteDelaySystem,
    DiscreteSystem,
    LinearProgram,
    NonFiniteError,
    ObserverSpec,
    PreconditionError,
    certify,
    design,
    gain_for_output,
    hurwitz_certificate,
    linf_gain,
    linf_gain_closed,
    solve,
)
from obsynth.benchmarks import CORPUS_DIR
from obsynth.problem import parse_problem
from obsynth.synthesis import (
    DIAG_NO_STABILIZER,
    DIAG_SIGN_CONFLICT,
    _assemble,
    closed_loop,
)

from conftest import random_feasible_loop, random_schur

EPS = 1e-6

CASE1 = ContinuousSystem(
    [[-2.0, 1.0], [3.0, -5.0]], [[1.0], [2.0]], [[0.0, 1.0]], [[1.0]]
)
CASE2 = ContinuousSystem(
    [[-2.0, -1.0], [3.0, -5.0]], [[1.0], [2.0]], [[0.0, 1.0]], [[1.0]]
)
CASE3 = ContinuousSystem(
    [[-2.0, -1.0], [3.0, -5.0]], [[1.0], [-6.0]], [[0.0, 1.0]], [[1.0]]
)


def _record_programs(monkeypatch) -> list:
    """The design LPs `synthesis.solve` is handed from now on."""
    import obsynth.synthesis as synthesis

    programs = []
    solve = synthesis.solve
    monkeypatch.setattr(synthesis, "solve", lambda lp: programs.append(lp) or solve(lp))
    return programs


def test_observer_spec_validation():
    with pytest.raises(PreconditionError):
        ObserverSpec(form="loose")
    with pytest.raises(PreconditionError):
        ObserverSpec(epsilon=0.0)
    with pytest.raises(PreconditionError):
        ObserverSpec(gain_lower=[[1.0]], gain_upper=[[0.0]]).bounds(1, 1)
    with pytest.raises(DimensionError):
        ObserverSpec(gain_lower=np.zeros((1, 1))).bounds(2, 1)
    lo, hi = ObserverSpec().bounds(2, 1)
    assert lo is None and hi is None
    # a number fills n×r, as it does for L; order is judged after shaping
    lo, hi = ObserverSpec(gain_lower=0.0).bounds(2, 1)
    assert np.array_equal(lo, np.zeros((2, 1))) and hi is None
    with pytest.raises(PreconditionError) as exc:
        ObserverSpec(gain_lower=1.0, gain_upper=np.zeros((2, 1))).bounds(2, 1)
    assert str(exc.value) == "gain_lower exceeds gain_upper somewhere"
    with pytest.raises(NonFiniteError) as exc:
        ObserverSpec(gain_upper=np.inf).bounds(2, 1)
    assert str(exc.value) == "gain_upper contains non-finite entries"


def test_case1_design_decouples_the_disturbance():
    result = design(CASE1, ObserverSpec())
    assert result.status == "optimal"
    assert np.max(np.abs(result.L - [[1.0], [2.0]])) <= 1e-6
    assert np.max(np.abs(CASE1.E - result.L @ CASE1.F)) <= 1e-9
    assert result.gamma <= 4.0 * EPS
    assert np.all(result.X_diag > 0.0)
    # certificate consistency: U = diag(x) L
    assert np.allclose(result.X_diag[:, None] * result.L, result.U, atol=1e-12)

    report = certify(result, CASE1, ObserverSpec())
    assert report.passed and report.flags == []
    assert report.gamma_independent <= 1e-9


def test_case2_design():
    result = design(CASE2, ObserverSpec())
    assert result.status == "optimal"
    assert np.max(np.abs(result.L - [[-1.0], [2.0]])) <= 1e-6
    assert abs(result.gamma - 10.0 / 7.0) <= 1e-4

    report = certify(result, CASE2, ObserverSpec())
    assert report.passed
    assert abs(report.gamma_independent - 10.0 / 7.0) <= 1e-9


@pytest.mark.parametrize("epsilon", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("e_matrix", [[[1.0], [-6.0]], [[0.0], [-6.0]]])
def test_case3_is_structurally_infeasible(epsilon, e_matrix):
    sys = ContinuousSystem(CASE2.A, e_matrix, CASE2.C, CASE2.F)
    result = design(sys, ObserverSpec(epsilon=epsilon))
    assert result.status == "infeasible"
    assert result.diagnostic == DIAG_SIGN_CONFLICT
    assert "E - L F" in result.diagnostic


def test_no_stabilizer_diagnostic():
    # nothing measurable: A - L C = A stays unstable for every L
    sys = ContinuousSystem([[1.0]], [[1.0]], [[0.0]], [[0.0]])
    result = design(sys, ObserverSpec())
    assert result.status == "infeasible"
    assert result.diagnostic == DIAG_NO_STABILIZER


def test_relaxed_design_runs_into_the_gain_bound():
    spec = ObserverSpec(
        form="relaxed",
        gain_lower=-10.0 * np.ones((2, 1)),
        gain_upper=10.0 * np.ones((2, 1)),
    )
    result = design(CASE1, spec)
    assert result.status == "optimal"
    assert abs(result.L[0, 0] - 1.0) <= 1e-6
    assert abs(result.L[1, 0] - 10.0) <= 1e-9
    Acl = CASE1.A - result.L @ CASE1.C
    assert hurwitz_certificate(Acl) is not None
    # surrogate loop with identity input matrix
    surrogate = linf_gain_closed(Acl, np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert abs(surrogate - 0.5) <= 1e-12
    assert abs(result.gamma - (2.0 / 3.0) * (1.0 + EPS) - EPS) <= 1e-9

    report = certify(result, CASE1, spec)
    assert report.passed


def test_relaxed_design_ignores_the_disturbance_matrix():
    spec = ObserverSpec(
        form="relaxed",
        gain_lower=-10.0 * np.ones((2, 1)),
        gain_upper=10.0 * np.ones((2, 1)),
    )
    a = design(CASE2, spec)
    b = design(CASE3, spec)  # same A, sign-indefinite E
    assert b.status == "optimal"
    assert a.L.tobytes() == b.L.tobytes()
    assert a.gamma == b.gamma


def test_relaxed_scalar_pinned_gain():
    sys = ContinuousSystem([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    spec = ObserverSpec(
        form="relaxed", gain_lower=np.zeros((1, 1)), gain_upper=np.zeros((1, 1))
    )
    result = design(sys, spec)
    assert result.status == "optimal"
    assert abs(result.L[0, 0]) <= 1e-12
    # x >= 1 + eps from stability, gamma >= x + eps from the gain row
    assert abs(result.gamma - (1.0 + 2.0 * EPS)) <= 1e-9


def test_design_names_are_design_itself():
    # perfbench patches and calls these names; they are design, not wrappers
    for module in ("obsynth.synthesis", "obsynth.benchmarks"):
        for name in ("design_ct", "design_relaxed", "design_delay", "design_dt"):
            assert getattr(importlib.import_module(module), name) is design, (module, name)


def test_delay_reduction_is_bit_identical(monkeypatch):
    programs = _record_programs(monkeypatch)
    zero2 = np.zeros((2, 2))
    dsys = DelaySystem(CASE2.A, zero2, CASE2.E, CASE2.C, np.zeros((1, 2)), CASE2.F, 1.0)
    a = design(dsys, ObserverSpec())
    b = design(CASE2, ObserverSpec())
    # the vanishing delayed family adds no row
    assert programs[0].ineq_lhs.tobytes() == programs[1].ineq_lhs.tobytes()
    assert a.L.tobytes() == b.L.tobytes()
    assert a.gamma == b.gamma
    assert a.X_diag.tobytes() == b.X_diag.tobytes()
    assert a.U.tobytes() == b.U.tobytes()


def _scalar_delay(F_value, h=1.0):
    return DelaySystem(
        [[-3.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[F_value]], h
    )


def test_delay_scalar_pinned_gain():
    pin = ObserverSpec(gain_lower=np.zeros((1, 1)), gain_upper=np.zeros((1, 1)))
    result = design(_scalar_delay(0.0), pin)
    assert result.status == "optimal"
    assert abs(result.gamma - 0.5) <= 1e-4
    # the certified objective has no feedthrough term, so a nonzero F
    # does not move a pinned optimum; it only tightens E - L F
    result = design(_scalar_delay(1.0), pin)
    assert abs(result.gamma - 0.5) <= 1e-4
    assert abs(
        result.gamma
        - gain_for_output(
            np.array([[-3.0]]) + np.array([[1.0]]),
            [[1.0]],
            [[1.0]],
            [[1.0]],
            np.zeros((1, 1)),
            np.ones((1, 1)),
            np.zeros((1, 1)),
        )
    ) <= 2.0 * EPS * (1.0 + 0.5)


def test_delay_design_is_h_independent():
    results = [
        design(_scalar_delay(0.0, h), ObserverSpec()) for h in (0.1, 1.0, 10.0)
    ]
    assert len({r.L.tobytes() for r in results}) == 1
    assert len({r.gamma for r in results}) == 1


def test_delayed_family_keeps_its_diagonal():
    # A_h - L C_h >= 0 caps L at 1 through its diagonal row; without
    # that row L would grow without bound and gamma fall toward eps
    dsys = DelaySystem([[-3.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[0.0]], 1.0)
    result = design(dsys, ObserverSpec())
    assert result.status == "optimal"
    assert abs(result.L[0, 0] - 1.0) <= 1e-9
    assert abs(result.gamma - ((1.0 + EPS) / 3.0 + EPS)) <= 1e-12
    assert certify(result, dsys, ObserverSpec()).passed


def test_delay_certify():
    dsys = _scalar_delay(0.0)
    spec = ObserverSpec(gain_lower=np.zeros((1, 1)), gain_upper=np.zeros((1, 1)))
    result = design(dsys, spec)
    report = certify(result, dsys, spec)
    assert report.passed
    assert abs(report.gamma_independent - 0.5) <= 1e-12


def test_dt_scalar_design():
    sys = DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    result = design(sys, ObserverSpec())
    assert result.status == "optimal"
    # closed loop pushed to deadbeat: A_d - L C_d = 0, E_d - L F_d = 1/2
    assert abs(result.L[0, 0] - 0.5) <= 1e-4
    assert abs(result.gamma - 0.5) <= 1e-4
    assert certify(result, sys, ObserverSpec()).passed


def test_dt_static_map():
    sys = DiscreteSystem([[0.0]], [[1.0, 2.0]], [[0.0]], [[0.0, 0.0]])
    result = design(sys, ObserverSpec())
    assert result.status == "optimal"
    # nothing to stabilize and no feedthrough: the aggregate gain is
    # the full mass of E_d
    assert abs(result.gamma - 3.0) <= 1e-4


def test_dt_without_measurement_matches_analysis_gain():
    A_d = np.array([[0.5, 0.2], [0.1, 0.4]])
    E_d = np.array([[1.0], [1.0]])
    sys = DiscreteSystem(A_d, E_d, np.zeros((1, 2)), np.zeros((1, 1)))
    result = design(sys, ObserverSpec())
    assert result.status == "optimal"
    assert np.max(np.abs(result.L)) <= 1e-9
    oracle = linf_gain_closed(
        A_d - np.eye(2), E_d, np.ones((1, 2)), np.zeros((1, 1))
    )
    assert abs(oracle - 5.0) <= 1e-12  # (I - A_d)^{-1} E summed by hand
    assert abs(result.gamma - oracle) <= 2.0 * EPS * (1.0 + oracle)


def test_dt_delay_reduction_and_scalar():
    sys = DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    a = design(
        DiscreteDelaySystem([[0.5]], [[0.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]]),
        ObserverSpec(),
    )
    b = design(sys, ObserverSpec())
    assert a.L.tobytes() == b.L.tobytes()
    assert a.gamma == b.gamma

    pin = ObserverSpec(gain_lower=np.zeros((1, 1)), gain_upper=np.zeros((1, 1)))
    dsys = DiscreteDelaySystem([[0.3]], [[0.2]], [[1.0]], [[1.0]], [[0.0]], [[0.0]])
    result = design(dsys, pin)
    assert result.status == "optimal"
    assert abs(result.gamma - 2.0) <= 1e-4
    assert certify(result, dsys, pin).passed


def test_dt_delay_unstable_sum_is_infeasible():
    result = design(
        DiscreteDelaySystem([[0.6]], [[0.5]], [[1.0]], [[0.0]], [[0.0]], [[0.0]]),
        ObserverSpec(),
    )
    assert result.status == "infeasible"
    assert result.diagnostic == DIAG_NO_STABILIZER


def _lifted(sys, d):
    """A discrete-delay plant as a DiscreteSystem on the stacked state
    [x(k); x(k-1); ...; x(k-d)]: its delayed state is a state of the
    lift, whose gain and design need no zero-delay aggregate."""
    n = sys.n
    A = np.zeros((n * (d + 1), n * (d + 1)))
    A[:n, :n] = sys.A_d
    A[:n, -n:] = sys.A_dh
    A[n:, :-n] = np.eye(n * d)  # each block takes the one above it
    E = np.vstack([sys.E_d, np.zeros((n * d, sys.p))])
    C = np.hstack([sys.C_d, np.zeros((sys.r, n * (d - 1))), sys.C_dh])
    return DiscreteSystem(A, E, C, sys.F_d)


def test_discrete_delay_gain_and_design_match_the_lifted_plant():
    rng = np.random.default_rng(89)
    p, r = 2, 3
    for _ in range(12):
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        # a positive Schur loop, split between the current and the delayed state
        W = random_schur(rng, n)
        share = rng.uniform(0.2, 0.8, size=(n, n))
        C, C_h = rng.uniform(0.0, 1.0, size=(r, n)), rng.uniform(0.0, 0.5, size=(r, n))
        F = rng.uniform(0.0, 0.5, size=(r, p))
        Bcl = rng.uniform(0.0, 1.0, size=(n, p))
        Cz, Fz = rng.uniform(0.0, 1.0, size=(2, n)), rng.uniform(0.0, 1.0, size=(2, p))

        loop = DiscreteDelaySystem(share * W, (1.0 - share) * W, Bcl, C, C_h, F)
        want = linf_gain(_lifted(loop, d), np.hstack([Cz, np.zeros((2, n * d))]), Fz)
        assert abs(linf_gain(loop, Cz, Fz) - want) <= 1e-12 * want

        # the plant whose admissible gains include L0, designed both ways;
        # the lift's gain is L on x(k) and 0 on the shift rows
        L0 = rng.uniform(-0.5, 0.5, size=(n, r))
        plant = DiscreteDelaySystem(
            loop.A_d + L0 @ C, loop.A_dh + L0 @ C_h, Bcl + L0 @ F, C, C_h, F
        )
        aggregate = design(plant, ObserverSpec())
        bound = np.zeros((n * (d + 1), r))
        bound[:n] = 1e3
        spec = ObserverSpec(gain_lower=-bound, gain_upper=bound)
        lift = _lifted(plant, d)
        lifted = design(lift, spec)
        assert aggregate.status == lifted.status == "optimal"
        assert np.max(np.abs(lifted.L[:n] - aggregate.L)) <= 1e-10
        assert not lifted.L[n:].any()
        # at a constant worst-case input every block of the lift's error
        # settles where the aggregate's does, so the lift sums d + 1 copies
        gamma = aggregate.gamma
        assert abs(lifted.gamma / (d + 1) - gamma) <= 1e-6 * (1.0 + gamma)
        assert certify(lifted, lift, spec).passed


def test_bound_activation_matches_analysis_gain():
    rng = np.random.default_rng(67)
    for _ in range(10):
        A, E, C, F, L0 = random_feasible_loop(rng, 3, 2, 1)
        sys = ContinuousSystem(A, E, C, F)
        spec = ObserverSpec(gain_lower=L0, gain_upper=L0)
        result = design(sys, spec)
        assert result.status == "optimal"
        assert np.max(np.abs(result.L - L0)) <= 1e-8
        true_gain = gain_for_output(
            A, E, C, F, L0, np.ones((1, 3)), np.zeros((1, 2))
        )
        assert abs(result.gamma - true_gain) <= 2.0 * EPS * (1.0 + true_gain)
        assert certify(result, sys, spec).passed


def test_certify_flags_a_tampered_gain():
    result = design(CASE1, ObserverSpec())
    result.L = result.L + 1.0
    report = certify(result, CASE1, ObserverSpec())
    assert not report.passed
    assert any("Metzler" in flag for flag in report.flags)
    assert any("X^{-1} U" in flag for flag in report.flags)


def test_certify_flags_a_tampered_objective():
    result = design(CASE2, ObserverSpec())
    result.gamma = result.gamma / 2.0
    report = certify(result, CASE2, ObserverSpec())
    assert not report.passed


def test_certify_and_closed_loop_name_a_wrong_shape():
    result = design(CASE1, ObserverSpec())
    wider = ContinuousSystem(-np.eye(3), np.ones((3, 1)), np.ones((1, 3)), [[0.0]])
    cases = [
        (lambda: certify(result, wider, ObserverSpec()), "L has shape (2, 1), expected (3, 1)"),
        (lambda: closed_loop(CASE1, np.zeros((3, 1))), "L has shape (3, 1), expected (2, 1)"),
    ]
    for field, wrong, message in (
        ("U", np.zeros((1, 2)), "U has shape (1, 2), expected (2, 1)"),
        ("X_diag", np.ones(3), "X_diag has length 3, expected 2"),
    ):
        tampered = dataclasses.replace(result, **{field: wrong})
        cases.append((lambda t=tampered: certify(t, CASE1, ObserverSpec()), message))
    for call, message in cases:
        with pytest.raises(DimensionError) as exc:
            call()
        assert str(exc.value) == message


def test_certify_rejects_infeasible_results():
    result = design(CASE3, ObserverSpec())
    with pytest.raises(PreconditionError):
        certify(result, CASE3, ObserverSpec())


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("gamma", float("nan"), "certify needs a finite real gamma"),
        ("gamma", float("inf"), "certify needs a finite real gamma"),
        ("gamma", -float("inf"), "certify needs a finite real gamma"),
        ("gamma", None, "certify needs a finite real gamma"),
        ("epsilon", 0.0, "epsilon must be a positive real"),
        ("epsilon", -1.0, "epsilon must be a positive real"),
        ("epsilon", None, "epsilon must be a positive real"),
        ("epsilon", "x", "epsilon must be a positive real"),
    ],
)
def test_certify_refuses_a_gamma_or_epsilon_it_cannot_judge(field, value, message):
    # a NaN gamma or a zero margin fails no comparison, so each would
    # otherwise pass every check of a sound design
    result = design(CASE1, ObserverSpec())
    assert certify(result, CASE1, ObserverSpec()).passed
    tampered = dataclasses.replace(result, **{field: value})
    with pytest.raises(PreconditionError) as exc:
        certify(tampered, CASE1, ObserverSpec())
    assert str(exc.value) == message


# three-stage chain: recruitment disturbs stage one, stage three is
# measured, and only its gain entry affects the optimum
POPULATION = ContinuousSystem(
    [[-2.0, 0.0, 0.0], [3.0, -2.0, 0.0], [0.0, 4.0, -3.0]],
    [[1.0], [0.0], [0.0]],
    [[0.0, 0.0, 1.0]],
    [[0.0]],
)
POPULATION_SPEC = ObserverSpec(
    gain_lower=-5.0 * np.ones((3, 1)), gain_upper=5.0 * np.ones((3, 1))
)


def test_population_design():
    sys, spec = POPULATION, POPULATION_SPEC
    A, E, C, F = sys.A, sys.E, sys.C, sys.F
    result = design(sys, spec)
    assert result.status == "optimal"
    assert np.max(np.abs(result.L - [[0.0], [0.0], [5.0]])) <= 1e-6
    gain = gain_for_output(A, E, C, F, result.L, np.eye(3), np.zeros((3, 1)))
    assert abs(gain - 0.75) <= 1e-9
    report = certify(result, sys, spec)
    assert report.passed
    assert abs(report.gamma_independent - 13.0 / 8.0) <= 1e-9


def test_design_lp_keeps_only_rows_that_can_bind(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    programs = _record_programs(monkeypatch)
    result = design(POPULATION, POPULATION_SPEC)
    assert result.status == "optimal"
    assert certify(result, POPULATION, POPULATION_SPEC).passed
    (lp,) = programs
    # C = e3^T: a sign row of column 1 or 2 reads P_ij x_i >= 0, implied
    # by x_i >= eps, so the Metzler family keeps (1, 3) and (2, 3) and
    # E - L F (F = 0, E >= 0) keeps none; then 3 stability rows, the
    # gamma row, 3 rows x_i >= eps and 6 gain-bound rows (22 rows if
    # every sign row were kept)
    assert lp.num_constraints == 2 + 0 + 3 + 1 + 3 + 6
    oracle = optimize.linprog(
        lp.objective, A_ub=lp.ineq_lhs, b_ub=lp.ineq_rhs,
        bounds=(None, None), method="highs",
    )
    assert oracle.status == 0
    assert abs(result.gamma - oracle.fun) <= 1e-9 * abs(oracle.fun)


@pytest.mark.parametrize(
    "sys, diagnostic",
    [
        # (A - L C)_12 = -1 whatever L is: a kept Metzler row
        (ContinuousSystem([[-1.0, -1.0], [0.0, -2.0]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]]),
         DIAG_NO_STABILIZER),
        # E - L F = -1 whatever L is, while A - L C is stable: a kept input row
        (ContinuousSystem([[-1.0]], [[-1.0]], [[1.0]], [[0.0]]), DIAG_SIGN_CONFLICT),
    ],
)
def test_sign_rows_with_a_zero_q_column_keep_their_conflict(sys, diagnostic):
    result = design(sys, ObserverSpec())
    assert result.status == "infeasible"
    assert result.diagnostic == diagnostic


def _random_design_problem(rng, kind):
    """A plant of one of the four types with a spec, perturbed so that
    many designs are infeasible for either reason."""
    n, p, r = 3, 2, 2
    A, E, C, F, L0 = random_feasible_loop(rng, n, p, r)
    if kind.startswith("discrete"):
        A = random_schur(rng, n) + L0 @ C
    E = np.where(rng.random(E.shape) < 0.3, -rng.uniform(0.1, 1.0, E.shape), E)
    C = C * (rng.random(n) > 0.3)  # some states unmeasured
    A = A + rng.choice([0.0, 1.0]) * rng.uniform(0.5, 2.0) * np.eye(n)
    if kind == "continuous":
        sys = ContinuousSystem(A, E, C, F)
    elif kind == "delay":
        A_h = 0.3 * np.clip(A - np.diag(np.diag(A)), 0.0, None)
        sys = DelaySystem(A - A_h, A_h, E, 0.5 * C, 0.5 * C, F, 1.0)
    elif kind == "discrete":
        sys = DiscreteSystem(A, E, C, F)
    else:
        sys = DiscreteDelaySystem(0.6 * A, 0.4 * A, E, 0.5 * C, 0.5 * C, F)
    bound = rng.choice([None, 0.5])
    lo, hi = (None, None) if bound is None else (L0 - bound, L0 + bound)
    return sys, ObserverSpec(gain_lower=lo, gain_upper=hi)


def test_infeasibility_diagnostic_matches_highs_on_the_stabilizability_rows():
    # The diagnostic is a sign conflict exactly when the rows that do not
    # involve gamma in the relaxed LP (every requirement but E - L F >= 0
    # and the gain rows) are feasible; HiGHS decides that independently.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1511)
    seen = {DIAG_SIGN_CONFLICT: set(), DIAG_NO_STABILIZER: set()}
    for i in range(160):
        kind = ("continuous", "delay", "discrete", "discrete-delay")[i % 4]
        sys, spec = _random_design_problem(rng, kind)
        result = design(sys, spec)
        if result.status == "optimal":
            continue
        lp = _assemble(sys, "relaxed", spec.epsilon, *spec.bounds(sys.n, sys.r))
        rows = lp.ineq_lhs[:, -1] == 0.0
        oracle = optimize.linprog(
            np.zeros(lp.num_vars), A_ub=lp.ineq_lhs[rows], b_ub=lp.ineq_rhs[rows],
            bounds=(None, None), method="highs",
        )
        assert oracle.status in (0, 2)
        assert result.diagnostic == (DIAG_SIGN_CONFLICT if oracle.status == 0 else DIAG_NO_STABILIZER)
        seen[result.diagnostic].add(kind)
    assert all(len(kinds) == 4 for kinds in seen.values()), seen


def test_design_rejects_unknown_plants_and_mismatched_certify():
    with pytest.raises(PreconditionError):
        design(object(), ObserverSpec())
    with pytest.raises(PreconditionError):
        design(_scalar_delay(0.0), ObserverSpec(form="relaxed"))
    result = design(CASE2, ObserverSpec())
    with pytest.raises(PreconditionError):
        certify(result, _scalar_delay(0.0), ObserverSpec())


@pytest.mark.parametrize("system", [CASE1, _scalar_delay(0.0)], ids=["continuous", "delay"])
def test_certify_refuses_an_unknown_form(system):
    # the form is judged before any plant type reads it as standard
    result = dataclasses.replace(design(system, ObserverSpec()), form="bogus")
    with pytest.raises(PreconditionError) as exc:
        certify(result, system, ObserverSpec())
    assert str(exc.value) == "unknown observer form 'bogus'"


def test_discrete_delay_system_validation():
    with pytest.raises(DimensionError):
        DiscreteDelaySystem(np.eye(2), np.eye(3), [[1.0], [1.0]], [[1.0, 0.0]], [[0.0, 0.0]], [[0.0]])
    with pytest.raises(DimensionError):
        DiscreteDelaySystem(np.eye(2), np.eye(2), [[1.0], [1.0]], [[1.0, 0.0]], np.zeros((2, 2)), [[0.0]])
    sys = DiscreteDelaySystem(0.5 * np.eye(2), 0.1 * np.eye(2), [1.0, 1.0], [1.0, 0.0], [0.0, 0.0], 0.0)
    assert (sys.n, sys.p, sys.r) == (2, 1, 1)


def test_relaxed_certify_accepts_nearly_metzler_loops():
    # the first ten n=4 draws are perfbench's continuous plants, the next
    # ten its relaxed ones; several of those leave A - L C with
    # off-diagonal entries a hair below zero at the optimum
    rng = np.random.default_rng(4)
    draws = [random_feasible_loop(rng, 4, 2, 3) for _ in range(20)]
    spec = ObserverSpec(form="relaxed")
    for A, E, C, F, _ in draws[10:]:
        sys = ContinuousSystem(A, E, C, F)
        result = design(sys, spec)
        assert result.status == "optimal"
        report = certify(result, sys, spec)
        assert report.passed, report.flags


@pytest.mark.parametrize("n", [16, 24])
def test_design_lp_at_scale_matches_highs(n, monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    programs = _record_programs(monkeypatch)
    p, r = 2, 3
    rng = np.random.default_rng(n)
    for _ in range(2):
        A, E, C, F, _ = random_feasible_loop(rng, n, p, r)
        sys = ContinuousSystem(A, E, C, F)
        result = design(sys, ObserverSpec())
        assert result.status == "optimal"
        assert certify(result, sys, ObserverSpec()).passed
        lp = programs[-1]
        # x, U and gamma; off-diagonal Metzler, E - L F, stability, the
        # gamma row and X_ii >= eps
        assert lp.num_vars == n + n * r + 1
        assert lp.num_constraints == n * (n - 1) + n * p + 2 * n + 1
        oracle = optimize.linprog(
            lp.objective, A_ub=lp.ineq_lhs, b_ub=lp.ineq_rhs,
            bounds=(None, None), method="highs",
        )
        assert oracle.status == 0
        assert abs(result.gamma - oracle.fun) <= 1e-9 * abs(oracle.fun)


# ---------------------------------------------------------------------------
# the plant reduction, against the per-type builders it replaced


def _ref_ct(sys, form):
    if form == "standard":
        E, F, input_label = sys.E, sys.F, "E - L F"
    else:
        E, F, input_label = np.eye(sys.n), np.zeros((sys.r, sys.n)), None
    return (
        "continuous", [("A - L C", sys.A, sys.C, True)],
        sys.A, sys.C, E, F, input_label,
    )


def _ref_delay(sys, form):
    families = [
        ("A - L C", sys.A, sys.C, True),
        ("A_h - L C_h", sys.A_h, sys.C_h, False),
    ]
    return (
        "delay", families,
        sys.A + sys.A_h, sys.C + sys.C_h, sys.E, sys.F, "E - L F",
    )


def _ref_dt(sys, form):
    return (
        "discrete", [("A_d - L C_d", sys.A_d, sys.C_d, False)],
        sys.A_d - np.eye(sys.n), sys.C_d, sys.E_d, sys.F_d, "E_d - L F_d",
    )


def _ref_dt_delay(sys, form):
    families = [
        ("A_d - L C_d", sys.A_d, sys.C_d, False),
        ("A_dh - L C_dh", sys.A_dh, sys.C_dh, False),
    ]
    return (
        "discrete-delay", families,
        sys.A_d + sys.A_dh - np.eye(sys.n), sys.C_d + sys.C_dh, sys.E_d, sys.F_d,
        "E_d - L F_d",
    )


def test_plant_reduction_matches_the_per_type_builders():
    rng = np.random.default_rng(1511)
    for _ in range(6):
        n, p, r = (int(k) for k in rng.integers(1, 5, size=3))
        A, A_h = rng.uniform(-1.0, 1.0, size=(2, n, n))
        E = rng.uniform(-1.0, 1.0, size=(n, p))
        C, C_h = rng.uniform(-1.0, 1.0, size=(2, r, n))
        F = rng.uniform(-1.0, 1.0, size=(r, p))
        cases = [
            (ContinuousSystem(A, E, C, F), "standard", _ref_ct),
            (ContinuousSystem(A, E, C, F), "relaxed", _ref_ct),
            (DelaySystem(A, A_h, E, C, C_h, F, 1.0), "standard", _ref_delay),
            (DiscreteSystem(A, E, C, F), "standard", _ref_dt),
            (DiscreteDelaySystem(A, A_h, E, C, C_h, F), "standard", _ref_dt_delay),
        ]
        for sys, form, reference in cases:
            kind, families, S, T, E_ref, F_ref, input_label = reference(sys, form)
            assert sys.KIND == kind
            got = sys.sign_families()
            assert [(f[0], f[3]) for f in got] == [(f[0], f[3]) for f in families]
            for (_, P, Q, _), (_, P_ref, Q_ref, _) in zip(got, families):
                assert np.array_equal(P, P_ref) and np.array_equal(Q, Q_ref)
            S_got, T_got = sys.stability_pair()
            assert np.array_equal(S_got, S) and np.array_equal(T_got, T)
            E_got, F_got, inputs = sys.loop_input(form)
            assert np.array_equal(E_got, E_ref) and np.array_equal(F_got, F_ref)
            if input_label is None:
                assert inputs == []
            else:
                [(label, P, Q, metzler)] = inputs
                assert (label, metzler) == (input_label, False)
                assert np.array_equal(P, E_ref) and np.array_equal(Q, F_ref)


@pytest.mark.parametrize(
    "system, message",
    [
        (_scalar_delay(0.0), "delay design supports the standard form only"),
        (DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]]),
         "discrete design supports the standard form only"),
        (DiscreteDelaySystem([[0.3]], [[0.2]], [[1.0]], [[1.0]], [[0.0]], [[0.0]]),
         "discrete-delay design supports the standard form only"),
        (object(), "cannot design for a object; expected one of ContinuousSystem, "
         "DelaySystem, DiscreteSystem, DiscreteDelaySystem"),
    ],
)
def test_design_refusals_name_the_plant_type(system, message):
    with pytest.raises(PreconditionError) as exc:
        design(system, ObserverSpec(form="relaxed"))
    assert str(exc.value) == message


def test_certify_names_a_failing_delayed_family():
    dsys = DelaySystem([[-3.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[0.0]], 1.0)
    result = design(dsys, ObserverSpec())
    result.L = result.L + 0.5  # A_h - L C_h becomes -1/2
    report = certify(result, dsys, ObserverSpec())
    assert not report.passed
    assert any(flag.startswith("A_h - L C_h") for flag in report.flags)


def test_certify_names_a_failing_discrete_family():
    sys = DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    result = design(sys, ObserverSpec())
    result.L = result.L + 0.5  # A_d - L C_d becomes about -1/2
    report = certify(result, sys, ObserverSpec())
    assert not report.passed
    assert any(flag.startswith("A_d - L C_d") for flag in report.flags)


# ---------------------------------------------------------------------------
# the scattered design LP against the block-stacked one it replaced


def _per_entry(W):
    """One row per entry (i, j) of W, row-major, holding W_ij in column i."""
    return np.repeat(np.eye(W.shape[0]), W.shape[1], axis=0) * W.reshape(-1, 1)


def _reference_assemble(plant, form, epsilon, lo, hi):
    """The design LP stacked from one block per constraint family: a sign
    row (X P - U Q)_ij >= 0 has x part -P_ij e_i and U part row (i, j) of
    kron(I_n, Q^T), then come the stability rows, the gamma row, x >= eps
    and the gain bounds."""
    n, r = plant.n, plant.r
    S, T = plant.stability_pair()
    E, F, inputs = plant.loop_input(form)
    blocks = []  # (x part, U part, gamma coefficient, rhs)
    for _, P, Q, metzler in plant.sign_families() + inputs:
        keep = (P < 0.0) | np.any(Q != 0.0, axis=0)
        if metzler:
            keep &= ~np.eye(n, dtype=bool)
        keep = keep.reshape(-1)
        blocks.append((_per_entry(-P)[keep], np.kron(np.eye(n), Q.T)[keep], 0.0, 0.0))
    blocks.append((S.T, np.tile(-T.T, n), 0.0, -1.0 - epsilon))
    ones = np.ones(E.shape[1])
    blocks.append(([E @ ones], [np.tile(-(F @ ones), n)], -1.0, -epsilon))
    blocks.append((-np.eye(n), np.zeros((n, n * r)), 0.0, -epsilon))
    for B, sign in ((lo, 1.0), (hi, -1.0)):
        if B is not None:
            blocks.append((_per_entry(sign * B), -sign * np.eye(n * r), 0.0, 0.0))
    lhs = np.vstack([np.column_stack([x, u, np.full(len(x), g)]) for x, u, g, _ in blocks])
    rhs = np.concatenate([np.full(len(x), b) for x, _, _, b in blocks])
    objective = np.zeros(lhs.shape[1])
    objective[-1] = 1.0
    return LinearProgram(objective, lhs, rhs)


def _assembly_cases():
    """(plant, form, epsilon, lo, hi) for every plant type, in both forms
    where the type takes them, with no bounds, lower only, upper only,
    both, and both with pinned entries; then every corpus file with its
    own bounds."""
    rng = np.random.default_rng(2121)
    cases = []
    for kind in ("continuous", "delay", "discrete", "discrete-delay"):
        for draw in range(3):
            sys, _ = _random_design_problem(rng, kind)
            L = rng.uniform(-1.0, 1.0, size=(sys.n, sys.r))
            lo, hi = L - 0.5, L + 0.5
            pinned = rng.random(L.shape) < 0.5
            bounds = {
                "unbounded": (None, None),
                "lower": (lo, None),
                "upper": (None, hi),
                "both": (lo, hi),
                "pinned": (np.where(pinned, L, lo), np.where(pinned, L, hi)),
            }
            for form in ("standard", "relaxed") if kind == "continuous" else ("standard",):
                cases += [
                    pytest.param(sys, form, EPS, *bound, id=f"{kind}-{draw}-{form}-{name}")
                    for name, bound in bounds.items()
                ]
    for path in sorted(CORPUS_DIR.glob("*.json")):
        if path.name != "expected.json":
            problem = parse_problem(str(path))
            plant, spec = problem.plant(), problem.observer_spec()
            bound = spec.bounds(plant.n, plant.r)
            cases.append(pytest.param(plant, spec.form, spec.epsilon, *bound, id=path.stem))
    return cases


@pytest.mark.parametrize("plant, form, epsilon, lo, hi", _assembly_cases())
def test_scattered_design_lp_matches_the_stacked_blocks(plant, form, epsilon, lo, hi):
    # the same rows in the same order with the same values (a zero may
    # change its sign), so the solver returns the same bytes
    got = _assemble(plant, form, epsilon, lo, hi)
    want = _reference_assemble(plant, form, epsilon, lo, hi)
    for name in ("ineq_lhs", "ineq_rhs", "objective"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a, b), name
    a, b = solve(got), solve(want)
    assert (a.status, a.iterations) == (b.status, b.iterations)
    if b.primal is not None:
        assert a.primal.tobytes() == b.primal.tobytes()
        assert a.dual.tobytes() == b.dual.tobytes()
