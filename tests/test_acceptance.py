"""Acceptance criteria for the package, one test per criterion.

Each test states its tolerance inline, checks against an oracle that is
independent of the code path under test wherever the value is not
pinned by hand, and prints one PASS line on success (visible with -s).
Criteria with a runtime budget measure it around the computation alone.
"""

import json
import time

import numpy as np
import pytest
from conftest import random_feasible_loop, random_metzler_hurwitz, random_schur

from obsynth import (
    ContinuousSystem,
    DelaySystem,
    DiscreteSystem,
    ObserverSpec,
    PopulationModel,
    check_inclusion,
    design,
    empirical_peak_gain,
    gain_for_output,
    hurwitz_certificate,
    is_metzler,
    linf_gain,
    linf_gain_closed,
    linf_gain_lp,
    observer_membership,
    parse_problem,
)
from obsynth.benchmarks import CORPUS_DIR, MANIFEST, simulate_problem
from obsynth.linalg import max_row_sum, solve_linear
from obsynth.synthesis import DIAG_SIGN_CONFLICT

EPS = 1e-6

CASE1 = ContinuousSystem(
    [[-2.0, 1.0], [3.0, -5.0]], [[1.0], [2.0]], [[0.0, 1.0]], [[1.0]]
)
CASE2 = ContinuousSystem(
    [[-2.0, -1.0], [3.0, -5.0]], [[1.0], [2.0]], [[0.0, 1.0]], [[1.0]]
)


def _ok(k: int, text: str) -> None:
    print(f"criterion {k}: PASS - {text}")


def test_criterion_01_exact_reconstruction_design():
    start = time.monotonic()
    result = design(CASE1, ObserverSpec(epsilon=EPS))
    elapsed = time.monotonic() - start

    assert result.status == "optimal"
    assert np.max(np.abs(result.L - np.array([[1.0], [2.0]]))) <= 1e-6
    residual = CASE1.E - result.L @ CASE1.F
    assert np.max(np.abs(residual)) <= 1e-9  # E - L*F vanishes
    gain = gain_for_output(
        CASE1.A, CASE1.E, CASE1.C, CASE1.F, result.L, np.eye(2), np.zeros((2, 1))
    )
    assert gain <= 1e-6
    assert elapsed < 0.1
    _ok(1, f"L*=[1,2], disturbance decoupled, designed in {elapsed * 1e3:.1f} ms")


def test_criterion_02_known_optimal_gain_and_values():
    result = design(CASE2, ObserverSpec(epsilon=EPS))
    assert result.status == "optimal"
    assert np.max(np.abs(result.L - np.array([[-1.0], [2.0]]))) <= 1e-6

    args = (CASE2.A, CASE2.E, CASE2.C, CASE2.F, result.L)
    aggregate = gain_for_output(*args, np.ones((1, 2)), np.zeros((1, 1)))
    assert abs(aggregate - 10.0 / 7.0) <= 1e-6
    # previously recorded rounded value, required within 2 percent
    assert abs(aggregate - 1.4304) / 1.4304 <= 0.02
    identity = gain_for_output(*args, np.eye(2), np.zeros((2, 1)))
    assert abs(identity - 1.0) <= 1e-6
    _ok(2, "L*=[-1,2]; aggregate gain 10/7, identity gain 1")


@pytest.mark.parametrize("epsilon", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("e_column", [[1.0, -6.0], [0.0, -6.0]])
def test_criterion_03_structural_infeasibility(epsilon, e_column):
    sys = ContinuousSystem(
        CASE2.A, np.array(e_column).reshape(2, 1), CASE2.C, CASE2.F
    )
    result = design(sys, ObserverSpec(epsilon=epsilon))
    assert result.status == "infeasible"
    assert result.diagnostic == DIAG_SIGN_CONFLICT
    assert "E - L F" in result.diagnostic and "Hurwitz" in result.diagnostic
    if epsilon == 1e-3 and e_column[0] == 0.0:
        _ok(3, "sign-constrained design infeasible for both inputs at all margins")


def test_criterion_04_relaxed_design_reaches_the_bound():
    spec = ObserverSpec(
        form="relaxed",
        gain_lower=-10.0 * np.ones((2, 1)),
        gain_upper=10.0 * np.ones((2, 1)),
        epsilon=EPS,
    )
    result = design(CASE1, spec)
    assert result.status == "optimal"
    assert abs(result.L[0, 0] - 1.0) <= 1e-6
    assert abs(result.L[1, 0] - 10.0) <= 1e-9  # parked at the upper bound

    Acl = CASE1.A - result.L @ CASE1.C
    assert is_metzler(Acl)
    assert hurwitz_certificate(Acl) is not None
    gain = linf_gain_closed(Acl, np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert abs(gain - 0.5) <= 1e-2

    # the relaxed scenario with a sign-indefinite input simulates cleanly
    pf = parse_problem(str(CORPUS_DIR / "case3_relaxed.json"))
    res3 = design(pf.plant(), pf.observer_spec())
    assert res3.status == "optimal"
    trace = simulate_problem(pf, res3.L, res3.form)
    assert check_inclusion(trace, tol=1e-7).clean
    _ok(4, "relaxed gain [1, 10], unit-drive gain 1/2, clean relaxed run")


def test_criterion_05_population_design_and_analytic_gain():
    model = PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), 1.5, (1.0, 2.0), 1.0)
    sys = model.system()
    spec = ObserverSpec(
        gain_lower=-5.0 * np.ones((3, 1)),
        gain_upper=5.0 * np.ones((3, 1)),
        epsilon=EPS,
    )
    result = design(sys, spec)
    assert result.status == "optimal"
    assert np.max(np.abs(result.L - np.array([[0.0], [0.0], [5.0]]))) <= 1e-6
    gain = gain_for_output(
        sys.A, sys.E, sys.C, sys.F, result.L, np.eye(3), np.zeros((3, 1))
    )
    assert abs(gain - 0.75) <= 1e-9

    # measured-stage injection above the stabilizing threshold leaves the
    # first two error components in charge: gain = max(1/b1, a1/(b1*b2))
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        b1, b2, b3 = rng.uniform(0.5, 3.0, size=3)
        a1, a2 = rng.uniform(0.5, 3.0, size=2)
        draw = PopulationModel((b1, b2, b3), (a1, a2), 1.5, (1.0, 2.0), 1.0)
        l3 = draw.stabilizing_threshold() + rng.uniform(0.1, 2.0)
        L = np.array([[0.0], [0.0], [l3]])
        dsys = draw.system()
        got = gain_for_output(
            dsys.A, dsys.E, dsys.C, dsys.F, L, np.eye(3), np.zeros((3, 1))
        )
        formula = max(1.0 / b1, a1 / (b1 * b2))
        assert abs(got - formula) <= 1e-9
    _ok(5, "L*=[0,0,5], gain 3/4; analytic chain gain holds on 50 draws")


def test_criterion_06_lp_gain_matches_closed_form_in_bulk():
    rng = np.random.default_rng(61)
    start = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        A = random_metzler_hurwitz(rng, n)
        E = rng.uniform(0.0, 2.0, size=(n, p))
        Cz = rng.uniform(0.0, 1.0, size=(q, n))
        Fz = rng.uniform(0.0, 1.0, size=(q, p))
        closed = linf_gain_closed(A, E, Cz, Fz)
        lp, _ = linf_gain_lp(A, E, Cz, Fz)
        assert abs(lp - closed) <= 1e-4 * (1.0 + closed)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok(6, f"200 systems, LP vs closed form agree; {elapsed:.2f} s")


def _feasible_neighbors(rng, A, E, C, F, L_star, L0, want=20):
    """Admissible gains near the optimum and near the seed gain."""
    found = []
    attempts = 0
    while len(found) < want and attempts < 2000:
        attempts += 1
        mode = attempts % 3
        if mode == 0:
            cand = L0 + rng.uniform(-0.05, 0.05, size=L0.shape)
        elif mode == 1:
            lam = rng.uniform(0.1, 0.9)
            cand = lam * L_star + (1.0 - lam) * L0
            cand = cand + rng.uniform(-0.02, 0.02, size=L0.shape)
        else:
            step = rng.uniform(0.05, 0.3)
            cand = L_star + step * rng.uniform(-1.0, 1.0, size=L_star.shape)
        if not observer_membership(A, E, C, F, cand):
            found.append(cand)
    assert len(found) == want, "could not collect enough admissible gains"
    return found


def test_criterion_07_designed_gain_is_uniformly_optimal():
    rng = np.random.default_rng(71)
    start = time.monotonic()
    for _ in range(100):
        A, E, C, F, L0 = random_feasible_loop(rng, 3, 2, 1)
        sys = ContinuousSystem(A, E, C, F)
        result = design(sys, ObserverSpec(epsilon=EPS))
        assert result.status == "optimal"
        L_star = result.L
        V_star = solve_linear(A - L_star @ C, -(E - L_star @ F))

        weights = []
        for _ in range(20):
            q = int(rng.integers(1, 4))
            weights.append(
                (rng.uniform(0.0, 1.0, size=(q, 3)), rng.uniform(0.0, 1.0, size=(q, 2)))
            )

        rivals = _feasible_neighbors(rng, A, E, C, F, L_star, L0)
        for L_prime in rivals:
            V_prime = solve_linear(A - L_prime @ C, -(E - L_prime @ F))
            for M, N in weights:
                ours = max_row_sum(M @ V_star + N)
                theirs = max_row_sum(M @ V_prime + N)
                assert ours <= theirs + 1e-6

        # the row-sum decomposition above is the public gain evaluator
        M0, N0 = weights[0]
        V0 = solve_linear(A - rivals[0] @ C, -(E - rivals[0] @ F))
        assert gain_for_output(A, E, C, F, rivals[0], M0, N0) == pytest.approx(
            max_row_sum(M0 @ V0 + N0), abs=1e-12
        )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(7, f"100 systems x 20 weights x 20 rival gains; {elapsed:.1f} s")


def _impulse_response_gain(sys: DiscreteSystem, terms=20000, tol=1e-13) -> float:
    """Row sums of F_d + sum_k C_d A_d^k E_d, truncated once increments
    fall below tol; valid because every term is entrywise nonnegative."""
    acc = sys.F_d.astype(float).copy()
    power = sys.E_d.astype(float).copy()
    for _ in range(terms):
        increment = sys.C_d @ power
        acc += increment
        if np.max(np.abs(increment)) < tol:
            break
        power = sys.A_d @ power
    return max_row_sum(acc)


def test_criterion_08_discrete_gain_bridge_and_brute_force():
    rng = np.random.default_rng(81)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        sys = DiscreteSystem(
            random_schur(rng, n),
            rng.uniform(0.0, 2.0, size=(n, p)),
            rng.uniform(0.0, 1.0, size=(q, n)),
            rng.uniform(0.0, 1.0, size=(q, p)),
        )
        assert abs(linf_gain(sys, sys.C_d, sys.F_d) - _impulse_response_gain(sys)) <= 1e-6

    scalar = DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    result = design(scalar, ObserverSpec(epsilon=EPS))
    assert result.status == "optimal"
    # brute force over admissible scalar gains: closed loop stays
    # nonnegative and Schur, aggregate gain (1 - l) / (0.5 + l)
    grid = np.linspace(-0.499, 0.5, 4000)
    feasible = grid[(0.5 - grid >= 0.0) & (1.0 - grid >= 0.0) & (np.abs(0.5 - grid) < 1.0)]
    brute = np.min((1.0 - feasible) / (0.5 + feasible))
    assert abs(result.gamma - brute) <= 1e-3
    _ok(8, "impulse-sum oracle on 50 Schur draws; scalar design matches grid")


def test_criterion_09_results_do_not_depend_on_the_delay():
    A = [[-4.0, 1.0], [0.5, -5.0]]
    A_h = [[0.5, 0.2], [0.0, 0.8]]
    E = [[1.0], [0.5]]
    C = [[1.0, 0.0]]
    C_h = [[0.0, 0.1]]
    F = [[0.2]]
    spec = ObserverSpec(epsilon=EPS)
    outcomes = []
    for h in (0.1, 1.0, 10.0):
        sys = DelaySystem(A, A_h, E, C, C_h, F, h)
        result = design(sys, spec)
        assert result.status == "optimal"
        outcomes.append(
            (
                result.L.tobytes(),
                result.gamma,
                result.X_diag.tobytes(),
                result.U.tobytes(),
                linf_gain(sys, np.ones((1, 2)), np.zeros((1, 1))),
            )
        )
    assert outcomes[0] == outcomes[1] == outcomes[2]  # bit-identical

    pf = parse_problem(str(CORPUS_DIR / "delay_scalar.json"))
    res = design(pf.plant(), pf.observer_spec())
    trace = simulate_problem(pf, res.L, res.form)
    assert check_inclusion(trace, tol=1e-7).clean
    _ok(9, "designs and gains bit-identical for h in {0.1, 1, 10}; clean run")


def test_criterion_10_every_simulated_scenario_stays_included():
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    simulated = 0
    for name in sorted(manifest):
        entry = manifest[name]
        if not entry.get("simulate"):
            continue
        pf = parse_problem(str(CORPUS_DIR / entry["file"]))
        result = design(pf.plant(), pf.observer_spec())
        assert result.status == "optimal", name
        trace = simulate_problem(pf, result.L, result.form)
        report = check_inclusion(trace, tol=1e-7)
        assert report.clean, f"{name}: violated at t={report.time}"
        empirical = empirical_peak_gain(trace)
        certified = entry["certified_identity_gain"]
        assert empirical <= certified + 1e-3, (
            f"{name}: empirical {empirical:.6g} above certified {certified:.6g}"
        )
        simulated += 1
    assert simulated == 8
    _ok(10, f"{simulated} scenarios: inclusion clean, empirical within certified")
