"""Trajectory generation, inclusion checking, empirical gains.

The integrator is checked against matrix-exponential solutions of the
joint linear system (scipy supplies expm; it plays no role in the
library itself), against the hand-rolled discrete recursion, and
against the generic stage-by-stage RK4 loop that the affine recurrence
replaced.
"""

import json
import re
from bisect import bisect_right

import numpy as np
import pytest
from scipy.linalg import expm

from obsynth import (
    ConstantSignal,
    ContinuousSystem,
    DelaySystem,
    DimensionError,
    DiscreteSystem,
    DisturbanceModel,
    PiecewiseConstantSignal,
    PopulationModel,
    PreconditionError,
    SampledSignal,
    SimConfig,
    SimulationError,
    SineSignal,
    Trace,
    UndefinedGainError,
    check_inclusion,
    empirical_peak_gain,
    simulate_ct,
    simulate_delay,
    simulate_dt,
    simulate_population,
)
from obsynth.benchmarks import CORPUS_DIR, MANIFEST, simulate_problem
from obsynth.problem import parse_problem, parse_problem_dict
from obsynth.simulation import (
    _grid,
    _joint_input,
    _joint_state,
    _rk4_maps,
)
from obsynth.synthesis import design

CASE1 = ContinuousSystem(
    [[-2.0, 1.0], [3.0, -5.0]], [[1.0], [2.0]], [[0.0, 1.0]], [[1.0]]
)
L1 = np.array([[1.0], [2.0]])


def _dist(w, lo=-1.0, hi=1.0):
    return DisturbanceModel([w], [ConstantSignal(lo)], [ConstantSignal(hi)])


# ---------------------------------------------------------------------------
# signals


def test_constant_and_sine_signals():
    assert ConstantSignal(2.5)(17.0) == 2.5
    s = SineSignal(0.5, 2.0, phase=np.pi / 2.0, offset=1.0)
    assert abs(s(0.0) - 1.5) <= 1e-15
    assert abs(s(np.pi / 2.0) - (1.0 + 0.5 * np.sin(np.pi + np.pi / 2))) <= 1e-15


def test_piecewise_signal_is_right_continuous():
    s = PiecewiseConstantSignal([1.0, 2.0], [0.0, 5.0, -1.0])
    assert s(0.5) == 0.0
    assert s(1.0) == 5.0
    assert s(1.99) == 5.0
    assert s(2.0) == -1.0
    assert s(10.0) == -1.0
    with pytest.raises(DimensionError):
        PiecewiseConstantSignal([1.0], [0.0])
    with pytest.raises(DimensionError) as exc:
        PiecewiseConstantSignal([2.0, 1.0], [0.0, 1.0, 2.0])
    assert str(exc.value) == "breakpoints must be ascending"


def test_sampled_signal_holds_and_clamps():
    s = SampledSignal([1.0, 2.0], [10.0, 20.0])
    assert s(0.0) == 10.0  # before the first sample
    assert s(1.5) == 10.0  # zero-order hold
    assert s(2.0) == 20.0
    assert s(5.0) == 20.0
    with pytest.raises(DimensionError):
        SampledSignal([1.0], [1.0, 2.0])
    with pytest.raises(DimensionError) as exc:
        SampledSignal([1.0, 0.0], [0.0, 1.0])
    assert str(exc.value) == "sample times must be ascending"


@pytest.mark.parametrize(
    "signal, scalar",
    [
        (ConstantSignal(-0.75), lambda t: -0.75),
        (
            SineSignal(0.5, 1.3, phase=0.2, offset=1.0),
            lambda t: 1.0 + 0.5 * np.sin(1.3 * t + 0.2),
        ),
        (
            PiecewiseConstantSignal([1.0, 2.0], [0.0, 5.0, -1.0]),
            lambda t: [0.0, 5.0, -1.0][bisect_right([1.0, 2.0], t)],
        ),
        (
            SampledSignal([0.5, 1.0, 2.0], [10.0, 20.0, 30.0]),
            lambda t: [10.0, 20.0, 30.0][max(bisect_right([0.5, 1.0, 2.0], t) - 1, 0)],
        ),
    ],
    ids=["constant", "sine", "piecewise", "sampled"],
)
def test_signal_at_matches_pointwise_calls(signal, scalar):
    # `scalar` is the signal's own pointwise formula: a bisect for the
    # holds, the numpy expression for the sine.  Times: breakpoints and
    # samples exactly, just before and after them, before the first
    # sample and past the last
    edges = np.array([0.5, 1.0, 2.0])
    times = np.concatenate(
        [[-1.0, 0.0, 0.25, 1.5, 7.0], edges, np.nextafter(edges, 0.0),
         np.nextafter(edges, 9.0), np.linspace(-0.3, 3.0, 97)]
    )
    want = np.array([scalar(t) for t in times], dtype=float)
    got = signal.at(times)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    calls = [signal(t) for t in times]
    assert all(type(v) is float for v in calls)
    assert np.array(calls).tobytes() == want.tobytes()


def test_disturbance_model_at_stacks_the_channels():
    w = SineSignal(0.5, 1.3)
    d = DisturbanceModel(
        [w, PiecewiseConstantSignal([1.0], [0.0, 0.5])],
        [ConstantSignal(-1.0), ConstantSignal(-1.0)],
        [ConstantSignal(1.0), SampledSignal([0.0, 2.0], [1.0, 2.0])],
    )
    times = np.linspace(0.0, 3.0, 31)
    for k, got in enumerate(d.at(times)):
        assert got.shape == (31, 2)
        want = np.array([d.eval(t)[k] for t in times])
        assert got.tobytes() == want.tobytes()


def test_disturbance_model_validation():
    with pytest.raises(DimensionError):
        DisturbanceModel([ConstantSignal(0.0)], [], [ConstantSignal(1.0)])
    d = _dist(ConstantSignal(0.25))
    w, lo, hi = d.eval(3.0)
    assert w.tolist() == [0.25]
    assert lo.tolist() == [-1.0]
    assert hi.tolist() == [1.0]


# ---------------------------------------------------------------------------
# configuration and trace bookkeeping


def test_sim_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(10.0, 0.01, [0.0], [0.5], [1.0])  # x0 below x0_lo
    with pytest.raises(SimulationError):
        SimConfig(10.0, -0.1, [0.0], [-1.0], [1.0])
    with pytest.raises(SimulationError):
        SimConfig(0.0, 0.1, [0.0], [-1.0], [1.0])


def test_trace_errors_and_outputs():
    times = np.array([0.0, 1.0])
    x = np.array([[1.0, 1.0], [2.0, 0.0]])
    trace = Trace(
        times, x, x - 0.5, x + 1.0,
        np.zeros((2, 1)), -np.ones((2, 1)), np.ones((2, 1)),
    )
    assert np.all(trace.e_lo == 0.5)
    assert np.all(trace.e_hi == 1.0)


def test_csv_round_trip_is_exact(tmp_path):
    dist = _dist(SineSignal(0.5, 1.0))
    cfg = SimConfig(2.0, 0.01, [1.0, 0.0], [-2.0, -2.0], [2.0, 2.0])
    trace = simulate_ct(CASE1, L1, dist, cfg)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,xlo1,xlo2,xhi1,xhi2,w1,wlo1,whi1"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # 17 significant digits reproduce every double exactly
    assert np.array_equal(data[:, 0], trace.times)
    assert np.array_equal(data[:, 1:3], trace.x)
    assert np.array_equal(data[:, 3:5], trace.x_lo)


def test_check_inclusion_reports_first_violation():
    times = np.arange(4.0)
    x = np.zeros((4, 2))
    x_lo = np.zeros((4, 2)) - 1.0
    x_hi = np.zeros((4, 2)) + 1.0
    x_lo[2, 1] = 0.5  # lower bound crosses the state here
    x_hi[3, 0] = -3.0  # a later, deeper violation does not take over
    w = np.zeros((4, 1))
    trace = Trace(times, x, x_lo, x_hi, w, w, w)
    report = check_inclusion(trace)
    assert not report.clean
    assert report.min_margin == -3.0
    assert report.time == 2.0
    assert report.component == 1
    assert report.side == "lower"
    assert abs(report.margin + 0.5) <= 1e-15
    assert check_inclusion(trace, tol=np.inf).clean


def test_empirical_peak_gain_on_synthetic_trace():
    times = np.linspace(0.0, 10.0, 101)
    x = np.zeros((101, 1))
    x_hi = np.full((101, 1), 2.0)
    x_lo = np.full((101, 1), -0.25)
    x_lo[: 40] = -5.0  # transient, excluded by the default burn-in
    w = np.zeros((101, 1))
    trace = Trace(times, x, x_lo, x_hi, w, w - 1.0, w + 1.0)
    assert abs(empirical_peak_gain(trace) - 2.0) <= 1e-12
    # tighter burn-in keeps the transient in view
    assert abs(empirical_peak_gain(trace, burn_in=0.0) - 5.0) <= 1e-12

    flat = Trace(times, x, x_lo, x_hi, w, w, w)
    with pytest.raises(UndefinedGainError):
        empirical_peak_gain(flat)


def test_trace_checks_reject_out_of_range_arguments():
    pf = parse_problem(str(CORPUS_DIR / "case2.json"))
    result = design(pf.plant(), pf.observer_spec())
    trace = simulate_problem(pf, result.L, result.form)
    # a burn-in past the end leaves no window; a negative tol would
    # report the clean trace (min margin 0.237) as a violation
    for burn_in in (2.0, np.inf, np.nan):
        with pytest.raises(PreconditionError, match="burn_in"):
            empirical_peak_gain(trace, burn_in=burn_in)
    for tol in (-1.0, np.nan):
        with pytest.raises(PreconditionError, match="tol"):
            check_inclusion(trace, tol=tol)
    assert np.isfinite(empirical_peak_gain(trace, burn_in=1.0))
    assert check_inclusion(trace, tol=0.0).clean


# ---------------------------------------------------------------------------
# continuous-time integration


def _joint_affine(sys, L, w, w_lo, w_hi):
    """Exact affine vector field of plant + observers, written from the
    defining equations rather than the simulator's block matrix."""
    n = sys.n
    A, E, C, F = sys.A, sys.E, sys.C, sys.F
    big = np.zeros((3 * n, 3 * n))
    big[:n, :n] = A
    big[n : 2 * n, :n] = L @ C
    big[n : 2 * n, n : 2 * n] = A - L @ C
    big[2 * n :, :n] = L @ C
    big[2 * n :, 2 * n :] = A - L @ C
    drive = np.concatenate(
        [
            E @ w,
            (E - L @ F) @ w_lo + L @ F @ w,
            (E - L @ F) @ w_hi + L @ F @ w,
        ]
    )
    return big, drive


def test_rk4_matches_matrix_exponential_and_is_fourth_order():
    w_bar = np.array([0.3])
    dist = _dist(ConstantSignal(0.3))
    big, drive = _joint_affine(CASE1, L1, w_bar, np.array([-1.0]), np.array([1.0]))
    aug = np.zeros((7, 7))
    aug[:6, :6] = big
    aug[:6, 6] = drive
    X0 = np.concatenate([[1.0, 0.0], [-2.0, -2.0], [2.0, 2.0], [1.0]])
    exact = (expm(2.0 * aug) @ X0)[:6]

    errs = []
    for dt in (0.02, 0.01, 0.005):
        cfg = SimConfig(2.0, dt, [1.0, 0.0], [-2.0, -2.0], [2.0, 2.0])
        trace = simulate_ct(CASE1, L1, dist, cfg)
        got = np.concatenate([trace.x[-1], trace.x_lo[-1], trace.x_hi[-1]])
        errs.append(np.max(np.abs(got - exact)))
    assert errs[0] / errs[1] == pytest.approx(16.0, abs=4.0)
    assert errs[1] / errs[2] == pytest.approx(16.0, abs=4.0)


def test_collapsed_envelope_collapses_the_interval():
    w = SineSignal(0.5, 1.3)
    dist = DisturbanceModel([w], [w], [w])
    cfg = SimConfig(5.0, 0.01, [1.0, 0.5], [1.0, 0.5], [1.0, 0.5])
    trace = simulate_ct(CASE1, L1, dist, cfg)
    assert np.max(np.abs(trace.x_hi - trace.x_lo)) <= 1e-9
    assert np.max(np.abs(trace.x - trace.x_lo)) <= 1e-9
    assert check_inclusion(trace, tol=1e-9).clean


def test_certified_design_keeps_inclusion():
    dist = _dist(SineSignal(1.0, 2.0))
    cfg = SimConfig(20.0, 0.005, [-1.0, 2.0], [-5.0, -5.0], [5.0, 5.0])
    trace = simulate_ct(CASE1, L1, dist, cfg)
    assert check_inclusion(trace, tol=1e-7).clean
    # widths shrink: this gain decouples the disturbance entirely
    assert np.max(trace.x_hi[-1] - trace.x_lo[-1]) <= 1e-6


def test_disturbance_outside_envelope_aborts():
    dist = _dist(ConstantSignal(2.0))  # outside [-1, 1]
    cfg = SimConfig(1.0, 0.01, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(SimulationError) as exc:
        simulate_ct(CASE1, L1, dist, cfg)
    assert "channel" in str(exc.value)


def test_divergence_reports_a_time_stamp():
    wild = ContinuousSystem([[100.0]], [[0.0]], [[0.0]], [[0.0]])
    dist = _dist(ConstantSignal(0.0))
    cfg = SimConfig(100.0, 1.0, [1.0], [0.0], [2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as exc:
            simulate_ct(wild, np.zeros((1, 1)), dist, cfg)
    # x_hi starts at 2 and grows by the RK4 factor of z = h a = 100 per
    # step; the report names the first grid time at which it overflows
    z = 100.0
    growth = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    x_hi, k = 2.0, 0
    while np.isfinite(x_hi):
        x_hi *= growth
        k += 1
    assert k == 47
    assert str(exc.value).endswith(f"at t={k}")


def test_relaxed_form_inclusion_with_sign_indefinite_input():
    sys = ContinuousSystem(
        [[-2.0, -1.0], [3.0, -5.0]], [[0.0], [-6.0]], [[0.0, 1.0]], [[1.0]]
    )
    L = np.array([[-1.0], [10.0]])
    dist = _dist(SineSignal(0.5, 1.0))
    cfg = SimConfig(20.0, 0.005, [1.0, 1.0], [0.0, 0.0], [2.0, 2.0])
    trace = simulate_ct(sys, L, dist, cfg, form="relaxed")
    assert check_inclusion(trace, tol=1e-7).clean


# ---------------------------------------------------------------------------
# delay systems

DELAY_SYS = DelaySystem([[-3.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], 1.0)


def test_delay_step_snaps_to_divide_h():
    dist = _dist(SineSignal(1.0, 1.0))
    cfg = SimConfig(4.0, 0.23, [0.0], [-1.0], [1.0])
    with pytest.warns(UserWarning, match="adjusted"):
        trace = simulate_delay(DELAY_SYS, np.zeros((1, 1)), dist, cfg)
    assert abs(trace.times[1] - 0.2) <= 1e-12


def test_delay_step_above_quarter_h_is_rejected():
    dist = _dist(SineSignal(1.0, 1.0))
    cfg = SimConfig(4.0, 0.3, [0.0], [-1.0], [1.0])
    with pytest.raises(SimulationError):
        simulate_delay(DELAY_SYS, np.zeros((1, 1)), dist, cfg)


def test_delay_history_must_respect_the_initial_interval():
    dist = _dist(SineSignal(1.0, 1.0))
    cfg = SimConfig(
        4.0, 0.1, [0.0], [-1.0], [1.0], history=[ConstantSignal(5.0)]
    )
    with pytest.raises(SimulationError):
        simulate_delay(DELAY_SYS, np.zeros((1, 1)), dist, cfg)


def test_delay_inclusion_scalar_scenario():
    dist = _dist(SineSignal(1.0, 1.0))
    cfg = SimConfig(20.0, 0.05, [0.0], [-1.0], [1.0])
    trace = simulate_delay(DELAY_SYS, np.zeros((1, 1)), dist, cfg)
    report = check_inclusion(trace, tol=1e-7)
    assert report.clean
    assert empirical_peak_gain(trace) <= 0.5 + 1e-3


def test_zero_delay_file_simulates_its_aggregate():
    # h = 0 leaves no past to hold: the trace is simulate_ct's on the
    # zero-delay aggregate (A + A_h, E, C + C_h, F), the plant design uses
    data = json.loads((CORPUS_DIR / "delay_scalar.json").read_text())
    data["h"] = 0.0
    pf = parse_problem_dict(data)
    sys, dist, cfg = pf.system(), pf.disturbance(), pf.sim_config()
    L = design(sys, pf.observer_spec()).L
    trace = simulate_delay(sys, L, dist, cfg)
    aggregate = ContinuousSystem(sys.A + sys.A_h, sys.E, sys.C + sys.C_h, sys.F)
    expected = simulate_ct(aggregate, L, dist, cfg)
    for name in ("times", "x", "x_lo", "x_hi", "w", "w_lo", "w_hi"):
        assert getattr(trace, name).tobytes() == getattr(expected, name).tobytes(), name
    assert check_inclusion(trace, tol=1e-7).clean


def test_simulators_refuse_mismatched_inputs():
    dist = _dist(SineSignal(0.5, 1.0))
    cases = [
        (lambda: simulate_ct(CASE1, L1, dist, SimConfig(1.0, 0.1, [0.0], [-1.0], [1.0])),
         DimensionError, "x0 has size 1, plant has 2 states"),
        (lambda: simulate_ct(
            CASE1, L1, DisturbanceModel([ConstantSignal(0.0)] * 2, [ConstantSignal(-1.0)] * 2,
                                        [ConstantSignal(1.0)] * 2),
            SimConfig(1.0, 0.1, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])),
         DimensionError, "disturbance has 2 channels, plant expects 1"),
        (lambda: simulate_ct(
            CASE1, L1, dist, SimConfig(1.0, 0.1, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0]), form="loose"),
         SimulationError, "unknown observer form 'loose'"),
        (lambda: simulate_delay(
            DELAY_SYS, np.zeros((1, 1)), dist,
            SimConfig(1.0, 0.1, [0.0], [-1.0], [1.0], history=[ConstantSignal(0.0)] * 2)),
         DimensionError, "history needs one signal per plant state"),
        (lambda: simulate_population(
            POP, [[0.0], [0.0], [5.0]], SimConfig(1.0, 0.1, [1.0] * 3, [-1.0] * 3, [2.0] * 3)),
         SimulationError, "population bounds must be nonnegative"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message


def test_delay_reduces_to_ct_when_lag_matrix_vanishes():
    # same dynamics, one written with a zero delay matrix
    sys_ct = ContinuousSystem([[-3.0]], [[1.0]], [[1.0]], [[0.0]])
    sys_d = DelaySystem([[-3.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], 1.0)
    dist = _dist(SineSignal(1.0, 1.0))
    cfg = SimConfig(5.0, 0.25, [0.0], [-1.0], [1.0])
    a = simulate_ct(sys_ct, np.zeros((1, 1)), dist, cfg)
    b = simulate_delay(sys_d, np.zeros((1, 1)), dist, cfg)
    assert np.allclose(a.x, b.x, atol=1e-12)
    assert np.allclose(a.x_hi, b.x_hi, atol=1e-12)


# ---------------------------------------------------------------------------
# discrete systems

DT_SYS = DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]])


def test_discrete_recursion_is_exact():
    dist = _dist(SineSignal(0.8, 0.7))
    cfg = SimConfig(40.0, 1.0, [0.0], [-1.0], [1.0])
    L = np.array([[0.5]])
    trace = simulate_dt(DT_SYS, L, dist, cfg)

    # replay the defining recursion directly
    x = np.zeros(1)
    xlo = np.array([-1.0])
    xhi = np.array([1.0])
    for k in range(len(trace.times) - 1):
        w, w_lo, w_hi = trace.w[k], trace.w_lo[k], trace.w_hi[k]
        y = DT_SYS.C_d @ x + DT_SYS.F_d @ w
        nxt = DT_SYS.A_d @ x + DT_SYS.E_d @ w
        nlo = (
            DT_SYS.A_d @ xlo + DT_SYS.E_d @ w_lo
            + L @ (y - DT_SYS.C_d @ xlo - DT_SYS.F_d @ w_lo)
        )
        nhi = (
            DT_SYS.A_d @ xhi + DT_SYS.E_d @ w_hi
            + L @ (y - DT_SYS.C_d @ xhi - DT_SYS.F_d @ w_hi)
        )
        x, xlo, xhi = nxt, nlo, nhi
        # restated from the defining equations, so agreement is up to
        # floating-point reassociation only
        assert np.allclose(trace.x[k + 1], x, rtol=0.0, atol=1e-12)
        assert np.allclose(trace.x_lo[k + 1], xlo, rtol=0.0, atol=1e-12)
        assert np.allclose(trace.x_hi[k + 1], xhi, rtol=0.0, atol=1e-12)


def test_discrete_replay_is_byte_identical(tmp_path):
    dist = _dist(SineSignal(0.8, 0.7))
    cfg = SimConfig(40.0, 1.0, [0.0], [-1.0], [1.0])
    L = np.array([[0.5]])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    simulate_dt(DT_SYS, L, dist, cfg).to_csv(str(p1))
    simulate_dt(DT_SYS, L, dist, cfg).to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# population model

POP = PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), 1.5, (1.0, 2.0), 1.0)


def test_population_model_validation():
    with pytest.raises(SimulationError):
        PopulationModel((0.0, 2.0, 3.0), (3.0, 4.0), 1.5, (1.0, 2.0), 1.0)
    with pytest.raises(SimulationError):
        PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), 3.0, (1.0, 2.0), 1.0)
    with pytest.raises(SimulationError):
        PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), 1.5, (2.0, 1.0), 1.0)
    with pytest.raises(SimulationError):
        PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), 1.5, (1.0, 2.0), 0.0)


@pytest.mark.parametrize(
    "args, message",
    [
        (((1.0, 2.0), (3.0, 4.0), 1.5, (1.0, 2.0)), "decay takes 3 values, got 2"),
        (((2.0, 2.0, 3.0), (3.0,), 1.5, (1.0, 2.0)), "growth takes 2 values, got 1"),
        (((2.0, 2.0, 3.0), (3.0, 4.0), 1.5, (1.0, 1.5, 2.0)),
         "incidence_bounds takes 2 values, got 3"),
    ],
    ids=["decay", "growth", "incidence_bounds"],
)
def test_population_model_counts_its_rates(args, message):
    with pytest.raises(SimulationError, match=rf"^{re.escape(message)}$"):
        PopulationModel(*args, 1.0)


def test_population_linear_part_and_threshold():
    sys = POP.system()
    assert np.array_equal(
        sys.A, [[-2.0, 0.0, 0.0], [3.0, -2.0, 0.0], [0.0, 4.0, -3.0]]
    )
    assert np.array_equal(sys.E, [[1.0], [0.0], [0.0]])
    assert np.array_equal(sys.C, [[0.0, 0.0, 1.0]])
    # l3 must exceed a2 * max(1, a1/b2) - b3 = 4 * 1.5 - 3
    assert POP.stabilizing_threshold() == 3.0


def test_population_inclusion_with_time_varying_gain():
    model = PopulationModel(
        (2.0, 2.0, 3.0),
        (3.0, 4.0),
        SineSignal(0.5, 0.1, offset=1.5),
        (1.0, 2.0),
        1.0,
    )
    cfg = SimConfig(60.0, 0.01, [0.1, 0.0, 0.0], [0.01, 0.0, 0.0], [0.6, 0.8, 1.1])
    trace = simulate_population(model, np.array([[0.0], [0.0], [5.0]]), cfg)
    assert check_inclusion(trace, tol=1e-7).clean
    # the envelope itself is data-driven: w_lo <= w <= w_hi throughout
    assert np.all(trace.w_lo <= trace.w + 1e-12)
    assert np.all(trace.w <= trace.w_hi + 1e-12)


def test_population_interval_collapses_without_uncertainty():
    model = PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), 1.5, (1.5, 1.5), 1.0)
    cfg = SimConfig(40.0, 0.01, [0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
    trace = simulate_population(model, np.array([[0.0], [0.0], [5.0]]), cfg)
    assert np.max(trace.x_hi[-1] - trace.x_lo[-1]) <= 1e-8


def test_population_gain_leaving_envelope_aborts():
    model = PopulationModel(
        (2.0, 2.0, 3.0),
        (3.0, 4.0),
        SineSignal(2.0, 0.5, offset=1.5),  # swings far outside [1, 2]
        (1.0, 2.0),
        1.0,
    )
    cfg = SimConfig(60.0, 0.01, [0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(SimulationError):
        simulate_population(model, np.array([[0.0], [0.0], [5.0]]), cfg)


def test_plain_callables_work_as_signals():
    # a lambda must act exactly like the signal object it restates
    def pop(gain):
        return PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), gain, (1.0, 2.0), 1.0)

    cfg = SimConfig(10.0, 0.01, [0.1, 0.0, 0.0], [0.01, 0.0, 0.0], [0.6, 0.8, 1.1])
    L = np.array([[0.0], [0.0], [5.0]])
    a = simulate_population(pop(SineSignal(0.5, 0.1, offset=1.5)), L, cfg)
    b = simulate_population(pop(lambda t: 1.5 + 0.5 * np.sin(0.1 * t)), L, cfg)
    for name in ("x", "x_lo", "x_hi", "w", "w_lo", "w_hi"):
        assert np.array_equal(getattr(a, name), getattr(b, name))

    dist = _dist(SineSignal(1.0, 1.0))
    cfgs = [
        SimConfig(4.0, 0.1, [0.0], [-1.0], [1.0], history=[h])
        for h in (SineSignal(0.5, 2.0), lambda t: 0.5 * np.sin(2.0 * t))
    ]
    a, b = (simulate_delay(DELAY_SYS, np.zeros((1, 1)), dist, c) for c in cfgs)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.x_hi, b.x_hi)


# ---------------------------------------------------------------------------
# the affine recurrence against the generic RK4 loop it replaced


@pytest.mark.parametrize("z", [-2.5, -0.3, 0.4])
def test_rk4_maps_are_one_classical_step(z):
    phi, _ = _rk4_maps(np.array([[z]]), 1.0)
    assert phi[0, 0] == pytest.approx(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24, rel=1e-15)

    rng = np.random.default_rng(5)
    A, h = z * rng.standard_normal((3, 3)), 0.05
    x, u = rng.standard_normal(3), rng.standard_normal((4, 3))
    k1 = A @ x + u[0]
    k2 = A @ (x + h / 2.0 * k1) + u[1]
    k3 = A @ (x + h / 2.0 * k2) + u[2]
    k4 = A @ (x + h * k3) + u[3]
    phi, hP = _rk4_maps(A, h)
    got = phi @ x + sum(q @ us for q, us in zip(hP, u))
    assert np.allclose(got, x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), rtol=0.0, atol=1e-14)


_MID_CENTERED = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_ONESIDED = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0


def _delayed_lookup(stored: np.ndarray, history, k_float: float, dt: float):
    """Value of the joint state at time index k_float (may be negative or
    half-integral), as simulate_delay looked it up step by step before it
    kept history and trace in one array.  Negative times use the history;
    half steps use the four-point stencil on stored grid values."""
    k_round = round(k_float)
    if abs(k_float - k_round) < 1e-9:
        k = int(k_round)
        if k >= 0:
            return stored[k]
        return history(k * dt)
    if k_float < 0.0:
        return history(k_float * dt)
    base = int(np.floor(k_float))
    if base == 0:
        return _MID_ONESIDED @ stored[0:4]
    return _MID_CENTERED @ stored[base - 1 : base + 3]


def _rk4_reference(f, X0, times, lag=None):
    """The generic classical RK4 loop the simulators ran before they became
    an affine recurrence.  With lag = (m, history, dt), f also receives the
    joint state m steps back, looked up by _delayed_lookup."""
    out = np.empty((times.size, X0.size))
    out[0] = X0
    for k in range(times.size - 1):
        t, X = times[k], out[k]
        dt = times[k + 1] - t
        D = [None] * 3
        if lag is not None:
            D = [_delayed_lookup(out, lag[1], k + s - lag[0], lag[2]) for s in (0.0, 0.5, 1.0)]
        k1 = f(t, X, D[0])
        k2 = f(t + dt / 2.0, X + dt / 2.0 * k1, D[1])
        k3 = f(t + dt / 2.0, X + dt / 2.0 * k2, D[1])
        k4 = f(t + dt, X + dt * k3, D[2])
        out[k + 1] = X + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def _x0(cfg):
    return np.concatenate([cfg.x0, cfg.x0_lo, cfg.x0_hi])


def _reference_trace(times, joint, w, w_lo, w_hi):
    n = joint.shape[1] // 3
    return Trace(times, joint[:, :n], joint[:, n : 2 * n], joint[:, 2 * n :], w, w_lo, w_hi)


def _reference_linear(sys, L, dist, cfg, form="standard"):
    """simulate_ct, simulate_delay or simulate_dt by the reference loops."""
    W = lambda t: np.array([s(t) for s in dist.w + dist.w_lo + dist.w_hi])  # noqa: E731
    if isinstance(sys, DiscreteSystem):
        times = _grid(cfg.t_end, cfg.dt)
        big_a = _joint_state(sys.A_d, L @ sys.C_d)
        big_b = _joint_input(sys.E_d, sys.F_d, L, "standard")
        joint = [_x0(cfg)]
        for t in times[:-1]:
            joint.append(big_a @ joint[-1] + big_b @ W(t))
        joint = np.array(joint)
    else:
        big_a = _joint_state(sys.A, L @ sys.C)
        big_b = _joint_input(sys.E, sys.F, L, form)
        lag = None
        if isinstance(sys, DelaySystem):
            m = int(np.ceil(sys.h / cfg.dt - 1e-9))
            big_ah = _joint_state(sys.A_h, L @ sys.C_h)
            past = cfg.history or [ConstantSignal(v) for v in cfg.x0]

            def history(t):
                return np.concatenate([[s(t) for s in past], cfg.x0_lo, cfg.x0_hi])

            lag = (m, history, sys.h / m)
            times = _grid(cfg.t_end, sys.h / m)
            f = lambda t, X, D: big_a @ X + big_ah @ D + big_b @ W(t)  # noqa: E731
        else:
            times = _grid(cfg.t_end, cfg.dt)
            f = lambda t, X, D: big_a @ X + big_b @ W(t)  # noqa: E731
        joint = _rk4_reference(f, _x0(cfg), times, lag)
    w = np.array([W(t) for t in times])
    return _reference_trace(times, joint, *np.split(w, 3, axis=1))


def _reference_population(model, L, cfg):
    """simulate_population as the joint nonlinear RK4 it replaced."""
    sys = model.system()
    A, E, C = sys.A, sys.E, sys.C
    Acl, LC = A - L @ C, L @ C
    a_lo, a_hi = model.incidence_bounds

    def f(t, X, D):
        x, xlo, xhi = X[:3], X[3:6], X[6:]
        y = x[2]
        dx = A @ x + E[:, 0] * model.incidence(y, model.gain_at(t))
        dlo = Acl @ xlo + E[:, 0] * model.incidence(y, a_lo) + LC @ x
        dhi = Acl @ xhi + E[:, 0] * model.incidence(y, a_hi) + LC @ x
        return np.concatenate([dx, dlo, dhi])

    times = _grid(cfg.t_end, cfg.dt)
    joint = _rk4_reference(f, _x0(cfg), times)
    x3 = joint[:, 2]
    w = np.array([[model.incidence(v, model.gain_at(t))] for t, v in zip(times, x3)])
    return _reference_trace(
        times, joint, w, model.incidence(x3, a_lo)[:, None], model.incidence(x3, a_hi)[:, None]
    )


def _assert_matches_reference(trace, ref, certified=None):
    assert np.array_equal(trace.times, ref.times)
    for name in ("x", "x_lo", "x_hi", "w", "w_lo", "w_hi"):
        got, want = getattr(trace, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
    a, b = check_inclusion(trace, tol=1e-7), check_inclusion(ref, tol=1e-7)
    assert (a.clean, a.time, a.component, a.side) == (b.clean, b.time, b.component, b.side)
    gain, ref_gain = _gain_or_none(trace), _gain_or_none(ref)
    if ref_gain is None:  # no envelope width, no finite ratio
        assert gain is None
        return
    assert gain == pytest.approx(ref_gain, rel=1e-12)
    if certified is not None:
        assert (gain <= certified + 1e-3) == (ref_gain <= certified + 1e-3)


def _gain_or_none(trace):
    try:
        return empirical_peak_gain(trace)
    except UndefinedGainError:
        return None


with open(MANIFEST) as _fh:
    _SIMULATED = {k: v for k, v in json.load(_fh).items() if v.get("simulate")}


@pytest.mark.parametrize("case", sorted(_SIMULATED))
def test_corpus_traces_match_the_generic_rk4_loop(case):
    entry = _SIMULATED[case]
    pf = parse_problem(str(CORPUS_DIR / entry["file"]))
    result = design(pf.plant(), pf.observer_spec())
    trace = simulate_problem(pf, result.L, result.form)
    if pf.klass == "population":
        ref = _reference_population(pf.system(), result.L, pf.sim_config())
    else:
        ref = _reference_linear(
            pf.system(), result.L, pf.disturbance(), pf.sim_config(), result.form
        )
    _assert_matches_reference(trace, ref, entry["certified_identity_gain"])


DELAY_2 = DelaySystem(
    [[-3.0, 0.5], [1.0, -4.0]], [[0.5, 0.0], [0.2, 0.3]], [[1.0], [0.5]],
    [[0.0, 1.0]], [[0.5, 0.0]], [[0.2]], 0.8,
)


@pytest.mark.parametrize(
    "sys, L, cfg",
    [
        (DELAY_SYS, np.zeros((1, 1)), SimConfig(20.0, 0.05, [0.0], [-1.0], [1.0])),
        (
            DELAY_2,
            np.array([[0.3], [1.0]]),
            SimConfig(
                12.0, 0.05, [0.5, 0.0], [-1.0, -1.0], [1.0, 1.0],
                history=[lambda t: 0.5 * np.cos(t), SineSignal(0.4, 3.0)],
            ),
        ),
        # dt = h / 4 exactly: the least m the stencil allows
        (DELAY_SYS, np.array([[0.5]]), SimConfig(6.0, 0.25, [0.3], [-1.0], [1.0])),
        (
            DELAY_2,
            np.array([[0.3], [1.0]]),
            SimConfig(
                6.0, 0.05, [0.5, 0.0], [-1.0, -1.0], [1.0, 1.0],
                history=[
                    SampledSignal([-0.8, -0.5, -0.1], [0.1, -0.3, 0.5]),
                    PiecewiseConstantSignal([-0.6, -0.2], [0.2, -0.4, 0.0]),
                ],
            ),
        ),
    ],
    ids=["scalar", "two-state", "quarter-step", "held-history"],
)
def test_delay_traces_match_the_generic_rk4_loop(sys, L, cfg):
    dist = _dist(SineSignal(1.0, 1.0))
    trace = simulate_delay(sys, L, dist, cfg)
    _assert_matches_reference(trace, _reference_linear(sys, L, dist, cfg))


@pytest.mark.parametrize(
    "gain, bounds, cfg",
    [
        (
            SineSignal(0.5, 0.1, offset=1.5),
            (1.0, 2.0),
            SimConfig(60.0, 0.01, [0.1, 0.0, 0.0], [0.01, 0.0, 0.0], [0.6, 0.8, 1.1]),
        ),
        (1.5, (1.5, 1.5), SimConfig(40.0, 0.01, [0.5] * 3, [0.5] * 3, [0.5] * 3)),
    ],
    ids=["time-varying", "collapsed"],
)
def test_population_traces_match_the_generic_rk4_loop(gain, bounds, cfg):
    model = PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), gain, bounds, 1.0)
    L = np.array([[0.0], [0.0], [5.0]])
    trace = simulate_population(model, L, cfg)
    _assert_matches_reference(trace, _reference_population(model, L, cfg))
