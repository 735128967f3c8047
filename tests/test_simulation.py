"""Trajectory generation, inclusion checking, empirical gains.

The exponential step is checked against closed-form solutions of the
joint linear system for constant and ramp inputs, and every simulator
against a plain per-step loop that reads signals pointwise and steps
with scipy's expm (scipy plays no role in the library itself), or
against the hand-rolled discrete recursion.
"""

import dataclasses
import importlib
import json
import math
import re
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from scipy.linalg import expm

from obsynth import (
    ConstantSignal,
    ContinuousSystem,
    DelaySystem,
    DimensionError,
    DiscreteDelaySystem,
    DiscreteSystem,
    DisturbanceModel,
    NonFiniteError,
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
    simulate,
    simulate_population,
)
from obsynth.benchmarks import CORPUS_DIR, MANIFEST, simulate_problem
from obsynth.positive import linf_gain_closed
from obsynth.problem import parse_problem, parse_problem_dict
from obsynth.simulation import (
    _grid,
    _incidence_gains,
    _population_plant,
    _recur,
    simulate_ct,
    simulate_delay,
)
from obsynth.synthesis import ObserverSpec, closed_loop, design

from conftest import random_feasible_loop

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
    "build, error, message",
    [
        (lambda: PiecewiseConstantSignal([math.nan], [0.0, 0.5]),
         NonFiniteError, "breakpoints contains non-finite entries"),
        (lambda: PiecewiseConstantSignal([0.0], [0.0, math.inf]),
         NonFiniteError, "levels contains non-finite entries"),
        (lambda: PiecewiseConstantSignal([0.0], 1.0),
         DimensionError, "levels must be a vector, got ndim=0"),
        (lambda: SampledSignal([0.0, math.nan], [1.0, 2.0]),
         NonFiniteError, "times contains non-finite entries"),
        (lambda: SampledSignal([0.0, 1.0], [1.0, -math.inf]),
         NonFiniteError, "values contains non-finite entries"),
        (lambda: SampledSignal([0.0, 1.0], 5.0),
         DimensionError, "values must be a vector, got ndim=0"),
        (lambda: ConstantSignal(math.inf), NonFiniteError, "value must be a finite real, got inf"),
        (lambda: SineSignal(math.nan, 1.0),
         NonFiniteError, "amplitude must be a finite real, got nan"),
        (lambda: SineSignal(1.0, math.inf), NonFiniteError, "omega must be a finite real, got inf"),
        (lambda: SineSignal(1.0, 1.0, phase=math.nan),
         NonFiniteError, "phase must be a finite real, got nan"),
        (lambda: SineSignal(1.0, 1.0, offset="x"),
         NonFiniteError, "offset must be a finite real, got 'x'"),
    ],
    ids=[
        "breakpoint", "level", "scalar-levels", "sample-time", "sample-value",
        "scalar-values", "constant", "amplitude", "omega", "phase", "offset",
    ],
)
def test_signals_refuse_non_finite_parameters(build, error, message):
    # a NaN level once read 0.0 everywhere, and a NaN envelope edge was
    # blamed on the disturbance; now the signal names the field it refuses
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


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
    # an entry that cannot be called is refused here, not when simulated
    with pytest.raises(SimulationError, match=r"^w\[0\] is not callable$"):
        _dist(0.5)
    with pytest.raises(SimulationError, match=r"^w_hi\[1\] is not callable$"):
        DisturbanceModel([np.sin, np.cos], [ConstantSignal(-1.0)] * 2, [ConstantSignal(1.0), 1.0])
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
    with pytest.raises(SimulationError, match=r"^history\[1\] is not callable$"):
        SimConfig(10.0, 0.1, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0], history=[np.sin, 0.0])


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
    trace = simulate(CASE1, L1, dist, cfg)
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


def _joint_affine(A, E, C, F, L, form="standard"):
    """State and input maps of plant + observers for W = [w, w_lo, w_hi],
    written from the defining equations rather than the simulator's
    block matrices.  Each observer runs A - L C and reads y = C x + F w
    through L.  With B = E - L F, the standard form drives each with B
    at its own envelope edge; the relaxed form drives each with B+ at
    its own edge and -B- at the other."""
    n, p = E.shape
    B = E - L @ F
    big = np.zeros((3 * n, 3 * n))
    inputs = np.zeros((3 * n, 3 * p))
    big[:n, :n] = A
    inputs[:n, :p] = E
    for j in (1, 2):
        rows = slice(j * n, (j + 1) * n)
        own, other = slice(j * p, (j + 1) * p), slice((3 - j) * p, (4 - j) * p)
        big[rows, :n] = L @ C
        big[rows, rows] = A - L @ C
        inputs[rows, :p] = L @ F
        if form == "standard":
            inputs[rows, own] = B
        else:
            inputs[rows, own] = np.maximum(B, 0.0)
            inputs[rows, other] = -np.maximum(-B, 0.0)
    return big, inputs


@pytest.mark.parametrize("dt", [0.5, 0.01])
@pytest.mark.parametrize("slope", [0.0, 0.4], ids=["constant", "ramp"])
def test_constant_and_ramp_inputs_are_stepped_exactly(slope, dt):
    # w = 0.3 + slope t inside [w - 1, w + 1], given as plain callables;
    # with [slope t, 1] appended the joint state is autonomous, so one
    # matrix exponential gives it at every time.  L feeds E - L F =
    # [0.5, 1] into both errors.
    L = np.array([[0.5], [1.0]])
    ramp = lambda t: 0.3 + slope * t  # noqa: E731
    dist = DisturbanceModel([ramp], [lambda t: ramp(t) - 1.0], [lambda t: ramp(t) + 1.0])
    cfg = SimConfig(2.0, dt, [1.0, 0.0], [-2.0, -2.0], [2.0, 2.0])
    trace = simulate(CASE1, L, dist, cfg)
    big, inputs = _joint_affine(CASE1.A, CASE1.E, CASE1.C, CASE1.F, L)
    aug = np.zeros((8, 8))
    aug[:6, :6] = big
    aug[:6, 6] = inputs @ np.ones(3)
    aug[:6, 7] = inputs @ [0.3, -0.7, 1.3]
    aug[6, 7] = slope
    start = np.concatenate([cfg.x0, cfg.x0_lo, cfg.x0_hi, [0.0, 1.0]])
    exact = np.array([(expm(t * aug) @ start)[:6] for t in trace.times])
    got = np.hstack([trace.x, trace.x_lo, trace.x_hi])
    assert np.max(np.abs(got - exact)) <= 1e-9


def test_collapsed_envelope_collapses_the_interval():
    w = SineSignal(0.5, 1.3)
    dist = DisturbanceModel([w], [w], [w])
    cfg = SimConfig(5.0, 0.01, [1.0, 0.5], [1.0, 0.5], [1.0, 0.5])
    trace = simulate(CASE1, L1, dist, cfg)
    assert np.max(np.abs(trace.x_hi - trace.x_lo)) <= 1e-9
    assert np.max(np.abs(trace.x - trace.x_lo)) <= 1e-9
    assert check_inclusion(trace, tol=1e-9).clean


def test_certified_design_keeps_inclusion():
    dist = _dist(SineSignal(1.0, 2.0))
    cfg = SimConfig(20.0, 0.005, [-1.0, 2.0], [-5.0, -5.0], [5.0, 5.0])
    trace = simulate(CASE1, L1, dist, cfg)
    assert check_inclusion(trace, tol=1e-7).clean
    # widths shrink: this gain decouples the disturbance entirely
    assert np.max(trace.x_hi[-1] - trace.x_lo[-1]) <= 1e-6


def test_disturbance_outside_envelope_aborts():
    cfg = SimConfig(2.0, 0.01, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
    cases = [
        (_dist(ConstantSignal(2.0)), "0"),  # outside [-1, 1]
        # a NaN sample or bound is outside its envelope, not a divergence;
        # only a callable can give one, since a signal refuses a NaN level
        (_dist(lambda t: math.nan if t > 1.0 else 0.5, 0.0, 1.0), "1.01"),
        (DisturbanceModel([ConstantSignal(0.5)], [lambda t: math.nan], [ConstantSignal(1.0)]), "0"),
        (DisturbanceModel([ConstantSignal(0.5)], [ConstantSignal(0.0)], [lambda t: math.nan]), "0"),
    ]
    for dist, when in cases:
        with pytest.raises(SimulationError) as exc:
            simulate(CASE1, L1, dist, cfg)
        assert str(exc.value) == f"disturbance leaves its envelope at t={when} (channel 1)"


def test_divergence_reports_a_time_stamp():
    wild = ContinuousSystem([[100.0]], [[0.0]], [[0.0]], [[0.0]])
    dist = _dist(ConstantSignal(0.0))
    cfg = SimConfig(100.0, 1.0, [1.0], [0.0], [2.0])
    with pytest.raises(SimulationError) as exc:
        simulate(wild, np.zeros((1, 1)), dist, cfg)
    # x_hi starts at 2 and grows by e^{h a} = e^100 per step, so the first
    # grid time at which it overflows is the least k > log(max / 2) / 100
    k = math.ceil(math.log(np.finfo(float).max / 2.0) / 100.0)
    assert k == 8
    assert str(exc.value).endswith(f"at t={k}")


def test_overflowing_step_maps_report_the_first_step():
    # e^{h a} itself overflows; every simulator still names t = h
    dist, cfg = _dist(ConstantSignal(0.0)), SimConfig(5.0, 1.0, [0.0], [-1.0], [1.0])
    for h in (1.0, 0.0):  # h = 0 takes the exact step of the zero-delay aggregate
        wild = DelaySystem([[1000.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], h)
        with pytest.raises(SimulationError, match=r"non-finite at t=1$"):
            simulate(wild, np.zeros((1, 1)), dist, cfg)
    cfg = SimConfig(5.0, 1.0, [0.5] * 3, [0.0] * 3, [1.0] * 3)
    with pytest.raises(SimulationError, match=r"non-finite at t=1$"):
        simulate_population(POP, [[0.0], [0.0], [-1000.0]], cfg)


@pytest.mark.parametrize("dt", [0.01, 0.1])
def test_relaxed_designs_with_large_gains_keep_inclusion(dt):
    # max|L| is 2e6-1e7 on these certified designs, far outside the
    # stability region of any explicit step at these step sizes
    sines = [SineSignal(0.6, 1.0), SineSignal(0.6, 2.3, phase=0.5)]
    dist = DisturbanceModel(sines, [ConstantSignal(-0.6)] * 2, [ConstantSignal(0.6)] * 2)
    cfg = SimConfig(20.0, dt, np.zeros(4), -np.ones(4), np.ones(4))
    rng = np.random.default_rng(4)
    for _ in range(6):
        sys = ContinuousSystem(*random_feasible_loop(rng, 4, 2, 3)[:4])
        result = design(sys, ObserverSpec(form="relaxed"))
        assert result.status == "optimal"
        trace = simulate(sys, result.L, dist, cfg, form="relaxed")
        assert check_inclusion(trace, tol=1e-7).clean


def test_constant_disturbance_at_the_envelope_edge_attains_the_certified_gain():
    # w = w_hi with w_lo = w - delta: the lower error rests at its
    # equilibrium delta (-S_cl)^{-1} B_cl 1 and the upper error at 0, so
    # the trace is the worst case the certified gain bounds
    sys = ContinuousSystem(*random_feasible_loop(np.random.default_rng(4), 4, 2, 3)[:4])
    L = design(sys, ObserverSpec()).L
    S, B = closed_loop(sys, L)
    delta = 0.3
    e_star = delta * np.linalg.solve(-S, B @ np.ones(2))
    edge = [ConstantSignal(0.5)] * 2
    dist = DisturbanceModel(edge, [ConstantSignal(0.5 - delta)] * 2, edge)
    x0 = np.full(4, 0.2)
    trace = simulate(sys, L, dist, SimConfig(10.0, 0.01, x0, x0 - e_star, x0))
    certified = linf_gain_closed(S, B, np.eye(4), 0.0)
    assert empirical_peak_gain(trace) == pytest.approx(certified, rel=1e-9)


def test_relaxed_form_inclusion_with_sign_indefinite_input():
    sys = ContinuousSystem(
        [[-2.0, -1.0], [3.0, -5.0]], [[0.0], [-6.0]], [[0.0, 1.0]], [[1.0]]
    )
    L = np.array([[-1.0], [10.0]])
    dist = _dist(SineSignal(0.5, 1.0))
    cfg = SimConfig(20.0, 0.005, [1.0, 1.0], [0.0, 0.0], [2.0, 2.0])
    trace = simulate(sys, L, dist, cfg, form="relaxed")
    assert check_inclusion(trace, tol=1e-7).clean


# ---------------------------------------------------------------------------
# delay systems

DELAY_SYS = DelaySystem([[-3.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], 1.0)


def test_delay_step_snaps_to_divide_h():
    dist = _dist(SineSignal(1.0, 1.0))
    cfg = SimConfig(4.0, 0.23, [0.0], [-1.0], [1.0])
    with pytest.warns(UserWarning, match="adjusted"):
        trace = simulate(DELAY_SYS, np.zeros((1, 1)), dist, cfg)
    assert abs(trace.times[1] - 0.2) <= 1e-12


def test_delay_step_up_to_h_is_kept_and_above_h_snaps_to_h():
    dist = _dist(SineSignal(1.0, 1.0))
    for dt in (0.5, 1.0):  # h / 2 and h divide the delay: no warning
        cfg = SimConfig(4.0, dt, [0.0], [-1.0], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = simulate(DELAY_SYS, np.zeros((1, 1)), dist, cfg)
        assert trace.times[1] == dt
        assert check_inclusion(trace, tol=1e-7).clean
    cfg = SimConfig(4.0, 1.5, [0.0], [-1.0], [1.0])
    with pytest.warns(UserWarning, match="adjusted from 1.5 to 1 "):
        trace = simulate(DELAY_SYS, np.zeros((1, 1)), dist, cfg)
    assert trace.times[1] == 1.0


def test_delay_history_must_respect_the_initial_interval():
    dist = _dist(SineSignal(1.0, 1.0))
    cases = [
        (ConstantSignal(5.0), 0.1, "-1"),
        # a NaN history is outside [x0_lo, x0_hi], not a divergence
        (lambda t: math.nan if t < -0.5 else 0.0, 0.05, "-1"),
        (lambda t: math.nan if t >= -0.5 else 0.0, 0.05, "-0.5"),
    ]
    for history, dt, when in cases:
        cfg = SimConfig(4.0, dt, [0.0], [-1.0], [1.0], history=[history])
        with pytest.raises(SimulationError) as exc:
            simulate(DELAY_SYS, np.zeros((1, 1)), dist, cfg)
        assert str(exc.value) == f"plant history leaves [x0_lo, x0_hi] at t={when}"


def test_delay_inclusion_scalar_scenario():
    dist = _dist(SineSignal(1.0, 1.0))
    cfg = SimConfig(20.0, 0.05, [0.0], [-1.0], [1.0])
    trace = simulate(DELAY_SYS, np.zeros((1, 1)), dist, cfg)
    report = check_inclusion(trace, tol=1e-7)
    assert report.clean
    assert empirical_peak_gain(trace) <= 0.5 + 1e-3


def test_zero_delay_file_simulates_its_aggregate():
    # h = 0 leaves no past to hold: the trace is the continuous one of the
    # zero-delay aggregate (A + A_h, E, C + C_h, F), the plant design uses
    data = json.loads((CORPUS_DIR / "delay_scalar.json").read_text())
    data["h"] = 0.0
    pf = parse_problem_dict(data)
    sys, dist, cfg = pf.system(), pf.disturbance(), pf.sim_config()
    L = design(sys, pf.observer_spec()).L
    trace = simulate(sys, L, dist, cfg)
    aggregate = ContinuousSystem(sys.A + sys.A_h, sys.E, sys.C + sys.C_h, sys.F)
    expected = simulate(aggregate, L, dist, cfg)
    for name in ("times", "x", "x_lo", "x_hi", "w", "w_lo", "w_hi"):
        assert getattr(trace, name).tobytes() == getattr(expected, name).tobytes(), name
    assert check_inclusion(trace, tol=1e-7).clean


def test_simulators_refuse_mismatched_inputs():
    dist = _dist(SineSignal(0.5, 1.0))
    cases = [
        (lambda: simulate(CASE1, L1, dist, SimConfig(1.0, 0.1, [0.0], [-1.0], [1.0])),
         DimensionError, "x0 has size 1, plant has 2 states"),
        (lambda: simulate(
            CASE1, L1, DisturbanceModel([ConstantSignal(0.0)] * 2, [ConstantSignal(-1.0)] * 2,
                                        [ConstantSignal(1.0)] * 2),
            SimConfig(1.0, 0.1, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])),
         DimensionError, "disturbance has 2 channels, plant expects 1"),
        (lambda: simulate(
            CASE1, L1, dist, SimConfig(1.0, 0.1, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0]), form="loose"),
         PreconditionError, "unknown observer form 'loose'"),
        (lambda: simulate(
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
    a = simulate(sys_ct, np.zeros((1, 1)), dist, cfg)
    b = simulate(sys_d, np.zeros((1, 1)), dist, cfg)
    assert np.allclose(a.x, b.x, atol=1e-12)
    assert np.allclose(a.x_hi, b.x_hi, atol=1e-12)


# ---------------------------------------------------------------------------
# one entry point

def test_simulate_names_are_simulate_itself():
    # perfbench patches and calls these names; they are simulate, not wrappers
    for module in ("obsynth.simulation", "obsynth.benchmarks"):
        for name in ("simulate_ct", "simulate_delay", "simulate_dt"):
            assert getattr(importlib.import_module(module), name) is simulate, (module, name)


def test_a_delay_plant_handed_to_simulate_ct_keeps_its_delay():
    # simulate_ct once stepped this plant as if it had no delay, to
    # x(5) = 0.25; the trace is now the method of steps', pinned at
    # t = 0, 1, ..., 5 to the values simulate_delay gave
    plant = DelaySystem([[-2.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], 1.0)
    dist = DisturbanceModel([ConstantSignal(0.5)], [ConstantSignal(0.0)], [ConstantSignal(1.0)])
    cfg = SimConfig(5.0, 0.1, [0.2], [0.0], [1.0])
    trace = simulate_ct(plant, np.zeros((1, 1)), dist, cfg)
    want = [0.2, 0.3296997075145081, 0.3917344575088375, 0.42983239634896203,
            0.4548672658793941, 0.47103633214305907]
    assert trace.x[::10, 0] == pytest.approx(np.array(want), rel=1e-12, abs=0.0)
    _assert_matches_reference(trace, _reference_linear(plant, np.zeros((1, 1)), dist, cfg))


def test_a_discrete_plant_handed_to_simulate_delay_takes_its_recursion():
    # simulate_delay once raised a bare AttributeError on this plant; the
    # states at k = 0, 5, ..., 20 are pinned to the values simulate_dt gave
    plant = DiscreteSystem([[0.5, 0.1], [0.2, 0.3]], [[1.0], [0.5]], [[1.0, 0.0]], [[0.2]])
    dist = _dist(SineSignal(1.0, 1.0))
    cfg = SimConfig(20.0, 1.0, [0.1, 0.2], [-1.0, -1.0], [1.0, 1.0])
    L = np.array([[0.3], [0.1]])
    trace = simulate_delay(plant, L, dist, cfg)
    want = [[0.1, 0.2], [-0.2403536597404461, -0.020816218487290095],
            [1.00173032826568, 0.5792137117802428], [0.8832325753478836, 0.4039402206740177],
            [-0.49603761844816774, -0.34667141905339605]]
    assert trace.x[::5] == pytest.approx(np.array(want), rel=1e-12, abs=0.0)
    _assert_matches_reference(trace, _reference_linear(plant, L, dist, cfg))


@pytest.mark.parametrize(
    "plant",
    [
        DiscreteDelaySystem(0.5, 0.1, 1.0, 1.0, 0.0, 0.0),
        PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), 1.5, (1.0, 2.0), 1.0),
        object(),
    ],
    ids=["discrete-delay", "population", "object"],
)
def test_simulate_refuses_a_plant_it_cannot_step(plant):
    # a DiscreteDelaySystem stores no delay d, so it has no trace
    cfg = SimConfig(1.0, 0.5, [0.0], [-1.0], [1.0])
    with pytest.raises(PreconditionError) as exc:
        simulate(plant, np.zeros((1, 1)), _dist(ConstantSignal(0.0)), cfg)
    assert str(exc.value) == (
        f"cannot simulate a {type(plant).__name__}; "
        "expected one of ContinuousSystem, DelaySystem, DiscreteSystem"
    )


# ---------------------------------------------------------------------------
# discrete systems

DT_SYS = DiscreteSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]])


def test_discrete_recursion_is_exact():
    dist = _dist(SineSignal(0.8, 0.7))
    cfg = SimConfig(40.0, 1.0, [0.0], [-1.0], [1.0])
    L = np.array([[0.5]])
    trace = simulate(DT_SYS, L, dist, cfg)

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
    simulate(DT_SYS, L, dist, cfg).to_csv(str(p1))
    simulate(DT_SYS, L, dist, cfg).to_csv(str(p2))
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


@pytest.mark.parametrize(
    "field, value",
    [("decay", (math.nan, 2.0, 3.0)), ("growth", (math.inf, 4.0)), ("half_saturation", math.nan)],
    ids=["decay", "growth", "half_saturation"],
)
def test_population_model_refuses_non_finite_rates(field, value):
    with pytest.raises(SimulationError, match=rf"^{field} must be positive and finite$"):
        dataclasses.replace(POP, **{field: value})


@pytest.mark.parametrize("gain, kind", [("x", "str"), (None, "NoneType")])
def test_population_model_refuses_a_gain_that_is_neither_number_nor_callable(gain, kind):
    message = f"incidence_gain must be a real number or callable, not {kind}"
    with pytest.raises(SimulationError, match=rf"^{message}$"):
        dataclasses.replace(POP, incidence_gain=gain)


def test_population_model_refuses_an_infinite_incidence_bound():
    with pytest.raises(
        SimulationError, match=r"^incidence_bounds must satisfy 0 <= lo <= hi < inf$"
    ):
        PopulationModel((2, 2, 3), (3, 4), 1.5, (1.0, math.inf), 1.0)


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


def _closure_population_plant(model, x0, gain, gain_mid, h):
    """Reference RK4 stepper for the population plant, with one closure
    per stage evaluation and a numpy row store per step; the flat loop
    must match it bit for bit."""
    b1, b2, b3 = (float(v) for v in model.decay)
    a1, a2 = (float(v) for v in model.growth)
    sat = float(model.half_saturation)

    def f(x1, x2, x3, g):
        return -b1 * x1 + g * x3 / (x3 + sat), a1 * x1 - b2 * x2, a2 * x2 - b3 * x3

    half = h / 2.0
    sixth = h / 6.0
    out = np.empty((len(gain), 3))
    x1, x2, x3 = (float(v) for v in x0)
    grid = memoryview(gain)
    for k, (g0, g_mid, g1) in enumerate(zip(grid, memoryview(gain_mid), grid[1:])):
        p1, p2, p3 = f(x1, x2, x3, g0)
        q1, q2, q3 = f(x1 + half * p1, x2 + half * p2, x3 + half * p3, g_mid)
        r1, r2, r3 = f(x1 + half * q1, x2 + half * q2, x3 + half * q3, g_mid)
        s1, s2, s3 = f(x1 + h * r1, x2 + h * r2, x3 + h * r3, g1)
        out[k] = (x1, x2, x3)
        x1 += sixth * (p1 + 2.0 * q1 + 2.0 * r1 + s1)
        x2 += sixth * (p2 + 2.0 * q2 + 2.0 * r2 + s2)
        x3 += sixth * (p3 + 2.0 * q3 + 2.0 * r3 + s3)
    out[-1] = (x1, x2, x3)
    return out


def _both_population_plants(gain, dt, t_end):
    model = dataclasses.replace(POP, incidence_gain=gain)
    times = _grid(t_end, dt)
    args = (
        model,
        [0.1, 0.0, 0.0],
        _incidence_gains(model, times),
        _incidence_gains(model, times[:-1] + dt / 2.0),
        dt,
    )
    return _population_plant(*args), _closure_population_plant(*args)


@pytest.mark.parametrize(
    "gain",
    [1.5, SineSignal(0.5, 0.1, offset=1.5), lambda t: 1.5 + 0.5 * np.sin(0.1 * t)],
    ids=["constant", "sine", "lambda"],
)
def test_population_plant_matches_the_closure_loop_bit_for_bit(gain):
    got, want = _both_population_plants(gain, 0.01, 60.0)
    assert got.shape == (6001, 3)
    assert np.array_equal(got, want)


def test_population_plant_turns_non_finite_like_the_closure_loop():
    got, want = _both_population_plants(1.5, 2.0, 2000.0)
    assert np.array_equal(got, want, equal_nan=True)
    first = [int(np.argmin(np.isfinite(x).all(axis=1))) for x in (got, want)]
    assert first[0] == first[1] > 0
    cfg = SimConfig(2000.0, 2.0, [0.1, 0.0, 0.0], [0.01, 0.0, 0.0], [0.6, 0.8, 1.1])
    with pytest.raises(SimulationError, match=r"^state became non-finite at t=414$"):
        simulate_population(POP, np.array([[0.0], [0.0], [5.0]]), cfg)


@pytest.mark.parametrize("dt, t", [(0.7, 0.7), (1.0, 3.0)])
def test_population_refuses_a_negative_plant_state(dt, t):
    # RK4 at these steps drives a plant that starts nonnegative below
    # zero; at dt 0.7 the recruitment envelope used to take the blame,
    # and at dt 1.0 a trace with x3 near -1e11 was returned
    x = _both_population_plants(1.5, dt, 60.0)[1]
    assert x[: round(t / dt)].min() >= 0.0 > x[round(t / dt)].min()
    cfg = SimConfig(60.0, dt, [0.1, 0.0, 0.0], [0.01, 0.0, 0.0], [0.6, 0.8, 1.1])
    message = rf"^plant state became negative at t={t:g}: the RK4 step dt={dt:g} is too large"
    with pytest.raises(SimulationError, match=message):
        simulate_population(POP, np.array([[0.0], [0.0], [5.0]]), cfg)


@pytest.mark.parametrize("late", [math.nan, 3.0], ids=["nan", "above"])
def test_population_refuses_a_gain_outside_its_bounds(late):
    # the gain leaves [1, 2] after t = 1; the first sample the RK4 plant
    # reads there is the half step at t = 1.005, and a NaN is outside too
    model = PopulationModel(
        (2, 2, 3), (3, 4), lambda t: late if t > 1 else 1.5, (1.0, 2.0), 1.0
    )
    cfg = SimConfig(5, 0.01, [0.1, 0, 0], [0.01, 0, 0], [0.6, 0.8, 1.1])
    with pytest.raises(SimulationError, match=r"^recruitment leaves its envelope at t=1\.005$"):
        simulate_population(model, [[0], [0], [5]], cfg)


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
    a, b = (simulate(DELAY_SYS, np.zeros((1, 1)), dist, c) for c in cfgs)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.x_hi, b.x_hi)

    # a numpy ufunc has an `at` method of its own, yet it is sampled
    # point by point like the lambda that wraps it
    ct_cfg = SimConfig(5.0, 0.01, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
    a, b = (
        simulate(CASE1, L1, _dist(w, -2.0, 2.0), ct_cfg)
        for w in (np.sin, lambda t: np.sin(t))
    )
    for name in ("x", "x_lo", "x_hi", "w"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    tanh = PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), np.tanh, (0.0, 1.0), 1.0)
    assert tanh.gain_at(0.5) == np.tanh(0.5)
    a, b = (
        simulate_population(dataclasses.replace(tanh, incidence_gain=g), L, cfg)
        for g in (np.tanh, lambda t: np.tanh(t))
    )
    for name in ("x", "x_lo", "x_hi", "w", "w_lo", "w_hi"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


# ---------------------------------------------------------------------------
# the blocked recurrence against a plain per-step loop


def _plain_recur(phi, X0, G):
    out = [X0]
    with np.errstate(over="ignore", invalid="ignore"):
        for g in G:
            out.append(phi @ out[-1] + g)
    return np.array(out)


def _step_matrix(kind, n, rng):
    """A positive matrix with every row sum equal, so its spectral radius
    is that sum: below, at and above 1."""
    if kind == "identity":
        return np.eye(n)
    M = rng.random((n, n))
    return M / M.sum(axis=1, keepdims=True) * {"stable": 0.98, "growing": 1.0003}[kind]


@pytest.mark.parametrize("columns", [None, 2], ids=["vector", "matrix"])
@pytest.mark.parametrize("kind", ["stable", "identity", "growing"])
@pytest.mark.parametrize("K", [1, 2, 3, 15, 16, 17, 4000, 13001])
def test_recur_matches_the_plain_loop(K, kind, columns):
    # `matrix` steps its columns as the blocks of one block-diagonal
    # loop, the way the population observer pair is stepped
    rng = np.random.default_rng(K)
    phi = _step_matrix(kind, 4, rng)
    shape = (4,) if columns is None else (4, columns)
    X0, G = rng.random(shape), rng.standard_normal((K,) + shape)
    want = _plain_recur(phi, X0, G)
    if columns is None:
        got = _recur(phi, X0, G)
    else:
        G = np.swapaxes(G, 1, 2).reshape(K, -1)
        joint = _recur(np.kron(np.eye(columns), phi), X0.T.ravel(), G)
        got = np.swapaxes(joint.reshape(K + 1, columns, 4), 1, 2)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_recur_chunk_starts_do_not_drift_over_a_long_loop():
    rng = np.random.default_rng(9)
    phi = _step_matrix("stable", 9, rng)
    X0, G = rng.random(9), rng.random((10**5, 9))
    got, want = _recur(phi, X0, G), _plain_recur(phi, X0, G)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("rate, x0", [(50.0, 1.0), (100.0, 1e-300)])
def test_recur_turns_non_finite_at_the_plain_loops_row(rate, x0):
    # 100 steps give chunks of 10.  For e^50 the tenth power is finite
    # but the third chunk start, e^1000, overflows; for e^100 the tenth
    # power overflows and the chunks shrink to 5.  Either way x_k =
    # x0 e^{rate k} first overflows at k = 15.
    phi, X0, G = np.array([[math.exp(rate)]]), np.array([x0]), np.zeros((100, 1))

    def first_non_finite(X):
        return int(np.argmin(np.isfinite(X).all(axis=1)))

    assert first_non_finite(_recur(phi, X0, G)) == first_non_finite(_plain_recur(phi, X0, G)) == 15


# ---------------------------------------------------------------------------
# the simulators against a plain per-step loop


def _exact_step(A, h):
    """One step of x' = A x + u with u linear over the step, as a function
    of x and u at both ends: the state [x, u, u'] is autonomous, so
    scipy's expm of its generator steps it exactly.  The slope
    u' = (u1 - u0) / h is folded into the step matrix, so that no input
    is inflated before it is stepped."""
    eye, zero = np.eye(A.shape[0]), np.zeros(A.shape)
    gen = np.block([[A, eye, zero], [zero, zero, eye], [zero, zero, zero]])
    phi, to_u, to_slope = np.split(expm(h * gen)[: A.shape[0]], 3, axis=1)
    step = np.hstack([phi, to_u - to_slope / h, to_slope / h])
    return lambda x, u0, u1: step @ np.concatenate([x, u0, u1])


def _reference_linear(sys, L, dist, cfg, form="standard"):
    """simulate of a continuous, delay or discrete plant as a plain per-step loop
    that reads every signal, and the history, at one time at a time."""
    W = lambda t: np.array([s(t) for s in dist.w + dist.w_lo + dist.w_hi])  # noqa: E731
    joint = [np.concatenate([cfg.x0, cfg.x0_lo, cfg.x0_hi])]
    if isinstance(sys, DiscreteSystem):
        times = _grid(cfg.t_end, cfg.dt)
        big_a, big_b = _joint_affine(sys.A_d, sys.E_d, sys.C_d, sys.F_d, L)
        for t in times[:-1]:
            joint.append(big_a @ joint[-1] + big_b @ W(t))
    else:
        big_a, big_b = _joint_affine(sys.A, sys.E, sys.C, sys.F, L, form)
        delayed = isinstance(sys, DelaySystem)
        m = int(np.ceil(sys.h / cfg.dt - 1e-9)) if delayed else 0
        dt = sys.h / m if delayed else cfg.dt
        times = _grid(cfg.t_end, dt)
        past = cfg.history or [ConstantSignal(v) for v in cfg.x0]
        if delayed:
            lag = _joint_affine(sys.A_h, sys.E, sys.C_h, sys.F, L)[0]

        def u(k):  # the input at grid time k, the lag one delay back included
            if not delayed:
                return big_b @ W(times[k])
            back = joint[k - m] if k >= m else np.concatenate(
                [[s((k - m) * dt) for s in past], cfg.x0_lo, cfg.x0_hi]
            )
            return big_b @ W(times[k]) + lag @ back

        step = _exact_step(big_a, dt)
        for k in range(times.size - 1):
            joint.append(step(joint[k], u(k), u(k + 1)))
    w = np.array([W(t) for t in times])
    return Trace(times, *np.split(np.array(joint), 3, axis=1), *np.split(w, 3, axis=1))


def _reference_population(model, L, cfg):
    """simulate_population as a plain classical RK4 loop for the plant,
    then the per-step loop for each observer, driven by the plant's
    states on the grid."""
    sys = model.system()
    times, h = _grid(cfg.t_end, cfg.dt), cfg.dt

    def f(t, x):
        return sys.A @ x + sys.E[:, 0] * model.incidence(x[2], model.gain_at(t))

    x = [cfg.x0]
    for t in times[:-1]:
        k1 = f(t, x[-1])
        k2 = f(t + h / 2.0, x[-1] + h / 2.0 * k1)
        k3 = f(t + h / 2.0, x[-1] + h / 2.0 * k2)
        k4 = f(t + h, x[-1] + h * k3)
        x.append(x[-1] + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    y = np.array(x)[:, 2]
    step = _exact_step(sys.A - L @ sys.C, h)
    observers = []
    for a, start in zip(model.incidence_bounds, (cfg.x0_lo, cfg.x0_hi)):
        u = [L[:, 0] * v + sys.E[:, 0] * model.incidence(v, a) for v in y]
        X = [start]
        for k in range(times.size - 1):
            X.append(step(X[k], u[k], u[k + 1]))
        observers.append(np.array(X))
    w = np.array([[model.incidence(v, model.gain_at(t))] for t, v in zip(times, y)])
    edges = [model.incidence(y, a)[:, None] for a in model.incidence_bounds]
    return Trace(times, np.array(x), *observers, w, *edges)


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
def test_corpus_traces_match_the_plain_step_loop(case):
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
        # dt = h: the lag reads the row being stepped from
        (DELAY_SYS, np.array([[0.5]]), SimConfig(6.0, 1.0, [0.3], [-1.0], [1.0])),
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
        # m = 80 steps per delay interval, 250 intervals
        (
            DELAY_2,
            np.array([[0.3], [1.0]]),
            SimConfig(200.0, 0.01, [0.5, 0.0], [-1.0, -1.0], [1.0, 1.0]),
        ),
        # x' = 10 x + x(t - 1/2) grows like e^{10t} and overflows near t = 71
        (
            DelaySystem([[10.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], 0.5),
            np.zeros((1, 1)),
            SimConfig(100.0, 0.05, [0.5], [-1.0], [1.0]),
        ),
        # x' = 5 x + 20 x(t - 1/2): the delayed term drives the growth, and
        # the trace first turns non-finite at t = 118.1
        (
            DelaySystem([[5.0]], [[20.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], 0.5),
            np.zeros((1, 1)),
            SimConfig(130.0, 0.05, [0.5], [-1.0], [1.0]),
        ),
    ],
    ids=[
        "scalar", "two-state", "whole-delay", "held-history", "long", "diverging",
        "diverging-through-the-delay",
    ],
)
def test_delay_traces_match_the_plain_step_loop(sys, L, cfg):
    dist = _dist(SineSignal(1.0, 1.0))
    with np.errstate(all="ignore"):
        ref = _reference_linear(sys, L, dist, cfg)
    finite = np.isfinite(np.hstack([ref.x, ref.x_lo, ref.x_hi])).all(axis=1)
    if finite.all():
        _assert_matches_reference(simulate(sys, L, dist, cfg), ref)
        return
    t = ref.times[int(np.argmin(finite))]
    with pytest.raises(SimulationError, match=rf"^state became non-finite at t={t:.6g}$"):
        simulate(sys, L, dist, cfg)


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
def test_population_traces_match_the_plain_step_loop(gain, bounds, cfg):
    model = PopulationModel((2.0, 2.0, 3.0), (3.0, 4.0), gain, bounds, 1.0)
    L = np.array([[0.0], [0.0], [5.0]])
    trace = simulate_population(model, L, cfg)
    _assert_matches_reference(trace, _reference_population(model, L, cfg))
