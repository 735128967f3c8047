"""Trajectory simulation for plants together with their interval observers.

`simulate(plant, L, dist, config, form)` is the one simulator of the
linear plant types.  Like design, it reads the plant's roles
(`MATRICES`, `DISCRETE`, the lag maps and the delay h): a discrete
plant takes the exact recursion, a continuous one the exact step, and a
delayed one the method of steps, or at h = 0 the exact step of its
zero-delay aggregate.  Plant and both observer copies are stepped as
one joint system.  `simulate_ct`, `simulate_delay` and `simulate_dt`
are `simulate` itself, kept as names for the benchmark's tracer.

Inputs are read on the time grid and held linear between grid values.
One step of x' = A x + u(t) is then exactly the affine map

    x+ = Phi x + W0 u_k + W1 u_{k+1},

with Phi = e^{hA} and the input weights W0, W1 taken from one matrix
exponential (see _step_maps).  The maps are built once per trace and
the inputs on the grid are evaluated in one vectorized pass.  Constant
and linear inputs are therefore stepped exactly, and the step size does
not decide stability.  The population model is nonlinear, but its
plant does not depend on the observers: the plant is stepped alone by
classical RK4 in one flat loop of Python floats (a state it drives below
zero is refused), and its states on the grid drive the observer pair,
one system of two block-diagonal copies of A - L C.  Every linear
trace, a delayed one interval by interval, runs one blocked
recurrence (_recur): the K steps of x+ = Phi x + g_k are cut into
chunks of about sqrt(K), and all chunks advance at once.  Each chunk's
start is carried through Phi^B, B the chunk length, and its rows are
then stepped one by one from that start, so the trace agrees with
sequential stepping to rounding; B halves while Phi^B overflows.

Signals are evaluated by one zero-order hold, PiecewiseConstantSignal,
and by SineSignal; constant and sampled signals are holds.  Each defines
the vectorized at(times), and a call at one time is at() at that time.
Every signal parameter must be a finite real.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError, SimulationError, UndefinedGainError
from .linalg import _finite, _finite_real, _real, _shaped, as_vector, split_pos_neg
from .positive import ContinuousSystem, DelaySystem, DiscreteSystem, Plant

BOUND_TOL = 1e-12

# Taylor degree of _expm; at a 1-norm below 1 the tail is below 1e-17
_TAYLOR_DEGREE = 18


class Signal:
    """Base of the signal types: each defines the vectorized `at(times)`,
    and a scalar call is `at` at one time."""

    def __call__(self, t: float) -> float:
        return float(self.at(t))


class SineSignal(Signal):
    """offset + amplitude * sin(omega * t + phase)."""

    def __init__(self, amplitude: float, omega: float, phase: float = 0.0, offset: float = 0.0):
        self.amplitude = _finite_real(amplitude, "amplitude")
        self.omega = _finite_real(omega, "omega")
        self.phase = _finite_real(phase, "phase")
        self.offset = _finite_real(offset, "offset")

    def at(self, times: np.ndarray) -> np.ndarray:
        """The signal at every time."""
        return self.offset + self.amplitude * np.sin(self.omega * np.asarray(times) + self.phase)


class PiecewiseConstantSignal(Signal):
    """Levels switched at ascending breakpoints.

    level[i] holds on [breakpoints[i-1], breakpoints[i]); level[0]
    before the first breakpoint, level[-1] after the last, so there must
    be one more level than breakpoints.  This zero-order hold is the one
    evaluator behind the constant and sampled signals as well.
    """

    def __init__(self, breakpoints, levels):
        self.breakpoints = as_vector(breakpoints, "breakpoints").tolist()
        self.levels = as_vector(levels, "levels").tolist()
        if sorted(self.breakpoints) != self.breakpoints:
            raise DimensionError("breakpoints must be ascending")
        if len(self.levels) != len(self.breakpoints) + 1:
            raise DimensionError("need exactly one more level than breakpoints")

    def at(self, times: np.ndarray) -> np.ndarray:
        """The signal at every time."""
        return np.array(self.levels)[np.searchsorted(self.breakpoints, times, side="right")]


class ConstantSignal(PiecewiseConstantSignal):
    """Scalar signal frozen at one value: one level, no breakpoint."""

    def __init__(self, value: float):
        super().__init__([], [_finite_real(value, "value")])


class SampledSignal(PiecewiseConstantSignal):
    """Zero-order hold over sample times; clamps before the first sample.

    Sample k holds from times[k] on, and sample 0 also before it, so the
    breakpoints are the sample times after the first.
    """

    def __init__(self, times, values):
        times = as_vector(times, "times").tolist()
        values = as_vector(values, "values")
        if len(times) != len(values) or not times:
            raise DimensionError("times and values must be equal-length and nonempty")
        if sorted(times) != times:
            raise DimensionError("sample times must be ascending")
        super().__init__(times[1:], values)


def _sample(signal, times: np.ndarray) -> np.ndarray:
    """A signal at every time: vectorized through a `Signal`'s `at`, point
    by point for any other callable (a numpy ufunc has an unrelated `at`)."""
    if isinstance(signal, Signal):
        return signal.at(times)
    return np.array([signal(t) for t in times], dtype=float)


def _require_callables(signals: list, name: str) -> None:
    """Refuse a signal list that is not a list (or tuple), or an entry
    that cannot be called with a time."""
    if not isinstance(signals, (list, tuple)):
        raise DimensionError(f"{name} must be a list of signals, got {type(signals).__name__}")
    for k, signal in enumerate(signals):
        if not callable(signal):
            raise SimulationError(f"{name}[{k}] is not callable")


def _sample_all(signals: list, times: np.ndarray) -> np.ndarray:
    """Signals side by side, shape (len(times), len(signals))."""
    out = np.empty((times.size, len(signals)))
    for j, signal in enumerate(signals):
        out[:, j] = _sample(signal, times)
    return out


@dataclass
class DisturbanceModel:
    """Per-channel disturbance signals with their known envelope."""

    w: list
    w_lo: list
    w_hi: list

    def __post_init__(self):
        for name in ("w", "w_lo", "w_hi"):
            _require_callables(getattr(self, name), name)
        if not (len(self.w) == len(self.w_lo) == len(self.w_hi)):
            raise DimensionError("disturbance channel lists differ in length")

    @property
    def p(self) -> int:
        return len(self.w)

    def eval(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w, w_lo, w_hi = self.at(np.array([float(t)]))
        return w[0], w_lo[0], w_hi[0]

    def at(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, w_lo, w_hi) at every time, each of shape (len(times), p)."""
        times = np.asarray(times, dtype=float)
        return tuple(_sample_all(s, times) for s in (self.w, self.w_lo, self.w_hi))


@dataclass
class SimConfig:
    """Time grid and initial data; history callables feed a delayed
    plant on [-h, 0] (constant at x0 when omitted)."""

    t_end: float
    dt: float
    x0: np.ndarray
    x0_lo: np.ndarray
    x0_hi: np.ndarray
    history: list | None = None

    def __post_init__(self):
        self.t_end = _real(self.t_end)
        self.dt = _real(self.dt)
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise SimulationError("t_end must be a positive real")
        if not (np.isfinite(self.dt) and 0.0 < self.dt <= self.t_end):
            raise SimulationError("dt must lie in (0, t_end]")
        self.x0 = as_vector(self.x0, "x0")
        self.x0_lo = as_vector(self.x0_lo, "x0_lo", self.x0.size)
        self.x0_hi = as_vector(self.x0_hi, "x0_hi", self.x0.size)
        if np.any(self.x0 < self.x0_lo) or np.any(self.x0 > self.x0_hi):
            raise SimulationError("x0 must lie inside [x0_lo, x0_hi]")
        if self.history is not None:
            _require_callables(self.history, "history")


@dataclass
class Trace:
    """Simulated trajectories plus the interval errors they imply."""

    times: np.ndarray
    x: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    w: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray
    e_lo: np.ndarray = field(init=False)
    e_hi: np.ndarray = field(init=False)

    def __post_init__(self):
        self.e_lo = self.x - self.x_lo
        self.e_hi = self.x_hi - self.x

    def to_csv(self, path: str) -> None:
        n = self.x.shape[1]
        p = self.w.shape[1]
        names = ["t"]
        for prefix in ("x", "xlo", "xhi"):
            names += [f"{prefix}{i + 1}" for i in range(n)]
        for prefix in ("w", "wlo", "whi"):
            names += [f"{prefix}{i + 1}" for i in range(p)]
        table = np.column_stack(
            [self.times, self.x, self.x_lo, self.x_hi, self.w, self.w_lo, self.w_hi]
        )
        with open(path, "w") as fh:
            np.savetxt(
                fh, table, fmt="%.17g", delimiter=",", header=",".join(names), comments=""
            )


@dataclass
class InclusionReport:
    """First interval violation (if any) and the worst margin seen."""

    clean: bool
    min_margin: float
    time: float | None = None
    component: int | None = None
    side: str | None = None
    margin: float | None = None


def check_inclusion(trace: Trace, tol: float = 1e-7) -> InclusionReport:
    """Verify x_lo <= x <= x_hi along the whole trace within tol >= 0
    (tol = inf passes every trace)."""
    given, tol = tol, _real(tol)
    if not tol >= 0.0:  # a NaN fails too
        raise PreconditionError(f"tol must be a nonnegative real, got {given!r}")
    lower, upper = trace.e_lo, trace.e_hi
    min_margin = float(min(lower.min(), upper.min()))
    if min_margin >= -tol:
        return InclusionReport(True, min_margin)
    margins = np.minimum(lower, upper)
    k = int(np.argmax(margins.min(axis=1) < -tol))
    comp = int(np.argmin(margins[k]))
    side = "lower" if lower[k, comp] <= upper[k, comp] else "upper"
    return InclusionReport(
        False,
        min_margin,
        time=float(trace.times[k]),
        component=comp,
        side=side,
        margin=float(margins[k, comp]),
    )


def empirical_peak_gain(trace: Trace, burn_in: float = 0.5) -> float:
    """Peak error over peak envelope width, after a burn-in.

    The numerator takes ||e|| at its peak over t >= burn_in * t_end on
    both observer errors; the denominator is the peak envelope slack
    max(||w_hi - w||, ||w - w_lo||) over the same window.  A degenerate
    denominator (exactly known disturbance) has no finite ratio.
    """
    given, burn_in = burn_in, _real(burn_in)
    if not (np.isfinite(burn_in) and burn_in <= 1.0):
        raise PreconditionError(f"burn_in must be a finite real at most 1, got {given!r}")
    start = burn_in * trace.times[-1]
    window = trace.times >= start - BOUND_TOL
    num = max(
        float(np.max(np.abs(trace.e_hi[window]))),
        float(np.max(np.abs(trace.e_lo[window]))),
    )
    den = max(
        float(np.max(np.abs(trace.w_hi[window] - trace.w[window]))),
        float(np.max(np.abs(trace.w[window] - trace.w_lo[window]))),
    )
    if den < 1e-30:
        raise UndefinedGainError("disturbance envelope has zero width on the window")
    return num / den


def _joint_state(A: np.ndarray, LC: np.ndarray) -> np.ndarray:
    """State map of X = [x, x_lo, x_hi]: the plant, and two observer
    copies that share A - LC and read the plant through LC."""
    zero = np.zeros_like(A)
    Acl = A - LC
    return np.block([[A, zero, zero], [LC, Acl, zero], [LC, zero, Acl]])


def _joint_input(E, F, L, form) -> np.ndarray:
    """Input map of X = [x, x_lo, x_hi] given W = [w, w_lo, w_hi].

    Standard form feeds the matching envelope edge through E - LF >= 0.
    The relaxed form splits B = E - LF into positive and negative parts
    and steers each with the envelope edge that keeps the error one-sided.
    """
    n, p = E.shape
    LF = L @ F
    B = E - LF
    zero = np.zeros((n, p))
    if form == "standard":
        lo = np.hstack([LF, B, zero])
        hi = np.hstack([LF, zero, B])
    else:
        Bp, Bm = split_pos_neg(B)
        lo = np.hstack([LF, Bp, -Bm])
        hi = np.hstack([LF, -Bm, Bp])
    return np.vstack([np.hstack([E, np.zeros((n, 2 * p))]), lo, hi])


def _expm(M: np.ndarray) -> np.ndarray:
    """e^M by scaling and squaring: a Taylor sum of M / 2^s, with s the
    least that brings its 1-norm below 1, squared s times."""
    s = max(0, int(np.frexp(np.abs(M).sum(axis=0).max())[1]))
    X = M / 2.0**s
    eye = np.eye(M.shape[0])
    E = eye
    for j in range(_TAYLOR_DEGREE, 0, -1):
        E = eye + X @ E / j
    for _ in range(s):
        E = E @ E
    return E


def _step_maps(A: np.ndarray, h: float):
    """(Phi, W0, W1) of the exact step x+ = Phi x + W0 u_k + W1 u_{k+1} of
    x' = A x + u over a step h, with u linear between its grid values:
    Phi = e^{hA}, W0 = h (phi1 - phi2)(hA) and W1 = h phi2(hA).  The top
    block row of e^{hM}, M = [[A, I, 0], [0, 0, I], [0, 0, 0]], is
    [Phi, h phi1(hA), h^2 phi2(hA)] (Van Loan 1978)."""
    k = A.shape[0]
    eye, zero = np.eye(k), np.zeros((k, k))
    M = np.block([[A, eye, zero], [zero, zero, eye], [zero, zero, zero]])
    # an overflowing plant is reported once per trace, by _check_finite
    with np.errstate(over="ignore", invalid="ignore"):
        phi, hphi1, hhphi2 = np.split(_expm(h * M)[:k], 3, axis=1)
        W1 = hhphi2 / h
        return phi, hphi1 - W1, W1


def _recur(phi: np.ndarray, x0: np.ndarray, G: np.ndarray) -> np.ndarray:
    """x[k+1] = Phi x[k] + G[k] from x[0] = x0.

    The K = len(G) steps are cut into chunks of B, about sqrt(K), and
    every loop below runs over all chunks at once: each chunk is first
    stepped from zero, which gives its end offset; the chunk starts are
    then carried through P = Phi^B; and each chunk is stepped again from
    its start, row by row.  So every row comes from its chunk's start by
    the one-step formula, and the trace agrees with sequential stepping
    to rounding.  B halves while P has a non-finite entry, down to 1,
    the plain loop, so a diverging trace turns non-finite at the same row.
    """
    K = len(G)
    out = np.empty((K + 1, phi.shape[0]))
    out[0] = x0
    # rows hold the state, stepped as x+ = x Phi^T + g
    step = phi.T
    # a diverging state is reported once per trace, by _check_finite
    with np.errstate(over="ignore", invalid="ignore"):
        B = max(1, math.isqrt(K))
        P = np.linalg.matrix_power(step, B)
        while B > 1 and not _finite(P):
            B //= 2
            P = np.linalg.matrix_power(step, B)
        # chunk q steps rows qB .. qB + B, and every chunk before the last
        # is full; ends holds their end offsets, each stepped from zero
        ends = np.zeros(((K - 1) // B, phi.shape[0]))
        for j in range(B):
            ends = ends @ step + G[j::B][: len(ends)]
        for q, end in enumerate(ends):
            out[(q + 1) * B] = out[q * B] @ P + end
        Z = out[:K:B]
        for j in range(B):
            Z = out[j + 1 :: B] = Z[: len(G[j::B])] @ step + G[j::B]
    return out


def _check_finite(times: np.ndarray, *states: np.ndarray) -> None:
    """Raise at the first grid time at which any state is non-finite."""
    ok = np.logical_and.reduce([np.isfinite(s).all(axis=1) for s in states])
    if not ok.all():
        k = int(np.argmin(ok))
        raise SimulationError(f"state became non-finite at t={times[k]:.6g}")


def _grid(t_end: float, dt: float) -> np.ndarray:
    steps = max(1, int(np.ceil(t_end / dt - 1e-9)))
    return dt * np.arange(steps + 1)


def _outside(v: np.ndarray, lo, hi) -> tuple[np.ndarray, ...]:
    """Indices, in row-major order, of the entries of v outside [lo, hi]
    widened by BOUND_TOL; written as "not inside" so that a NaN value or
    bound is outside."""
    return np.nonzero(~((lo - BOUND_TOL <= v) & (v <= hi + BOUND_TOL)))


def _check_x0(config: SimConfig, n: int) -> None:
    if config.x0.size != n:
        raise DimensionError(f"x0 has size {config.x0.size}, plant has {n} states")


def _linear_setup(plant: Plant, L, dist: DisturbanceModel, config: SimConfig, dt: float):
    """The checked gain, the grid of step dt, W = [w, w_lo, w_hi] on it
    (each channel inside its envelope) and X0 = [x0, x0_lo, x0_hi]."""
    L = _shaped(L, "L", plant.n, plant.r)
    _check_x0(config, plant.n)
    times = _grid(config.t_end, dt)
    if dist.p != plant.p:
        raise DimensionError(f"disturbance has {dist.p} channels, plant expects {plant.p}")
    w, w_lo, w_hi = dist.at(times)
    bad = _outside(w, w_lo, w_hi)
    if bad[0].size:
        k = int(bad[0][0])
        raise SimulationError(
            f"disturbance leaves its envelope at t={times[k]:.6g} "
            f"(channel {int(bad[1][0]) + 1})"
        )
    X0 = np.concatenate([config.x0, config.x0_lo, config.x0_hi])
    return L, times, np.hstack([w, w_lo, w_hi]), X0


def _drive(W0: np.ndarray, W1: np.ndarray, B: np.ndarray, W: np.ndarray) -> np.ndarray:
    """W0 B W[k] + W1 B W[k+1] for every step: the input B W held linear
    between its grid values."""
    with np.errstate(over="ignore", invalid="ignore"):
        return W[:-1] @ (W0 @ B).T + W[1:] @ (W1 @ B).T


def simulate(
    plant: Plant,
    L: np.ndarray,
    dist: DisturbanceModel,
    config: SimConfig,
    form: str = "standard",
) -> Trace:
    """Step plant and observers as one joint linear system.

    The plant's roles decide the step.  A discrete plant takes the exact
    recursion, dt its sample period.  A continuous plant, and a delayed
    one at h = 0 as its zero-delay aggregate (A + A_h, C + C_h), takes
    the exact step.  A delayed plant at h > 0 takes the method of steps:
    the step is snapped to h / m, the least m with h / m <= dt, so the
    state one delay back lands on the grid; a step above h becomes h.
    One array X holds the history on the grid in rows 0..m-1 (observers
    at their initial bounds) and the trace from row m, so the state one
    delay back from step k is row k.  The lag enters like any input, held
    linear between rows k and k + 1.  The m steps from row m + k read
    rows k .. k + m, all stored, so `_recur` steps one delay interval
    at a time on a drive known in advance.  A `DiscreteDelaySystem`
    stores no delay d, so it has no trace.
    """
    kinds = (ContinuousSystem, DelaySystem, DiscreteSystem)
    if not isinstance(plant, kinds):
        names = ", ".join(kind.__name__ for kind in kinds)
        raise PreconditionError(
            f"cannot simulate a {type(plant).__name__}; expected one of {names}"
        )
    plant.check_form(form)
    a, e, c, f, *lag = plant.MATRICES
    A, E, C, F = (getattr(plant, name) for name in (a, e, c, f))
    delayed = bool(lag) and plant.h > 0.0
    if lag and not delayed:
        A, C = plant.stability_pair()
    dt = config.dt
    if delayed:
        m = max(1, int(np.ceil(plant.h / dt - 1e-9)))
        dt = plant.h / m
        if abs(dt - config.dt) > 1e-12 * config.dt:
            warnings.warn(
                f"step adjusted from {config.dt:.6g} to {dt:.6g} to divide the delay",
                stacklevel=2,
            )

    L, times, W, X0 = _linear_setup(plant, L, dist, config, dt)
    joint, B = _joint_state(A, L @ C), _joint_input(E, F, L, form)

    if plant.DISCRETE:
        X = _recur(joint, X0, W[:-1] @ B.T)
    elif not delayed:
        phi, W0, W1 = _step_maps(joint, dt)
        X = _recur(phi, X0, _drive(W0, W1, B, W))
    else:
        n = plant.n
        history = config.history
        if history is None:
            history = [ConstantSignal(v) for v in config.x0]
        if len(history) != n:
            raise DimensionError("history needs one signal per plant state")
        hist_grid = dt * np.arange(-m, 1)
        past = _sample_all(history, hist_grid)
        outside = _outside(past, config.x0_lo, config.x0_hi)[0]
        if outside.size:
            theta = hist_grid[outside[0]]
            raise SimulationError(f"plant history leaves [x0_lo, x0_hi] at t={theta:.6g}")

        phi, W0, W1 = _step_maps(joint, dt)
        G = _drive(W0, W1, B, W)
        delay = _joint_state(getattr(plant, lag[0]), L @ getattr(plant, lag[1]))
        X = np.empty((m + times.size, 3 * n))
        X[:m, :n] = past[:-1]
        X[:m, n:] = X0[n:]
        X[m] = X0
        with np.errstate(over="ignore", invalid="ignore"):
            lag0, lag1 = (W0 @ delay).T, (W1 @ delay).T
            for k in range(0, len(G), m):
                j = min(m, len(G) - k)  # the last interval may be shorter
                g = G[k : k + j] + X[k : k + j] @ lag0 + X[k + 1 : k + j + 1] @ lag1
                X[m + k : m + k + j + 1] = _recur(phi, X[m + k], g)
        X = X[m:]
    _check_finite(times, X)
    return Trace(times, *np.split(X, 3, axis=1), *np.split(W, 3, axis=1))


# perfbench/tracer.py patches these names in benchmarks, where simulate_problem calls them
simulate_ct = simulate_delay = simulate_dt = simulate


def _entries(values) -> list:
    """A rate list's entries; a single number (or text) is one entry."""
    if isinstance(values, str):
        return [values]
    try:
        return list(values)
    except TypeError:
        return [values]


@dataclass
class PopulationModel:
    """Three-stage population chain driven by saturating recruitment.

    Stages decay at rates `decay` and feed forward at rates `growth`;
    new entries arrive in stage 1 at rate a(t) * x3 / (x3 + b), where
    only the interval `incidence_bounds` for a is known online while
    the plant itself evolves with the true `incidence_gain` (a constant
    or a signal of time).  Stage 3 is measured, which both closes the
    observer loop and lets the recruitment envelope be computed from
    data.
    """

    decay: list[float]
    growth: list[float]
    incidence_gain: float  # or a time -> float callable
    incidence_bounds: list[float]
    half_saturation: float

    def __post_init__(self):
        # every rate is stored as floats once read, so no later use meets
        # text
        for name, count in (("decay", 3), ("growth", 2), ("incidence_bounds", 2)):
            values = _entries(getattr(self, name))
            if len(values) != count:
                raise SimulationError(f"{name} takes {count} values, got {len(values)}")
            setattr(self, name, [_real(v) for v in values])
        self.half_saturation = _real(self.half_saturation)
        for name in ("decay", "growth", "half_saturation"):
            # a NaN fails the comparison, so it is refused too
            if not all(0.0 < v < math.inf for v in np.ravel(getattr(self, name))):
                raise SimulationError(f"{name} must be positive and finite")
        lo, hi = self.incidence_bounds
        if not 0.0 <= lo <= hi < math.inf:
            raise SimulationError("incidence_bounds must satisfy 0 <= lo <= hi < inf")
        gain = self.incidence_gain
        if not (callable(gain) or isinstance(gain, numbers.Real)):
            raise SimulationError(
                f"incidence_gain must be a real number or callable, not {type(gain).__name__}"
            )
        # a time-varying gain is only checkable sample by sample, which
        # simulate_population does; a constant is checked here
        if not callable(gain) and not lo <= gain <= hi:
            raise SimulationError("incidence_gain must lie inside incidence_bounds")

    def gain_at(self, t: float) -> float:
        return float(_incidence_gains(self, np.array([float(t)]))[0])

    def system(self) -> ContinuousSystem:
        """The linear part, with recruitment as a scalar disturbance."""
        b1, b2, b3 = self.decay
        a1, a2 = self.growth
        A = np.array([[-b1, 0.0, 0.0], [a1, -b2, 0.0], [0.0, a2, -b3]])
        E = np.array([[1.0], [0.0], [0.0]])
        C = np.array([[0.0, 0.0, 1.0]])
        F = np.zeros((1, 1))
        return ContinuousSystem(A, E, C, F)

    def incidence(self, x3: float, gain: float) -> float:
        return gain * x3 / (x3 + self.half_saturation)

    def stabilizing_threshold(self) -> float:
        """Measured-stage gain above which A - LC (L = [0, 0, l3]) is
        Hurwitz for every admissible chain; the chain is triangular, so
        the first two stages are stable on their own and only the third
        diagonal entry moves."""
        b2, b3 = self.decay[1], self.decay[2]
        a1 = self.growth[0]
        a2 = self.growth[1]
        return a2 * max(1.0, a1 / b2) - b3


def _incidence_gains(model: PopulationModel, times: np.ndarray) -> np.ndarray:
    gain = model.incidence_gain
    if callable(gain):
        return _sample(gain, times)
    return np.full(times.size, float(gain))


def _population_plant(
    model: PopulationModel, x0, gain: np.ndarray, gain_mid: np.ndarray, h: float
) -> np.ndarray:
    """Classical RK4 for the population plant alone, in Python floats,
    with the incidence gain given on the grid and on the half-step grid.
    Returns the states on the grid, shape (len(gain), 3), stored row by
    row through a memoryview of one preallocated array.  The stages are
    written out in the expression order the tests pin bit for bit."""
    b1, b2, b3 = model.decay
    a1, a2 = model.growth
    sat = model.half_saturation
    nb1 = -b1
    half = h / 2.0
    sixth = h / 6.0
    flat = np.empty(3 * len(gain))
    out = memoryview(flat)
    x1, x2, x3 = (float(v) for v in x0)
    grid = memoryview(gain)
    i = 0
    for g0, g_mid, g1 in zip(grid, memoryview(gain_mid), grid[1:]):
        out[i], out[i + 1], out[i + 2] = x1, x2, x3
        i += 3
        p1, p2, p3 = nb1 * x1 + g0 * x3 / (x3 + sat), a1 * x1 - b2 * x2, a2 * x2 - b3 * x3
        y1, y2, y3 = x1 + half * p1, x2 + half * p2, x3 + half * p3
        q1, q2, q3 = nb1 * y1 + g_mid * y3 / (y3 + sat), a1 * y1 - b2 * y2, a2 * y2 - b3 * y3
        y1, y2, y3 = x1 + half * q1, x2 + half * q2, x3 + half * q3
        r1, r2, r3 = nb1 * y1 + g_mid * y3 / (y3 + sat), a1 * y1 - b2 * y2, a2 * y2 - b3 * y3
        y1, y2, y3 = x1 + h * r1, x2 + h * r2, x3 + h * r3
        # the bracket is the fourth stage, added last as in p + 2q + 2r + s
        x1 += sixth * (p1 + 2.0 * q1 + 2.0 * r1 + (nb1 * y1 + g1 * y3 / (y3 + sat)))
        x2 += sixth * (p2 + 2.0 * q2 + 2.0 * r2 + (a1 * y1 - b2 * y2))
        x3 += sixth * (p3 + 2.0 * q3 + 2.0 * r3 + (a2 * y2 - b3 * y3))
    out[i], out[i + 1], out[i + 2] = x1, x2, x3
    return flat.reshape(len(gain), 3)


def simulate_population(
    model: PopulationModel,
    L: np.ndarray,
    config: SimConfig,
) -> Trace:
    """Nonlinear plant with linear observers fed by online envelope
    bounds a_lo * y / (y + b) <= recruitment <= a_hi * y / (y + b).

    The plant does not depend on its observers, so it is stepped first,
    once every gain sample it reads lies inside incidence_bounds; the
    observer pair then reads the measured stage y on the grid, held
    linear between grid values, through the exact step of A - L C.
    """
    sys = model.system()
    L = _shaped(L, "L", sys.n, sys.r)
    _check_x0(config, sys.n)
    if np.any(config.x0_lo < 0.0):
        raise SimulationError("population bounds must be nonnegative")
    times = _grid(config.t_end, config.dt)
    # the plant reads the gain on the grid and at the half steps between
    steps = np.empty(2 * times.size - 1)
    steps[::2], steps[1::2] = times, times[:-1] + config.dt / 2.0
    gains = _incidence_gains(model, steps)
    bounds = model.incidence_bounds
    bad = _outside(gains, *bounds)[0]
    if bad.size:
        raise SimulationError(f"recruitment leaves its envelope at t={steps[bad[0]]:.6g}")
    gain = gains[::2]
    x = _population_plant(model, config.x0, gain, gains[1::2], config.dt)

    # both observers read y through L, and recruitment a y / (y + b)
    # through E, with a = a_lo for x_lo and a = a_hi for x_hi
    y = x[:, 2:]
    read = np.hstack([y, y / (y + model.half_saturation)])
    phi, W0, W1 = _step_maps(np.kron(np.eye(2), sys.A - L @ sys.C), config.dt)
    G = _drive(W0, W1, np.block([[L, a * sys.E] for a in bounds]), read)
    X = _recur(phi, np.concatenate([config.x0_lo, config.x0_hi]), G)
    _check_finite(times, x, X)
    negative = (x < 0.0).any(axis=1)
    if negative.any():
        raise SimulationError(
            f"plant state became negative at t={times[negative.argmax()]:.6g}: "
            f"the RK4 step dt={config.dt:.6g} is too large for this plant"
        )

    w = model.incidence(y, gain[:, None])
    w_lo, w_hi = (model.incidence(y, a) for a in bounds)
    return Trace(times, x, *np.split(X, 2, axis=1), w, w_lo, w_hi)
