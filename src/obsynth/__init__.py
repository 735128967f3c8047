"""obsynth: interval-observer synthesis for positive linear systems.

The toolkit designs observer gains L making A - LC Metzler and Hurwitz
(with E - LF nonnegative in the standard form), certifies peak-to-peak
disturbance-to-error gains by linear programming, and simulates the
resulting interval observers in continuous, discrete, delayed, and one
nonlinear population setting.
"""

from .errors import (
    DimensionError,
    InstabilityError,
    MembershipError,
    NonFiniteError,
    ObsynthError,
    PreconditionError,
    ProblemFileError,
    SimulationError,
    SingularMatrixError,
    SolverFailureError,
    UndefinedGainError,
)
from .linalg import is_metzler, is_nonnegative, max_row_sum, solve_linear, split_pos_neg
from .lp import LinearProgram, LpSolution, LpStatus, check_feasible, solve
from .positive import (
    DEFAULT_EPSILON,
    ContinuousSystem,
    DelaySystem,
    DiscreteDelaySystem,
    DiscreteSystem,
    gain_for_output,
    hurwitz_certificate,
    linf_gain,
    linf_gain_closed,
    linf_gain_lp,
    observer_membership,
    relaxed_error_gain,
)
from .problem import ProblemFile, parse_problem, parse_problem_dict
from .simulation import (
    ConstantSignal,
    DisturbanceModel,
    InclusionReport,
    PiecewiseConstantSignal,
    PopulationModel,
    SampledSignal,
    SimConfig,
    SineSignal,
    Trace,
    check_inclusion,
    empirical_peak_gain,
    simulate_ct,
    simulate_delay,
    simulate_dt,
    simulate_population,
)
from .synthesis import (
    CertificationReport,
    DesignResult,
    ObserverSpec,
    certify,
    design,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationReport",
    "ConstantSignal",
    "ContinuousSystem",
    "DEFAULT_EPSILON",
    "DelaySystem",
    "DesignResult",
    "DimensionError",
    "DiscreteDelaySystem",
    "DiscreteSystem",
    "DisturbanceModel",
    "InclusionReport",
    "InstabilityError",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "MembershipError",
    "NonFiniteError",
    "ObserverSpec",
    "ObsynthError",
    "PiecewiseConstantSignal",
    "PopulationModel",
    "PreconditionError",
    "ProblemFile",
    "ProblemFileError",
    "SampledSignal",
    "SimConfig",
    "SimulationError",
    "SineSignal",
    "SingularMatrixError",
    "SolverFailureError",
    "Trace",
    "UndefinedGainError",
    "certify",
    "check_feasible",
    "check_inclusion",
    "design",
    "empirical_peak_gain",
    "gain_for_output",
    "hurwitz_certificate",
    "is_metzler",
    "is_nonnegative",
    "linf_gain",
    "linf_gain_closed",
    "linf_gain_lp",
    "max_row_sum",
    "observer_membership",
    "parse_problem",
    "parse_problem_dict",
    "relaxed_error_gain",
    "simulate_ct",
    "simulate_delay",
    "simulate_dt",
    "simulate_population",
    "solve",
    "solve_linear",
    "split_pos_neg",
]
