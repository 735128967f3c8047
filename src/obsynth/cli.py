"""Command-line entry point.

Subcommands: design (synthesize a gain), gain (evaluate gains for a
given or freshly designed L), simulate (integrate and write a CSV
trace), check (validate a problem file), bench (run the built-in
corpus against its expected values).

Exit codes are a stable contract: 0 success, 1 input or usage error,
2 design infeasible, 3 interval inclusion violated in simulation.
All documents printed to stdout are JSON; human diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .benchmarks import format_table, run_bench, simulate_problem
from .errors import DimensionError, NonFiniteError, ObsynthError, PreconditionError
from .linalg import _shaped
from .positive import (
    DEFAULT_EPSILON,
    Plant,
    _positive_epsilon,
    gain_for_output,
    linf_gain_lp,
    relaxed_error_gain,
)
from .problem import ProblemFile, parse_problem
from .simulation import check_inclusion, empirical_peak_gain
from .synthesis import ObserverSpec, certify, closed_loop, design

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_INCLUSION = 3


def _numpy_to_json(value):
    """json.dumps hook: numpy arrays become lists, numpy scalars numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(doc: dict, out_path: str | None = None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=_numpy_to_json)
    # the file first: a path that cannot be written fails with stdout empty
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _named_epsilon(value, name: str) -> float:
    """value as a strictness margin; an error names where it was set."""
    try:
        return _positive_epsilon(value)
    except PreconditionError:
        raise ObsynthError(f"{name}={value!r} is not a positive real") from None


def _epsilons(args) -> dict:
    """The margin options of observer_spec: --epsilon, which forces the
    margin, and OBSYNTH_EPSILON, which stands in for a file's."""
    raw = os.environ.get("OBSYNTH_EPSILON")
    return {
        "fallback": DEFAULT_EPSILON if raw is None else _named_epsilon(raw, "OBSYNTH_EPSILON"),
        "epsilon": None if args.epsilon is None else _named_epsilon(args.epsilon, "--epsilon"),
    }


def _spec_for(pf: ProblemFile, args) -> tuple[ObserverSpec, Plant]:
    """The observer options and the plant they are read against."""
    return pf.observer_spec(**_epsilons(args)), pf.plant()


def _parse_matrix_flag(text: str, flag: str, rows: int | None, cols: int) -> np.ndarray:
    """The rows x cols matrix a flag gives as a number, broadcast over
    that shape, or as JSON rows.  rows None (--output-matrix) leaves the
    row count free, so a number has no shape to fill; I and ones are
    taken instead.  A flat list is never taken."""
    if rows is None and text in ("I", "identity", "ones"):
        return np.ones((1, cols)) if text == "ones" else np.eye(cols)
    try:
        arr = np.array(json.loads(text), dtype=float)
        if arr.ndim == 2 or (arr.ndim == 0 and rows is not None):
            return _shaped(arr, flag, rows, cols)
    # bad JSON, ragged rows, non-numbers, huge ints; wrong shape, inf, nan
    except (ValueError, TypeError, OverflowError, DimensionError, NonFiniteError):
        pass
    if rows is None:
        forms = f"I, ones, or JSON rows of {cols} columns"
    else:
        forms = f"a number or JSON rows of shape {rows}x{cols}"
    raise ObsynthError(f"--{flag} must be {forms}, got {text!r}")


def _design_document(plant, spec, result) -> dict:
    doc = asdict(result)
    if result.status == "optimal":
        doc["certification"] = asdict(certify(result, plant, spec))
    return doc


def cmd_design(args) -> int:
    pf = parse_problem(args.input)
    spec, plant = _spec_for(pf, args)
    result = design(plant, spec)
    _emit(_design_document(plant, spec, result), args.out)
    return EXIT_OK if result.status == "optimal" else EXIT_INFEASIBLE


def cmd_gain(args) -> int:
    pf = parse_problem(args.input)
    if pf.klass not in ("continuous", "population"):
        raise ObsynthError(
            "gain evaluation works on continuous-time problem files "
            f"(got class {pf.klass!r})"
        )
    spec, system = _spec_for(pf, args)
    n, p = system.n, system.p

    if args.gain is not None:
        L = _parse_matrix_flag(args.gain, "gain", n, system.r)
    else:
        result = design(system, spec)
        if result.status != "optimal":
            _emit({"status": result.status, "diagnostic": result.diagnostic}, args.out)
            return EXIT_INFEASIBLE
        L = result.L
    Scl, Bcl = closed_loop(system, L)

    M = _parse_matrix_flag(args.output_matrix, "output-matrix", None, n)
    doc: dict = {"L": L, "M": M, "epsilon": spec.epsilon}
    if spec.form == "relaxed":
        if args.feedthrough != "0":
            raise ObsynthError(
                "--feedthrough does not apply to a relaxed-form file: "
                "its error loop has no feedthrough"
            )
        doc["gamma_relaxed_error"] = relaxed_error_gain(
            system.A, system.E, system.C, system.F, L, M
        )
        doc["gamma_surrogate"], doc["certificate_lambda"] = linf_gain_lp(
            Scl, np.eye(n), M, 0.0, epsilon=spec.epsilon
        )
    else:
        N = _parse_matrix_flag(args.feedthrough, "feedthrough", M.shape[0], p)
        doc["N"] = N
        doc["gamma_closed"] = gain_for_output(
            system.A, system.E, system.C, system.F, L, M, N
        )
        doc["gamma_lp"], doc["certificate_lambda"] = linf_gain_lp(
            Scl, Bcl, M, N, epsilon=spec.epsilon
        )
    _emit(doc, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    pf = parse_problem(args.input)
    spec, plant = _spec_for(pf, args)
    # a file lacking a section the simulation reads fails before the design
    pf.sim_config()
    if pf.klass != "population":
        pf.disturbance()
    result = design(plant, spec)
    if result.status != "optimal":
        _emit({"status": result.status, "diagnostic": result.diagnostic})
        return EXIT_INFEASIBLE
    trace = simulate_problem(pf, result.L, result.form)
    trace.to_csv(args.out)
    report = check_inclusion(trace, tol=1e-7)
    doc = {
        "csv": args.out,
        "L": result.L,
        "gamma": result.gamma,
        "inclusion": {
            "clean": report.clean,
            "min_margin": report.min_margin,
            "time": report.time,
            "component": report.component,
            "side": report.side,
        },
    }
    try:
        doc["empirical_peak_gain"] = empirical_peak_gain(trace)
    except ObsynthError as exc:
        doc["empirical_peak_gain"] = None
        doc["empirical_note"] = str(exc)
    _emit(doc)
    return EXIT_OK if report.clean else EXIT_INCLUSION


def cmd_check(args) -> int:
    # parsing builds every section; only the margin a flag or the
    # environment may set is left to check
    pf = parse_problem(args.input)
    _epsilons(args)
    _emit({"valid": True, "class": pf.klass, "file": args.input})
    return EXIT_OK


def cmd_bench(args) -> int:
    report = run_bench(args.filter)
    if not report.cases:
        # all() over no cases is True: an empty run must not pass
        raise ObsynthError(f"--filter {args.filter!r} matches no corpus case")
    print(format_table(report))
    return EXIT_OK if report.all_passed else EXIT_INPUT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="obsynth",
        description="Interval-observer synthesis and analysis for positive systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input", metavar="INPUT", help="problem file (JSON)")
        sp.add_argument(
            "--epsilon", type=float, default=None,
            help="strictness margin for all strict inequalities",
        )
        return sp

    sp = add("design", "synthesize the optimal observer gain")
    sp.add_argument("--out", default=None, help="also write the result document here")

    sp = add("gain", "evaluate certified gains at a gain matrix")
    sp.add_argument("--gain", default=None, help="gain L: a number or JSON rows (default: design)")
    sp.add_argument(
        "--output-matrix", default="I", dest="output_matrix",
        help="output weighting M: I, ones, or JSON rows",
    )
    sp.add_argument(
        "--feedthrough", default="0",
        help="output feedthrough N: a number or JSON rows (standard form only)",
    )
    sp.add_argument("--out", default=None, help="also write the result document here")

    sp = add("simulate", "integrate plant and observers, write a CSV trace")
    sp.add_argument("--out", default="trace.csv", help="trace CSV path")

    add("check", "validate a problem file")

    sp = sub.add_parser("bench", help="run the built-in corpus against expected values")
    sp.add_argument("--filter", default=None, help="only run cases whose name contains this")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code means infeasible here
        return EXIT_OK if exc.code == 0 else EXIT_INPUT

    try:
        handler = {
            "design": cmd_design,
            "gain": cmd_gain,
            "simulate": cmd_simulate,
            "check": cmd_check,
            "bench": cmd_bench,
        }[args.command]
        return handler(args)
    except (ObsynthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
