"""Built-in benchmark corpus and its expected-value regression harness.

The corpus directory holds one problem file per scenario plus a single
manifest (expected.json) with the frozen expected values and per-entry
tolerances.  run_bench designs, cross-checks gains, and simulates each
case, comparing everything against the manifest.  Cases are independent
of one another; they run sequentially here and the table is ordered by
case name either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ObsynthError
from .positive import linf_gain_closed, relaxed_error_gain
from .problem import ProblemFile, parse_problem
from .simulation import (
    Trace,
    check_inclusion,
    empirical_peak_gain,
    simulate_ct,
    simulate_delay,
    simulate_dt,
    simulate_population,
)
from .synthesis import (  # noqa: F401 - perfbench/tracer.py patches the design_* names here
    closed_loop,
    design,
    design_ct,
    design_delay,
    design_dt,
    design_relaxed,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
MANIFEST = CORPUS_DIR / "expected.json"


def simulate_problem(pf: ProblemFile, L: np.ndarray, form: str) -> Trace:
    """Run the simulator matching the problem class with gain L."""
    system = pf.system()
    config = pf.sim_config()
    if pf.klass == "population":
        return simulate_population(system, L, config)
    dist = pf.disturbance()
    # the three names are simulate itself, called by name because
    # perfbench/tracer.py patches each of them here
    if pf.klass == "continuous":
        return simulate_ct(system, L, dist, config, form=form)
    if pf.klass == "delay":
        return simulate_delay(system, L, dist, config)
    return simulate_dt(system, L, dist, config)


@dataclass
class CaseOutcome:
    name: str
    status: str
    passed: bool
    notes: list[str]


@dataclass
class BenchReport:
    cases: list[CaseOutcome]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)


def _weight(name: str, n: int) -> np.ndarray:
    if name == "identity":
        return np.eye(n)
    if name == "ones":
        return np.ones((1, n))
    raise ObsynthError(f"manifest weight {name!r} not recognized")


def _near(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol


def run_case(name: str, entry: dict, corpus_dir: Path) -> CaseOutcome:
    notes: list[str] = []
    try:
        pf = parse_problem(str(corpus_dir / entry["file"]))
        spec = pf.observer_spec()
        plant = pf.plant()
        result = design(plant, spec)

        if result.status != entry["status"]:
            notes.append(f"status {result.status}, expected {entry['status']}")
            return CaseOutcome(name, result.status, False, notes)

        if result.status == "infeasible":
            want = entry.get("diagnostic_contains")
            if want and want not in (result.diagnostic or ""):
                notes.append(f"diagnostic {result.diagnostic!r} lacks {want!r}")
            return CaseOutcome(name, result.status, not notes, notes)

        L = result.L
        n = L.shape[0]
        expect_l = entry.get("L")
        if expect_l is not None:
            err = float(np.max(np.abs(L - np.array(expect_l))))
            if err > entry.get("L_tol", 1e-6):
                notes.append(f"gain off by {err:.3g} from expected {expect_l}")
        if "gamma" in entry and not _near(
            result.gamma, entry["gamma"], entry.get("gamma_tol", 1e-5)
        ):
            notes.append(f"objective {result.gamma!r}, expected {entry['gamma']!r}")

        # (label, computed gain, manifest check with value and tol)
        Scl, Bcl = closed_loop(plant, L)
        gains = [
            (f"gain[{c['weight']}]", linf_gain_closed(Scl, Bcl, _weight(c["weight"], n), 0.0), c)
            for c in entry.get("gains", [])
        ]
        if "relaxed_surrogate" in entry:
            got = linf_gain_closed(Scl, np.eye(n), np.eye(n), 0.0)
            gains.append(("surrogate gain", got, entry["relaxed_surrogate"]))
        if "relaxed_error_gain" in entry:
            got = relaxed_error_gain(plant.A, plant.E, plant.C, plant.F, L, np.eye(n))
            gains.append(("relaxed error gain", got, entry["relaxed_error_gain"]))
        for label, got, check in gains:
            if not _near(got, check["value"], check["tol"]):
                notes.append(f"{label} {got!r}, expected {check['value']!r}")

        if entry.get("simulate"):
            trace = simulate_problem(pf, L, result.form)
            report = check_inclusion(trace, tol=1e-7)
            if not report.clean:
                notes.append(
                    f"inclusion violated at t={report.time:.6g} "
                    f"(component {report.component}, {report.side})"
                )
            empirical = empirical_peak_gain(trace)
            certified = entry["certified_identity_gain"]
            if empirical > certified + 1e-3:
                notes.append(
                    f"empirical gain {empirical:.6g} exceeds certified {certified:.6g}"
                )
        return CaseOutcome(name, result.status, not notes, notes)
    except ObsynthError as exc:
        notes.append(f"error: {exc}")
        return CaseOutcome(name, "error", False, notes)


def run_bench(name_filter: str | None = None, manifest: dict | None = None) -> BenchReport:
    if manifest is None:
        with open(MANIFEST) as fh:
            manifest = json.load(fh)
    cases = []
    for name in sorted(manifest):
        if name_filter is not None and name_filter not in name:
            continue
        cases.append(run_case(name, manifest[name], CORPUS_DIR))
    return BenchReport(cases)


def format_table(report: BenchReport) -> str:
    width = max([len(c.name) for c in report.cases] + [4])
    lines = [f"{'case':<{width}}  {'status':<10}  result"]
    for case in report.cases:
        verdict = "pass" if case.passed else "FAIL"
        lines.append(f"{case.name:<{width}}  {case.status:<10}  {verdict}")
        for note in case.notes:
            lines.append(f"{'':<{width}}    - {note}")
    total = sum(c.passed for c in report.cases)
    lines.append(f"{total}/{len(report.cases)} cases passed")
    return "\n".join(lines)
