"""The three workloads: their inputs, one op each, and the op's check.

An op is one corpus scenario, one design followed by ``certify``, or
one loop analysis.  ``run`` is the timed part and only calls into
obsynth; ``check`` verifies the outputs afterwards with the manifest or
with numpy, returning None when they are right and a reason otherwise.
Calls go through module attributes (``synthesis.certify``) so that the
tracer's patches see them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import obsynth.benchmarks as benchmarks
import obsynth.positive as positive
import obsynth.synthesis as synthesis
from obsynth.positive import DEFAULT_EPSILON, ContinuousSystem, DelaySystem, DiscreteSystem
from obsynth.synthesis import ObserverSpec

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    id: str
    tag: str | None  # groups per-size layer metrics ("n12"), or None
    payload: object


class Corpus:
    """The ten built-in scenarios through ``obsynth.benchmarks.run_case``,
    the path ``obsynth bench`` takes, checked against the manifest."""

    name = "corpus"
    shuffle = False
    known_failures: dict = {}
    tiny_cases = ("case3", "delay_scalar", "dt_scalar")

    def __init__(self, manifest: dict | None = None):
        self.manifest = manifest

    def inputs(self, seed: int, tiny: bool) -> list[Op]:
        manifest = self.manifest
        if manifest is None:
            with open(benchmarks.MANIFEST) as fh:
                manifest = json.load(fh)
        names = [n for n in sorted(manifest) if not tiny or n in self.tiny_cases]
        return [Op(name, None, manifest[name]) for name in names]

    def run(self, op: Op):
        return benchmarks.run_case(op.id, op.payload, benchmarks.CORPUS_DIR)

    def check(self, op: Op, outcome) -> str | None:
        if outcome.passed:
            return None
        return "; ".join(outcome.notes) or f"status {outcome.status}"


_DESIGNERS = {
    "continuous": ("design_ct", ContinuousSystem),
    "relaxed": ("design_relaxed", ContinuousSystem),
    "delay": ("design_delay", DelaySystem),
    "discrete": ("design_dt", DiscreteSystem),
}


def aggregate_gain(plant: gen.Plant) -> float:
    """Closed-form aggregate gain 1^T (-S_cl)^{-1} B_cl 1 at L0, the
    objective the design LP minimizes, computed with numpy."""
    L0 = plant.L0
    if plant.klass == "delay":
        A, A_h, E, C, C_h, F, _ = plant.matrices
        S, T = A + A_h, C + C_h
    else:
        S, E, T, F = plant.matrices
        if plant.klass == "discrete":
            S = S - np.eye(plant.n)
    Scl, Bcl = S - L0 @ T, E - L0 @ F
    return float(np.linalg.solve(-Scl, Bcl.sum(axis=1)).sum())


class DesignSweep:
    """Admissible-by-construction plants at n = 4, 8, 12, 14 over the four
    design classes; each op designs the optimal gain and certifies it."""

    name = "design_sweep"
    shuffle = True

    def __init__(self):
        with open(HERE / "known_failures.json") as fh:
            self.known_failures = json.load(fh)[self.name]

    def inputs(self, seed: int, tiny: bool) -> list[Op]:
        ops = []
        for plant in gen.design_plants(tiny):
            _, system_class = _DESIGNERS[plant.klass]
            spec = ObserverSpec(form="relaxed" if plant.klass == "relaxed" else "standard")
            ops.append(Op(plant.id, f"n{plant.n}", (plant, system_class(*plant.matrices), spec)))
        return ops

    def run(self, op: Op):
        plant, system, spec = op.payload
        design = getattr(synthesis, _DESIGNERS[plant.klass][0])
        result = design(system, spec)
        if result.status != "optimal":
            return result, None
        return result, synthesis.certify(result, system, spec)

    def check(self, op: Op, outputs) -> str | None:
        plant, _, spec = op.payload
        result, report = outputs
        if result.status != "optimal":
            return f"status {result.status} for an admissible plant: {result.diagnostic}"
        if not report.passed:
            return "certify failed: " + "; ".join(report.flags)
        if spec.form == "standard":
            # At L0 the LP has the feasible point X = (1 + eps) diag(w),
            # w^T = -1^T S_cl^{-1}, whose objective is g (1 + eps) + eps.
            eps = spec.epsilon
            g = aggregate_gain(plant)
            bound = g * (1.0 + eps) + eps + 1e-9 * (1.0 + g)
            if result.gamma > bound:
                return f"gamma {result.gamma!r} exceeds the gain {g!r} at L0"
        return None


class Analysis:
    """Admissible loops at n = 3..10 with a given gain: membership, K
    weighted output gains and one certificate-LP gain per op."""

    name = "analysis"
    shuffle = True
    known_failures: dict = {}

    def inputs(self, seed: int, tiny: bool) -> list[Op]:
        return [Op(loop.id, None, loop) for loop in gen.analysis_loops(seed, tiny)]

    def run(self, op: Op):
        c = op.payload
        violations = positive.observer_membership(c.A, c.E, c.C, c.F, c.L0)
        gains = [positive.gain_for_output(c.A, c.E, c.C, c.F, c.L0, M, N) for M, N in c.weightings]
        M1, N0 = c.weightings[0]
        gamma_lp, _ = positive.linf_gain_lp(c.A - c.L0 @ c.C, c.E - c.L0 @ c.F, M1, N0)
        return violations, gains, gamma_lp

    def check(self, op: Op, outputs) -> str | None:
        c = op.payload
        violations, gains, gamma_lp = outputs
        if violations:
            return "L0 rejected: " + "; ".join(violations)
        Acl, Bcl = c.A - c.L0 @ c.C, c.E - c.L0 @ c.F
        Y = np.linalg.solve(-Acl, np.hstack([Bcl, np.ones((Acl.shape[0], 1))]))
        for k, ((M, N), got) in enumerate(zip(c.weightings, gains)):
            want = float(np.max((M @ Y[:, :-1] + N).sum(axis=1)))
            if abs(got - want) > 1e-8 * (1.0 + abs(want)):
                return f"weighting {k}: gain {got!r}, numpy gives {want!r}"
        # The certificate LP overshoots the closed form by exactly
        # eps (1 + 1^T (-A_cl)^{-1} 1) for the aggregate output.
        excess = gamma_lp - gains[0]
        allowed = DEFAULT_EPSILON * (1.0 + float(Y[:, -1].sum()))
        slack = 1e-9 * (1.0 + abs(gains[0]))
        if not -slack <= excess <= allowed + slack:
            return f"LP gain {gamma_lp!r} vs closed form {gains[0]!r}: excess {excess:.3g} > {allowed:.3g}"
        return None


WORKLOADS = {w.name: w for w in (Corpus, DesignSweep, Analysis)}
