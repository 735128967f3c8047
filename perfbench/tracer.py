"""Spans and counts recorded around calls into obsynth's layers.

The tracer patches public functions at the place each caller looks them
up (``obsynth.synthesis.solve`` for the design LP, ``obsynth.lp.solve``
for ``check_feasible``, ...), so the program itself is unchanged and the
untraced run executes exactly the code a user runs.  Each call becomes a
span (name, start, end, parent, op id) kept in memory; a layer's self
time is its spans' durations minus the time their child spans cover.
``DisturbanceModel.eval`` runs about 10^5 times per corpus pass, so it
is counted, not spanned.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import Counter, defaultdict

import obsynth.benchmarks as benchmarks
import obsynth.lp as lp
import obsynth.positive as positive
import obsynth.synthesis as synthesis
from obsynth.simulation import DisturbanceModel

# (module, attribute, span name); the layer is the span name's prefix.
PATCHES = (
    (benchmarks, "parse_problem", "problem.parse"),
    (benchmarks, "design_ct", "synthesis.design"),
    (benchmarks, "design_relaxed", "synthesis.design"),
    (benchmarks, "design_delay", "synthesis.design"),
    (benchmarks, "design_dt", "synthesis.design"),
    (synthesis, "design_ct", "synthesis.design"),
    (synthesis, "design_relaxed", "synthesis.design"),
    (synthesis, "design_delay", "synthesis.design"),
    (synthesis, "design_dt", "synthesis.design"),
    (synthesis, "certify", "synthesis.certify"),
    (synthesis, "solve", "lp.solve"),
    (positive, "solve", "lp.solve"),
    (lp, "solve", "lp.solve"),
    (synthesis, "hurwitz_certificate", "positive.hurwitz"),
    (positive, "hurwitz_certificate", "positive.hurwitz"),
    (positive, "observer_membership", "positive.membership"),
    (positive, "gain_for_output", "positive.gain"),
    (positive, "linf_gain_lp", "positive.gain"),
    (benchmarks, "linf_gain_closed", "positive.gain"),
    (benchmarks, "relaxed_error_gain", "positive.gain"),
    (positive, "solve_linear", "linalg.solve"),
    (benchmarks, "simulate_ct", "simulation.simulate"),
    (benchmarks, "simulate_delay", "simulation.simulate"),
    (benchmarks, "simulate_dt", "simulation.simulate"),
    (benchmarks, "simulate_population", "simulation.simulate"),
    (benchmarks, "check_inclusion", "simulation.check"),
    (benchmarks, "empirical_peak_gain", "simulation.check"),
)

# Counts that must repeat exactly for the same code and inputs.
EXACT = (
    "problem.calls",
    "synthesis.calls",
    "lp.calls",
    "lp.pivots",
    "lp.failed",
    "positive.hurwitz_calls",
    "positive.gain_calls",
    "linalg.solve_calls",
    "simulation.steps",
    "simulation.disturbance_evals",
)

_CALL_COUNTS = {
    "problem.parse": "problem.calls",
    "synthesis.design": "synthesis.calls",
    "synthesis.certify": "synthesis.calls",
    "lp.solve": "lp.calls",
    "positive.hurwitz": "positive.hurwitz_calls",
    "positive.gain": "positive.gain_calls",
    "linalg.solve": "linalg.solve_calls",
}


class Tracer:
    """Collects spans and counts while its patches are installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)  # layer -> self time
        self.total_s: defaultdict = defaultdict(float)  # span name -> time
        self.tag_s: defaultdict = defaultdict(float)  # "lp.<tag>" -> time
        self.op = -1
        self.tag: str | None = None
        self.tag_ops: Counter = Counter()  # ops run per tag
        self._stack: list[list] = []  # [span index, start, child time]

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append([len(self.spans) - 1, time.perf_counter(), 0.0])

    def end(self) -> float:
        stop = time.perf_counter()
        index, start, child = self._stack.pop()
        name, _, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, stop, parent, op)
        duration = stop - start
        self.self_s[name.split(".", 1)[0]] += duration - child
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _wrap(self, fn, name: str):
        tracer = self
        calls = _CALL_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if calls:
                tracer.counts[calls] += 1
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                duration = tracer.end()
                if name == "lp.solve":
                    tracer.counts["lp.failed"] += 1
                    tracer._lp_seen(args[0] if args else kwargs["lp"], duration, None)
                raise
            duration = tracer.end()
            if name == "lp.solve":
                tracer._lp_seen(args[0] if args else kwargs["lp"], duration, result)
            elif name == "simulation.simulate":
                tracer.counts["simulation.steps"] += len(result.times) - 1
            return result

        return traced

    def _lp_seen(self, program, duration: float, solution) -> None:
        if solution is not None:
            self.counts["lp.pivots"] += solution.iterations
        self.maxima["lp.rows_max"] = max(self.maxima["lp.rows_max"], program.num_constraints)
        self.maxima["lp.cols_max"] = max(self.maxima["lp.cols_max"], program.num_vars)
        if self.tag is not None:
            self.tag_s[f"lp.solve_ms.{self.tag}"] += duration
            if solution is not None:
                self.counts[f"lp.pivots.{self.tag}"] += solution.iterations

    # -- installation --------------------------------------------------
    def install(self):
        """Patch every entry point; returns a function that undoes it."""
        saved = []
        for module, attr, name in PATCHES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        original_eval = DisturbanceModel.eval
        counts = self.counts

        @functools.wraps(original_eval)
        def counted_eval(model, t):
            counts["simulation.disturbance_evals"] += 1
            return original_eval(model, t)

        DisturbanceModel.eval = counted_eval

        def restore():
            DisturbanceModel.eval = original_eval
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def snapshot(self) -> dict:
        """Current exact counts, for comparing one pass with another."""
        return {key: self.counts[key] for key in EXACT} | {
            key: value for key, value in self.counts.items() if key.startswith("lp.pivots.")
        }

    def write(self, path) -> None:
        """Write every span as tab-separated text, one per line."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, stop, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{stop:.9f}\t{parent}\t{op}\n")
