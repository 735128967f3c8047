"""obsynth benchmark: one workload, closed loop, one thread.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One caller issues each op after the previous one returns.  A run is a
whole number of passes over the workload's inputs (the seed orders each
pass), so every run measures the same mix of ops.  Timings are scaled
to a fixed machine pace (see pace.py); the raw figures are printed next
to them.  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` an untraced and a traced
phase run the same passes and the line carries the per-layer metrics.
Lines before it repeat every metric with its unit and spread.  The
launcher pins BLAS to one thread before numpy loads and imports obsynth
from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
IMPORT_REPS = 5
SETUP_REPS = 5
MIN_OPS = 100  # p90 then has at least ten samples beyond it
MIN_PASSES = 2  # every input is timed at least twice
UNTRACED_SHARE = 0.5  # share of --seconds the untraced phase of a traced run gets


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "design_sweep", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def source_digest() -> str:
    """Digest of the program and benchmark sources, keying reference counts."""
    digest = hashlib.sha256()
    files = sorted((SRC / "obsynth").rglob("*.py")) + sorted((SRC / "obsynth").rglob("*.json"))
    for path in files + sorted(HERE.glob("*.py")) + sorted(HERE.glob("*.json")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Phase:
    """Latencies, failures and exact-count snapshots of consecutive passes."""

    def __init__(self, per_pass: int):
        self.per_pass = per_pass
        self.pace = Pace()
        self.starts: list[float] = []
        self.latencies: list[float] = []  # raw seconds
        self.failures: dict[str, str] = {}
        self.failed = 0
        self.snapshots: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def passes(self) -> int:
        return self.attempted // self.per_pass

    def scaled(self) -> list[float]:
        """Latencies in seconds at the nominal pace."""
        return [x * self.pace.scale_at(t) for t, x in zip(self.starts, self.latencies)]

    def pass_sums(self, latencies) -> list[float]:
        k = self.per_pass
        return [sum(latencies[i : i + k]) for i in range(0, len(latencies), k)]


def run_passes(workload, ops, seed, seconds, min_ops, min_passes, tracer=None) -> Phase:
    """Closed loop over whole passes; a pass starts only if it should
    still end within ``seconds``."""
    from obsynth.errors import ObsynthError

    import numpy as np

    rng = np.random.default_rng(seed)
    phase = Phase(len(ops))
    started = time.perf_counter()
    while True:
        if workload.shuffle:
            order = rng.permutation(len(ops))
        else:
            order = np.roll(np.arange(len(ops)), -(seed % len(ops)))
        pass_started = time.perf_counter()
        for index in order:
            op = ops[index]
            phase.pace.sample()
            if tracer is not None:
                tracer.op, tracer.tag = phase.attempted, op.tag
                tracer.tag_ops[op.tag] += 1
                tracer.begin("bench.op")
            t0 = time.perf_counter()
            try:
                outputs = workload.run(op)
                reason = None
            except ObsynthError as exc:
                reason = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
            if reason is None:
                reason = workload.check(op, outputs)
            phase.starts.append(t0)
            phase.latencies.append(latency)
            if reason is not None:
                phase.failed += 1
                phase.failures[op.id] = reason
        if tracer is not None:
            phase.snapshots.append(tracer.snapshot())
        now = time.perf_counter()
        if (
            phase.passes >= min_passes
            and phase.attempted >= min_ops
            and now + (now - pass_started) - started > seconds
        ):
            phase.pace.sample(force=True)
            return phase


def setup(workload_cls, seed, tiny, manifest, pace: Pace) -> tuple:
    """Time a fresh-interpreter ``import obsynth`` IMPORT_REPS times, and
    input building plus one warm-up op SETUP_REPS times, in seconds at
    the nominal pace."""
    from obsynth.errors import ObsynthError

    code = "import time; t = time.perf_counter(); import obsynth; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, raw_imports = [], []
    for _ in range(IMPORT_REPS):
        pace.sample(force=True)
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw_imports.append(float(done.stdout.strip().splitlines()[-1]))
        imports.append((t0, raw_imports[-1]))
    reps, raw_reps = [], []
    for _ in range(SETUP_REPS):
        pace.sample(force=True)
        t0 = time.perf_counter()
        workload = workload_cls(manifest) if manifest is not None else workload_cls()
        ops = workload.inputs(seed, tiny)
        try:
            workload.check(ops[0], workload.run(ops[0]))
        except ObsynthError:
            pass  # the timed passes count and report it
        raw_reps.append(time.perf_counter() - t0)
        reps.append((t0, raw_reps[-1]))
    pace.sample(force=True)
    imports = [x * pace.scale_at(t) for t, x in imports]
    reps = [x * pace.scale_at(t) for t, x in reps]
    return workload, ops, {"import": imports, "reps": reps, "raw_import": raw_imports, "raw_reps": raw_reps}


def end_to_end(phase: Phase, setup_times: dict) -> tuple[dict, list[str]]:
    raw_ms = [x * 1e3 for x in phase.latencies]
    lat_ms = [x * 1e3 for x in phase.scaled()]
    q1, p50, q3 = quartiles(lat_ms)
    p90 = percentile(lat_ms, 90)
    rates = [phase.per_pass * 1e3 / s for s in phase.pass_sums(lat_ms)]
    r1, _, r3 = quartiles(rates)
    import_med = statistics.median(setup_times["import"])
    s1, setup_s, s3 = quartiles([import_med + s for s in setup_times["reps"]])
    raw_setup = statistics.median(setup_times["raw_import"]) + statistics.median(setup_times["raw_reps"])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops_per_s = phase.attempted * 1e3 / sum(lat_ms)
    beyond = sum(1 for x in lat_ms if x > p90)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    n = phase.attempted
    lines = [
        f"pace: x{phase.pace.scale():.4f} from raw to nominal, median of {len(phase.pace.samples)} kernel samples",
        f"ops_per_s     {ops_per_s:12.4f} 1/s   per-pass q1 {r1:.4f} q3 {r3:.4f} "
        f"({n} ops in {phase.passes} passes; raw {n * 1e3 / sum(raw_ms):.4f})",
        f"op_p50_ms     {p50:12.4f} ms    latency q1 {q1:.4f} q3 {q3:.4f} (n={n}; raw {statistics.median(raw_ms):.4f})",
        f"op_p90_ms     {p90:12.4f} ms    {beyond} samples beyond it (n={n}; raw {percentile(raw_ms, 90):.4f})",
        f"failed_ratio  {phase.failed / n:12.6f} 1     {phase.failed} of {n} ops failed",
        f"setup_s       {setup_s:12.4f} s     q1 {s1:.4f} q3 {s3:.4f} (import median {import_med:.4f}, "
        f"n={len(setup_times['import'])}; inputs + warm-up op n={len(setup_times['reps'])}; raw {raw_setup:.4f})",
        f"peak_rss_mb   {peak:12.2f} MB",
    ]
    return metrics, lines


def per_layer(tracer, traced: Phase, untraced: Phase) -> tuple[dict, list[str]]:
    import gen

    ops = traced.attempted
    counts = traced.snapshots[0]
    factor = traced.pace.scale()
    ms = lambda seconds: seconds * factor * 1e3 / ops  # noqa: E731 - mean per op
    simulate_s = tracer.total_s["simulation.simulate"] * factor
    metrics = {
        "problem.parse_ms": (ms(tracer.self_s["problem"]), "ms"),
        "problem.calls": (counts["problem.calls"], "count"),
        "synthesis.self_ms": (ms(tracer.self_s["synthesis"]), "ms"),
        "synthesis.calls": (counts["synthesis.calls"], "count"),
        "lp.solve_ms": (ms(tracer.self_s["lp"]), "ms"),
        "lp.calls": (counts["lp.calls"], "count"),
        "lp.pivots": (counts["lp.pivots"], "count"),
        "lp.rows_max": (tracer.maxima["lp.rows_max"], "count"),
        "lp.cols_max": (tracer.maxima["lp.cols_max"], "count"),
        "lp.failed": (counts["lp.failed"], "count"),
    }
    for n, _, _ in gen.DESIGN_POOL:
        tag = f"n{n}"
        tagged = tracer.tag_ops[tag]
        metrics[f"lp.pivots.{tag}"] = (counts.get(f"lp.pivots.{tag}", 0), "count")
        tag_ms = tracer.tag_s[f"lp.solve_ms.{tag}"] * factor * 1e3 / tagged if tagged else 0.0
        metrics[f"lp.solve_ms.{tag}"] = (tag_ms, "ms")
    per_pass = lambda phase: sum(phase.scaled()) / phase.passes  # noqa: E731
    metrics |= {
        "positive.self_ms": (ms(tracer.self_s["positive"]), "ms"),
        "positive.hurwitz_calls": (counts["positive.hurwitz_calls"], "count"),
        "positive.gain_calls": (counts["positive.gain_calls"], "count"),
        "linalg.solve_ms": (ms(tracer.self_s["linalg"]), "ms"),
        "linalg.solve_calls": (counts["linalg.solve_calls"], "count"),
        "simulation.simulate_ms": (ms(tracer.total_s["simulation.simulate"]), "ms"),
        "simulation.steps": (counts["simulation.steps"], "count"),
        "simulation.steps_per_s": (
            counts["simulation.steps"] * traced.passes / simulate_s if simulate_s else 0.0, "1/s"
        ),
        "simulation.disturbance_evals": (counts["simulation.disturbance_evals"], "count"),
        "simulation.check_ms": (ms(tracer.total_s["simulation.check"]), "ms"),
        "trace.overhead_ratio": (per_pass(traced) / per_pass(untraced), "ratio"),
    }
    lines = [
        f"traced {ops} ops in {traced.passes} passes; op mean {ms(sum(traced.latencies)):.4f} ms; "
        f"pace x{factor:.4f}; *_ms are mean ms per op (per op of that size for .n<size>), "
        "counts are per pass"
    ]
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.4f}"
        lines.append(f"{name:30s} {shown} {unit}")
    lines.append(f"{'bench.self_ms':30s} {ms(tracer.self_s['bench']):14.4f} ms (op time outside the traced layers)")
    return metrics, lines


def check_counts(workload_name: str, tiny: bool, per_pass: list[dict]) -> str | None:
    """Exact counts must repeat pass to pass and run to run."""
    first = per_pass[0]
    for later in per_pass[1:]:
        if later != first:
            return f"counts differ between passes: {first} vs {later}"
    OUT.mkdir(exist_ok=True)
    ref = OUT / f"counts-{workload_name}{'-tiny' if tiny else ''}-{source_digest()}.json"
    if ref.exists():
        with open(ref) as fh:
            stored = json.load(fh)
        if stored != first:
            return f"counts differ from an earlier run of the same code ({ref.name}): {stored} vs {first}"
    else:
        with open(ref, "w") as fh:
            json.dump(first, fh, indent=1, sort_keys=True)
    return None


def pass_counts(snapshots: list[dict]) -> list[dict]:
    """Cumulative snapshots to per-pass counts."""
    out, previous = [], {}
    for snap in snapshots:
        out.append({k: v - previous.get(k, 0) for k, v in snap.items()})
        previous = snap
    return out


def run(workload_name, seed, seconds, trace, tiny=False, manifest=None, emit=print) -> dict:
    """Run one workload and return the result object (also emitted)."""
    import tracer as tracing
    import workloads

    workload, ops, setup_times = setup(workloads.WORKLOADS[workload_name], seed, tiny, manifest, Pace())
    emit(f"workload {workload_name} seed {seed} ops/pass {len(ops)} seconds {seconds} trace {trace}")
    min_ops = 0 if tiny else MIN_OPS
    problems = []
    if not trace:
        phase = run_passes(workload, ops, seed, seconds, min_ops, MIN_PASSES)
        phases = [phase]
        metrics, lines = end_to_end(phase, setup_times)
    else:
        untraced = run_passes(workload, ops, seed, seconds * UNTRACED_SHARE, 0, 1)
        tracer = tracing.Tracer()
        restore = tracer.install()
        try:
            traced = run_passes(workload, ops, seed, 0.0, 0, max(2, untraced.passes), tracer)
        finally:
            restore()
        traced.snapshots = pass_counts(traced.snapshots)
        problem = check_counts(workload_name, tiny, traced.snapshots)
        if problem:
            problems.append(problem)
        phases = [untraced, traced]
        metrics, lines = per_layer(tracer, traced, untraced)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload_name}-{seed}.tsv.gz"
        tracer.write(spans)
        lines.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = {}
    for p in phases:
        failures |= p.failures
    for op_id in sorted(set(failures) - set(workload.known_failures)):
        problems.append(f"unexpected failure {op_id}: {failures[op_id]}")
    for line in lines:
        emit(line)
    for op_id in sorted(failures):
        tag = "known" if op_id in workload.known_failures else "NEW"
        emit(f"failed op {op_id} ({tag}): {failures[op_id][:200]}")
    for op_id in sorted(set(workload.known_failures) & {op.id for op in ops} - set(failures)):
        emit(f"known failure {op_id} now passes")
    for problem in problems:
        emit(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    emit(json.dumps(result))
    return result


def prepare() -> str | None:
    """Pin BLAS to one thread and put the checkout's obsynth first on the
    path; returns why that failed, or None."""
    if not (SRC / "obsynth" / "__init__.py").is_file():
        return f"obsynth sources not found under {SRC}"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import obsynth

    if Path(obsynth.__file__).resolve().parent != SRC / "obsynth":
        return f"imported obsynth from {obsynth.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = prepare()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
