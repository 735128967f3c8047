"""Self-test of the benchmark: tiny runs of every workload.

    python3 perfbench/selftest.py

Checks that each workload, traced and untraced, prints every metric
BENCHMARK.json names with the unit it declares, and that the output
checks are live: a corrupted in-memory manifest must show up as failed
ops.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 7


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def tiny_run(workload: str, trace: int, manifest=None) -> tuple[dict, list[str]]:
    lines: list[str] = []
    result = run.run(workload, SEED, 0.0, trace, tiny=True, manifest=manifest, emit=lines.append)
    if json.loads(lines[-1]) != json.loads(json.dumps(result)):
        fail(f"{workload}: the last line printed is not the result object")
    return result, lines


def check_metrics(workload: str, trace: int, declared: list[dict]) -> None:
    result, lines = tiny_run(workload, trace)
    if not result["correct"]:
        fail(f"{workload} trace={trace} reported correct=false: {lines}")
    if result["attempted"] < 1:
        fail(f"{workload} trace={trace} attempted no op")
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        fail(f"{workload} trace={trace} metrics {sorted(got)} != declared {[m['name'] for m in declared]}")
    text = "\n".join(lines[:-1])
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if got[name]["unit"] != unit:
            fail(f"{workload}: {name} has unit {got[name]['unit']!r}, declared {unit!r}")
        if not isinstance(got[name]["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")
        if not any(line.startswith(name + " ") and f" {unit}" in line for line in text.splitlines()):
            fail(f"{workload}: {name} [{unit}] missing from the printed report")
    print(f"ok  {workload} trace={trace}: {len(declared)} metrics with units")


def check_corrupted_manifest() -> None:
    import obsynth.benchmarks as benchmarks

    with open(benchmarks.MANIFEST) as fh:
        manifest = json.load(fh)
    manifest["dt_scalar"]["gamma"] = 0.75  # the true optimum is 0.5
    result, lines = tiny_run("corpus", 0, manifest=manifest)
    if not result["failed"] / result["attempted"] > 0 or result["correct"]:
        fail(f"a corrupted manifest went unnoticed: {lines}")
    if not any(line.startswith("failed op dt_scalar") for line in lines):
        fail("the failing case is not named")
    print("ok  corrupted manifest -> failed_ratio "
          f"{result['failed'] / result['attempted']:.3f}, correct=false")


def main() -> int:
    problem = run.prepare()
    if problem:
        print(f"selftest: {problem}", file=sys.stderr)
        return 2
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(workload, 0, spec["end_to_end"])
        check_metrics(workload, 1, spec["per_layer"])
    check_corrupted_manifest()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
