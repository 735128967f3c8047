"""Regression harness behavior: the corpus itself is exercised by
test_acceptance, so this only covers the harness mechanics."""

import json

import pytest

import obsynth.benchmarks as benchmarks
from obsynth.benchmarks import MANIFEST, format_table, run_bench
from obsynth.simulation import Trace


def test_full_bench_passes():
    report = run_bench()
    assert report.all_passed
    assert len(report.cases) == 10
    assert [c.name for c in report.cases] == sorted(c.name for c in report.cases)


def test_name_filter_selects_substring_matches():
    report = run_bench("case3")
    assert {c.name for c in report.cases} == {"case3", "case3_fig", "case3_relaxed"}
    assert report.all_passed


def test_tampered_manifest_is_caught_and_named():
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    manifest["case2"]["gamma"] = 2.0  # true optimum is 10/7
    report = run_bench("case2", manifest=manifest)
    bad = {c.name: c for c in report.cases}["case2"]
    assert not bad.passed
    assert any("objective" in note for note in bad.notes)
    assert not report.all_passed


@pytest.mark.parametrize(
    "case, key, value, note",
    [
        ("case2", "file", "no_such_case.json", "error: "),
        ("case2", "status", "infeasible", "status optimal, expected infeasible"),
        ("case3", "diagnostic_contains", "no such words", "lacks 'no such words'"),
        ("case2", "L", [[-1.0], [3.0]], "gain off by"),
        ("case2", "gains", [{"weight": "ones", "value": 2.0, "tol": 1e-6}], "gain[ones] "),
        ("case1_relaxed", "relaxed_surrogate", {"value": 2.0, "tol": 1e-9}, "surrogate gain "),
        (
            "case1_relaxed", "relaxed_error_gain", {"value": 2.0, "tol": 1e-9},
            "relaxed error gain ",
        ),
        ("case2", "certified_identity_gain", -1.0, "empirical gain "),
    ],
)
def test_each_manifest_check_can_fail(case, key, value, note):
    # a tampered entry must fail its case, with a note naming the check,
    # so a check that always passed would show here
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    manifest[case][key] = value
    report = run_bench(case, manifest=manifest)
    bad = {c.name: c for c in report.cases}[case]
    assert not bad.passed
    assert [n for n in bad.notes if note in n], bad.notes


def test_inclusion_violation_is_caught_and_named(monkeypatch):
    simulate = benchmarks.simulate_problem

    def raised_lower_bound(pf, L, form):
        t = simulate(pf, L, form)
        return Trace(t.times, t.x, t.x_lo + 1.0, t.x_hi, t.w, t.w_lo, t.w_hi)

    monkeypatch.setattr(benchmarks, "simulate_problem", raised_lower_bound)
    bad = run_bench("case2").cases[0]
    assert not bad.passed
    assert bad.notes[0].startswith("inclusion violated at t=")


def test_format_table_lists_every_case_and_note():
    report = run_bench("dt_scalar")
    table = format_table(report)
    assert table.splitlines()[0].startswith("case")
    assert "dt_scalar" in table
    assert table.endswith("1/1 cases passed")
    # a weight the harness does not know makes the case an error, noted under it
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    entry = dict(manifest["case2"], gains=[{"weight": "diag", "value": 0.0, "tol": 1e-6}])
    report = run_bench(manifest={"case2": entry})
    (case,) = report.cases
    assert (case.status, case.passed) == ("error", False)
    assert case.notes == ["error: manifest weight 'diag' not recognized"]
    lines = format_table(report).splitlines()
    assert lines[1].split() == ["case2", "error", "FAIL"]
    assert lines[2].strip() == "- error: manifest weight 'diag' not recognized"
    assert lines[3] == "0/1 cases passed"
