"""End-to-end command-line behavior, exercised through main(argv).

Exit codes are part of the public contract: 0 success, 1 input error,
2 infeasible design, 3 inclusion violated in simulation.
"""

import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import obsynth
import obsynth.cli as cli
import obsynth.simulation as simulation
from obsynth import Trace
from obsynth.cli import main
from obsynth.synthesis import DIAG_SIGN_CONFLICT


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _case(corpus_dir, name: str) -> str:
    return str(corpus_dir / f"{name}.json")


# ---------------------------------------------------------------------------
# design


def test_design_reports_the_known_gain(capsys, corpus_dir):
    code, out, _ = _run(capsys, "design", _case(corpus_dir, "case1"))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert set(doc) == {
        "status", "kind", "form", "epsilon", "L", "gamma", "X_diag", "U",
        "diagnostic", "certification",
    }
    assert np.allclose(doc["L"], [[1.0], [2.0]], atol=1e-6)
    assert doc["gamma"] <= 1e-5
    assert doc["certification"]["passed"] is True


def test_design_out_flag_duplicates_stdout(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "design.json"
    code, out, _ = _run(
        capsys, "design", _case(corpus_dir, "case1"), "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == out


def test_design_infeasible_exits_two(capsys, corpus_dir):
    code, out, _ = _run(capsys, "design", _case(corpus_dir, "case3"))
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "infeasible"
    assert "E - L F" in doc["diagnostic"]
    assert "certification" not in doc


def test_missing_input_exits_one(capsys, tmp_path):
    code, _, err = _run(capsys, "design", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error:" in err


def test_malformed_problem_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": "1", "class": "continuous",
        "A": [[-1.0, 0.0]], "E": [[1.0]], "C": [[1.0]], "F": [[0.0]],
    }))
    code, _, err = _run(capsys, "design", str(path))
    assert code == 1
    assert err == f"error: {path}: A has shape (1, 2), expected (2, 2)\n"


# ---------------------------------------------------------------------------
# gain


def test_gain_at_explicit_matrix(capsys, corpus_dir):
    code, out, _ = _run(
        capsys, "gain", _case(corpus_dir, "case2"), "--gain", "[[-1],[2]]"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["gamma_closed"] - 1.0) <= 1e-9
    assert abs(doc["gamma_lp"] - 1.0) <= 1e-4
    assert doc["N"] == [[0.0], [0.0]]  # q x p zeros for the identity M


def test_gain_with_aggregate_output(capsys, corpus_dir):
    code, out, _ = _run(
        capsys, "gain", _case(corpus_dir, "case2"),
        "--gain", "[[-1],[2]]", "--output-matrix", "ones",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["gamma_closed"] - 10.0 / 7.0) <= 1e-9


def test_gain_defaults_to_designing(capsys, corpus_dir):
    code, out, _ = _run(capsys, "gain", _case(corpus_dir, "case2"))
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["L"], [[-1.0], [2.0]], atol=1e-5)
    assert abs(doc["gamma_closed"] - 1.0) <= 1e-4


def test_gain_rejects_inadmissible_matrix(capsys, corpus_dir):
    code, _, err = _run(
        capsys, "gain", _case(corpus_dir, "case2"), "--gain", "[[1],[0]]"
    )
    assert code == 1
    assert "Metzler" in err
    assert "entry (0, 1) is -2" in err


def test_gain_rejects_unparseable_matrix(capsys, corpus_dir):
    # bad JSON, ragged rows, a string, an object: one line, no traceback
    for flag, value in (
        ("--gain", "[[nope"),
        ("--gain", "[[1],[2,3]]"),
        ("--output-matrix", '"abc"'),
        ("--feedthrough", '{"a": 1}'),
    ):
        code, _, err = _run(capsys, "gain", _case(corpus_dir, "case2"), flag, value)
        assert code == 1
        assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value, forms",
    [
        # the keywords are output-matrix forms; a number has no row count
        # to fill there
        ("--feedthrough", "ones", "a number or JSON rows of shape 2x1"),
        ("--feedthrough", "I", "a number or JSON rows of shape 2x1"),
        ("--output-matrix", "2", "I, ones, or JSON rows of 2 columns"),
        ("--gain", "[[1, 2]]", "a number or JSON rows of shape 2x1"),
    ],
)
def test_matrix_flags_take_only_their_forms(capsys, corpus_dir, flag, value, forms):
    code, out, err = _run(
        capsys, "gain", _case(corpus_dir, "case2"), "--gain", "[[-1],[2]]", flag, value
    )
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be {forms}, got {value!r}\n"


def test_scalar_feedthrough_spreads_over_q_by_p(capsys, corpus_dir):
    code, out, err = _run(
        capsys, "gain", _case(corpus_dir, "case2"),
        "--gain", "[[-1],[2]]", "--feedthrough", "0.5",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["N"] == [[0.5], [0.5]]  # q = 2 rows of the identity M, p = 1
    assert abs(doc["gamma_closed"] - 1.5) <= 1e-9


def test_scalar_gain_spreads_over_n_by_r(capsys, tmp_path):
    # p = 2 disturbances but r = 1 output: L is 2 x 1
    doc = {
        "schema_version": "1",
        "class": "continuous",
        "A": [[-2.0, 1.0], [1.0, -3.0]],
        "E": [[1.0, 0.5], [0.5, 1.0]],
        "C": [[1.0, 0.0]],
        "F": [[0.1, 0.1]],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "gain", str(path), "--gain", "0.5")
    assert code == 0, err
    assert np.array_equal(json.loads(out)["L"], 0.5 * np.ones((2, 1)))


def test_gain_on_population_file(capsys, corpus_dir):
    code, out, _ = _run(
        capsys, "gain", _case(corpus_dir, "population"),
        "--gain", "[[0],[0],[5]]",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["gamma_closed"] - 0.75) <= 1e-9


def test_gain_reports_an_infeasible_design(capsys, corpus_dir):
    code, out, err = _run(capsys, "gain", _case(corpus_dir, "case3"))
    assert (code, err) == (2, "")
    assert json.loads(out) == {"status": "infeasible", "diagnostic": DIAG_SIGN_CONFLICT}


def test_gain_refuses_delay_files(capsys, corpus_dir):
    code, _, err = _run(
        capsys, "gain", _case(corpus_dir, "delay_scalar"), "--gain", "[[0]]"
    )
    assert code == 1
    assert "continuous-time" in err


def test_gain_relaxed_reports_both_gains(capsys, corpus_dir):
    code, out, _ = _run(
        capsys, "gain", _case(corpus_dir, "case1_relaxed"),
        "--gain", "[[1],[10]]",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["gamma_relaxed_error"] - 8.0 / 15.0) <= 1e-9
    assert abs(doc["gamma_surrogate"] - 0.5) <= 2e-6
    assert "gamma_closed" not in doc


@pytest.mark.parametrize("value", ["nonsense", "0.5"])
def test_gain_relaxed_refuses_a_feedthrough(capsys, corpus_dir, value):
    # the relaxed error loop has no feedthrough, so any N is an error
    code, out, err = _run(
        capsys, "gain", _case(corpus_dir, "case1_relaxed"),
        "--gain", "[[1],[10]]", "--feedthrough", value,
    )
    assert code == 1
    assert out == ""
    assert "--feedthrough does not apply to a relaxed-form file" in err


def test_gain_relaxed_accepts_the_default_feedthrough(capsys, corpus_dir):
    argv = ("gain", _case(corpus_dir, "case1_relaxed"), "--gain", "[[1],[10]]")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert _run(capsys, *argv, "--feedthrough", "0") == (0, out, "")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trace_and_reports_inclusion(capsys, corpus_dir, tmp_path):
    csv = tmp_path / "trace.csv"
    code, out, _ = _run(
        capsys, "simulate", _case(corpus_dir, "case1"), "--out", str(csv)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["inclusion"]["clean"] is True
    assert doc["csv"] == str(csv)
    header = csv.read_text().splitlines()[0]
    assert header.startswith("t,x1,x2,")


def test_simulate_without_disturbance_spread_reports_no_peak_gain(
    capsys, corpus_dir, tmp_path
):
    # w_lo = w = w_hi: the envelope has zero width, so no gain is measured
    doc = json.loads((corpus_dir / "case1.json").read_text())
    flat = {"type": "constant", "value": 0.5}
    doc["disturbance"] = {"w": [flat], "w_lo": [flat], "w_hi": [flat]}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "simulate", str(path), "--out", str(tmp_path / "t.csv"))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["inclusion"]["clean"] is True
    assert doc["empirical_peak_gain"] is None
    assert doc["empirical_note"] == "disturbance envelope has zero width on the window"


def test_simulate_runs_a_zero_delay_file(capsys, corpus_dir, tmp_path):
    doc = json.loads((corpus_dir / "delay_scalar.json").read_text())
    doc["h"] = 0.0
    path = tmp_path / "h0.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "simulate", str(path), "--out", str(tmp_path / "t.csv"))
    assert (code, err) == (0, "")
    assert json.loads(out)["inclusion"]["clean"] is True


def test_simulate_infeasible_design_exits_two(capsys, corpus_dir, tmp_path):
    # case3 holds no simulation sections, which simulate reads before the
    # design; case1's fit its sizes
    doc = json.loads((corpus_dir / "case3.json").read_text())
    sections = json.loads((corpus_dir / "case1.json").read_text())
    doc.update({k: sections[k] for k in ("simulation", "disturbance")})
    path = tmp_path / "case3_simulated.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "simulate", str(path), "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert json.loads(out)["status"] == "infeasible"


def test_simulate_inclusion_violation_exits_three(
    capsys, corpus_dir, tmp_path, monkeypatch
):
    times = np.array([0.0, 1.0])
    x = np.zeros((2, 1))
    x_lo = np.array([[0.0], [0.5]])  # crosses above the state at t=1
    x_hi = np.ones((2, 1))
    w = np.zeros((2, 1))
    broken = Trace(times, x, x_lo, x_hi, w, w - 1.0, w + 1.0)
    monkeypatch.setattr(cli, "simulate_problem", lambda pf, L, form: broken)
    code, out, _ = _run(
        capsys, "simulate", _case(corpus_dir, "case1"),
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["inclusion"]["clean"] is False
    assert doc["inclusion"]["time"] == 1.0
    assert doc["inclusion"]["side"] == "lower"


# ---------------------------------------------------------------------------
# epsilon precedence: flag > file > environment > default


def _gain_epsilon(capsys, path: str, *extra) -> float:
    code, out, _ = _run(capsys, "gain", path, "--gain", "[[-1],[2]]", *extra)
    assert code == 0
    return json.loads(out)["epsilon"]


@pytest.fixture
def no_file_epsilon(tmp_path, corpus_dir):
    """case2 without an observer section, so only flag/env/default apply."""
    doc = json.loads((corpus_dir / "case2.json").read_text())
    del doc["observer"]
    del doc["disturbance"]
    del doc["simulation"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_epsilon_flag_beats_everything(capsys, corpus_dir, monkeypatch):
    monkeypatch.setenv("OBSYNTH_EPSILON", "1e-2")
    eps = _gain_epsilon(capsys, _case(corpus_dir, "case2"), "--epsilon", "1e-3")
    assert eps == 1e-3


def test_epsilon_file_beats_environment(capsys, corpus_dir, monkeypatch):
    monkeypatch.setenv("OBSYNTH_EPSILON", "1e-2")
    assert _gain_epsilon(capsys, _case(corpus_dir, "case2")) == 1e-6


def test_epsilon_environment_fills_file_gap(capsys, no_file_epsilon, monkeypatch):
    monkeypatch.setenv("OBSYNTH_EPSILON", "1e-2")
    assert _gain_epsilon(capsys, no_file_epsilon) == 1e-2


def test_epsilon_default_when_nothing_set(capsys, no_file_epsilon, monkeypatch):
    monkeypatch.delenv("OBSYNTH_EPSILON", raising=False)
    assert _gain_epsilon(capsys, no_file_epsilon) == 1e-6


@pytest.mark.parametrize("value", ["abc", "-1", "inf"])
def test_invalid_environment_epsilon_exits_one(capsys, corpus_dir, monkeypatch, value):
    monkeypatch.setenv("OBSYNTH_EPSILON", value)
    code, _, err = _run(
        capsys, "gain", _case(corpus_dir, "case2"), "--gain", "[[-1],[2]]"
    )
    assert code == 1
    assert "OBSYNTH_EPSILON" in err


# ---------------------------------------------------------------------------
# check and bench


def test_check_accepts_every_corpus_file(capsys, corpus_dir):
    for path in sorted(corpus_dir.glob("*.json")):
        if path.stem == "expected":
            continue
        code, out, _ = _run(capsys, "check", str(path))
        assert code == 0, path.stem
        assert json.loads(out)["valid"] is True


def test_check_rejects_bad_file(capsys, tmp_path, corpus_dir):
    path = tmp_path / "nope.json"
    path.write_text('{"schema_version": "2"}')
    code, _, err = _run(capsys, "check", str(path))
    assert code == 1
    assert "schema_version" in err
    # non-string dispatch keys give one error line, not a traceback
    signals = {
        "w": [{"type": {}}],
        "w_lo": [{"type": "constant", "value": -1.0}],
        "w_hi": [{"type": "constant", "value": 1.0}],
    }
    for key, patch in (
        (".class", {"class": ["continuous"]}),
        (".disturbance.w[0].type", {"disturbance": signals}),
    ):
        doc = json.loads((corpus_dir / "case1.json").read_text())
        doc.update(patch)
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "check", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}{key}:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "design"])
def test_an_integer_literal_beyond_float_range_is_one_error_line(
    capsys, corpus_dir, tmp_path, command
):
    doc = json.loads((corpus_dir / "case1.json").read_text())
    doc["simulation"]["t_end"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}.simulation.t_end: number must be finite\n"


def test_check_refuses_a_form_design_refuses(capsys, tmp_path, corpus_dir):
    doc = json.loads((corpus_dir / "dt_scalar.json").read_text())
    doc["observer"]["form"] = "relaxed"
    path = tmp_path / "dt_relaxed.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}.observer.form: discrete design supports the standard form only\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["check"], ["design"], ["gain", "--gain", "[[1],[2]]"], ["simulate", "--out", "t.csv"]],
)
def test_unordered_gain_bounds_are_refused_up_front(
    capsys, corpus_dir, tmp_path, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    doc = json.loads((corpus_dir / "case1.json").read_text())
    doc["observer"] = {"gain_lower": [[1.0], [3.0]], "gain_upper": [[2.0], [2.0]]}
    path = tmp_path / "unordered.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == f"error: {path}.observer: gain_lower exceeds gain_upper somewhere\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "case, section, patch, message",
    [
        ("case1", "observer", {"gain_lower": [[1.0], [3.0]], "gain_upper": [[2.0], [2.0]]},
         "gain_lower exceeds gain_upper somewhere"),
        ("case1", "simulation", {"x0": [3.0, 0.0]}, "x0 must lie inside [x0_lo, x0_hi]"),
        ("case1", "simulation", {"dt": 0.0}, "dt must lie in (0, t_end]"),
        ("population", "population", {"incidence_gain": 2.5},
         "incidence_gain must lie inside incidence_bounds"),
    ],
    ids=["crossed_gain_bounds", "x0_outside_its_box", "zero_dt", "population_gain_outside"],
)
def test_check_refuses_what_a_later_build_would(
    capsys, corpus_dir, tmp_path, case, section, patch, message
):
    # each file is well formed JSON of the right shapes; only building a
    # section finds the fault, and parsing builds every section
    doc = json.loads((corpus_dir / f"{case}.json").read_text())
    doc[section].update(patch)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}.{section}: {message}\n"


def test_check_reads_the_epsilon_flag(capsys, corpus_dir, tmp_path, monkeypatch):
    # every command that takes the flag checks it before any work, as
    # OBSYNTH_EPSILON is checked, and names it
    monkeypatch.chdir(tmp_path)
    for command in ("check", "design", "gain", "simulate"):
        for value in ("-1", "0", "nan", "inf"):
            argv = (command, _case(corpus_dir, "case2"), "--epsilon", value)
            code, out, err = _run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == f"error: --epsilon={float(value)!r} is not a positive real\n"
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("section", ["simulation", "disturbance"])
def test_simulate_names_the_file_missing_a_section(
    capsys, corpus_dir, tmp_path, monkeypatch, section
):
    monkeypatch.chdir(tmp_path)
    doc = json.loads((corpus_dir / "case1.json").read_text())
    del doc[section]
    path = tmp_path / f"no_{section}.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "simulate", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}.{section}: section required but absent\n"
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("section", ["simulation", "disturbance"])
def test_simulate_reads_its_sections_before_the_design(
    capsys, corpus_dir, tmp_path, monkeypatch, section
):
    def no_design(*args, **kwargs):
        raise AssertionError("design ran")

    monkeypatch.setattr(cli, "design", no_design)
    doc = json.loads((corpus_dir / "case1.json").read_text())
    del doc[section]
    path = tmp_path / f"no_{section}.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "simulate", str(path), "--out", str(tmp_path / "t.csv"))
    assert (code, out) == (1, "")
    assert err == f"error: {path}.{section}: section required but absent\n"


@pytest.mark.parametrize("module", [cli, simulation], ids=["cli", "simulation"])
def test_every_annotation_resolves(module):
    own = [
        obj for obj in vars(module).values()
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__
    ]
    classes = [obj for obj in own if inspect.isclass(obj)]
    methods = [m for c in classes for m in vars(c).values() if inspect.isfunction(m)]
    for obj in own + methods:
        typing.get_type_hints(obj)


def test_bench_takes_no_epsilon(capsys):
    code, _, _ = _run(capsys, "bench", "--epsilon", "1e-3")
    assert code == 1


def test_bench_runs_clean(capsys):
    code, out, _ = _run(capsys, "bench")
    assert code == 0
    assert "10/10 cases passed" in out


def test_bench_filter_narrows_the_table(capsys):
    code, out, _ = _run(capsys, "bench", "--filter", "dt_scalar")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("dt_scalar")]
    assert len(rows) == 1
    assert "1/1 cases passed" in out


def test_bench_filter_matching_nothing_fails(capsys):
    code, out, err = _run(capsys, "bench", "--filter", "no_such_case")
    assert (code, out) == (1, "")
    assert err == "error: --filter 'no_such_case' matches no corpus case\n"


# ---------------------------------------------------------------------------
# argparse plumbing


def test_unknown_command_exits_one(capsys):
    assert main(["disassemble"]) == 1
    capsys.readouterr()


def test_no_arguments_exits_one(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "design" in out and "bench" in out


@pytest.mark.parametrize("module", ["obsynth", "obsynth.cli"])
def test_python_dash_m_runs_the_cli(module, corpus_dir):
    src = str(Path(obsynth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    done = run("bench", "--filter", "zzz")
    assert done.returncode == 1
    assert any(line.startswith("error:") for line in done.stderr.splitlines())
    done = run("check", _case(corpus_dir, "case1"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["valid"] is True
