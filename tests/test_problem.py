"""Problem-file parsing: strictness, normalization, and round trips."""

import json
import math

import numpy as np
import pytest

from obsynth import (
    DEFAULT_EPSILON,
    ConstantSignal,
    ContinuousSystem,
    DelaySystem,
    DiscreteSystem,
    PiecewiseConstantSignal,
    PopulationModel,
    ProblemFile,
    ProblemFileError,
    SampledSignal,
    SineSignal,
    parse_problem,
    parse_problem_dict,
)

BASE = {
    "schema_version": "1",
    "class": "continuous",
    "A": [[-2.0, 1.0], [3.0, -5.0]],
    "E": [[1.0], [2.0]],
    "C": [[0.0, 1.0]],
    "F": [[1.0]],
}


def _doc(**overrides) -> dict:
    doc = json.loads(json.dumps(BASE))
    doc.update(overrides)
    return doc


def _expect(match: str, doc: dict):
    with pytest.raises(ProblemFileError, match=match):
        parse_problem_dict(doc)


# ---------------------------------------------------------------------------
# corpus


def test_whole_corpus_parses_and_builds(corpus_dir):
    paths = sorted(corpus_dir.glob("*.json"))
    names = {p.stem for p in paths}
    assert "expected" in names  # the manifest lives alongside the cases
    cases = [p for p in paths if p.stem != "expected"]
    assert len(cases) == 10
    for path in cases:
        pf = parse_problem(str(path))
        sys = pf.system()
        assert isinstance(
            sys, (ContinuousSystem, DelaySystem, DiscreteSystem, PopulationModel)
        )
        pf.observer_spec()  # options must instantiate for every case


def test_corpus_files_are_normalized_fixed_points(corpus_dir):
    for path in sorted(corpus_dir.glob("*.json")):
        if path.stem == "expected":
            continue
        pf = parse_problem(str(path))
        assert pf.to_json() + "\n" == path.read_text()


def test_population_corpus_case_has_signal_gain(corpus_dir):
    pf = parse_problem(str(corpus_dir / "population.json"))
    assert pf.klass == "population"
    model = pf.system()
    assert callable(model.incidence_gain)
    # the scenario keeps the true gain inside the published envelope
    lo, hi = model.incidence_bounds
    for t in np.linspace(0.0, 200.0, 400):
        assert lo - 1e-12 <= model.gain_at(t) <= hi + 1e-12


# ---------------------------------------------------------------------------
# round trips


def test_dict_json_round_trip_is_identity():
    doc = _doc(
        observer={"form": "standard", "epsilon": 1e-6, "gain_lower": -5.0},
        disturbance={
            "w": [{"type": "sine", "amplitude": 0.5, "omega": 1.0}],
            "w_lo": [{"type": "constant", "value": -1.0}],
            "w_hi": [{"type": "constant", "value": 1.0}],
        },
    )
    first = parse_problem_dict(doc)
    second = parse_problem_dict(json.loads(first.to_json()))
    assert first.data == second.data
    assert first.to_json() == second.to_json()


def test_save_then_parse_round_trip(tmp_path):
    pf = parse_problem_dict(_doc())
    path = tmp_path / "case.json"
    pf.save(str(path))
    again = parse_problem(str(path))
    assert again.data == pf.data


# ---------------------------------------------------------------------------
# strict top-level validation


def test_unknown_top_level_key_is_named():
    _expect(r"bogus", _doc(bogus=1))


def test_missing_matrix_is_named():
    doc = _doc()
    del doc["C"]
    _expect(r"missing required key\(s\) C", doc)


def test_wrong_schema_version():
    _expect(r"schema_version", _doc(schema_version="0"))


def test_unknown_class():
    _expect(r"\$\.class", _doc(**{"class": "hybrid"}))
    _expect(r"\$\.class", _doc(**{"class": ["continuous"]}))


def test_nonsquare_state_matrix():
    # the plant type reads the matrices; its message names the one at fault
    _expect(r"^\$: A has shape \(1, 2\), expected \(2, 2\)$", _doc(A=[[1.0, 2.0]]))


def test_inconsistent_shapes_are_rejected():
    _expect(r"^\$: E has shape \(1, 1\), expected \(2, 1\)$", _doc(E=[[1.0]]))
    _expect(r"^\$: C has shape \(1, 1\), expected \(1, 2\)$", _doc(C=[[1.0]]))
    _expect(r"^\$: F has shape \(1, 2\), expected \(1, 1\)$", _doc(F=[[1.0, 2.0]]))
    # C fixes the output count r; an F with other rows is the one blamed
    _expect(
        r"^\$: F has shape \(1, 1\), expected \(2, 1\)$", _doc(C=[[0.0, 1.0], [1.0, 0.0]])
    )


def test_matrix_content_validation():
    _expect(r"\$\.A\[0\]\[1\].*number", _doc(A=[[-1.0, "x"], [0.0, -1.0]]))
    _expect(r"^\$\.A: expected a nonempty nested numeric array$", _doc(A=[]))
    _expect(r"^\$\.A: expected rows as arrays$", _doc(A=[1, 2]))
    _expect(r"^\$\.A: rows must be nonempty and of equal length$", _doc(A=[[1, 2], [3]]))
    _expect(r"\$\.A.*finite", json.loads(json.dumps(_doc()).replace("-2.0", "1e999")))


def test_integer_literals_beyond_float_range_are_not_finite():
    # JSON integers are exact: one of 401 digits has no float value, and
    # is refused as a non-finite number; one of 25 digits has one
    huge = 10**400
    _expect(r"^\$\.A\[0\]\[1\]: number must be finite$", _doc(A=[[-2.0, huge], [3.0, -5.0]]))
    sim = {"t_end": huge, "dt": 0.1, "x0": [0.0, 0.0], "x0_lo": [0.0, 0.0], "x0_hi": [1.0, 1.0]}
    _expect(r"^\$\.simulation\.t_end: number must be finite$", _doc(simulation=sim))
    sim["t_end"] = 2 * 10**24
    pf = parse_problem_dict(_doc(A=[[-2.0, 2 * 10**24], [3.0, -5.0]], simulation=sim))
    assert pf.system().A[0, 1] == 2e24
    assert pf.sim_config().t_end == 2e24


def test_delay_class_requires_h():
    doc = {
        "schema_version": "1",
        "class": "delay",
        "A": [[-3.0]],
        "A_h": [[1.0]],
        "E": [[1.0]],
        "C": [[1.0]],
        "C_h": [[0.0]],
        "F": [[0.0]],
    }
    _expect(r"missing required key\(s\) h", doc)
    doc["h"] = -1.0
    _expect(r"^\$: delay h must be finite and nonnegative$", doc)
    doc["h"] = 1.0
    sys = parse_problem_dict(doc).system()
    assert isinstance(sys, DelaySystem)
    assert sys.h == 1.0


# ---------------------------------------------------------------------------
# observer section


def test_observer_defaults_and_bound_broadcast():
    pf = parse_problem_dict(_doc(observer={"gain_lower": -5.0, "gain_upper": 5.0}))
    spec = pf.observer_spec()
    assert spec.form == "standard"
    assert spec.gain_lower.shape == (2, 1)
    assert np.all(spec.gain_lower == -5.0)
    assert np.all(spec.gain_upper == 5.0)
    assert spec.epsilon == DEFAULT_EPSILON


def test_observer_bound_matrix_shape_checked():
    _expect(
        r"^\$\.observer: gain_lower has shape \(1, 2\), expected \(2, 1\)$",
        _doc(observer={"gain_lower": [[0.0, 0.0]]}),
    )


def test_observer_bad_form_and_epsilon():
    _expect(
        r"^\$\.observer: unknown observer form 'exotic'$", _doc(observer={"form": "exotic"})
    )
    _expect(
        r"^\$\.observer: epsilon must be a positive real$", _doc(observer={"epsilon": 0.0})
    )
    _expect(r"\$\.observer.*unknown", _doc(observer={"margin": 1e-6}))


@pytest.mark.parametrize(
    "klass, matrices",
    [
        ("delay", {"A": [[-3.0]], "A_h": [[1.0]], "E": [[1.0]], "C": [[1.0]],
                   "C_h": [[0.0]], "F": [[0.0]], "h": 1.0}),
        ("discrete", {"A_d": [[0.5]], "E_d": [[1.0]], "C_d": [[1.0]], "F_d": [[1.0]]}),
    ],
)
def test_relaxed_form_is_refused_where_design_refuses_it(klass, matrices):
    doc = {"schema_version": "1", "class": klass, **matrices}
    assert parse_problem_dict(doc).observer_spec().form == "standard"
    doc["observer"] = {"form": "relaxed"}
    _expect(
        rf"^\$\.observer\.form: {klass} design supports the standard form only$", doc
    )


def test_epsilon_precedence_file_argument_fallback():
    with_eps = parse_problem_dict(_doc(observer={"epsilon": 1e-3}))
    without = parse_problem_dict(_doc())
    # file value beats the fallback; an explicit argument beats the file
    assert with_eps.observer_spec(fallback=1e-9).epsilon == 1e-3
    assert with_eps.observer_spec(epsilon=1e-4).epsilon == 1e-4
    assert without.observer_spec(fallback=1e-9).epsilon == 1e-9
    assert without.observer_spec().epsilon == DEFAULT_EPSILON


# ---------------------------------------------------------------------------
# disturbance and simulation sections


def test_disturbance_channel_count_enforced():
    _expect(
        r"\$\.disturbance\.w.*expected 1 signal",
        _doc(
            disturbance={
                "w": [
                    {"type": "constant", "value": 0.0},
                    {"type": "constant", "value": 0.0},
                ],
                "w_lo": [{"type": "constant", "value": -1.0}],
                "w_hi": [{"type": "constant", "value": 1.0}],
            }
        ),
    )


def test_signal_objects_validated_in_place():
    bad = {
        "w": [{"type": "triangle", "value": 0.0}],
        "w_lo": [{"type": "constant", "value": -1.0}],
        "w_hi": [{"type": "constant", "value": 1.0}],
    }
    _expect(r"\$\.disturbance\.w\[0\]\.type", _doc(disturbance=bad))
    bad["w"] = [{"type": {}}]
    _expect(r"\$\.disturbance\.w\[0\]\.type", _doc(disturbance=bad))
    bad["w"] = [{"type": "piecewise", "breakpoints": [1.0], "levels": [0.0]}]
    _expect(r"\$\.disturbance\.w\[0\].*level", _doc(disturbance=bad))
    bad["w"] = {}
    _expect(r"^\$\.disturbance\.w: expected an array of signal objects$", _doc(disturbance=bad))


@pytest.mark.parametrize(
    "spec, cls, value_at_1",
    [
        ({"type": "constant", "value": 0.25}, ConstantSignal, 0.25),
        ({"type": "sine", "amplitude": 0.5, "omega": 1.0}, SineSignal, 0.5 * np.sin(1.0)),
        (
            {"type": "piecewise", "breakpoints": [0.5], "levels": [0.0, 0.75]},
            PiecewiseConstantSignal,
            0.75,
        ),
        ({"type": "samples", "times": [0.0, 2.0], "values": [0.5, 0.9]}, SampledSignal, 0.5),
    ],
    ids=["constant", "sine", "piecewise", "samples"],
)
def test_every_signal_type_builds_from_its_required_fields(spec, cls, value_at_1):
    def parse(signal):
        return parse_problem_dict(
            _doc(
                disturbance={
                    "w": [signal],
                    "w_lo": [{"type": "constant", "value": -1.0}],
                    "w_hi": [{"type": "constant", "value": 1.0}],
                }
            )
        )

    pf = parse(spec)
    defaults = {"phase": 0.0, "offset": 0.0} if spec["type"] == "sine" else {}
    assert pf.data["disturbance"]["w"][0] == {**spec, **defaults}
    signal = pf.disturbance().w[0]
    assert type(signal) is cls
    assert signal(1.0) == value_at_1
    # each field is parsed as the kind its constructor argument takes
    for key, val in spec.items():
        if key != "type":
            wrong = 1.0 if isinstance(val, list) else [val]
            with pytest.raises(ProblemFileError, match=rf"w\[0\]\.{key}: expected"):
                parse({**spec, key: wrong})


def test_sine_defaults_are_materialized():
    pf = parse_problem_dict(
        _doc(
            disturbance={
                "w": [{"type": "sine", "amplitude": 0.5, "omega": 1.0}],
                "w_lo": [{"type": "constant", "value": -1.0}],
                "w_hi": [{"type": "constant", "value": 1.0}],
            }
        )
    )
    spec = pf.data["disturbance"]["w"][0]
    assert spec["phase"] == 0.0 and spec["offset"] == 0.0
    assert pf.disturbance().w[0](0.0) == 0.0


def test_simulation_section_lengths_checked():
    _expect(
        r"\$\.simulation\.x0.*expected 2",
        _doc(
            simulation={
                "t_end": 1.0,
                "dt": 0.1,
                "x0": [0.0],
                "x0_lo": [0.0, 0.0],
                "x0_hi": [1.0, 1.0],
            }
        ),
    )


_POPULATION = {
    "decay": [2.0, 2.0, 3.0],
    "growth": [3.0, 4.0],
    "incidence_gain": 1.5,
    "incidence_bounds": [1.0, 2.0],
    "half_saturation": 1.0,
}


@pytest.mark.parametrize(
    "klass, plant, n",
    [
        ("continuous", {k: BASE[k] for k in "AECF"}, 2),
        ("discrete", {"A_d": [[0.5]], "E_d": [[1.0]], "C_d": [[1.0]], "F_d": [[1.0]]}, 1),
        ("population", {"population": _POPULATION}, 3),
        ("delay", {"A": [[-3.0]], "A_h": [[1.0]], "E": [[1.0]], "C": [[1.0]],
                   "C_h": [[0.0]], "F": [[0.0]], "h": 1.0}, 1),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_history_is_read_only_where_a_simulator_reads_it(klass, plant, n):
    sim = {"t_end": 1.0, "dt": 0.1, "x0": [0.5] * n, "x0_lo": [0.0] * n, "x0_hi": [1.0] * n}
    doc = {"schema_version": "1", "class": klass, **plant, "simulation": sim}
    sim["history"] = [{"type": "constant", "value": 0.5}] * n
    if klass == "delay":
        history = parse_problem_dict(doc).sim_config().history
        assert [h(-0.5) for h in history] == [0.5]
    else:
        _expect(r"^\$\.simulation: unknown key\(s\) history$", doc)


def test_missing_sections_reported_on_use():
    pf = parse_problem_dict(_doc())
    with pytest.raises(ProblemFileError, match=r"\$\.disturbance"):
        pf.disturbance()
    with pytest.raises(ProblemFileError, match=r"\$\.simulation"):
        pf.sim_config()


def test_sim_config_errors_carry_the_json_path():
    _expect(
        r"^\$\.simulation: x0 must lie inside \[x0_lo, x0_hi\]$",
        _doc(
            simulation={
                "t_end": 1.0,
                "dt": 0.1,
                "x0": [9.0, 9.0],
                "x0_lo": [0.0, 0.0],
                "x0_hi": [1.0, 1.0],
            }
        ),
    )


# ---------------------------------------------------------------------------
# population section


def test_population_dict_parses_constant_and_signal_gains():
    doc = {
        "schema_version": "1",
        "class": "population",
        "population": {
            "decay": [2.0, 2.0, 3.0],
            "growth": [3.0, 4.0],
            "incidence_gain": 1.5,
            "incidence_bounds": [1.0, 2.0],
            "half_saturation": 1.0,
        },
    }
    model = parse_problem_dict(doc).system()
    assert model.incidence_gain == 1.5
    doc["population"]["incidence_gain"] = {
        "type": "sine", "amplitude": 0.5, "omega": 0.1, "offset": 1.5,
    }
    model = parse_problem_dict(doc).system()
    assert callable(model.incidence_gain)
    assert abs(model.gain_at(0.0) - 1.5) <= 1e-15

    doc["population"]["decay"] = [2.0, 2.0]
    _expect(r"^\$\.population: decay takes 3 values, got 2$", doc)


def test_population_rejects_matrix_keys():
    doc = {
        "schema_version": "1",
        "class": "population",
        "A": [[-1.0]],
        "population": {
            "decay": [2.0, 2.0, 3.0],
            "growth": [3.0, 4.0],
            "incidence_gain": 1.5,
            "incidence_bounds": [1.0, 2.0],
            "half_saturation": 1.0,
        },
    }
    _expect(r"unknown key\(s\) A", doc)


def test_invalid_model_values_blamed_on_the_system():
    doc = {
        "schema_version": "1",
        "class": "population",
        "population": {
            "decay": [2.0, 2.0, 3.0],
            "growth": [3.0, 4.0],
            "incidence_gain": 9.0,  # outside the envelope below
            "incidence_bounds": [1.0, 2.0],
            "half_saturation": 1.0,
        },
    }
    # parsing builds the model, so the file itself is refused
    _expect(r"^\$\.population: incidence_gain must lie inside incidence_bounds$", doc)


def test_population_file_refuses_an_infinite_incidence_bound():
    doc = {
        "schema_version": "1",
        "class": "population",
        "population": {
            "decay": [2.0, 2.0, 3.0],
            "growth": [3.0, 4.0],
            "incidence_gain": 1.5,
            "incidence_bounds": [1.0, math.inf],
            "half_saturation": 1.0,
        },
    }
    _expect(r"^\$\.population\.incidence_bounds\[1\]: number must be finite$", doc)


# ---------------------------------------------------------------------------
# file handling


def test_missing_file_and_invalid_json(tmp_path):
    with pytest.raises(ProblemFileError, match="no_such"):
        parse_problem(str(tmp_path / "no_such.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemFileError, match="invalid JSON"):
        parse_problem(str(bad))
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    with pytest.raises(ProblemFileError, match="expected an object"):
        parse_problem(str(not_an_object))


def test_parse_errors_name_the_source_file(tmp_path):
    path = tmp_path / "weird.json"
    doc = _doc(bogus=1)
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match="weird.json"):
        parse_problem(str(path))


def test_problem_file_is_a_thin_wrapper():
    pf = parse_problem_dict(_doc())
    assert isinstance(pf, ProblemFile)
    assert pf.klass == "continuous"
    sys = pf.system()
    assert np.array_equal(sys.A, BASE["A"])
