"""Problem files: a strict JSON description of one analysis scenario.

A problem file names a plant class, its matrices, and optionally the
observer options, the disturbance signals with their envelope, and the
simulation grid.  Parsing checks the JSON shape here (objects, key sets,
finite numbers, rectangular numeric arrays, the kind of each signal
field) and what no type knows: x0 against n, and the signal counts
against p and n.  It builds each section once through the type that
checks it (the plant, ObserverSpec with check_form and bounds(n, r),
each signal, DisturbanceModel, SimConfig) and reports what that type
raises under the source and the section's JSON path, so a file that
parses is one every command can use.  Parsed files normalize defaults
once, a number given as a gain bound included, which makes
parse(write(parse(f))) a fixed point.  One table, _SIGNALS, gives each
signal type its class, fields and defaults, and one, _CLASSES, gives
each matrix class its system type, whose MATRICES name the file's
matrices and whose check_form says which observer forms it takes, so
neither is dispatched anywhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ObsynthError, ProblemFileError
from .positive import DEFAULT_EPSILON, ContinuousSystem, DelaySystem, DiscreteSystem
from .simulation import (
    ConstantSignal,
    DisturbanceModel,
    PiecewiseConstantSignal,
    PopulationModel,
    SampledSignal,
    SimConfig,
    SineSignal,
)
from .synthesis import ObserverSpec

SCHEMA_VERSION = "1"

# plant class -> system type; its MATRICES name the matrices a file holds
_CLASSES = {"continuous": ContinuousSystem, "delay": DelaySystem, "discrete": DiscreteSystem}


def _fail(path: str, message: str) -> ProblemFileError:
    return ProblemFileError(f"{path}: {message}")


def _built(path: str, make, *args):
    """make(*args), with any error it raises reported at path."""
    try:
        return make(*args)
    except ObsynthError as exc:
        raise _fail(path, str(exc)) from exc


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, required: set[str], optional: set[str], path: str) -> None:
    keys = set(obj)
    missing = sorted(required - keys)
    if missing:
        raise _fail(path, f"missing required key(s) {', '.join(missing)}")
    unknown = sorted(keys - required - optional)
    if unknown:
        raise _fail(path, f"unknown key(s) {', '.join(unknown)}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, "expected a number")
    if not np.isfinite(value):
        raise _fail(path, "number must be finite")
    return float(value)


def _number_list(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise _fail(path, "expected an array of numbers")
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _matrix(value, path: str) -> list[list[float]]:
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a nonempty nested numeric array")
    if not all(isinstance(r, list) for r in value):
        raise _fail(path, "expected rows as arrays")
    rows = [_number_list(r, f"{path}[{k}]") for k, r in enumerate(value)]
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise _fail(path, "rows must be nonempty and of equal length")
    return rows


# signal type -> (class, {constructor argument: parser}, defaults of the
# optional arguments)
_SIGNALS = {
    "constant": (ConstantSignal, {"value": _number}, {}),
    "sine": (
        SineSignal,
        {"amplitude": _number, "omega": _number, "phase": _number, "offset": _number},
        {"phase": 0.0, "offset": 0.0},
    ),
    "piecewise": (
        PiecewiseConstantSignal, {"breakpoints": _number_list, "levels": _number_list}, {}
    ),
    "samples": (SampledSignal, {"times": _number_list, "values": _number_list}, {}),
}


def _signal_dict(value, path: str) -> dict:
    obj = _expect_object(value, path)
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _SIGNALS:
        raise _fail(f"{path}.type", f"expected one of {sorted(_SIGNALS)}, got {kind!r}")
    _, fields, defaults = _SIGNALS[kind]
    _check_keys(obj, {"type", *fields} - set(defaults), set(defaults), path)
    out = {"type": kind, **defaults}
    for key, val in obj.items():
        if key != "type":
            out[key] = fields[key](val, f"{path}.{key}")
    _built(path, build_signal, out)
    return out


def build_signal(spec: dict):
    """Instantiate the signal object a normalized spec dict describes."""
    args = dict(spec)
    return _SIGNALS[args.pop("type")][0](**args)


def _signal_list(value, path: str, expected: int) -> list[dict]:
    if not isinstance(value, list):
        raise _fail(path, "expected an array of signal objects")
    if len(value) != expected:
        raise _fail(path, f"expected {expected} signal(s), got {len(value)}")
    return [_signal_dict(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _observer(value, path: str) -> dict:
    obj = _expect_object(value, path)
    _check_keys(obj, set(), {"form", "gain_lower", "gain_upper", "epsilon"}, path)
    out = {"form": obj.get("form", "standard")}
    if "epsilon" in obj:
        # Left absent when the file does not set it, so callers can tell
        # an explicit choice from the overridable default.
        out["epsilon"] = _number(obj["epsilon"], f"{path}.epsilon")
    for key in ("gain_lower", "gain_upper"):
        if key in obj:
            # one number or a matrix; ObserverSpec.bounds reads it at n x r
            read = _matrix if isinstance(obj[key], list) else _number
            out[key] = read(obj[key], f"{path}.{key}")
    return out


def _simulation(value, path: str, n: int, delayed: bool) -> dict:
    obj = _expect_object(value, path)
    # only a delayed plant reads a history, its state on [-h, 0]
    required = {"t_end", "dt", "x0", "x0_lo", "x0_hi"}
    _check_keys(obj, required, {"history"} if delayed else set(), path)
    out = {
        "t_end": _number(obj["t_end"], f"{path}.t_end"),
        "dt": _number(obj["dt"], f"{path}.dt"),
    }
    for key in ("x0", "x0_lo", "x0_hi"):
        out[key] = _number_list(obj[key], f"{path}.{key}")
    if len(out["x0"]) != n:
        raise _fail(f"{path}.x0", f"expected {n} entries, got {len(out['x0'])}")
    if "history" in obj:
        out["history"] = _signal_list(obj["history"], f"{path}.history", n)
    return out


def _disturbance(value, path: str, p: int) -> dict:
    obj = _expect_object(value, path)
    _check_keys(obj, {"w", "w_lo", "w_hi"}, set(), path)
    return {
        key: _signal_list(obj[key], f"{path}.{key}", p) for key in ("w", "w_lo", "w_hi")
    }


def _population(value, path: str) -> dict:
    obj = _expect_object(value, path)
    _check_keys(
        obj,
        {"decay", "growth", "incidence_gain", "incidence_bounds", "half_saturation"},
        set(),
        path,
    )
    out = {
        key: _number_list(obj[key], f"{path}.{key}")
        for key in ("decay", "growth", "incidence_bounds")
    }
    # the true incidence gain is either a constant or a named signal
    gain = obj["incidence_gain"]
    read = _signal_dict if isinstance(gain, dict) else _number
    out["incidence_gain"] = read(gain, f"{path}.incidence_gain")
    out["half_saturation"] = _number(obj["half_saturation"], f"{path}.half_saturation")
    return out


@dataclass
class ProblemFile:
    """One parsed, normalized problem description."""

    data: dict

    @property
    def klass(self) -> str:
        return self.data["class"]

    def system(self):
        d = self.data
        if d["class"] in _CLASSES:
            cls = _CLASSES[d["class"]]
            delay = {"h": d["h"]} if "h" in d else {}
            return cls(**{k: np.array(d[k]) for k in cls.MATRICES}, **delay)
        pop = d["population"]
        gain = pop["incidence_gain"]
        if isinstance(gain, dict):
            gain = build_signal(gain)
        return PopulationModel(
            tuple(pop["decay"]),
            tuple(pop["growth"]),
            gain,
            tuple(pop["incidence_bounds"]),
            pop["half_saturation"],
        )

    def plant(self):
        """The linear system the observer is designed for: the system
        itself, or the linear part of a population model."""
        system = self.system()
        return system.system() if self.klass == "population" else system

    def observer_spec(
        self, epsilon: float | None = None, fallback: float = DEFAULT_EPSILON
    ) -> ObserverSpec:
        """Observer options; `epsilon` forces the margin, otherwise the
        file's value applies and `fallback` covers files that set none."""
        obs = self.data["observer"]
        if epsilon is None:
            epsilon = obs.get("epsilon", fallback)
        return ObserverSpec(
            form=obs["form"],
            gain_lower=None if "gain_lower" not in obs else np.array(obs["gain_lower"]),
            gain_upper=None if "gain_upper" not in obs else np.array(obs["gain_upper"]),
            epsilon=epsilon,
        )

    def disturbance(self) -> DisturbanceModel:
        dist = self.data.get("disturbance")
        if dist is None:
            raise ProblemFileError("$.disturbance: section required but absent")
        return DisturbanceModel(
            [build_signal(s) for s in dist["w"]],
            [build_signal(s) for s in dist["w_lo"]],
            [build_signal(s) for s in dist["w_hi"]],
        )

    def sim_config(self) -> SimConfig:
        sim = self.data.get("simulation")
        if sim is None:
            raise ProblemFileError("$.simulation: section required but absent")
        history = None
        if "history" in sim:
            history = [build_signal(s) for s in sim["history"]]
        return SimConfig(
            sim["t_end"], sim["dt"],
            np.array(sim["x0"]), np.array(sim["x0_lo"]), np.array(sim["x0_hi"]),
            history,
        )

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


def parse_problem_dict(raw: dict, source: str = "$") -> ProblemFile:
    obj = _expect_object(raw, source)
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise _fail(
            f"{source}.schema_version", f"expected {SCHEMA_VERSION!r}, got {version!r}"
        )
    klass = obj.get("class")
    if isinstance(klass, str) and klass in _CLASSES:
        matrices = _CLASSES[klass].MATRICES
        required = {"schema_version", "class", *matrices}
        optional = {"observer", "disturbance", "simulation"}
        if klass == "delay":
            required.add("h")
        _check_keys(obj, required, optional, source)
        data: dict = {"schema_version": version, "class": klass}
        for name in matrices:
            data[name] = _matrix(obj[name], f"{source}.{name}")
        if klass == "delay":
            data["h"] = _number(obj["h"], f"{source}.h")
        plant_path = source
    elif klass == "population":
        _check_keys(
            obj,
            {"schema_version", "class", "population"},
            {"observer", "simulation"},
            source,
        )
        plant_path = f"{source}.population"
        data = {
            "schema_version": version,
            "class": klass,
            "population": _population(obj["population"], plant_path),
        }
    else:
        raise _fail(
            f"{source}.class",
            f"expected one of {sorted([*_CLASSES, 'population'])}, got {klass!r}",
        )

    # each section is built as soon as it is read, so the plant fixes the
    # sizes the later sections are read against
    pf = ProblemFile(data)
    plant = _built(plant_path, pf.plant)
    path = f"{source}.observer"
    data["observer"] = _observer(obj.get("observer", {}), path)
    spec = _built(path, pf.observer_spec)
    _built(f"{path}.form", plant.check_form, spec.form)
    bounds = _built(path, spec.bounds, plant.n, plant.r)
    for key, bound in zip(("gain_lower", "gain_upper"), bounds):
        if bound is not None:
            data["observer"][key] = bound.tolist()
    if "disturbance" in obj:
        path = f"{source}.disturbance"
        data["disturbance"] = _disturbance(obj["disturbance"], path, plant.p)
        _built(path, pf.disturbance)
    if "simulation" in obj:
        path = f"{source}.simulation"
        data["simulation"] = _simulation(obj["simulation"], path, plant.n, klass == "delay")
        _built(path, pf.sim_config)
    return pf


def parse_problem(path: str) -> ProblemFile:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: invalid JSON ({exc})") from exc
    return parse_problem_dict(raw, source=path)
