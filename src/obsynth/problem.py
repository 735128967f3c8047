"""Problem files: a strict JSON description of one analysis scenario.

A problem file names a plant class, its matrices, and optionally the
observer options, the disturbance signals with their envelope, and the
simulation grid.  Parsing is strict: unknown keys, missing required
keys, and malformed values are all rejected with the JSON path of the
offender, so corpus files cannot drift silently.  Parsed files
normalize defaults once, which makes parse(write(parse(f))) a fixed
point.  One table, _SIGNALS, gives each signal type its class, fields
and defaults, and one, _CLASSES, gives each matrix class its system
type, whose MATRICES name the file's matrices and whose check_form
says which observer forms it takes, so neither is dispatched anywhere
else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ObsynthError, PreconditionError, ProblemFileError
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


def _matrix(value, path: str, square: bool = False) -> list[list[float]]:
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a nonempty nested numeric array")
    if not all(isinstance(r, list) for r in value):
        raise _fail(path, "expected rows as arrays")
    rows = [_number_list(r, f"{path}[{k}]") for k, r in enumerate(value)]
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise _fail(path, "rows must be nonempty and of equal length")
    if square and len(rows) != width:
        raise _fail(path, f"must be square, got {len(rows)}x{width}")
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
    return out


def build_signal(spec: dict):
    """Instantiate the signal object a normalized spec dict describes."""
    args = dict(spec)
    return _SIGNALS[args.pop("type")][0](**args)


def _signal_list(value, path: str, expected: int | None) -> list[dict]:
    if not isinstance(value, list):
        raise _fail(path, "expected an array of signal objects")
    if expected is not None and len(value) != expected:
        raise _fail(path, f"expected {expected} signal(s), got {len(value)}")
    out = [_signal_dict(v, f"{path}[{k}]") for k, v in enumerate(value)]
    for k, spec in enumerate(out):
        try:
            build_signal(spec)
        except ObsynthError as exc:
            raise _fail(f"{path}[{k}]", str(exc)) from exc
    return out


def _gain_bound(value, path: str, n: int, r: int) -> list[list[float]]:
    """Bounds may be one number (broadcast to n x r) or a full matrix."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        v = _number(value, path)
        return [[v] * r for _ in range(n)]
    rows = _matrix(value, path)
    if len(rows) != n or len(rows[0]) != r:
        raise _fail(path, f"expected shape {n}x{r}, got {len(rows)}x{len(rows[0])}")
    return rows


def _observer(value, path: str, n: int, r: int, plant_type) -> dict:
    obj = _expect_object(value, path)
    _check_keys(obj, set(), {"form", "gain_lower", "gain_upper", "epsilon"}, path)
    out = {"form": obj.get("form", "standard")}
    if out["form"] not in ("standard", "relaxed"):
        raise _fail(f"{path}.form", f"expected standard or relaxed, got {out['form']!r}")
    try:
        plant_type.check_form(out["form"])
    except PreconditionError as exc:
        raise _fail(f"{path}.form", str(exc)) from exc
    if "epsilon" in obj:
        # Left absent when the file does not set it, so callers can tell
        # an explicit choice from the overridable default.
        out["epsilon"] = _number(obj["epsilon"], f"{path}.epsilon")
        if out["epsilon"] <= 0.0:
            raise _fail(f"{path}.epsilon", "must be positive")
    for key in ("gain_lower", "gain_upper"):
        if key in obj:
            out[key] = _gain_bound(obj[key], f"{path}.{key}", n, r)
    return out


def _simulation(value, path: str, n: int) -> dict:
    obj = _expect_object(value, path)
    _check_keys(obj, {"t_end", "dt", "x0", "x0_lo", "x0_hi"}, {"history"}, path)
    out = {
        "t_end": _number(obj["t_end"], f"{path}.t_end"),
        "dt": _number(obj["dt"], f"{path}.dt"),
    }
    for key in ("x0", "x0_lo", "x0_hi"):
        vec = _number_list(obj[key], f"{path}.{key}")
        if len(vec) != n:
            raise _fail(f"{path}.{key}", f"expected {n} entries, got {len(vec)}")
        out[key] = vec
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
    decay = _number_list(obj["decay"], f"{path}.decay")
    growth = _number_list(obj["growth"], f"{path}.growth")
    bounds = _number_list(obj["incidence_bounds"], f"{path}.incidence_bounds")
    if len(decay) != 3:
        raise _fail(f"{path}.decay", "expected three stage decay rates")
    if len(growth) != 2:
        raise _fail(f"{path}.growth", "expected two stage transfer rates")
    if len(bounds) != 2:
        raise _fail(f"{path}.incidence_bounds", "expected [lower, upper]")
    # the true incidence gain is either a constant or a named signal
    gain = obj["incidence_gain"]
    if isinstance(gain, dict):
        gain = _signal_dict(gain, f"{path}.incidence_gain")
    else:
        gain = _number(gain, f"{path}.incidence_gain")
    return {
        "decay": decay,
        "growth": growth,
        "incidence_gain": gain,
        "incidence_bounds": bounds,
        "half_saturation": _number(obj["half_saturation"], f"{path}.half_saturation"),
    }


@dataclass
class ProblemFile:
    """One parsed, normalized problem description."""

    data: dict

    @property
    def klass(self) -> str:
        return self.data["class"]

    def system(self):
        d = self.data
        try:
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
        except ObsynthError as exc:
            raise ProblemFileError(f"$.{d['class']} system: {exc}") from exc

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
        try:
            return SimConfig(
                sim["t_end"], sim["dt"],
                np.array(sim["x0"]), np.array(sim["x0_lo"]), np.array(sim["x0_hi"]),
                history,
            )
        except ObsynthError as exc:
            raise ProblemFileError(f"$.simulation: {exc}") from exc

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
        plant_type = _CLASSES[klass]
        matrices = plant_type.MATRICES
        required = {"schema_version", "class", *matrices}
        optional = {"observer", "disturbance", "simulation"}
        if klass == "delay":
            required.add("h")
        _check_keys(obj, required, optional, source)
        data: dict = {"schema_version": version, "class": klass}
        for name in matrices:
            data[name] = _matrix(obj[name], f"{source}.{name}", square=name[0] == "A")
        # A_h and C_h share the shape of their role
        _, e_name, c_name, f_name = matrices[:4]
        n = len(data[matrices[0]])
        r = len(data[c_name])
        for name in matrices:
            rows, cols = len(data[name]), len(data[name][0])
            expect = {"A": (n, n), "E": (n, None), "C": (r, n), "F": (r, None)}[name[0]]
            if rows != expect[0] or (expect[1] is not None and cols != expect[1]):
                raise _fail(f"{source}.{name}", f"shape {rows}x{cols} inconsistent with A")
        p = len(data[e_name][0])
        if len(data[f_name][0]) != p:
            raise _fail(f"{source}.{f_name}", "column count must match " + e_name)
        if klass == "delay":
            data["h"] = _number(obj["h"], f"{source}.h")
            if data["h"] < 0.0:
                raise _fail(f"{source}.h", "delay must be nonnegative")
    elif klass == "population":
        _check_keys(
            obj,
            {"schema_version", "class", "population"},
            {"observer", "simulation"},
            source,
        )
        data = {
            "schema_version": version,
            "class": klass,
            "population": _population(obj["population"], f"{source}.population"),
        }
        n, p, r = 3, 1, 1
        plant_type = ContinuousSystem  # the linear part design reads
    else:
        raise _fail(
            f"{source}.class",
            f"expected one of {sorted([*_CLASSES, 'population'])}, got {klass!r}",
        )

    data["observer"] = _observer(
        obj.get("observer", {}), f"{source}.observer", n, r, plant_type
    )
    if "disturbance" in obj:
        data["disturbance"] = _disturbance(obj["disturbance"], f"{source}.disturbance", p)
    if "simulation" in obj:
        data["simulation"] = _simulation(obj["simulation"], f"{source}.simulation", n)
    return ProblemFile(data)


def parse_problem(path: str) -> ProblemFile:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: invalid JSON ({exc})") from exc
    return parse_problem_dict(raw, source=path)
