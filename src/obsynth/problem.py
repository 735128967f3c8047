"""Problem files: a strict JSON description of one analysis scenario.

A problem file names a plant class, its matrices, and optionally the
observer options, the disturbance signals with their envelope, and the
simulation grid.  One reader, _section, reads every object of a file
against a table of its fields: it checks the key set and hands each
key to its field's parser, which checks the JSON shape (finite numbers,
rectangular numeric arrays, the kind of each signal field) and what no
type knows: x0 against n, and the signal counts against p and n.  Each
section is then handed as it stands to the type that checks it (the
plant, ObserverSpec with check_form and bounds(n, r), each signal,
DisturbanceModel, SimConfig), whose errors are reported under the
source and the section's JSON path, so a file that parses is one every
command can use.  Parsed files normalize defaults once, a number given
as a gain bound included, which makes parse(write(parse(f))) a fixed
point.  One table, _SIGNALS, gives each signal type its class, fields
and defaults, and one, _CLASSES, gives each matrix class its system
type, whose MATRICES name the file's matrices and whose check_form says
which observer forms it takes, so neither is dispatched anywhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

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


def _section(value, path: str, fields: dict, optional=()) -> dict:
    """The object at path, read through its field table: every field is
    required unless listed in optional, no other key is allowed, and
    each key present is read by its field's parser at path.key."""
    obj = _expect_object(value, path)
    required = set(fields).difference(optional)
    _check_keys(obj, required, set(fields) - required, path)
    return {key: read(obj[key], f"{path}.{key}") for key, read in fields.items() if key in obj}


def _as_given(value, path: str):
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond float range
        number = np.inf
    if not np.isfinite(number):
        raise _fail(path, "number must be finite")
    return number


def _number_list(value, path: str, size: int | None = None) -> list[float]:
    if not isinstance(value, list):
        raise _fail(path, "expected an array of numbers")
    out = [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]
    if size is not None and len(out) != size:
        raise _fail(path, f"expected {size} entries, got {len(out)}")
    return out


def _number_or(read, kind: type, value, path: str):
    """value read by read when it is a JSON `kind`, else as one number."""
    return (read if isinstance(value, kind) else _number)(value, path)


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
    kind = _expect_object(value, path).get("type")
    if not isinstance(kind, str) or kind not in _SIGNALS:
        raise _fail(f"{path}.type", f"expected one of {sorted(_SIGNALS)}, got {kind!r}")
    _, fields, defaults = _SIGNALS[kind]
    out = {**defaults, **_section(value, path, {"type": _as_given, **fields}, defaults)}
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


# a gain bound is one number or a matrix; ObserverSpec.bounds reads it at n x r
_OBSERVER = {
    "form": _as_given,
    "epsilon": _number,
    **dict.fromkeys(("gain_lower", "gain_upper"), partial(_number_or, _matrix, list)),
}


def _observer(value, path: str) -> dict:
    # epsilon is left absent when the file does not set it, so callers
    # can tell an explicit choice from the overridable default
    return {"form": "standard", **_section(value, path, _OBSERVER, optional=_OBSERVER)}


def _simulation(value, path: str, n: int, delayed: bool) -> dict:
    fields = {"t_end": _number, "dt": _number, "x0": partial(_number_list, size=n)}
    fields |= dict.fromkeys(("x0_lo", "x0_hi"), _number_list)
    if delayed:
        # only a delayed plant reads a history, its state on [-h, 0]
        fields["history"] = partial(_signal_list, expected=n)
    return _section(value, path, fields, optional=("history",))


def _disturbance(value, path: str, p: int) -> dict:
    signals = partial(_signal_list, expected=p)
    return _section(value, path, dict.fromkeys(("w", "w_lo", "w_hi"), signals))


# the true incidence gain is either a constant or a named signal
_POPULATION = {
    **dict.fromkeys(("decay", "growth", "incidence_bounds"), _number_list),
    "incidence_gain": partial(_number_or, _signal_dict, dict),
    "half_saturation": _number,
}


def _population(value, path: str) -> dict:
    return _section(value, path, _POPULATION)


@dataclass
class ProblemFile:
    """One parsed, normalized problem description, named by its source."""

    data: dict
    source: str = "$"

    @property
    def klass(self) -> str:
        return self.data["class"]

    def _required(self, name: str) -> dict:
        if name not in self.data:
            raise _fail(f"{self.source}.{name}", "section required but absent")
        return self.data[name]

    def system(self):
        d = self.data
        if d["class"] in _CLASSES:
            cls = _CLASSES[d["class"]]
            return cls(**{k: v for k, v in d.items() if k in cls.MATRICES or k == "h"})
        pop = dict(d["population"])
        if isinstance(pop["incidence_gain"], dict):
            pop["incidence_gain"] = build_signal(pop["incidence_gain"])
        return PopulationModel(**pop)

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
        # the bounds stay arrays, since ObserverSpec keeps them as given
        obs = {
            key: np.array(value) if key.startswith("gain_") else value
            for key, value in self.data["observer"].items()
        }
        if epsilon is not None:
            obs["epsilon"] = epsilon
        return ObserverSpec(**{"epsilon": fallback, **obs})

    def disturbance(self) -> DisturbanceModel:
        dist = self._required("disturbance")
        return DisturbanceModel(**{k: [build_signal(s) for s in v] for k, v in dist.items()})

    def sim_config(self) -> SimConfig:
        sim = dict(self._required("simulation"))
        if "history" in sim:
            sim["history"] = [build_signal(s) for s in sim["history"]]
        return SimConfig(**sim)

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
    # the sections read against the plant's sizes are taken as given
    # here and read below, once the plant that fixes them is built
    fields = dict.fromkeys(("schema_version", "class", "observer", "simulation"), _as_given)
    if isinstance(klass, str) and klass in _CLASSES:
        fields.update(dict.fromkeys(_CLASSES[klass].MATRICES, _matrix))
        fields["disturbance"] = _as_given
        if klass == "delay":
            fields["h"] = _number
        plant_path = source
    elif klass == "population":
        fields["population"] = _population
        plant_path = f"{source}.population"
    else:
        raise _fail(
            f"{source}.class",
            f"expected one of {sorted([*_CLASSES, 'population'])}, got {klass!r}",
        )
    data = _section(obj, source, fields, optional=("observer", "disturbance", "simulation"))

    pf = ProblemFile(data, source)
    plant = _built(plant_path, pf.plant)
    path = f"{source}.observer"
    data["observer"] = _observer(data.get("observer", {}), path)
    spec = _built(path, pf.observer_spec)
    _built(f"{path}.form", plant.check_form, spec.form)
    bounds = _built(path, spec.bounds, plant.n, plant.r)
    for key, bound in zip(("gain_lower", "gain_upper"), bounds):
        if bound is not None:
            data["observer"][key] = bound.tolist()
    if "disturbance" in data:
        path = f"{source}.disturbance"
        data["disturbance"] = _disturbance(data["disturbance"], path, plant.p)
        _built(path, pf.disturbance)
    if "simulation" in data:
        path = f"{source}.simulation"
        data["simulation"] = _simulation(data["simulation"], path, plant.n, klass == "delay")
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
