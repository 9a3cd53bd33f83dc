"""Run configuration: a single JSON document with one section per analysis.

Sections mirror the analysis modules: ``model``, ``design``, ``data``, then
``fit``, ``fim``, ``design_score``, ``profile``, ``sobol``, ``recover``.
:func:`build_config` is the one reader of the document.  It reads each field
once, checks it, then converts it.  Each section of :class:`RunConfig` is the
dict of its checked fields, which the CLI passes on as keyword arguments, so a
field left out takes the default of the analysis it feeds (the signature of
``profile_parameter``, ``sobol_indices``, ``global_recovery``, ...); the few
fields only the CLI reads take theirs where it reads them.  An optional
section given as ``null`` counts as left out.  Numbers must be finite,
booleans are not numbers, and a key that names no field is an error.  Every
bad field becomes a :class:`Diagnostic` that names it, and all of them are
raised together as a :class:`ConfigError`.
:func:`validate_config` returns those diagnostics instead of raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fim import DESIGN_CRITERIA
from .models import MIN_NOISE_SD, Design, Model, UnknownModelError, _is_integer, _is_number, get_model
from .sobol import MIN_SAMPLES, Prior

ANALYSIS_SECTIONS = ("fim", "design_score", "profile", "sobol", "recover")


@dataclass(frozen=True)
class Diagnostic:
    field: str
    message: str

    def __str__(self):
        return f"{self.field}: {self.message}"


class ConfigError(ValueError):
    """A configuration document that cannot run; ``diagnostics`` names every bad field."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass
class RunConfig:
    model: Model
    design: Design
    seed: int = 0
    data: dict | None = None
    fit: dict = field(default_factory=dict)
    fim: dict | None = None
    design_score: dict | None = None
    profile: dict | None = None
    sobol: dict | None = None
    recover: dict | None = None
    raw: dict = field(default_factory=dict)

    def sections_present(self) -> list[str]:
        return [name for name in ANALYSIS_SECTIONS if getattr(self, name) is not None]


def load_raw(path: str | Path) -> tuple[dict | None, list[Diagnostic]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return None, [Diagnostic("config", f"cannot read {path}: {exc}")]
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [Diagnostic("config", f"invalid JSON: {exc}")]
    if not isinstance(raw, dict):
        return None, [Diagnostic("config", "document must be a JSON object")]
    return raw, []


# Field rules: each takes the raw JSON value and returns the converted value,
# or raises ValueError with the message of the diagnostic.


def _integer(minimum: int):
    def rule(value):
        if not _is_integer(value) or value < minimum:
            raise ValueError(f"must be an integer >= {minimum}")
        return value
    return rule


def _number(ok, message: str):
    def rule(value):
        if not _is_number(value) or not ok(value):
            raise ValueError(message)
        return float(value)
    return rule


_FRACTION = _number(lambda x: 0 < x < 1, "must be in (0, 1)")
_POSITIVE = _number(lambda x: x > 0, "must be a positive number")
_NOISE_SD = _number(lambda x: x >= MIN_NOISE_SD, f"must be a number >= {MIN_NOISE_SD:g}")


def _string(value):
    if not isinstance(value, str):
        raise ValueError("must be a string")
    return value


def _object(value):
    if not isinstance(value, dict):
        raise ValueError("must be an object")
    return value


def _unchecked(value):
    """Top-level sections pass through here; their fields are read once the model is known."""
    return value


def _increasing(value, shortest: int, message: str):
    if not isinstance(value, list) or len(value) < shortest or not all(_is_number(t) for t in value):
        raise ValueError(message)
    if not all(b > a for a, b in zip(value, value[1:])):
        raise ValueError("must be strictly increasing")
    return np.asarray(value, dtype=float)


def _times(value):
    return _increasing(value, 1, "must be a non-empty list of numbers")


def _criterion(value):
    if not isinstance(value, str) or value not in DESIGN_CRITERIA:
        raise ValueError(f"must be one of {DESIGN_CRITERIA}")
    return value


def _n_samples(value):
    if not _is_integer(value) or value < MIN_SAMPLES or value & (value - 1):
        raise ValueError(f"must be a power of two >= {MIN_SAMPLES}")
    return value


def _bootstrap(value):
    if not _is_integer(value) or value < 0 or value == 1:
        raise ValueError("must be 0 or an integer >= 2")
    return value


def _grid(value):
    return None if value is None else _increasing(value, 3, "must be a list of at least 3 numbers")


# Rules that depend on the parameter space; ``space`` is None when the model
# section is itself bad, and then only the form of the value is checked.


def _theta(space):
    def rule(value):
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            raise ValueError("must be a list of numbers")
        theta = np.asarray(value, dtype=float)
        if space is not None and theta.size != space.dimension:
            raise ValueError(f"must have length {space.dimension}")
        if space is not None and not space.contains(theta):
            raise ValueError("lies outside the admissible parameter set")
        return theta
    return rule


def _indices(space):
    def rule(value):
        if value is None:
            return None
        if not isinstance(value, list) or not all(_is_integer(i) for i in value):
            raise ValueError("must be a list of indices")
        if space is not None and any(not 0 <= i < space.dimension for i in value):
            raise ValueError("index out of range")
        if len(set(value)) != len(value):
            raise ValueError("repeats an index")
        return value
    return rule


def _prior(space):
    def rule(value):
        if not isinstance(value, list) or (space is not None and len(value) != space.dimension):
            raise ValueError("must list one entry per parameter")
        for k, entry in enumerate(value):
            if (not isinstance(entry, dict) or set(entry) != {"kind", "lower", "upper"}
                    or not _is_number(entry["lower"]) or not _is_number(entry["upper"])):
                raise ValueError(f"entry {k} needs exactly kind, lower and upper numbers")
        prior = Prior(
            tuple(e["kind"] for e in value),
            np.array([e["lower"] for e in value], dtype=float),
            np.array([e["upper"] for e in value], dtype=float),
        )
        if space is not None and not prior.contained_in(space):
            raise ValueError("support is not contained in the parameter box")
        return prior
    return rule


def _fields(diags: list[Diagnostic], name: str, section, rules: dict, required=()) -> dict | None:
    """Checked and converted values of the fields of one JSON object.

    A field that fails its rule, a required field that is missing and a key
    with no rule each add a diagnostic; only fields that pass are returned.
    Returns None, with a diagnostic, when ``section`` is not an object.
    """
    if not isinstance(section, dict):
        diags.append(Diagnostic(name, "must be an object"))
        return None
    prefix = f"{name}." if name else ""
    values = {}
    for key, value in section.items():
        if key not in rules:
            diags.append(Diagnostic(prefix + key, "unknown field"))
            continue
        try:
            values[key] = rules[key](value)
        except ValueError as exc:
            diags.append(Diagnostic(prefix + key, str(exc)))
    diags.extend(Diagnostic(prefix + key, "is required") for key in required if key not in section)
    return values


def _model(diags: list[Diagnostic], section) -> Model | None:
    fields = _fields(diags, "model", section, {"name": _string, "constants": _object}, ("name",))
    if fields is None or "name" not in fields:
        return None
    try:
        return get_model(fields["name"], **fields.get("constants", {}))
    except UnknownModelError as exc:
        diags.append(Diagnostic("model.name", str(exc)))
    except (TypeError, ValueError) as exc:
        diags.append(Diagnostic("model.constants", str(exc)))
    return None


def _design(diags: list[Diagnostic], section) -> Design | None:
    rules = {"times": _times, "noise_sd": _NOISE_SD, "replicates": _integer(1)}
    fields = _fields(diags, "design", section, rules, ("times", "noise_sd"))
    if fields is None or "times" not in fields or "noise_sd" not in fields:
        return None
    return Design(fields.pop("times"), **fields)


def build_config(raw: dict) -> RunConfig:
    """Check every field of a configuration document and build the typed configuration.

    Raises :class:`ConfigError` listing every bad, missing or unknown field.
    """
    diags: list[Diagnostic] = []
    sections = ("model", "design", "data", "fit") + ANALYSIS_SECTIONS
    top = _fields(diags, "", raw, {"seed": _integer(0), **dict.fromkeys(sections, _unchecked)})
    model = _model(diags, top.pop("model", None))
    design = _design(diags, top.pop("design", None))

    space = None if model is None else model.space
    theta = _theta(space)
    section_rules = {
        "data": {"theta_true": theta, "path": _string, "seed": _integer(0)},
        "fit": {"starts": _integer(1)},
        "fim": {"theta": theta, "rank_tolerance": _FRACTION, "level": _FRACTION},
        "design_score": {"criterion": _criterion, "theta": theta},
        "profile": {
            "parameters": _indices(space), "points": _integer(3), "span_sd": _POSITIVE,
            "level": _FRACTION, "flatness_tol": _POSITIVE, "multistart": _integer(0),
            "grid": _grid,
        },
        "sobol": {"n_samples": _n_samples, "bootstrap": _bootstrap, "prior": _prior(space)},
        "recover": {
            "k_trials": _integer(1), "n_starts": _integer(1), "tolerance": _POSITIVE,
            "prior": _prior(space),
        },
    }
    for name, rules in section_rules.items():
        section = top.pop(name, None)
        if section is not None:
            top[name] = _fields(diags, name, section, rules)

    # Fields that depend on one another; each section here is a JSON object.
    if model is not None and model.ode is not None and design is not None and design.time_points[0] < 0:
        # an ODE model's state is given at t = 0
        diags.append(Diagnostic("design.times", "must be >= 0 for an ODE model"))
    data = top.get("data")
    if data is not None and ("theta_true" in raw["data"]) == ("path" in raw["data"]):
        diags.append(Diagnostic("data", "give exactly one of theta_true or path"))
    for name in ("fim", "design_score"):
        if top.get(name) is not None and data is None and "theta" not in raw[name]:
            diags.append(Diagnostic(f"{name}.theta", "required when no data section provides a fit"))
    profile = top.get("profile")
    if profile is not None and data is None:
        diags.append(Diagnostic("profile", "requires a data section"))
    grid = None if profile is None else profile.get("grid")
    if grid is not None and space is not None:
        indices = profile.get("parameters")
        for i in range(space.dimension) if indices is None else indices:
            lo, hi = space.lower[i], space.upper[i]
            if grid.min() < lo or grid.max() > hi:
                diags.append(Diagnostic(
                    "profile.grid", f"exits the admissible slice [{lo:g}, {hi:g}] of parameter {i}"
                ))
                break

    if diags:
        raise ConfigError(diags)
    return RunConfig(model=model, design=design, raw=raw, **top)


def validate_config(raw: dict) -> list[Diagnostic]:
    """Diagnostics of :func:`build_config`; an empty list means the document is runnable."""
    try:
        build_config(raw)
    except ConfigError as exc:
        return exc.diagnostics
    return []
