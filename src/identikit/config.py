"""Run configuration: a single JSON document with one section per analysis.

Sections mirror the analysis modules: ``model``, ``design``, ``data``, then
``fit``, ``fim``, ``design_score``, ``profile``, ``sobol``, ``recover``.
:func:`build_config` is the one reader of the document.  A field passed to an
analysis as an argument is checked and converted by that argument's own rule,
which the analysis applies again at entry (``DESIGN_RULES``, ``FIM_RULES``,
``profile_rules`` ...); this module checks only the JSON form, unknown and
required keys, and rules across fields.  Each section of :class:`RunConfig` is
the dict of its checked fields, passed on as keyword arguments, so a field left
out takes the analysis's default.  A section given as ``null`` counts as left
out.  Every bad field becomes a :class:`Diagnostic` that names it, and all of
them are raised together as a :class:`ConfigError`; :func:`validate_config`
returns them instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .estimation import MULTI_START_RULES
from .fim import FIM_RULES
from .models import (DESIGN_RULES, Design, Model, UnknownModelError, _checked, _integer, _is_integer, _is_number,
                     _load_json, _rule, get_model)
from .profile import _GRID, grid_rule, profile_rules
from .recovery import RECOVERY_RULES
from .sobol import SOBOL_RULES, Prior, prior_rule

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
        raw, repeated = _load_json(text)
    except json.JSONDecodeError as exc:
        return None, [Diagnostic("config", f"invalid JSON: {exc}")]
    if repeated:
        return None, [Diagnostic("config", f"key {json.dumps(key)} is repeated in one object") for key in repeated]
    if not isinstance(raw, dict):
        return None, [Diagnostic("config", "document must be a JSON object")]
    return raw, []


# Rules of the JSON form of a field (see models._rule); a field that an analysis takes as
# it is goes straight to the rule of that analysis's argument.
_string = _rule(lambda value: isinstance(value, str), "must be a string")
_object = _rule(lambda value: isinstance(value, dict), "must be an object")


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


def _indices(index):
    """A list of distinct indices, each one checked by profile_parameter's rule ``index``."""
    def rule(value):
        if value is None:
            return None
        if not isinstance(value, list) or not all(_is_integer(i) for i in value):
            raise ValueError("must be a list of indices")
        for i in value:
            _checked({"index": index}, index=i)
        if len(set(value)) != len(value):
            raise ValueError("repeats an index")
        return value
    return rule


def _prior(space):
    inside = None if space is None else prior_rule(space)

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
        return prior if inside is None else inside(prior)
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
    rules = {"times": DESIGN_RULES["time_points"], "noise_sd": DESIGN_RULES["noise_sd"],
             "replicates": DESIGN_RULES["replicates"]}
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
    # a section passes as it is here; its fields are read once the model is known
    top = _fields(diags, "", raw, {"seed": _integer(0), **dict.fromkeys(sections, lambda section: section)})
    model = _model(diags, top.pop("model", None))
    design = _design(diags, top.pop("design", None))

    # each analysis field takes the rule of the argument it is passed as
    space = None if model is None else model.space
    theta = _theta(space)
    profiling = profile_rules(space)
    index = profiling.pop("index")  # a profile section lists its indices as parameters
    section_rules = {
        "data": {"theta_true": theta, "path": _string, "seed": _integer(0)},
        "fit": {"starts": MULTI_START_RULES["k_starts"]},
        "fim": {"theta": theta, "rank_tolerance": FIM_RULES["rank_tolerance"], "level": FIM_RULES["level"]},
        "design_score": {"criterion": FIM_RULES["criterion"], "theta": theta},
        "profile": {
            **profiling, "parameters": _indices(index if space is not None else lambda i: i),
            "grid": lambda value: None if value is None else _GRID(value),
        },
        "sobol": {**SOBOL_RULES, "prior": _prior(space)},
        "recover": {**RECOVERY_RULES, "prior": _prior(space)},
    }
    for name, rules in section_rules.items():
        section = top.pop(name, None)
        if section is not None:
            top[name] = _fields(diags, name, section, rules)

    # Fields that depend on one another; each section here is a JSON object.
    if model is not None and model.ode is not None and design is not None:
        _fields(diags, "design", {"times": design.time_points}, {"times": model.ode.check_times})
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
            if not _fields(diags, "profile", {"grid": grid}, {"grid": grid_rule(space, i)}):
                break  # one diagnostic for the grid

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
