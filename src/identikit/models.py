"""Deterministic time-series models, designs, and synthetic-data generation.

A model is a deterministic callable f(times, thetas), batched over parameter
vectors, on a box-shaped (optionally order-constrained) parameter space.  A
design fixes the observation times, the noise level, and the replicate count;
observations are the model output plus independent additive Gaussian noise.
A small registry of built-in models with known identifiability status is
provided for testing and benchmarking.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .serialize import fmt

# Smallest admissible noise standard deviation; designs with sigma below this
# are rejected so downstream log-likelihood scales stay representable.
MIN_NOISE_SD = 1e-12

# Draws that ParameterSpace.draw_feasible tries before it gives up.
MAX_DRAWS = 10_000


class OutOfBoundsError(ValueError):
    """Parameter vector lies outside the admissible set."""


class EvaluationError(RuntimeError):
    """Model evaluation produced a non-finite value."""


class UnknownModelError(KeyError):
    """Requested name is not in the built-in registry."""


# ---------------------------------------------------------------------------
# argument rules, parameter space and design
# ---------------------------------------------------------------------------


def _is_number(x) -> bool:
    """A finite real number, numpy's included; booleans are not numbers."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the range of a double
        return False


def _is_integer(x) -> bool:
    """An integer, numpy's included; booleans are not integers."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _rule(ok, message: str, convert=None):
    """A rule: it returns a value for which ``ok`` holds, converted by ``convert``, and raises
    ValueError(``message``) for any other.  An analysis applies the rules of its arguments at entry
    with :func:`_checked`; ``build_config`` applies the same rules to the fields it passes on."""
    def rule(value):
        if not ok(value):
            raise ValueError(message)
        return value if convert is None else convert(value)
    return rule


def _integer(minimum: int):
    return _rule(lambda x: _is_integer(x) and x >= minimum, f"must be an integer >= {minimum}", int)


_FRACTION = _rule(lambda x: _is_number(x) and 0 < x < 1, "must be in (0, 1)", float)
_POSITIVE = _rule(lambda x: _is_number(x) and x > 0, "must be a positive number", float)


def _increasing(shortest: int, message: str):
    """The rule of a strictly increasing sequence of at least ``shortest`` numbers, as a float array."""
    def rule(value) -> np.ndarray:
        values = np.asarray(value, dtype=object).tolist()  # keeps booleans and strings apart from numbers
        if not isinstance(values, list) or len(values) < shortest or not all(map(_is_number, values)):
            raise ValueError(message)
        values = np.array(values, dtype=float)
        if not np.all(values[1:] > values[:-1]):
            raise ValueError("must be strictly increasing")
        return values
    return rule


def _checked(rules: dict, **arguments) -> list:
    """Each argument converted by its rule in ``rules``, in order; the first that fails
    raises its error again as "<name> <what it must be>"."""
    values = []
    for name, value in arguments.items():
        try:
            values.append(rules[name](value))
        except ValueError as exc:
            raise type(exc)(f"{name} {exc}") from None
    return values


@dataclass(frozen=True, eq=False)
class ParameterSpace:
    """Axis-aligned box of admissible parameters, plus optional orderings.

    ``orderings`` is a tuple of index pairs (i, j) meaning theta_i >= theta_j, the image
    of the model's ``canonical`` map.  Ordering constraints are enforced at membership-test
    time; :func:`restrict` turns one whose member it holds into a bound on the other.
    """

    lower: np.ndarray
    upper: np.ndarray
    orderings: tuple[tuple[int, int], ...] = ()
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise ValueError("bounds must be equal-length 1-D arrays")
        if not np.all(np.isfinite(lower) & np.isfinite(upper) & (lower < upper)):
            raise ValueError("each bound must be finite and each lower bound strictly below its upper bound")
        p = lower.size
        for i, j in self.orderings:
            if i == j or not (0 <= i < p and 0 <= j < p):
                raise ValueError(f"ordering constraint ({i}, {j}) is invalid for p={p}")
        if self.names is not None and len(self.names) != p:
            raise ValueError("names must match the parameter count")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "orderings", tuple((int(i), int(j)) for i, j in self.orderings))
        object.__setattr__(self, "_box", tuple(zip(lower.tolist(), upper.tolist())))  # for contains

    @property
    def dimension(self) -> int:
        return self.lower.size

    def parameter_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"theta{i + 1}" for i in range(self.dimension))

    def contains(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(self._box),):
            return False
        values = theta.tolist()  # NaN fails both comparisons and the finite bounds exclude +/-inf
        for v, (lo, hi) in zip(values, self._box):  # a loop, not all(...): called on every fit step
            if not lo <= v <= hi:
                return False
        return all(values[i] >= values[j] for i, j in self.orderings) if self.orderings else True

    def require(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not self.contains(theta):
            raise OutOfBoundsError(
                f"parameter {theta.tolist()} outside admissible set "
                f"(bounds {self.lower.tolist()}..{self.upper.tolist()}, "
                f"orderings {list(self.orderings)})"
            )
        return theta

    def draw_feasible(self, draw: Callable[[], np.ndarray]) -> np.ndarray:
        """The first of at most ``MAX_DRAWS`` calls of ``draw()`` that lies in the space.

        Raises RuntimeError naming the constraints that no draw met (all of
        them, if each was met by some draw but never together).
        """
        rejected = []
        for _ in range(MAX_DRAWS):
            theta = draw()
            if self.contains(theta):
                return theta
            rejected.append(theta)
        rejected = np.array(rejected)
        names = self.parameter_names()
        constraints = ["the bounds"] + [f"{names[i]} >= {names[j]}" for i, j in self.orderings]
        met = [np.all((rejected >= self.lower) & (rejected <= self.upper), axis=1).any()]
        met += [np.any(rejected[:, i] >= rejected[:, j]) for i, j in self.orderings]
        unmet = [c for c, m in zip(constraints, met) if not m]
        what = " and ".join(unmet) if unmet else " and ".join(constraints) + " together"
        raise RuntimeError(f"no feasible point in {MAX_DRAWS} draws: {what} never held")


DESIGN_RULES = {
    "time_points": _increasing(1, "must be a non-empty list of numbers"),
    "noise_sd": _rule(lambda x: _is_number(x) and x >= MIN_NOISE_SD, f"must be a number >= {MIN_NOISE_SD:g}", float),
    "replicates": _integer(1),
}


@dataclass(frozen=True, eq=False)
class Design:
    """Observation schedule: a non-empty, strictly increasing sequence of finite times, a
    ``noise_sd`` >= ``MIN_NOISE_SD`` and an integer >= 1 of ``replicates`` (``DESIGN_RULES``)."""

    time_points: np.ndarray
    noise_sd: float
    replicates: int = 1

    def __post_init__(self):
        values = _checked(DESIGN_RULES, time_points=self.time_points, noise_sd=self.noise_sd,
                          replicates=self.replicates)
        for name, value in zip(DESIGN_RULES, values):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return self.time_points.size

    def with_replicates(self, replicates: int) -> "Design":
        return Design(self.time_points, self.noise_sd, replicates)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


# LSODA's messages for a negative ``istate``, worded as scipy's ``odeint`` words them.
_LSODA_MESSAGES = {
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
    -8: "Run terminated (internal error).",
}


@functools.cache
def _scipy_extension(subpackage: str, name: str):
    """scipy's compiled extension ``scipy/<subpackage>/<name>*.so``, loaded from its file.

    Importing it as ``scipy.<subpackage>.<name>`` would first run the
    ``__init__`` of ``scipy`` and of the subpackage, which take longer than a
    small analysis: scipy.integrate's imports scipy.optimize, scipy.sparse and
    scipy.special, and scipy.special's loads its array-API layer.  Neither
    runs here.  LSODA's ``integrate/_odepack`` is not entered in ``sys.modules``;
    ``special/_special_ufuncs`` enters itself under its own name,
    ``scipy.special._special_ufuncs``, and no other module, so a later
    ``import scipy.special`` reuses it.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"scipy.{subpackage}.{name} is needed, but scipy is not installed")
    directory = Path(scipy.submodule_search_locations[0], subpackage)
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for path in (directory / f"{name}{suffix}" for suffix in suffixes):
        if path.is_file():
            spec = importlib.util.spec_from_file_location(f"scipy.{subpackage}.{name}", path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError as exc:
                raise ImportError(f"cannot load scipy's extension {path}: {exc}") from exc
            return module
    raise ImportError(f"scipy's extension not found: tried {directory / name} with "
                      f"the suffixes {', '.join(suffixes)}")


@dataclass(frozen=True, eq=False)
class OdeSystem:
    """Scalar-observation ODE x' = g(t, x, theta) with its sensitivity system.

    ``augmented(t, z, theta)`` returns [g; vec((dg/dx) s + dg/dtheta)], length
    d + d p, for z = [x; vec(s)]: the d states, then the (d, p) sensitivities
    s = dx/dtheta row by row; ``initial_jac`` is s at t = 0.  ``rhs`` and
    ``augmented`` may return any sequence of floats of their state's length
    (a list is cheapest), which LSODA's binding converts.  The observed
    output is the first state component, and the state is given at t = 0, so
    the output times must not be negative.  LSODA integrates both, called
    through scipy's compiled ODEPACK binding with the arguments that
    ``scipy.integrate.odeint`` passes (at most 500 steps per output
    interval); ``scipy.integrate`` itself is never imported.
    ``rtol``/``atol`` are deliberately tighter than any downstream
    finite-difference step so that integration error never masquerades as
    sensitivity.
    """

    rhs: Callable[[float, np.ndarray, np.ndarray], Sequence[float]]
    augmented: Callable[[float, np.ndarray, np.ndarray], Sequence[float]]
    initial: Callable[[np.ndarray], np.ndarray]
    initial_jac: Callable[[np.ndarray], np.ndarray]
    rtol: float = 1e-11
    atol: float = 1e-13
    # Set only by :func:`restrict`: (its map to the full vector that the functions above take, the free mask)
    restriction: tuple[Callable[[np.ndarray], np.ndarray], np.ndarray] | None = None

    @staticmethod
    def check_times(times: np.ndarray) -> None:
        """The rule of output times: >= 0, as the state is given at t = 0, and strictly increasing."""
        if not (times[0] >= 0.0 and np.all(times[1:] > times[:-1])):
            raise ValueError("must be strictly increasing" if times[0] >= 0.0 else "must be >= 0 for an ODE model")

    def integrate(self, fun, z0, times: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """States (n, len(z0)) of z' = fun(t, z, theta), z(0) = z0, at the n ``times``.

        Raises :class:`ValueError` unless the times meet :meth:`check_times`, and
        :class:`EvaluationError` with LSODA's message if it fails (a success may
        be non-finite).
        """
        _checked({"times": self.check_times}, times=times)
        grid = times if times[0] == 0.0 else np.concatenate(([0.0], times))
        # odeint's positional arguments: func, y0, t, args, Dfun, col_deriv, ml, mu,
        # full_output, rtol, atol, tcrit, h0, hmax, hmin, ixpr, mxstep (0: 500), mxhnil,
        # mxordn, mxords, tfirst.  LSODA overwrites y0 with the final state, hence the copy.
        z, istate = _scipy_extension("integrate", "_odepack").odeint(
            fun, np.array(z0, dtype=float), grid, (theta,), None, 0, -1, -1, 0, self.rtol, self.atol,
            None, 0.0, 0.0, 0.0, 0, 0, 0, 12, 5, 1,
        )
        if istate < 0:
            raise EvaluationError(f"LSODA failed: {_LSODA_MESSAGES[istate]} Run with full_output = 1 "
                                  f"to get quantitative information.")
        return z[-times.size :]

    def outputs(self, times: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """First state (m, n) for each row of ``thetas``, a model's ``f``: one integration per
        row (a stacked state would share one adaptive step); a failed row stays NaN."""
        out = np.full((len(thetas), len(times)), np.nan)
        for row, theta in zip(out, thetas):
            try:
                row[:] = self.integrate(self.rhs, self.initial(theta), times, theta)[:, 0]
            except EvaluationError:
                pass
        return out


@dataclass(frozen=True, eq=False)
class Model:
    """Deterministic scalar-output model over a parameter space.

    ``f(times, thetas)`` maps n times and an (m, p) stack of parameter vectors
    to the (m, n) outputs; a parameter vector that cannot be evaluated gets
    non-finite outputs in its row.  The output is scalar: one value per time.
    A model with a relabelling symmetry, a permutation of the parameters that
    leaves ``f`` unchanged bit for bit, registers ``canonical(theta)``: the
    representative of theta's orbit, at which recovery scores each estimate.  A
    space with orderings needs it: ``fit`` runs over the box and maps its end point.
    """

    name: str
    space: ParameterSpace
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    ode: OdeSystem | None = None
    identifiability: str | None = None
    canonical: Callable[[np.ndarray], np.ndarray] | None = None


def all_finite(values: np.ndarray) -> bool:
    """``np.isfinite(values).all()``, cheaper: a finite sum of squares rules out inf and NaN."""
    return math.isfinite(np.vdot(values, values)) or bool(np.isfinite(values).all())


def evaluate_batch(model: Model, design: Design, thetas) -> np.ndarray:
    """Outputs (m, n) for the m rows of ``thetas``, without bounds or finiteness
    checks; raises :class:`EvaluationError` if the model returns another shape."""
    thetas = np.asarray(thetas, dtype=float)
    values = np.asarray(model.f(design.time_points, thetas), dtype=float)
    if values.shape != (thetas.shape[0], design.size):
        raise EvaluationError(f"model {model.name} returned shape {values.shape}")
    return values


def _outputs(model: Model, design: Design, theta: np.ndarray) -> np.ndarray:
    """:func:`evaluate` of a float parameter vector without its bounds check, as ``fit`` calls it."""
    values = evaluate_batch(model, design, theta.reshape(1, -1))[0]
    if not all_finite(values):
        bad = design.time_points[~np.isfinite(values)]
        raise EvaluationError(f"model {model.name} non-finite at t={bad.tolist()}")
    return values


def evaluate(model: Model, design: Design, theta) -> np.ndarray:
    """Model outputs at the design times for one parameter vector.

    Raises :class:`OutOfBoundsError` for theta outside the admissible set and
    :class:`EvaluationError` for outputs of another shape or not all finite.
    """
    return _outputs(model, design, model.space.require(theta))


def restrict(model: Model, held: dict[int, float]) -> Model:
    """``model`` with each ``held`` parameter fixed at its value: a model over the free parameters, in their
    order, whose ``f``, analytic ``jacobian`` and forward-ODE sensitivities are the full model's at the full
    point, bit for bit (free columns), with no ``canonical`` map.  An ordering between free parameters is
    renumbered; one with a held member bounds the other by the held value.  A key that is no index in [0, p),
    holding every parameter or restricting a restricted ODE model raises ValueError; held values that leave one
    no value, OutOfBoundsError."""
    space, p = model.space, model.space.dimension
    point, free = np.full(p, math.nan), np.ones(p, dtype=bool)
    for key, value in held.items():
        if not (_is_integer(key) and 0 <= key < p):
            raise ValueError(f"held key {key!r} is not a parameter index in [0, {p})")
        point[key] = value if _is_number(value) else math.nan  # NaN: admissible nowhere
        free[key] = False
    if not free.any():
        raise ValueError(f"all {p} parameters are held: a restricted model needs a free one")
    if model.ode is not None and model.ode.restriction is not None:  # its system takes the unrestricted vector
        raise ValueError(f"model {model.name} is restricted already: hold its parameters in one restrict call")
    lower, upper, rank = space.lower.copy(), space.upper.copy(), free.cumsum() - 1
    for i, j in space.orderings:  # theta_i >= theta_j: a held member bounds the other (fmax and fmin skip NaN)
        lower[i], upper[j] = np.fmax(lower[i], point[j]), np.fmin(upper[j], point[i])
    empty = np.where(free, lower >= upper, ~((lower <= point) & (point <= upper)))
    if empty.any():
        raise OutOfBoundsError(f"held values {held} leave parameter {np.argmax(empty)} no admissible value")
    orderings = tuple((rank[i], rank[j]) for i, j in space.orderings if free[i] and free[j])

    def full(thetas: np.ndarray) -> np.ndarray:  # the full point of each restricted one (the last axis)
        points = np.empty(thetas.shape[:-1] + (p,))
        points[...] = point
        points.T[free] = thetas.T  # the first axis of the transpose: cheaper than [..., free]
        return points

    names = tuple(name for name, kept in zip(space.parameter_names(), free) if kept)
    return Model(
        name=model.name,
        space=ParameterSpace(lower[free], upper[free], orderings, names),
        f=lambda times, thetas: model.f(times, full(thetas)),
        jacobian=None if model.jacobian is None else (
            lambda times, theta: np.asarray(model.jacobian(times, full(theta)))[:, free]),
        ode=None if model.ode is None else replace(model.ode, restriction=(full, free)),
    )


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations on a design, one column per replicate.

    For synthetic data the generating parameter and RNG seed are recorded so
    the observations can be regenerated exactly.
    """

    design: Design
    observations: np.ndarray
    theta_true: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim == 1:
            obs = obs.reshape(-1, 1)
        expected = (self.design.size, self.design.replicates)
        if obs.shape != expected:
            raise ValueError(f"observations shape {obs.shape} != design shape {expected}")
        object.__setattr__(self, "observations", obs)
        if self.theta_true is not None:
            object.__setattr__(self, "theta_true", np.asarray(self.theta_true, dtype=float))


def generate_data(model: Model, design: Design, theta_star, seed: int) -> Dataset:
    """Draw y = f(theta*) + sigma * z with one standard-normal z per observation.

    The noise stream is taken in design order (replicates within each time
    point) from ``numpy.random.default_rng(seed)``, so identical inputs always
    reproduce the identical dataset, and two sigmas under a shared seed differ
    only by the sigma ratio.
    """
    theta_star = model.space.require(theta_star)
    mean = evaluate(model, design, theta_star)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((design.size, design.replicates))
    y = mean[:, None] + design.noise_sd * z
    return Dataset(design=design, observations=y, theta_true=theta_star, seed=int(seed))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write ``time,replicate,value`` CSV plus a JSON metadata sidecar."""
    path = Path(path)
    lines = ["time,replicate,value"]
    for i, t in enumerate(dataset.design.time_points):
        for r in range(dataset.design.replicates):
            lines.append(f"{fmt(t)},{r},{fmt(dataset.observations[i, r])}")
    path.write_text("\n".join(lines) + "\n")
    meta = {
        "time_points": [float(t) for t in dataset.design.time_points],
        "noise_sd": dataset.design.noise_sd,
        "replicates": dataset.design.replicates,
        "seed": dataset.seed,
        "theta_true": None if dataset.theta_true is None else [float(v) for v in dataset.theta_true],
    }
    path.with_suffix(path.suffix + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


# What each field of a dataset's JSON sidecar must hold.
_SIDECAR_FIELDS = {
    "time_points": (lambda x: isinstance(x, list) and all(map(_is_number, x)), "a list of numbers"),
    "noise_sd": (_is_number, "a number"),
    "replicates": (_is_integer, "an integer"),
    "seed": (lambda x: x is None or _is_integer(x), "an integer or null"),
    "theta_true": (lambda x: x is None or isinstance(x, list) and all(map(_is_number, x)),
                   "a list of numbers or null"),
}


def _parse(kind, text: str, where: str):
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: {text!r} is not {'an integer' if kind is int else 'a finite number'}")
    return value


def _load_json(text: str) -> tuple[object, list[tuple[str, str]]]:
    """``json.loads(text)``, and each key repeated within one of its objects, as (the object's dotted path,
    "" at the top level; the key), once per object in document order, values that a repeat replaced included."""
    repeated = []

    def build(value, path):
        if isinstance(value, list):
            return [build(item, f"{path}[{i}]") for i, item in enumerate(value)]
        if isinstance(value, tuple):  # an object, as the pairs the parser read
            repeated.extend((path, key) for key, count in Counter(key for key, _ in value).items() if count > 1)
            return {key: build(item, f"{path}.{key}" if path else key) for key, item in value}
        return value
    return build(json.loads(text, object_pairs_hook=tuple), ""), repeated


def load_dataset(path: str | Path) -> Dataset:
    """Read :func:`save_dataset` output, rejecting anything else, never repairing it.

    Each sidecar field must hold its JSON type, numbers finite.  Each row gives a
    design time exactly, a replicate in 0..replicates-1, once, and a finite value;
    any other row raises :class:`ValueError` naming its line and field.
    """
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    meta, repeated = _load_json(sidecar.read_text())
    if repeated:
        raise ValueError(f"{sidecar}: key {json.dumps(repeated[0][1])} is repeated in one object")
    meta = meta if isinstance(meta, dict) else {}
    for key, (ok, kind) in _SIDECAR_FIELDS.items():
        if not ok(meta.get(key)):
            raise ValueError(f"{sidecar} field {key}: must be {kind}, got {meta.get(key)!r}")
    design = Design(np.array(meta["time_points"], dtype=float), meta["noise_sd"], meta["replicates"])
    obs = np.full((design.size, design.replicates), np.nan)
    rows = {t: i for i, t in enumerate(design.time_points.tolist())}
    with path.open() as fh:
        header = fh.readline().strip()
        if header != "time,replicate,value":
            raise ValueError(f"unexpected dataset header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            row = line.strip().split(",")
            if len(row) != 3:
                raise ValueError(f"{path} line {lineno}: expected the 3 fields time,replicate,value, got {len(row)}")
            (t_str, r_str, v_str), where = row, f"{path} line {lineno}, field"
            i = rows.get(_parse(float, t_str, f"{where} time"))
            if i is None:
                raise ValueError(f"{where} time: {t_str} is not a design time")
            r = _parse(int, r_str, f"{where} replicate")
            if not 0 <= r < design.replicates:
                raise ValueError(f"{where} replicate: {r_str} is outside 0..{design.replicates - 1}")
            if not np.isnan(obs[i, r]):
                raise ValueError(f"{where} (time, replicate): ({t_str}, {r_str}) appears twice")
            obs[i, r] = _parse(float, v_str, f"{where} value")
    if not np.all(np.isfinite(obs)):
        raise ValueError("dataset file is missing observations")
    theta = meta.get("theta_true")
    return Dataset(
        design=design,
        observations=obs,
        theta_true=None if theta is None else np.asarray(theta, dtype=float),
        seed=meta.get("seed"),
    )


# ---------------------------------------------------------------------------
# built-in registry
# ---------------------------------------------------------------------------

GLOBALLY_IDENTIFIABLE = "globally-identifiable"
LOCALLY_NOT_GLOBALLY = "locally-not-globally"
STRUCTURALLY_UNIDENTIFIABLE = "structurally-unidentifiable"


def _bounds(name: str, value) -> tuple[float, float]:
    """A factory's ``*bounds`` constant, rejected unless it is a pair of finite numbers."""
    if not isinstance(value, (tuple, list)) or len(value) != 2 or not all(map(_is_number, value)):
        raise ValueError(f"{name} must be a pair of finite numbers")
    return float(value[0]), float(value[1])


def linear_model(design_matrix=None, bounds: tuple[float, float] = (-10.0, 10.0)) -> Model:
    """y = X theta.  Design times index the rows of X (t_i = i).

    The default X is a two-column intercept/slope matrix on four points, so
    the registry entry is usable without constants.
    """
    if design_matrix is None:
        t = np.arange(4.0)
        design_matrix = np.column_stack([np.ones_like(t), t])
    X = np.asarray(design_matrix, dtype=object)  # keeps booleans apart from numbers
    if X.ndim != 2 or X.size == 0 or not all(map(_is_number, X.ravel().tolist())):
        raise ValueError("design matrix must be a non-empty 2-D array of finite numbers")
    X = X.astype(float)
    n, p = X.shape
    lo, hi = _bounds("bounds", bounds)
    space = ParameterSpace(np.full(p, lo), np.full(p, hi),
                           names=tuple(f"coef{i + 1}" for i in range(p)))

    def _rows(times, thetas):
        idx = np.asarray(np.rint(times), dtype=int)
        if np.any(idx < 0) or np.any(idx >= n):
            raise EvaluationError(f"linear model defined for t in 0..{n - 1}")
        # row by row: a matrix product rounds differently for each batch size
        return np.array([X[idx] @ theta for theta in thetas]).reshape(len(thetas), len(idx))

    return Model(
        name="linear",
        space=space,
        f=_rows,
        jacobian=lambda times, theta: X[np.asarray(np.rint(times), dtype=int)],
        identifiability=GLOBALLY_IDENTIFIABLE if np.linalg.matrix_rank(X) == p else STRUCTURALLY_UNIDENTIFIABLE,
    )


def biexponential_model(bounds: tuple[float, float] = (0.01, 10.0), ordered: bool = False) -> Model:
    """f(t) = exp(-rate1 t) + exp(-rate2 t).

    Swapping the two rates leaves the output unchanged, so the model is only
    locally identifiable unless the space is restricted to rate1 >= rate2.
    """
    if not isinstance(ordered, bool):
        raise ValueError("ordered must be true or false")
    lo, hi = _bounds("bounds", bounds)
    space = ParameterSpace(
        np.array([lo, lo]), np.array([hi, hi]),
        orderings=((0, 1),) if ordered else (),
        names=("rate1", "rate2"),
    )

    return Model(
        name="biexponential",
        space=space,
        f=lambda times, thetas: np.exp(-thetas[:, :1] * times) + np.exp(-thetas[:, 1:] * times),
        jacobian=lambda times, theta: -times[:, None] * np.exp(-theta * times[:, None]),  # C-contiguous
        identifiability=GLOBALLY_IDENTIFIABLE if ordered else LOCALLY_NOT_GLOBALLY,
        canonical=lambda theta: np.sort(theta)[::-1],  # rate1 >= rate2, the ordered space
    )


def redundant_exponential_model(
    amplitude_bounds: tuple[float, float] = (0.1, 10.0),
    rate_bounds: tuple[float, float] = (-1.0, 1.0),
    offset_bounds: tuple[float, float] = (-5.0, 5.0),
) -> Model:
    """f(x) = amplitude * exp(rate * x + offset), with x the design time.

    The amplitude and offset act through the single product
    amplitude * exp(offset), so the model carries one redundant parameter and
    is structurally unidentifiable.  That orbit, (a e^s, b, c - s), is continuous,
    not a relabelling, so the model registers no ``canonical`` map.
    """
    lower, upper = zip(_bounds("amplitude_bounds", amplitude_bounds), _bounds("rate_bounds", rate_bounds),
                       _bounds("offset_bounds", offset_bounds))
    space = ParameterSpace(np.array(lower), np.array(upper), names=("amplitude", "rate", "offset"))

    def _jac(times, theta):
        e = np.exp(theta[1] * times + theta[2])
        return np.array([e, theta[0] * times * e, theta[0] * e]).T.copy()  # C-contiguous (n, 3)

    return Model(
        name="redundant-exponential",
        space=space,
        f=lambda times, thetas: thetas[:, :1] * np.exp(thetas[:, 1:2] * times + thetas[:, 2:]),
        jacobian=_jac,
        identifiability=STRUCTURALLY_UNIDENTIFIABLE,
    )


def reciprocal_model(bounds: tuple[float, float] = (0.01, 1000.0)) -> Model:
    """f(theta) = 1 + 1/theta, constant in t.

    Globally identifiable everywhere, but the sensitivity 1/theta^2 collapses
    as theta grows, so practical identifiability is lost at large theta.
    """
    lo, hi = _bounds("bounds", bounds)
    space = ParameterSpace(np.array([lo]), np.array([hi]), names=("theta",))

    return Model(
        name="reciprocal",
        space=space,
        f=lambda times, thetas: np.repeat(1.0 + 1.0 / thetas, len(times), axis=1),
        jacobian=lambda times, theta: np.full((len(times), 1), -1.0 / theta[0] ** 2),
        identifiability=GLOBALLY_IDENTIFIABLE,
    )


def logistic_model(
    rate_bounds: tuple[float, float] = (0.1, 5.0),
    capacity_bounds: tuple[float, float] = (0.2, 5.0),
    initial_bounds: tuple[float, float] = (0.01, 2.0),
) -> Model:
    """Logistic growth x' = r x (1 - x/K), x(0) = x0, solved numerically by
    LSODA through :class:`OdeSystem` (scipy's compiled binding, at most 500
    steps per output interval), so design times must be >= 0.

    Parameters are (r, K, x0); the observed output is the state itself.
    It integrates at :class:`OdeSystem`'s default tolerances, several orders
    below the central finite-difference step (~6e-6), so that solver noise
    divided by the step does not masquerade as sensitivity.
    """
    lower, upper = zip(_bounds("rate_bounds", rate_bounds), _bounds("capacity_bounds", capacity_bounds),
                       _bounds("initial_bounds", initial_bounds))
    space = ParameterSpace(np.array(lower), np.array(upper), names=("growth_rate", "capacity", "initial_state"))

    def _augmented(t, z, theta):
        # dg/dx = r (1 - 2x/K), dg/dtheta = [x (1 - x/K), r x^2/K^2, 0], combined
        # as a * s_j + b_j: the same operations as a generic (dg/dx) @ s + dg/dtheta
        x, s_r, s_k, s_x0 = z.tolist()
        r, k, _ = theta.tolist()
        a = r * (1.0 - 2.0 * x / k)
        u = 1.0 - x / k
        return [r * x * u, a * s_r + x * u, a * s_k + r * x ** 2 / k ** 2, a * s_x0 + 0.0]

    def _rhs(t, x, theta):
        (x,), (r, k, _) = x.tolist(), theta.tolist()
        return [r * x * (1.0 - x / k)]

    ode = OdeSystem(
        rhs=_rhs,
        augmented=_augmented,
        initial=lambda theta: np.array([theta[2]]),
        initial_jac=lambda theta: np.array([[0.0, 0.0, 1.0]]),
    )

    return Model(
        name="logistic",
        space=space,
        f=ode.outputs,
        ode=ode,
        identifiability=GLOBALLY_IDENTIFIABLE,
    )


_FACTORIES: dict[str, Callable[..., Model]] = {
    "linear": linear_model,
    "biexponential": biexponential_model,
    "redundant-exponential": redundant_exponential_model,
    "reciprocal": reciprocal_model,
    "logistic": logistic_model,
}


def builtin_registry() -> list[Model]:
    """All built-in models instantiated with default constants."""
    return [factory() for factory in _FACTORIES.values()]


def get_model(name: str, **constants) -> Model:
    """Instantiate a built-in by name, passing constants to its factory."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise UnknownModelError(f"unknown model {name!r}; registry has: {known}") from None
    return factory(**constants)
