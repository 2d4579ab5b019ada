"""Parameter sweeps, data ingestion, and fitting.

Sweeps substitute one parameter along a grid and record an observable plus an
equilibrium classification per point, in grid order, in one process.
Time-series files are plain CSV (annual prevalence, or cases with
population); fitting minimizes the sum of squared prevalence residuals by
bounded trust-region reflective least squares (Branch, Coleman & Li, SIAM J.
Sci. Comput. 21, 1999) on a finite-difference Jacobian of the residual
vector, so box bounds hold at every trial point.  The search is a short
in-house loop, the iteration of SciPy's ``"trf"`` method with Moré's
trust-region step, because on one to three parameters SciPy's generic
driver costs more than the model's integrations.

Sweep points and fit trial points alike change a validated configuration
through :meth:`~waningsim.model.ModelConfig.replace`, which checks only the
substituted fields.  A fit trial point then costs one kernel call
(:func:`simulate_annual_prevalence`): the observation times are the
kernel's targets and the prevalence is read at those rows.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .dfe import basic_reproduction_number
from .dynamics import DEFAULT_MAX_STEPS, IntegrationError, _run_kernel, integrate
from .endemic import NoEndemicEquilibriumError, RefinementError, refine_endemic
from .model import (ConfigError, ModelConfig, _json_numbers, _json_object, _parse_json, _require_start_prevalence,
                    config_from_dict, config_to_dict, epidemic_start, json_number)
from .stability import _dfe_max_real_part

__all__ = [
    "SWEEP_PARAMETERS",
    "SWEEP_OBSERVABLES",
    "SweepSpec",
    "load_sweep_spec",
    "SweepPoint",
    "SweepResult",
    "substitute_parameter",
    "sweep",
    "TimeSeries",
    "TimeSeriesError",
    "ingest_timeseries",
    "FitOptions",
    "FitResult",
    "fit",
    "simulate_annual_prevalence",
]

SWEEP_PARAMETERS = ("beta0", "omega", "delta", "omega_n", "p_n")
SWEEP_OBSERVABLES = ("terminal_prevalence", "r0", "endemic_I", "max_real_part")
# the most points a sweep spec's grid object may ask for: each is one full
# analysis or integration, and the grid is allocated before the first runs
MAX_GRID_NUM = 1_000_000


def substitute_parameter(config: ModelConfig, parameter: str, value: float) -> ModelConfig:
    """The configuration with one swept parameter replaced, by
    :meth:`~waningsim.model.ModelConfig.replace`.

    ``omega_n`` adjusts the vaccination rate so that the last-tier return
    rate ``p[n] * omega`` equals ``value`` (requires ``p[n] > 0``).
    Validation errors propagate as :class:`ConfigError`.
    """
    if parameter == "beta0":
        beta = np.array(config.beta)
        beta[0] = value
        return config.replace(beta=beta)
    if parameter == "omega":
        return config.replace(omega=value)
    if parameter == "delta":
        return config.replace(delta=value)
    if parameter == "omega_n":
        p_n = float(config.p[-1])
        if p_n <= 0.0:
            raise ConfigError("omega_n sweep requires positive coverage of the last tier")
        return config.replace(omega=value / p_n)
    if parameter == "p_n":
        p = np.array(config.p)
        p[-1] = value
        return config.replace(p=p)
    raise ConfigError(f"unknown sweep parameter {parameter!r}; choose from {SWEEP_PARAMETERS}")


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """One-parameter sweep description; specs compare by identity."""

    base_config: ModelConfig
    parameter: str
    grid: np.ndarray
    observable: str
    t_end: float = 2000.0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"unknown sweep parameter {self.parameter!r}")
        if self.observable not in SWEEP_OBSERVABLES:
            raise ConfigError(f"unknown observable {self.observable!r}")
        if not np.all(np.isfinite(grid)):
            raise ConfigError("grid points must be finite")
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ConfigError(f"t_end must be finite and positive, got {self.t_end}")
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ConfigError("grid must be a strictly increasing vector with >= 2 points")
        if self.parameter == "omega_n" and not self.base_config.p[-1] > 0.0:
            # substitute_parameter's check, made once: no point could run
            raise ConfigError("omega_n sweep requires positive coverage of the last tier")


def load_sweep_spec(path) -> SweepSpec:
    """The sweep spec in the JSON file at ``path``: keys ``config``,
    ``parameter``, ``grid`` (a list of numbers or ``{"start", "stop",
    "num"}``), ``observable`` and optionally ``t_end``.  A :class:`ConfigError`
    names the first fault, from the spec's keys, then the config, the grid
    and the spec's own rules."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = _json_object("sweep spec", _parse_json(fh.read()), ("config", "parameter", "grid", "observable"),
                           ("t_end",))
    config = config_from_dict(raw["config"])
    grid = raw["grid"]
    if isinstance(grid, dict):
        _json_object("grid", grid, ("start", "stop", "num"))
        num = grid["num"]
        if isinstance(num, bool) or not isinstance(num, int):
            raise ConfigError(f"grid num must be an integer, got {num!r}")
        if num < 2:
            raise ConfigError(f"grid num must be >= 2, got {num}")
        if num > MAX_GRID_NUM:
            raise ConfigError(f"grid num must be <= {MAX_GRID_NUM}, got {num}")
        grid = np.linspace(json_number("grid start", grid["start"]), json_number("grid stop", grid["stop"]), num)
    elif isinstance(grid, list):
        grid = np.array(_json_numbers("grid", grid, each=True))
    else:
        raise ConfigError(f"grid must be a list of numbers or an object with start, stop and num, got {grid!r}")
    return SweepSpec(base_config=config, parameter=raw["parameter"], grid=grid, observable=raw["observable"],
                     t_end=json_number("t_end", raw.get("t_end", SweepSpec.t_end)))


@dataclass(frozen=True)
class SweepPoint:
    value: float
    observable: float
    classification: str
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    observable: str
    points: tuple

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points])

    @property
    def observables(self) -> np.ndarray:
        return np.array([p.observable for p in self.points])

    def to_csv(self) -> str:
        rows = [f"{p.value!r},{p.observable!r},{p.classification}\n" for p in self.points]
        return "param_value,observable,classification\n" + "".join(rows)

    def to_json_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "observable": self.observable,
            "points": [
                {
                    "value": p.value,
                    "observable": p.observable,
                    "classification": p.classification,
                    "error": p.error,
                }
                for p in self.points
            ],
        }


_CLASSIFICATION = {"stable": "dfe_stable", "unstable": "endemic", "critical": "critical"}


def _evaluate_point(base: ModelConfig, parameter: str, value: float, observable: str, t_end: float) -> SweepPoint:
    try:
        cfg = substitute_parameter(base, parameter, value)
        r0 = basic_reproduction_number(cfg)
        if observable == "r0":
            obs = r0.r0
        elif observable == "max_real_part":
            obs = _dfe_max_real_part(cfg, r0.dfe)
        elif observable == "endemic_I":
            try:
                obs = refine_endemic(cfg).i_star
            except NoEndemicEquilibriumError:
                obs = float("nan")
        else:  # terminal_prevalence, the one observable left that SweepSpec admits
            obs = integrate(cfg, epidemic_start(cfg), t_end).final_prevalence
        return SweepPoint(value=value, observable=float(obs), classification=_CLASSIFICATION[r0.regime])
    # per-point failures, a configuration the value breaks included, are
    # recorded: ValueError covers ConfigError, NoEndemicEquilibriumError and
    # StaleSolutionError, ArithmeticError NonFiniteThresholdError.  Anything
    # else is a programming error and propagates, as it does from fit.
    except (ValueError, ArithmeticError, IntegrationError, RefinementError) as exc:
        return SweepPoint(value=value, observable=float("nan"), classification="error", error=str(exc))


def sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the observable at each grid point, in grid order.

    Per-point configuration violations and failures are recorded in the
    result rather than aborting the sweep; any other exception, a
    programming error, propagates.
    """
    points = tuple(_evaluate_point(spec.base_config, spec.parameter, float(v), spec.observable, spec.t_end)
                   for v in spec.grid)
    return SweepResult(parameter=spec.parameter, observable=spec.observable, points=points)


class TimeSeriesError(ValueError):
    """Malformed or inconsistent time-series input."""


# the plain ASCII decimals a year and a number cell may hold; int() and
# float() read more (underscores, non-ASCII digits, "inf", "nan")
_PLAIN_YEAR = re.compile(r"[+-]?[0-9]+")
_PLAIN_NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Annual observed prevalence proportions; series compare by identity."""

    years: np.ndarray
    prevalence: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "years", np.asarray(self.years, dtype=int))
        object.__setattr__(self, "prevalence", np.asarray(self.prevalence, dtype=float))
        if self.years.size != self.prevalence.size or self.years.size == 0:
            raise TimeSeriesError("years and prevalence must be matching non-empty vectors")
        if (self.years[1:] <= self.years[:-1]).any():  # a difference of int64 years can wrap
            raise TimeSeriesError("years must be strictly increasing")
        if np.any(self.prevalence < 0) or np.any(self.prevalence > 1):
            raise TimeSeriesError("prevalence must lie in [0, 1]")


def ingest_timeseries(source) -> TimeSeries:
    """Read annual prevalence from CSV.

    Accepts CSV text (a ``str``) or an open text file; a path is neither, so
    the caller opens the file.  One leading UTF-8 byte-order mark is
    dropped.  Header must be ``year,prevalence`` or
    ``year,cases,population`` (prevalence is then ``cases / population``).
    Lines starting with ``#`` are comments.  Each cell is a plain ASCII
    decimal (no digit separators, no ``inf`` or ``nan``) within the double
    range.  Malformed rows report their line number; a quoted field must
    close on the line that opens it, before the next comma or the end of the
    line.

    Raises:
        TypeError: for a source that is neither a ``str`` nor a file object.
    """
    if isinstance(source, str):
        text = source
    elif hasattr(source, "read"):
        text = source.read()
    else:
        raise TypeError(f"ingest_timeseries takes CSV text (str) or an open text file, "
                        f"got {type(source).__name__}")
    text = text.removeprefix("\ufeff")

    kept = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not line.startswith("#")]
    reader = csv.reader([line for _, line in kept], strict=True)
    rows = []
    header = None
    for k, (lineno, line) in enumerate(kept, start=1):
        try:
            cells = next(reader)
        except csv.Error as exc:  # a quote still open at the end of the text, or text after a closing quote
            raise TimeSeriesError(f"line {lineno}: {exc}") from exc
        if reader.line_num != k:  # the row ran on into a later line
            raise TimeSeriesError(f"line {lineno}: a quoted field is not closed on its line")
        cells = [c.strip() for c in cells]
        if header is None:
            header = [c.lower() for c in cells]
            if header not in (["year", "prevalence"], ["year", "cases", "population"]):
                raise TimeSeriesError(
                    f"line {lineno}: header must be 'year,prevalence' or 'year,cases,population', got {line!r}"
                )
            continue
        if len(cells) != len(header):
            raise TimeSeriesError(f"line {lineno}: expected {len(header)} fields, got {len(cells)}")
        try:
            year = int(cells[0])
            numbers = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise TimeSeriesError(f"line {lineno}: {exc}") from exc
        for name, cell in zip(header, cells):
            if not (_PLAIN_YEAR if name == "year" else _PLAIN_NUMBER).fullmatch(cell):
                raise TimeSeriesError(f"line {lineno}: {name} {cell!r} is not a plain decimal number")
        for name, cell, number in zip(header[1:], cells[1:], numbers):
            if not math.isfinite(number):  # a plain decimal whose exponent overflows
                raise TimeSeriesError(f"line {lineno}: {name} {cell} is beyond the double range")
        if len(header) == 3:
            cases, population = numbers
            if population <= 0:
                raise TimeSeriesError(f"line {lineno}: population must be positive")
            value = cases / population
        else:
            value = numbers[0]
        if not 0.0 <= value <= 1.0:
            raise TimeSeriesError(f"line {lineno}: prevalence {value!r} outside [0, 1]")
        if not -2**63 <= year < 2**63:  # years are held as int64
            raise TimeSeriesError(f"line {lineno}: year {year} outside the 64-bit integer range")
        if rows and year <= rows[-1][0]:
            raise TimeSeriesError(f"line {lineno}: years must be strictly increasing, got {year} after {rows[-1][0]}")
        rows.append((year, value))
    if header is None or not rows:
        raise TimeSeriesError("no data rows found")
    return TimeSeries(years=np.array([r[0] for r in rows]), prevalence=np.array([r[1] for r in rows]))


# -- least-squares fitting ----------------------------------------------------

FREE_PARAMETER_BOUNDS = {
    "beta_scale": (0.05, 20.0),
    "delta": (0.0, 5.0),
    "mu": (1e-4, 2.0),
    "r": (0.05, 400.0),
    "omega": (0.0, 60.0),
    "i0": (1e-10, 0.1),
}
# simulated prevalence is read this long after the start of each observation year
YEAR_END_OFFSET = 1.0
# every residual of a trial point that fails to integrate or to form a config
FAILED_RESIDUAL = 1e3
# relative stopping tests (cost change, step length); there is no gradient
# test, since one absolute in residual units stops small-prevalence fits
FIT_FTOL = 1e-8
FIT_XTOL = 1e-8
# forward-difference step relative to max(1, |x|), as SciPy takes it
FD_RELATIVE_STEP = np.finfo(float).eps ** 0.5


@dataclass(frozen=True)
class FitOptions:
    """Fitting controls.

    Simulated prevalence is the instantaneous infectious proportion at the
    end of each observation year (``YEAR_END_OFFSET`` = 1.0 after the start
    of that year, counted from the simulation start at ``start_year``);
    cumulative incidence is deliberately not modeled.  Each least-squares
    run stops at ``FIT_FTOL``/``FIT_XTOL`` or after ``max_iterations``
    residual evaluations, not counting those of the finite-difference
    Jacobian; the search restarts from the best point up to ``restarts``
    times while the SSE keeps falling.  ``rtol`` and ``atol`` are the
    integration tolerances of every trial simulation.
    ``initial_prevalence`` (the CLI's ``--i0``) seeds the naive start state
    of every trial simulation, or starts the search when ``i0`` is free; it
    must be finite and lie strictly inside ``(0, 1)``, since a start without
    infection has a flat objective and one without susceptibles is no state.

    Raises:
        ConfigError: for ``restarts < 0``, ``max_iterations < 1`` or an
            ``initial_prevalence`` outside ``(0, 1)``.
    """

    start_year: int | None = None
    initial_prevalence: float = 1e-6
    log_sse: bool = False
    max_iterations: int = 2000
    restarts: int = 2
    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        if self.restarts < 0:
            raise ConfigError(f"restarts must be >= 0, got {self.restarts}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.initial_prevalence < 1.0:  # false for NaN as well
            raise ConfigError(f"initial prevalence i0 must be finite and in (0, 1), got {self.initial_prevalence!r}")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of :func:`fit`; results compare by identity.

    ``evaluations`` counts the trial points integrated, each distinct point
    once, finite-difference neighbours and restarts included;
    ``failed_evaluations`` counts those that failed.
    """

    fitted_config: ModelConfig
    parameters: dict
    sse: float
    residuals: np.ndarray
    converged: bool
    evaluations: int
    failed_evaluations: int

    def to_json_dict(self) -> dict:
        """The record for :func:`reports.json_document`, which writes the
        ``residuals`` array as its ``tolist()`` would be."""
        return {
            "parameters": {k: float(v) for k, v in self.parameters.items()},
            "config": config_to_dict(self.fitted_config),
            "sse": self.sse,
            "residuals": self.residuals,
            "converged": self.converged,
            "evaluations": self.evaluations,
            "failed_evaluations": self.failed_evaluations,
        }


def _apply_parameters(template: ModelConfig, names, values, i0_default: float):
    changes = {}
    i0 = i0_default
    for name, value in zip(names, values):
        if name == "beta_scale":
            changes["beta"] = template.beta * value
        elif name == "i0":
            i0 = value
        elif name.startswith("p_"):
            p = changes.get("p", np.array(template.p))
            p[int(name[2:])] = value
            changes["p"] = p
        else:
            changes[name] = value
    return template.replace(**changes), i0


def _bounds_for(template: ModelConfig, names):
    coverage = {f"p_{k}" for k in range(1, template.n + 1)}
    bounds = []
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"free parameter {name!r} is listed twice")
        if name in coverage:
            bounds.append((0.0, 1.0))
        elif name in FREE_PARAMETER_BOUNDS:
            bounds.append(FREE_PARAMETER_BOUNDS[name])
        elif name.startswith("p_"):
            raise ConfigError(f"coverage index out of range in {name!r}: use p_1 .. p_{template.n}")
        else:
            raise ConfigError(f"unknown free parameter {name!r}")
    return bounds


def _require_start_year(first: int, last: int, start_year: int) -> None:
    # every observation time years - start_year + YEAR_END_OFFSET is
    # positive, and the int64 difference years - start_year cannot wrap
    if not last - 2**63 < start_year <= first:
        raise ConfigError(f"start year must lie in [{last - 2**63 + 1}, {first}], got {start_year}")


def simulate_annual_prevalence(
    config: ModelConfig,
    years,
    start_year: int,
    i0: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> np.ndarray:
    """Prevalence at the end of each observation year, from the naive start
    of :func:`~waningsim.model.epidemic_start` seeded with ``i0``.

    The observation times ``years - start_year + YEAR_END_OFFSET`` are the
    kernel's own targets, each hit exactly, and the prevalence column is read
    at those rows: bit for bit ``integrate(...).sample(t_obs)[:, -1]``,
    without the trajectory around it.  This is the whole cost of one fit
    trial point beyond its configuration.

    Raises:
        ValueError: naming ``start_year``, when the years do not increase
            strictly from it on or it comes ``2**63`` or more years before
            the last, or when ``i0`` lies outside ``[0, 1]``.
        IntegrationError: when the kernel fails.
    """
    years = np.asarray(years, dtype=int)
    if years.ndim != 1 or not years.size or (years[1:] <= years[:-1]).any() or start_year > int(years[0]):
        raise ValueError(f"observation years must increase strictly and come after the simulation start "
                         f"in {start_year}")
    _require_start_year(int(years[0]), int(years[-1]), start_year)
    t_obs = years - start_year + YEAR_END_OFFSET
    _require_start_prevalence(i0)
    y0 = np.zeros(config.n + 2)
    y0[-2] = 1.0 - i0
    y0[-1] = i0
    times, states, *_ = _run_kernel(config, y0, rtol, atol, t_obs, DEFAULT_MAX_STEPS)
    return states[times.searchsorted(t_obs), -1]


def _norm(v):
    # the value numpy.linalg.norm gives a vector, without its dispatch cost
    return math.sqrt(v.dot(v))


def _inside(x, lo, hi, margin):
    """``x`` with each component on or within ``margin * max(1, |bound|)`` of
    a bound moved to that distance inside it; with ``margin == 0``, one on or
    beyond a bound moves to the next double inside."""
    if margin == 0 and ((lo < x) & (x < hi)).all():
        return x
    lo_gap, hi_gap = margin * np.maximum(1.0, abs(lo)), margin * np.maximum(1.0, abs(hi))
    at_lo = x - lo <= np.minimum(hi - x, lo_gap)
    at_hi = hi - x <= np.minimum(x - lo, hi_gap)
    x = np.where(at_lo, lo + lo_gap if margin else np.nextafter(lo, hi), x)
    x = np.where(at_hi, hi - hi_gap if margin else np.nextafter(hi, lo), x)
    return np.where((x < lo) | (x > hi), 0.5 * (lo + hi), x)


def _to_bound(x, s, lo, hi):
    """The least ``t >= 0`` at which ``x + t s`` meets a bound, and the mask
    of the components that meet one there."""
    moving = s != 0
    steps = np.full(x.size, np.inf)
    with np.errstate(over="ignore"):
        steps[moving] = np.maximum((lo - x)[moving] / s[moving], (hi - x)[moving] / s[moving])
    t = steps.min()
    return t, (steps == t) & moving


def _line_minimum(a, b, c, t_lo, t_hi):
    """Minimum point and value of ``a t^2 + b t + c`` over ``[t_lo, t_hi]``."""
    ts = [t_lo, t_hi]
    if a != 0 and t_lo < -0.5 * b / a < t_hi:
        ts.append(-0.5 * b / a)
    values = [t * (a * t + b) + c for t in ts]
    k = values.index(min(values))
    return ts[k], values[k]


def _levenberg_step(m, uf, s, V, radius, alpha):
    """Moré's trust-region step from one SVD ``U diag(s) V^T`` of the scaled
    Jacobian, with ``uf = U^T f``: the Gauss-Newton step when the Jacobian
    has full rank and the step fits, else the Levenberg-Marquardt step whose
    length is ``radius`` to 1%, from at most ten safeguarded Newton steps on
    the parameter ``alpha``.  Returns the step and ``alpha``."""
    suf = s * uf
    full_rank = m >= s.size and s[-1] > np.finfo(float).eps * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= radius:
            return p, 0.0

    def phi(alpha):
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - radius, -np.sum(suf**2 / denom**3) / p_norm

    upper = _norm(suf) / radius
    lower = 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    elif alpha == 0:
        alpha = max(0.001 * upper, (lower * upper) ** 0.5)
    for _ in range(10):
        if alpha < lower or alpha > upper:
            alpha = max(0.001 * upper, (lower * upper) ** 0.5)
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        ratio = value / slope
        lower = max(lower, alpha - ratio)
        alpha -= (value + radius) * ratio / radius
        if abs(value) < 0.01 * radius:
            break
    p = -V.dot(suf / (s**2 + alpha))
    return p * (radius / _norm(p)), alpha


def _select_step(x, J_h, diag_h, g_h, p_h, d, radius, lo, hi, theta):
    """The step, in ``x`` and in the scaled variables, that lowers the scaled
    quadratic model most, with the reduction it predicts.  A trust-region
    step ``d * p_h`` that leaves the box competes, stepped back by ``theta``
    from the bound it meets, with its reflection off that bound and with the
    scaled steepest-descent step."""

    def along(s, s0=None):  # model(s0 + t s) = a t^2 + b t + c
        v = J_h.dot(s)
        a, b, c = 0.5 * (v.dot(v) + (s * diag_h).dot(s)), g_h.dot(s), 0.0
        if s0 is not None:
            u = J_h.dot(s0)
            b = b + u.dot(v) + (s0 * diag_h).dot(s)
            c = 0.5 * u.dot(u) + g_h.dot(s0) + 0.5 * (s0 * diag_h).dot(s0)
        return a, b, c

    def model(s):
        a, b, _ = along(s)
        return a + b

    p = d * p_h
    if ((x + p >= lo) & (x + p <= hi)).all():
        return p, p_h, -model(p_h)
    p_stride, hits = _to_bound(x, p, lo, hi)
    r_h = np.where(hits, -p_h, p_h)
    p, p_h = p * p_stride, p_h * p_stride
    to_bound = _to_bound(x + p, d * r_h, lo, hi)[0]
    a, b, c = r_h.dot(r_h), p_h.dot(r_h), p_h.dot(p_h) - radius**2
    q = -(b + np.copysign(np.sqrt(b * b - a * c), b))
    r_stride = min(to_bound, max(q / a, c / q))
    r_value = np.inf
    if r_stride > 0:
        r_lo = (1 - theta) * p_stride / r_stride
        r_hi = theta * to_bound if r_stride == to_bound else r_stride
        if r_lo <= r_hi:
            t, r_value = _line_minimum(*along(r_h, p_h), r_lo, r_hi)
            r_h = r_h * t + p_h
    p, p_h = p * theta, p_h * theta
    p_value = model(p_h)
    ag_h = -g_h
    to_bound = _to_bound(x, d * ag_h, lo, hi)[0]
    to_tr = radius / _norm(ag_h)
    t, ag_value = _line_minimum(*along(ag_h), 0, theta * to_bound if to_bound < to_tr else to_tr)
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return d * r_h, r_h, -r_value
    return d * ag_h * t, ag_h * t, -ag_value


def _svd(a):
    """``U, s, Vt`` of the thin SVD of ``a`` by LAPACK's ``gesdd``, with
    ``U`` and ``Vt`` in Fortran order: a product taken from a factor then
    runs the BLAS path it ran when SciPy's LAPACK wrapper returned them, and
    each fit's digits are those of the SciPy SVD.

    Raises:
        numpy.linalg.LinAlgError: the SVD did not converge.
    """
    U, s, Vt = np.linalg.svd(a, full_matrices=False)
    return np.asfortranarray(U), s, np.asfortranarray(Vt)


def _trust_region_reflective(fun, jac, x, lo, hi, max_nfev):
    """Bounded trust-region reflective least squares (Branch, Coleman & Li,
    SIAM J. Sci. Comput. 21, 1999) on the finite residuals ``fun`` with
    Jacobian ``jac``: every trial point lies strictly inside the finite box
    ``[lo, hi]``.

    Variables are scaled by the running maximum of the Jacobian's column
    norms and by the Coleman-Li vector ``v`` (the distance to the bound the
    gradient points at).  Each iteration takes one SVD of the augmented
    scaled Jacobian and solves the trust-region subproblem by Moré's method
    (Lecture Notes in Math. 630, 1978).  A step whose predicted reduction
    was poor shrinks the radius to a quarter of the step's length, one that
    was good and reached the radius doubles it, and a step that raised the
    cost is tried again from the same point.  The search stops when the cost falls by less than
    ``FIT_FTOL`` relative at a well-predicted step, or the step is shorter
    than ``FIT_XTOL`` relative to ``x``, or after ``max_nfev`` calls of
    ``fun``.  ``jac`` is called at the start and at each accepted point the
    search goes on from, so its latest call is the one the last step came
    from.  Returns the last accepted point, its residuals and whether a
    stopping test, not the budget, ended the search.
    """

    def coleman_li(x, g):
        return np.where(g < 0, hi - x, np.where(g > 0, x - lo, 1.0)), np.sign(g)

    x0, x = x, _inside(x, lo, hi, 1e-10)
    f = fun(x)
    J = jac(x)
    nfev = 1
    m = f.size
    f_augmented = np.zeros(m + x.size)
    cost = 0.5 * f.dot(f)
    g = J.T.dot(f)
    scale_inv = np.sqrt(np.sum(J**2, axis=0))
    scale_inv[scale_inv == 0] = 1
    v, dv = coleman_li(x, g)
    v = np.where(dv != 0, v * scale_inv, v)
    # from the start as given: a start on a bound of 0 takes the fallback
    # radius 1, not one proportional to the shift off that bound
    radius = _norm(x0 * scale_inv / v**0.5) or 1.0
    alpha = 0.0
    stopped = False
    while not stopped and nfev < max_nfev:
        v, dv = coleman_li(x, g)
        theta = max(0.995, 1 - np.abs(g * v).max())
        v = np.where(dv != 0, v * scale_inv, v)
        scale = 1 / scale_inv
        d = v**0.5 * scale
        diag_h = g * dv * scale
        g_h = d * g
        J_augmented = np.vstack((J * d, np.diag(diag_h**0.5)))
        J_h = J_augmented[:m]
        U, s, Vt = _svd(J_augmented)
        f_augmented[:m] = f
        uf = U.T.dot(f_augmented)
        reduction = -1
        while reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _levenberg_step(m, uf, s, Vt.T, radius, alpha)
            step, step_h, predicted = _select_step(x, J_h, diag_h, g_h, p_h, d, radius, lo, hi, theta)
            x_new = _inside(x + step, lo, hi, 0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            cost_new = 0.5 * f_new.dot(f_new)
            reduction = cost - cost_new
            ratio = reduction / predicted if predicted > 0 else float(predicted == reduction == 0)
            stopped = (reduction < FIT_FTOL * cost and ratio > 0.25) or (
                _norm(step) < FIT_XTOL * (FIT_XTOL + _norm(x))
            )
            if stopped:
                break
            if ratio < 0.25:
                alpha *= radius / (0.25 * step_h_norm)
                radius = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * radius:
                alpha *= 0.5
                radius *= 2.0
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            if stopped or nfev >= max_nfev:
                break
            J = jac(x)
            g = J.T.dot(f)
            scale_inv = np.maximum(np.sqrt(np.sum(J**2, axis=0)), scale_inv)
    return x, f, stopped


def fit(
    config_template: ModelConfig,
    free_parameters,
    timeseries: TimeSeries,
    options: FitOptions | None = None,
    bounds: dict | None = None,
) -> FitResult:
    """Least-squares fit of selected parameters to annual prevalence data.

    The whole transmission vector is scaled jointly (``beta_scale``), which
    preserves its ordering.  Every trial point, finite-difference ones
    included, lies inside the bounds.  Trial points that fail to integrate
    or form no valid configuration get every residual ``FAILED_RESIDUAL``
    and are counted in ``failed_evaluations``.  Each distinct trial point is
    integrated once, even when a restart or a Jacobian returns to it, and
    ``evaluations`` counts those integrations.  Deterministic given options.

    Returns the best point found with ``converged=False`` when no run met a
    convergence test before its evaluation budget ran out, or every run that
    met one stopped on a step taken from a Jacobian with a column it could
    not form (both finite-difference neighbours failed).

    Each run of the trust-region search starts from the template's values
    (clipped to the bounds), or from the best point so far on a restart, and
    the search restarts up to ``options.restarts`` times while the SSE
    falls.  ``bounds`` maps free parameter names to ``(lower, upper)``
    pairs that replace the defaults.

    Raises:
        ConfigError: when the start point itself fails to integrate or to
            form a valid configuration, a bound is not finite or not below
            its upper bound, or the start year comes after the first
            observation year or more than ``2**63 - 1`` years before the last.
    """
    opts = options or FitOptions()
    names = list(free_parameters)
    if not names:
        raise ConfigError("free_parameters must not be empty")
    box = _bounds_for(config_template, names)
    if bounds:
        box = [tuple(bounds.get(name, b)) for name, b in zip(names, box)]
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    if not (np.isfinite(lo) & np.isfinite(hi) & (lo < hi)).all():
        raise ConfigError(f"fit bounds must be finite with lower < upper, got {box}")
    first, last = int(timeseries.years[0]), int(timeseries.years[-1])
    start_year = opts.start_year if opts.start_year is not None else first - 1
    _require_start_year(first, last, start_year)

    defaults = {
        "beta_scale": 1.0,
        "delta": config_template.delta,
        "mu": config_template.mu,
        "r": config_template.r,
        "omega": config_template.omega,
        "i0": opts.initial_prevalence,
    }
    x0 = np.array(
        [
            float(config_template.p[int(n[2:])]) if n.startswith("p_") else defaults[n]
            for n in names
        ]
    )
    x0 = np.clip(x0, lo, hi)
    observed = timeseries.prevalence
    evaluations = 0
    failed_evaluations = 0

    def residuals_at(x: np.ndarray) -> np.ndarray:
        cfg, i0 = _apply_parameters(config_template, names, x, opts.initial_prevalence)
        simulated = simulate_annual_prevalence(
            cfg, timeseries.years, start_year, i0, opts.rtol, opts.atol
        )
        if opts.log_sse:
            floor = 1e-12
            return np.log(np.maximum(simulated, floor)) - np.log(np.maximum(observed, floor))
        return simulated - observed

    failed = np.full(observed.size, FAILED_RESIDUAL)
    # residuals, or ``failed``, of every trial point integrated so far: a
    # restart and its first Jacobian revisit the point the last run stopped at
    seen = {}
    blind = False  # the latest Jacobian, which the last step came from, has a column built from ``failed``

    def residual_vector(x: np.ndarray) -> np.ndarray:
        nonlocal evaluations, failed_evaluations
        key = x.tobytes()
        if key in seen:
            return seen[key]
        evaluations += 1
        try:
            f = residuals_at(x)
        except (IntegrationError, ConfigError) as exc:
            # the search evaluates the start point first and then accepts
            # only steps that lower the cost, which a failed point never does
            if evaluations == 1:
                raise ConfigError(f"fit start point cannot be evaluated: {exc}") from exc
            failed_evaluations += 1
            f = failed
        seen[key] = f
        return f

    def jacobian(x: np.ndarray) -> np.ndarray:
        # forward differences, or backward ones where the forward neighbour
        # fails; stored column-major, the layout SciPy's bounded driver was
        # given, so fits stay bit for bit that driver's (tests/oracles.py)
        nonlocal blind
        blind = False
        f = residual_vector(x)
        J = np.empty((observed.size, x.size), order="F")
        for j in range(x.size):
            h = FD_RELATIVE_STEP * max(1.0, abs(x[j]))
            for xj in (x[j] + h, x[j] - h):
                shifted = x.copy()
                shifted[j] = xj
                fj = residual_vector(shifted) if lo[j] <= xj <= hi[j] else failed
                if fj is not failed:
                    break
            blind = blind or fj is failed
            J[:, j] = (fj - f) / (xj - x[j])
        return J

    best = None
    converged = False
    for _ in range(opts.restarts + 1):
        x, f, stopped = _trust_region_reflective(
            residual_vector, jacobian, x0 if best is None else best[0], lo, hi, opts.max_iterations
        )
        converged = converged or (stopped and not blind)
        if best is not None and f.dot(f) >= best[1].dot(best[1]):
            break
        best = x, f

    x, f = best
    fitted_config, _ = _apply_parameters(config_template, names, x, opts.initial_prevalence)
    return FitResult(
        fitted_config=fitted_config,
        parameters=dict(zip(names, (float(v) for v in x))),
        sse=float(f @ f),
        residuals=f,
        converged=converged,
        evaluations=evaluations,
        failed_evaluations=failed_evaluations,
    )
