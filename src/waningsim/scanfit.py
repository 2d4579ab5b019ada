"""Parameter sweeps, bifurcation location, data ingestion, and fitting.

Sweeps substitute one parameter along a grid and record an observable plus an
equilibrium classification per point; grid points are independent, so they
can be evaluated in a process pool with deterministic, grid-ordered output.
Threshold crossings are located by a grid scan plus Brent's method on
either the reproduction number or the small-waning existence condition.
Time-series files are plain CSV (annual prevalence, or cases with
population); fitting minimizes the sum of squared prevalence residuals by
bounded trust-region reflective least squares (Branch, Coleman & Li, SIAM J.
Sci. Comput. 21, 1999) on a finite-difference Jacobian of the residual
vector, so box bounds hold at every trial point.

Sweep points and fit trial points alike change a validated configuration
through :meth:`~waningsim.model.ModelConfig.replace`, which checks only the
substituted fields.  A fit trial point then costs one kernel call
(:func:`simulate_annual_prevalence`): the observation times are the
kernel's targets and the prevalence is read at those rows.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .dfe import basic_reproduction_number
from .dynamics import DEFAULT_MAX_STEPS, IntegrationError, _run_kernel, integrate
from .endemic import NoEndemicEquilibriumError, existence_margin, refine_endemic, sign_change_brackets
from .model import ConfigError, ModelConfig, config_to_dict, epidemic_start
from .stability import dfe_spectrum

__all__ = [
    "SWEEP_PARAMETERS",
    "SWEEP_OBSERVABLES",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "substitute_parameter",
    "sweep",
    "find_bifurcation",
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
BIFURCATION_XTOL = 1e-8


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


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep description."""

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


def _evaluate_point(args) -> SweepPoint:
    base, parameter, value, observable, t_end = args
    try:
        cfg = substitute_parameter(base, parameter, value)
    except ConfigError as exc:
        return SweepPoint(value=value, observable=float("nan"), classification="error", error=str(exc))
    try:
        r0 = basic_reproduction_number(cfg)
        classification = _CLASSIFICATION[r0.regime]
        if observable == "r0":
            obs = r0.r0
        elif observable == "max_real_part":
            obs = dfe_spectrum(cfg, r0.dfe).max_real_part
        elif observable == "endemic_I":
            try:
                obs = refine_endemic(cfg).i_star
            except NoEndemicEquilibriumError:
                obs = float("nan")
        elif observable == "terminal_prevalence":
            traj = integrate(cfg, epidemic_start(cfg), t_end, stop_at_equilibrium=True)
            obs = traj.final_prevalence
        else:  # unreachable; SweepSpec validates
            raise ConfigError(observable)
        return SweepPoint(value=value, observable=float(obs), classification=classification)
    except Exception as exc:  # per-point failures are recorded, not raised
        return SweepPoint(value=value, observable=float("nan"), classification="error", error=str(exc))


def sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the observable over the grid.

    Points run independently; with ``jobs > 1`` they are distributed over a
    process pool with output order fixed by the grid, so results are
    deterministic either way.  Per-point configuration violations are
    recorded in the result rather than aborting the sweep.

    Raises:
        ConfigError: for ``jobs < 1``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    tasks = [
        (spec.base_config, spec.parameter, float(v), spec.observable, spec.t_end)
        for v in spec.grid
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_evaluate_point, tasks))
    else:
        points = [_evaluate_point(t) for t in tasks]
    return SweepResult(parameter=spec.parameter, observable=spec.observable, points=tuple(points))


def find_bifurcation(spec: SweepSpec, criterion: str = "r0") -> float:
    """Locate a threshold crossing of the swept parameter.

    ``criterion="r0"`` solves ``R0 - 1 = 0``; ``criterion="existence"``
    solves for a zero of the small-waning endemic existence margin.  The grid
    supplies the bracket (the first grid zero or adjacent sign change);
    Brent's method refines it to within ``BIFURCATION_XTOL`` (absolute, in
    the swept parameter).

    Raises:
        ValueError: if the criterion does not change sign across the grid.
    """
    if criterion == "r0":
        def f(value: float) -> float:
            return basic_reproduction_number(substitute_parameter(spec.base_config, spec.parameter, value)).r0 - 1.0
    elif criterion == "existence":
        def f(value: float) -> float:
            return existence_margin(substitute_parameter(spec.base_config, spec.parameter, value))
    else:
        raise ValueError(f"unknown bifurcation criterion {criterion!r}")

    brackets = sign_change_brackets(spec.grid, [f(v) for v in spec.grid])
    if not brackets:
        raise ValueError(f"no sign change of criterion {criterion!r} across the grid")
    lo, hi = brackets[0]
    return lo if lo == hi else scipy.optimize.brentq(f, lo, hi, xtol=BIFURCATION_XTOL)


class TimeSeriesError(ValueError):
    """Malformed or inconsistent time-series input."""


@dataclass(frozen=True)
class TimeSeries:
    """Annual observed prevalence proportions."""

    years: np.ndarray
    prevalence: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "years", np.asarray(self.years, dtype=int))
        object.__setattr__(self, "prevalence", np.asarray(self.prevalence, dtype=float))
        if self.years.size != self.prevalence.size or self.years.size == 0:
            raise TimeSeriesError("years and prevalence must be matching non-empty vectors")
        if np.any(np.diff(self.years) <= 0):
            raise TimeSeriesError("years must be strictly increasing")
        if np.any(self.prevalence < 0) or np.any(self.prevalence > 1):
            raise TimeSeriesError("prevalence must lie in [0, 1]")


def ingest_timeseries(source) -> TimeSeries:
    """Read annual prevalence from CSV.

    Accepts a path, an open text file, or a CSV string.  Header must be
    ``year,prevalence`` or ``year,cases,population`` (prevalence is then
    ``cases / population``).  Lines starting with ``#`` are comments.
    Malformed rows report their line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif "\n" in str(source):
        text = str(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()

    rows = []
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in next(csv.reader([line]))]
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
        if len(header) == 3:
            cases, population = numbers
            if population <= 0:
                raise TimeSeriesError(f"line {lineno}: population must be positive")
            value = cases / population
        else:
            value = numbers[0]
        if not 0.0 <= value <= 1.0:
            raise TimeSeriesError(f"line {lineno}: prevalence {value!r} outside [0, 1]")
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
# relative stopping tests (cost change, step length); SciPy's gradient test
# is off, as it is absolute in residual units and stops small-prevalence fits
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


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit`.

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
        return {
            "parameters": {k: float(v) for k, v in self.parameters.items()},
            "config": config_to_dict(self.fitted_config),
            "sse": self.sse,
            "residuals": self.residuals.tolist(),
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
        ValueError: when the years do not increase strictly from after
            ``start_year``, or ``i0`` lies outside ``[0, 1]``.
        IntegrationError: when the kernel fails.
    """
    t_obs = np.asarray(years, dtype=int) - start_year + YEAR_END_OFFSET
    if t_obs.ndim != 1 or not t_obs.size or t_obs[0] <= 0 or (t_obs[1:] <= t_obs[:-1]).any():
        raise ValueError("observation years must increase strictly and come after the simulation start")
    if not 0.0 <= i0 <= 1.0:  # the start state's own check, false for NaN as well
        raise ValueError("state components must be non-negative, not NaN")
    y0 = np.zeros(config.n + 2)
    y0[-2] = 1.0 - i0
    y0[-1] = i0
    times, states, *_ = _run_kernel(config, y0, rtol, atol, t_obs, DEFAULT_MAX_STEPS, False)
    return states[times.searchsorted(t_obs), -1]


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

    Raises:
        ConfigError: when the start point itself fails to integrate or to
            form a valid configuration.
    """
    opts = options or FitOptions()
    names = list(free_parameters)
    if not names:
        raise ConfigError("free_parameters must not be empty")
    box = _bounds_for(config_template, names)
    if bounds:
        box = [tuple(bounds.get(name, b)) for name, b in zip(names, box)]
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    start_year = opts.start_year if opts.start_year is not None else int(timeseries.years[0]) - 1

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
    blind = False  # the latest Jacobian has a column built from ``failed``
    blind_step = False  # the latest trial point was stepped to from such a Jacobian

    def residual_vector(x: np.ndarray) -> np.ndarray:
        nonlocal evaluations, failed_evaluations
        key = x.tobytes()
        if key in seen:
            return seen[key]
        evaluations += 1
        try:
            f = residuals_at(x)
        except (IntegrationError, ConfigError) as exc:
            # least_squares evaluates the start point first and then accepts
            # only steps that lower the cost, which a failed point never does
            if evaluations == 1:
                raise ConfigError(f"fit start point cannot be evaluated: {exc}") from exc
            failed_evaluations += 1
            f = failed
        seen[key] = f
        return f

    def trial_vector(x: np.ndarray) -> np.ndarray:
        # least_squares checks its stopping tests right after a trial point
        nonlocal blind_step
        blind_step = blind
        return residual_vector(x)

    def jacobian(x: np.ndarray) -> np.ndarray:
        # SciPy's "2-point" differences in its column-major layout, so the
        # search is the same bit for bit, except that a neighbour that fails
        # gives way to the one on the other side
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
        result = scipy.optimize.least_squares(
            trial_vector,
            x0 if best is None else best.x,
            jac=jacobian,
            bounds=(lo, hi),
            method="trf",
            x_scale="jac",
            ftol=FIT_FTOL,
            xtol=FIT_XTOL,
            gtol=None,
            max_nfev=opts.max_iterations,
        )
        converged = converged or (result.status > 0 and not blind_step)
        if best is not None and result.cost >= best.cost:
            break
        best = result

    fitted_config, _ = _apply_parameters(config_template, names, best.x, opts.initial_prevalence)
    return FitResult(
        fitted_config=fitted_config,
        parameters=dict(zip(names, (float(v) for v in best.x))),
        sse=float(best.fun @ best.fun),
        residuals=best.fun,
        converged=converged,
        evaluations=evaluations,
        failed_evaluations=failed_evaluations,
    )
