"""Model family for tiered waning immunity with booster vaccination.

The population is split into susceptible compartments ``S_0 .. S_n`` ordered
from most to least immune, plus an infectious compartment ``I``.  Immunity
erodes along the chain at rate ``delta``, vaccination returns covered
individuals to ``S_0`` at rate ``omega``, and each tier has its own
transmission rate ``beta[k]``.  All rates are per year; states are
population proportions on the unit simplex.

This module owns the parametrization (:class:`ModelConfig`), the state type
(:class:`StateVector`), the ODE right-hand side (:func:`vector_field`), and
strict JSON (de)serialization of configurations.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ._stepper_py import _rhs

__all__ = [
    "ConfigError",
    "ModelConfig",
    "StateVector",
    "build_general",
    "build_all_but_last",
    "build_last_only",
    "vector_field",
    "diagonal_coefficients",
    "unit_rates",
    "epidemic_start",
    "config_to_dict",
    "config_from_dict",
    "json_number",
    "config_to_json",
    "config_from_json",
    "load_config",
]

SIMPLEX_TOL = 1e-9

CONFIG_KEYS = ("n", "beta", "delta", "mu", "r", "omega", "p")


class ConfigError(ValueError):
    """Raised when a model configuration violates a structural constraint."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ModelConfig:
    """Validated parametrization of the waning-immunity model.

    Attributes:
        n: index of the least-immune compartment (``n + 1`` susceptible tiers).
        beta: transmission rates per tier, non-decreasing, length ``n + 1``.
        delta: waning rate (1/years).
        mu: birth/death rate, at least the smallest normal double.
        r: recovery rate, strictly positive.
        omega: vaccination rate applied to covered compartments.
        p: coverage fractions per tier, ``p[0] == 0``.
        omega_i: derived per-tier return rates ``p[k] * omega``.
        delta_i: derived per-tier waning outflow ``(1 - p[k]) * delta``;
            the last entry is stored as 0 since no compartment follows ``S_n``.

    Instances are immutable (arrays are read-only views) and safe to share
    across worker processes and threads.
    """

    n: int
    beta: np.ndarray
    delta: float
    mu: float
    r: float
    omega: float
    p: np.ndarray
    omega_i: np.ndarray = field(repr=False, default=None)
    delta_i: np.ndarray = field(repr=False, default=None)

    @property
    def beta_strictly_increasing(self) -> bool:
        """True when ``beta[0] < beta[n]``, the premise behind the strict
        monotonicity statements; equal endpoints are allowed but flagged."""
        return float(self.beta[0]) < float(self.beta[-1])

    @property
    def omega_n(self) -> float:
        return float(self.omega_i[-1])

    @cached_property
    def _digest(self) -> str:
        """:func:`config_digest`, computed once per object, whose fields never
        change."""
        canonical = json.dumps(config_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @cached_property
    def _outflow(self) -> np.ndarray:
        """Per-tier outflow at prevalence 0, ``delta_i + omega_i + mu``, summed
        in that order, to which :func:`_tier_outflow` adds ``beta_i x``.  Like
        :attr:`_chain`, built on first use, so that a configuration that never
        meets the equation layer (a fit's trial point) never builds it."""
        return _frozen(self.delta_i + self.omega_i + self.mu)

    @cached_property
    def _chain(self) -> np.ndarray:
        """Numerators ``(1, delta_0, ..., delta_{n-1})`` of the prefix product
        in :func:`waningsim.dfe.tier_weights`."""
        return _frozen(np.concatenate(([1.0], self.delta_i[:-1])))

    @cached_property
    def _profile0(self) -> tuple[float, np.ndarray, float, float]:
        """:func:`waningsim.dfe._profile_terms` at prevalence 0, ``(|d_n|, w,
        sum(w), beta . w)`` with the prefix product ``w`` read-only, formed
        once per configuration for R0, the existence test and the root
        search.  At prevalence 0 the outflow is :attr:`_outflow` itself, bit
        for bit (``beta_i 0`` is 0.0, and adding 0.0 changes no positive sum)."""
        ad_n, w, total, beta_dot_w = _profile_terms_of(self, self._outflow)
        return ad_n, _frozen(w), total, beta_dot_w

    @cached_property
    def _unit_rates(self) -> tuple[int, tuple[float, ...]]:
        """:func:`unit_rates`, computed once per object."""
        rates = (float(self.beta[0]), float(self.beta[-1]), self.mu, self.r, self.omega_n, self.delta)
        k = -math.frexp(max(rates))[1]
        return k, tuple(math.ldexp(v, k) for v in rates)

    def __eq__(self, other) -> bool:
        """Configurations are equal when their :func:`config_to_dict` forms
        are; the derived rates and vectors take no part."""
        if not isinstance(other, ModelConfig):
            return NotImplemented
        return self is other or config_to_dict(self) == config_to_dict(other)

    def __hash__(self) -> int:
        # equal configurations have equal canonical JSON, as validation stores
        # a zero as 0.0, never -0.0
        return hash(self._digest)

    def replace(self, **changes) -> "ModelConfig":
        """Return a copy with the given fields substituted.

        Only the substituted fields are validated, by the checks of
        :func:`build_general` with its messages; only the derived rates that
        depend on them are recomputed, and unchanged arrays are shared.  A
        new ``n`` reshapes every array, so it rebuilds the configuration.
        """
        unknown = set(changes).difference(CONFIG_KEYS)
        if unknown:
            raise TypeError(f"replace() got unexpected fields: {', '.join(sorted(unknown))}")
        if "n" in changes:
            return build_general(**{key: changes.get(key, getattr(self, key)) for key in CONFIG_KEYS})
        fields = _validated(self.n, changes)
        p = fields.get("p", self.p)
        omega = fields.get("omega", self.omega)
        delta = fields.get("delta", self.delta)
        _check_outflow(delta, omega, fields.get("mu", self.mu), fields.get("beta", self.beta)[-1])
        omega_i = _omega_i(p, omega) if "p" in fields or "omega" in fields else self.omega_i
        delta_i = _delta_i(p, delta) if "p" in fields or "delta" in fields else self.delta_i
        return ModelConfig(
            n=self.n,
            beta=fields.get("beta", self.beta),
            delta=delta,
            mu=fields.get("mu", self.mu),
            r=fields.get("r", self.r),
            omega=omega,
            p=p,
            omega_i=omega_i,
            delta_i=delta_i,
        )


# (name, smallest value, that bound in messages); below the smallest normal
# double, 1/mu can overflow in dfe.tier_weights
_RATES = (("delta", 0.0, ">= 0"), ("mu", sys.float_info.min, f">= {sys.float_info.min!r}"),
          ("r", math.ulp(0.0), "> 0"), ("omega", 0.0, ">= 0"))


def _validated(n: int, fields: dict) -> dict:
    """The given fields of a configuration with ``n + 1`` tiers, checked in
    one fixed order (so the first fault reported never depends on which
    fields are given) and converted: arrays to private read-only float
    copies, rates to floats.  Adding 0.0 stores a zero as 0.0, never -0.0,
    so equal configurations have one canonical JSON form."""
    out = {}
    for name in ("beta", "p"):
        if name in fields:
            try:
                a = np.array(fields[name], dtype=float)
            except OverflowError:  # an integer beyond the double range
                raise ConfigError(f"{name} entries must be finite, got an integer beyond the double range") from None
            if a.shape != (n + 1,):
                raise ConfigError(f"{name} must have length n+1={n + 1}, got shape {a.shape}")
            a += 0.0
            out[name] = a
    beta = out.get("beta")
    # ndarray methods, not np.all/np.any, which cost several microseconds
    # each per trial point of a fit; a NaN fails every comparison, so the
    # first test passes exactly when both checks below would
    if beta is not None:
        if not (beta[0] >= 0 and beta[-1] < math.inf and (beta[1:] >= beta[:-1]).all()):
            if not (np.isfinite(beta) & (beta >= 0)).all():
                raise ConfigError("beta entries must be finite and >= 0")
            raise ConfigError(f"beta must be non-decreasing, got {beta.tolist()}")
        beta.flags.writeable = False
    for name, lowest, bound in _RATES:
        if name in fields:
            value = float(fields[name]) + 0.0
            if not lowest <= value < math.inf:  # a NaN fails too
                raise ConfigError(f"{name} must be finite and {bound}, got {value}")
            out[name] = value
    p = out.get("p")
    if p is not None:
        if not ((p >= 0) & (p <= 1)).all():
            raise ConfigError(f"coverage p must lie in [0, 1], got {p.tolist()}")
        if p[0] != 0.0:
            raise ConfigError(f"p[0] must be 0 (the most-immune tier is never vaccinated), got {p[0]}")
        p.flags.writeable = False
    return out


def _check_outflow(delta: float, omega: float, mu: float, beta_n: float) -> None:
    """Every tier's outflow ``delta_k + omega_k + mu + beta_k x`` at ``x <= 1``
    is at most this sum of validated rates; past the double range the
    equation layer would meet inf and NaN."""
    beta_n = float(beta_n)  # a NumPy scalar would warn on overflow
    if delta + omega + mu + beta_n == math.inf:
        raise ConfigError(f"delta + omega + mu + beta_n must be finite, got {delta!r} + {omega!r} + {mu!r} + "
                          f"{beta_n!r}")


def _omega_i(p: np.ndarray, omega: float) -> np.ndarray:
    omega_i = p * omega
    omega_i.flags.writeable = False
    return omega_i


def _delta_i(p: np.ndarray, delta: float) -> np.ndarray:
    delta_i = (1.0 - p) * delta
    delta_i[-1] = 0.0  # no compartment beyond S_n; stored as 0 for uniform indexing
    delta_i.flags.writeable = False
    return delta_i


def build_general(
    n: int,
    beta: Sequence[float],
    delta: float,
    mu: float,
    r: float,
    omega: float,
    p: Sequence[float],
) -> ModelConfig:
    """Build and validate a configuration for the general coverage scheme.

    Raises:
        ConfigError: on dimension mismatch, negative rates, non-monotone
            ``beta``, coverage outside ``[0, 1]``, nonzero ``p[0]``, or an
            outflow bound ``delta + omega + mu + beta_n`` that overflows.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    checked = _validated(n, {"beta": beta, "p": p, "delta": delta, "mu": mu, "r": r, "omega": omega})
    _check_outflow(checked["delta"], checked["omega"], checked["mu"], checked["beta"][-1])
    return ModelConfig(
        n=n,
        **checked,
        omega_i=_omega_i(checked["p"], checked["omega"]),
        delta_i=_delta_i(checked["p"], checked["delta"]),
    )


def build_all_but_last(
    n: int,
    beta: Sequence[float],
    delta: float,
    mu: float,
    r: float,
    omega: float,
    p_interior: Sequence[float] = (),
) -> ModelConfig:
    """Coverage scheme vaccinating every tier except the least-immune one.

    ``p_interior`` holds coverages for tiers ``1 .. n-1``; both endpoints of
    the full coverage vector are forced to 0.
    """
    p_interior = np.asarray(p_interior, dtype=float)
    if p_interior.shape != (max(n - 1, 0),):
        raise ConfigError(
            f"p_interior must have length n-1={n - 1}, got shape {p_interior.shape}"
        )
    p = np.concatenate(([0.0], p_interior, [0.0]))
    return build_general(n, beta, delta, mu, r, omega, p)


def build_last_only(
    n: int,
    beta: Sequence[float],
    delta: float,
    mu: float,
    r: float,
    omega: float,
    p_n: float,
) -> ModelConfig:
    """Coverage scheme vaccinating only the least-immune tier ``S_n``."""
    p = np.zeros(n + 1)
    p[n] = float(p_n)
    return build_general(n, beta, delta, mu, r, omega, p)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A point ``(S_0, ..., S_n, I)`` on the unit simplex; states compare by
    identity.

    Construction validates non-negativity (NaN fails it) and that the
    components sum to 1 within ``SIMPLEX_TOL``.  Renormalization is never
    silent; call :meth:`normalized` explicitly when needed.
    """

    s: np.ndarray
    i: float

    def __post_init__(self):
        s = _frozen(np.array(self.s, dtype=float))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "i", float(self.i))
        if s.ndim != 1 or s.size < 2:
            raise ValueError(f"s must be a vector of length n+1 >= 2, got shape {s.shape}")
        if not ((s >= 0).all() and self.i >= 0):  # false for NaN as well
            raise ValueError("state components must be non-negative, not NaN")
        total = math.fsum(s.tolist()) + self.i
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"state must sum to 1 within {SIMPLEX_TOL:g}, got {total!r}")

    @classmethod
    def from_array(cls, y: Sequence[float]) -> "StateVector":
        y = np.asarray(y, dtype=float)
        return cls(s=y[:-1], i=float(y[-1]))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.s, [self.i]])

    def normalized(self) -> "StateVector":
        y = self.as_array()
        return StateVector.from_array(y / math.fsum(y.tolist()))


def _require_start_prevalence(i0: float) -> None:
    if not 0.0 <= i0 <= 1.0:  # false for NaN as well
        raise ValueError(f"initial prevalence i0 must lie in [0, 1], so that state components are non-negative, "
                         f"not NaN; got {i0!r}")


def epidemic_start(config: ModelConfig, i0: float = 1e-6) -> StateVector:
    """Default epidemic initial condition: naive population seeded with ``i0``.

    Raises:
        ValueError: if ``i0`` lies outside ``[0, 1]`` or is NaN.
    """
    _require_start_prevalence(i0)
    s = np.zeros(config.n + 1)
    s[-1] = 1.0 - i0
    return StateVector(s=s, i=i0)


def _as_state_array(config: ModelConfig, state) -> np.ndarray:
    y = state.as_array() if isinstance(state, StateVector) else np.asarray(state, dtype=float)
    if y.shape != (config.n + 2,):
        raise ValueError(f"state must have length n+2={config.n + 2}, got shape {y.shape}")
    return y


def vector_field(config: ModelConfig, state) -> np.ndarray:
    """Time derivative of ``(S_0, ..., S_n, I)`` under the model dynamics.

    The component sum of the output is ``mu * (1 - total population)``, which
    vanishes identically on the simplex; the flow conserves total population.
    The arithmetic is the integration kernel's own right-hand side, so the
    two cannot drift apart.

    Args:
        state: a :class:`StateVector` or an array of length ``n + 2``.

    Returns:
        Array of length ``n + 2`` with the derivatives.
    """
    y = _as_state_array(config, state)
    return _rhs(config.beta, config.omega_i, config.delta_i, config.mu, config.r, y, np.empty(config.n + 2))


def unit_rates(config: ModelConfig) -> tuple[int, tuple[float, ...]]:
    """``(k, (beta_0, beta_n, mu, r, omega_n, delta) * 2**k)``, the rates in
    the time unit that puts the largest, ``rho``, into ``[1/2, 1)``.

    The scaling is exact and the same from every power-of-two unit; no
    product of two scaled rates overflows, and one underflows only for rates
    some 300 orders of magnitude apart.  ``k <= 1021`` as ``mu`` is normal.
    Computed once per configuration object, on first use.
    """
    return config._unit_rates


def _tier_outflow(config: ModelConfig, prevalence) -> np.ndarray:
    """Per-tier outflow magnitudes ``delta_i + omega_i + mu + beta_i x`` at
    one prevalence ``x``: a float is kept as it is, which the root search's
    many evaluations rely on, and any other number goes through ``float()``.

    Raises:
        TypeError: for an array of any shape, and for a string, bytes or a
            bool, which ``float()`` would turn into a number.
        ValueError: naming the prevalence, unless it is finite and ``>= 0``
            (-0.0 is 0; NaN fails the comparisons).
    """
    if not isinstance(prevalence, float):
        if isinstance(prevalence, (str, bytes, bool, np.bool_)):
            raise TypeError(f"prevalence must be a number, not {type(prevalence).__name__}")
        if np.ndim(prevalence):
            raise TypeError(f"prevalence must be one number, got an array of shape {np.shape(prevalence)}")
        prevalence = float(prevalence)
    if 0.0 <= prevalence < math.inf:
        return config._outflow + config.beta * prevalence
    raise ValueError(f"prevalence must be finite and >= 0, got {prevalence!r}")


def _profile_terms_of(config: ModelConfig, ad: np.ndarray) -> tuple[float, np.ndarray, float, float]:
    """``(|d_n|, w, sum(w), beta . w)`` for the outflow magnitudes ``ad`` of
    one prevalence, with ``w`` the prefix product of :func:`waningsim.dfe.tier_weights`:
    Python floats and the vector ``w``, which spares the root search NumPy's
    scalar arithmetic."""
    w = (config._chain / ad).cumprod()
    # np.add.reduce is the pairwise sum of w.sum(), without its Python wrapper
    return float(ad[-1]), w, float(np.add.reduce(w)), float(w @ config.beta)


def diagonal_coefficients(config: ModelConfig, prevalence) -> np.ndarray:
    """Per-tier total outflow coefficients ``-(delta_i + omega_i + mu + beta_i * I)``.

    These are the diagonal entries of the susceptible-block matrix at
    infection level ``prevalence``; they are strictly negative since
    ``mu > 0``.

    Raises:
        TypeError: if ``prevalence`` is an array, a string, bytes or a bool.
        ValueError: naming the prevalence, if it is negative, NaN or infinite.
    """
    return -_tier_outflow(config, prevalence)


# -- strict JSON configuration format ---------------------------------------


def config_to_dict(config: ModelConfig) -> dict:
    return {
        "n": config.n,
        "beta": config.beta.tolist(),
        "delta": config.delta,
        "mu": config.mu,
        "r": config.r,
        "omega": config.omega,
        "p": config.p.tolist(),
    }


# the types json.loads gives a number; a bool is not one of them
_JSON_NUMBER_TYPES = frozenset((int, float))


def config_from_dict(data: dict) -> ModelConfig:
    """Parse a configuration mapping, rejecting unknown keys.

    Strictness is deliberate: a typo in a scientific config should fail
    loudly instead of silently falling back to a default.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in CONFIG_KEYS if k not in data]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    for key in ("delta", "mu", "r", "omega"):
        json_number(key, data[key])
    for key in ("beta", "p"):
        values = data[key]
        if not isinstance(values, list):
            raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
        if not _JSON_NUMBER_TYPES.issuperset(map(type, values)):  # each element on its own, for its message
            for k, value in enumerate(values):
                json_number(f"{key}[{k}]", value)
    return build_general(
        n=data["n"],
        beta=data["beta"],
        delta=data["delta"],
        mu=data["mu"],
        r=data["r"],
        omega=data["omega"],
        p=data["p"],
    )


def json_number(name: str, value) -> float:
    """``value`` as a float if it is a JSON number in the double range, else
    a :class:`ConfigError` naming the field ``name``.  A bool or a numeric
    string is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the double range
        raise ConfigError(f"{name} must be finite, got an integer beyond the double range") from None


def config_to_json(config: ModelConfig, indent: int | None = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent)


def config_digest(config: ModelConfig) -> str:
    """sha256 of the canonical (sorted-key, compact) JSON form."""
    return config._digest


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members; a key given twice would silently keep its
    last value, so it is a :class:`ConfigError` naming the key."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ConfigError(f"duplicate key {key!r}")
        members[key] = value
    return members


def _parse_json(text: str):
    """``text`` parsed as the JSON of a config or a sweep spec: a malformed
    document or a repeated key is a :class:`ConfigError`."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def config_from_json(text: str) -> ModelConfig:
    return config_from_dict(_parse_json(text))


def load_config(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(fh.read())
