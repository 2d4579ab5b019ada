"""Configuration builders, state validation, and the ODE right-hand side."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pickle
import subprocess
import sys

import numpy as np
import pytest

from waningsim import model
from waningsim.data import pertussis_config
from waningsim.dfe import _profile_terms, _steady_profile, solve_dfe_closed_form, tier_weights
from waningsim.dynamics import integrate
from waningsim.endemic import _equilibrium_condition, refine_endemic, solve_susceptible_block
from waningsim.model import (
    ConfigError,
    _tier_outflow,
    StateVector,
    build_all_but_last,
    build_general,
    build_last_only,
    config_from_dict,
    config_digest,
    config_from_json,
    config_to_dict,
    config_to_json,
    diagonal_coefficients,
    epidemic_start,
    vector_field,
)
from waningsim.scanfit import FitResult, SweepSpec, TimeSeries
from waningsim.stability import dfe_spectrum

from conftest import child_env, random_config, random_simplex_state


class TestBuilders:
    def test_pertussis_style_config_is_valid(self):
        cfg = build_general(2, (9.0, 165.1, 260.0), 0.2, 0.02, 17.0, 20.0, (0, 0.2, 0.62))
        assert cfg.n == 2
        assert cfg.beta_strictly_increasing
        np.testing.assert_allclose(cfg.omega_i, [0.0, 4.0, 12.4])
        np.testing.assert_allclose(cfg.delta_i, [0.2, 0.16, 0.0])

    def test_degenerate_equal_beta_allowed_but_flagged(self):
        cfg = build_general(1, (1.0, 1.0), 0.0, 1.0, 1.0, 0.0, (0.0, 0.0))
        assert not cfg.beta_strictly_increasing

    def test_non_monotone_beta_rejected(self):
        with pytest.raises(ConfigError, match="non-decreasing"):
            build_general(2, (2.0, 1.0, 3.0), 0.1, 0.1, 1.0, 0.0, (0, 0, 0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=(1.0, 2.0, 3.0)),  # wrong length for n=1
            dict(mu=0.0),
            dict(mu=-0.5),
            dict(r=0.0),
            dict(delta=-1.0),
            dict(omega=-2.0),
            dict(p=(0.0, 1.5)),
            dict(p=(0.2, 0.3)),  # p[0] must be 0
            dict(beta=(math.nan, 2.0)),
            dict(beta=(1.0, math.inf)),
            dict(beta=(-1.0, 2.0)),
            dict(p=(0.0, math.nan)),
            dict(p=(0.0, -0.5)),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(n=1, beta=(1.0, 2.0), delta=0.1, mu=0.1, r=1.0, omega=1.0, p=(0.0, 0.5))
        base.update(kwargs)
        with pytest.raises(ConfigError):
            build_general(**base)

    def test_birth_rate_below_the_smallest_normal_rejected(self):
        # 1/|d_0| = 1/mu would overflow in the tier weights
        base = dict(n=1, beta=(0.0, 2.0), delta=0.0, r=1.0, omega=1.0, p=(0.0, 0.5))
        message = "mu must be finite and >= 2.2250738585072014e-308, got 5e-324"
        with pytest.raises(ConfigError, match=message):
            build_general(mu=5e-324, **base)
        cfg = build_general(mu=0.1, **base)
        with pytest.raises(ConfigError, match=message):
            cfg.replace(mu=5e-324)
        # at the smallest normal mu every tier weight is at most 1/mu, finite
        smallest = cfg.replace(mu=sys.float_info.min)
        assert smallest.mu == build_general(mu=sys.float_info.min, **base).mu
        _, w = tier_weights(smallest)
        assert np.isfinite(w).all() and w.max() <= 1.0 / sys.float_info.min

    def test_overflowing_outflow_rejected(self):
        # delta + omega + mu + beta_n bounds every tier's outflow at x <= 1
        base = dict(n=1, beta=(1.5e308, 1.5e308), mu=1.0, r=1.0, omega=1.0, p=(0.0, 0.5))
        message = r"delta \+ omega \+ mu \+ beta_n must be finite, got 1e\+308 \+ 1.0 \+ 1.0 \+ 1.5e\+308"
        with pytest.raises(ConfigError, match=message):
            build_general(delta=1e308, **base)
        cfg = build_general(delta=1.0, **base)
        with pytest.raises(ConfigError, match=message):
            cfg.replace(delta=1e308)
        with pytest.raises(ConfigError, match="beta_n must be finite"):
            cfg.replace(beta=(1.0, 1.7e308), omega=1e308)
        assert cfg.replace(delta=1e307).delta == 1e307  # the sum, 1.6e308, is still a double

    def test_all_but_last_sets_both_endpoints_to_zero(self):
        cfg = build_all_but_last(2, (0.0, 1.0, 2.0), 0.1, 0.1, 1.0, 5.0, (0.5,))
        np.testing.assert_array_equal(cfg.p, [0.0, 0.5, 0.0])
        cfg = build_all_but_last(3, (0, 1, 2, 3), 0.1, 0.1, 1.0, 5.0, (0.1, 0.9))
        np.testing.assert_array_equal(cfg.p, [0.0, 0.1, 0.9, 0.0])
        cfg = build_all_but_last(1, (0.0, 1.0), 0.1, 0.1, 1.0, 5.0, ())
        np.testing.assert_array_equal(cfg.p, [0.0, 0.0])

    def test_last_only_coverage_vector(self):
        cfg = build_last_only(2, (0.0, 1.0, 2.0), 0.1, 0.1, 1.0, 5.0, 0.62)
        np.testing.assert_array_equal(cfg.p, [0.0, 0.0, 0.62])
        cfg = build_last_only(4, (0, 1, 2, 3, 4), 0.1, 0.1, 1.0, 5.0, 1.0)
        np.testing.assert_array_equal(cfg.p, [0, 0, 0, 0, 1.0])

    def test_last_only_zero_coverage_matches_unvaccinated_dynamics(self):
        rng = np.random.default_rng(7)
        a = build_last_only(2, (0.0, 1.0, 2.0), 0.1, 0.1, 1.0, 5.0, 0.0)
        b = build_general(2, (0.0, 1.0, 2.0), 0.1, 0.1, 1.0, 0.0, (0, 0, 0))
        y = random_simplex_state(rng, 2)
        np.testing.assert_array_equal(vector_field(a, y), vector_field(b, y))

    def test_special_case_builders_agree_with_general_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            beta = np.sort(rng.uniform(0, 5, n + 1))
            args = (n, beta, 0.3, 0.05, 2.0, 8.0)
            interior = rng.uniform(0, 1, max(n - 1, 0))
            pn = float(rng.uniform(0, 1))
            via_special = build_all_but_last(*args, interior)
            via_general = build_general(*args, np.concatenate(([0.0], interior, [0.0])))
            y = random_simplex_state(rng, n)
            np.testing.assert_array_equal(vector_field(via_special, y), vector_field(via_general, y))
            p_last = np.zeros(n + 1)
            p_last[n] = pn
            np.testing.assert_array_equal(
                vector_field(build_last_only(*args, pn), y),
                vector_field(build_general(*args, p_last), y),
            )

    def test_config_is_immutable(self):
        cfg = build_general(1, (1.0, 2.0), 0.1, 0.1, 1.0, 1.0, (0.0, 0.5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mu = 2.0
        with pytest.raises(ValueError):
            cfg.beta[0] = 5.0


class TestStateVector:
    def test_valid_state(self):
        st = StateVector(s=np.array([0.3, 0.5]), i=0.2)
        assert st.as_array().tolist() == [0.3, 0.5, 0.2]

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            StateVector(s=np.array([0.3, 0.5]), i=0.3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StateVector(s=np.array([-0.1, 0.9]), i=0.2)

    @pytest.mark.parametrize("s, i", [([0.5, math.nan], 0.5), ([0.5, 0.5], math.nan)])
    def test_nan_rejected(self, s, i):
        with pytest.raises(ValueError, match="not NaN"):
            StateVector(s=np.array(s), i=i)

    def test_within_tolerance_accepted(self):
        StateVector(s=np.array([0.3, 0.5 + 5e-10]), i=0.2)

    def test_explicit_normalization(self):
        st = StateVector.from_array(np.array([0.2, 0.3, 0.5 + 8e-10])).normalized()
        assert math.fsum(st.as_array().tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_epidemic_start(self):
        cfg = build_general(2, (0.0, 1.0, 2.0), 0.1, 0.1, 1.0, 0.0, (0, 0, 0))
        st = epidemic_start(cfg, 1e-6)
        assert st.i == 1e-6
        assert st.s[-1] == 1 - 1e-6
        assert st.s[0] == 0.0


class TestVectorField:
    def test_dfe_is_stationary_when_last_tier_uncovered(self):
        cfg = build_all_but_last(3, (0.0, 0.5, 1.0, 2.0), 0.3, 0.05, 2.0, 8.0, (0.4, 0.9))
        y = np.zeros(cfg.n + 2)
        y[cfg.n] = 1.0
        np.testing.assert_array_equal(vector_field(cfg, y), np.zeros(cfg.n + 2))

    def test_classic_sir_reduction(self):
        # n=1, beta=(0, b), delta=0, omega=0: the infectious line is I*(b*S_1 - r - mu)
        b, r, mu = 2.5, 0.7, 0.1
        cfg = build_general(1, (0.0, b), 0.0, mu, r, 0.0, (0.0, 0.0))
        s1, i = 0.6, 0.25
        y = np.array([1 - s1 - i, s1, i])
        out = vector_field(cfg, y)
        assert out[2] == pytest.approx(i * (b * s1 - r - mu), rel=1e-15)
        assert out[1] == pytest.approx(mu - b * i * s1 - mu * s1, rel=1e-15)
        assert out[0] == pytest.approx(r * i - mu * y[0], rel=1e-15)

    def test_conservation_on_random_states(self, pertussis):
        rng = np.random.default_rng(3)
        configs = [pertussis] + [
            random_config(rng, n_range=(1, 8), rate_low=1e-3, rate_high=20.0) for _ in range(40)
        ]
        for cfg in configs:
            for _ in range(5):
                y = random_simplex_state(rng, cfg.n)
                out = vector_field(cfg, y)
                residual = abs(math.fsum(out.tolist()))
                assert residual <= 1e-14 * max(1.0, np.abs(out).max())

    def test_infection_free_reduction_term_by_term(self):
        # with all coverages zero and I=0 the susceptible block must follow the
        # pure waning chain; compare against an independently coded oracle
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            beta = np.sort(rng.uniform(0, 10, n + 1))
            delta, mu = rng.uniform(0.01, 3), rng.uniform(0.01, 2)
            cfg = build_general(n, beta, delta, mu, 1.3, 0.0, np.zeros(n + 1))
            s = rng.uniform(0, 1, n + 1)
            s /= s.sum()
            y = np.concatenate([s, [0.0]])

            expected = np.empty(n + 1)
            expected[0] = -delta * s[0] - mu * s[0]
            for k in range(1, n):
                expected[k] = delta * (s[k - 1] - s[k]) - mu * s[k]
            expected[n] = mu + delta * s[n - 1] - mu * s[n]

            out = vector_field(cfg, y)
            np.testing.assert_allclose(out[:-1], expected, rtol=1e-14, atol=1e-16)
            assert out[-1] == 0.0

    def test_dimension_mismatch(self):
        cfg = build_general(2, (0.0, 1.0, 2.0), 0.1, 0.1, 1.0, 0.0, (0, 0, 0))
        with pytest.raises(ValueError, match="length"):
            vector_field(cfg, np.array([0.5, 0.5]))


# the equation layer's functions of one prevalence
ONE_PREVALENCE = [diagonal_coefficients, tier_weights, solve_susceptible_block, _tier_outflow, _profile_terms,
                  _steady_profile, _equilibrium_condition]


def flat(result) -> np.ndarray:
    """A result of one of ``ONE_PREVALENCE``, its parts joined in one vector."""
    return np.hstack(result if isinstance(result, tuple) else [result])


class TestDiagonalCoefficients:
    def test_interior_and_endpoint_values_at_zero_prevalence(self):
        cfg = build_general(2, (9.0, 165.1, 260.0), 0.2, 0.02, 17.0, 20.0, (0, 0.2, 0.62))
        d = diagonal_coefficients(cfg, 0.0)
        assert d[0] == pytest.approx(-(0.2 + 0.02), rel=1e-15)
        assert d[1] == pytest.approx(-(0.16 + 4.0 + 0.02), rel=1e-15)
        assert d[2] == pytest.approx(-(12.4 + 0.02), rel=1e-15)

    def test_against_scalar_recomputation(self, pertussis):
        # second, naively coded formula path
        cfg, prevalence = pertussis, 0.1
        d = diagonal_coefficients(cfg, prevalence)
        for k in range(cfg.n + 1):
            delta_k = 0.0 if k == cfg.n else (1.0 - cfg.p[k]) * cfg.delta
            omega_k = cfg.p[k] * cfg.omega
            expected = -(delta_k + omega_k + cfg.mu + cfg.beta[k] * prevalence)
            assert d[k] == pytest.approx(expected, rel=1e-15)

    def test_strictly_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cfg = random_config(rng)
            assert np.all(diagonal_coefficients(cfg, float(rng.uniform(0, 1))) < 0)

    def test_negative_prevalence_rejected(self, pertussis):
        with pytest.raises(ValueError):
            diagonal_coefficients(pertussis, -0.1)

    @pytest.mark.parametrize("function", [diagonal_coefficients, tier_weights, solve_susceptible_block])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_bad_prevalence_named(self, pertussis, function, bad):
        for prevalence in (bad, np.float64(bad)):
            with pytest.raises(ValueError, match=f"prevalence must be finite and >= 0, got .*{bad}"):
                function(pertussis, prevalence)

    @pytest.mark.parametrize("function", ONE_PREVALENCE)
    def test_array_prevalence_rejected(self, pertussis, function):
        # one prevalence per call, also where an array holds one number
        for prevalence in (np.array([0.5, 0.25]), np.array([0.5]), [[0.25]]):
            with pytest.raises(TypeError, match=r"prevalence must be one number, got an array of shape \("):
                function(pertussis, prevalence)

    @pytest.mark.parametrize("function", ONE_PREVALENCE)
    def test_strings_bytes_and_bools_rejected(self, pertussis, function):
        # float() would read each of these as a prevalence
        for prevalence in ("0.5", " 1e-3 ", b"0.5", True, np.True_):
            with pytest.raises(TypeError, match=f"prevalence must be a number, not {type(prevalence).__name__}$"):
                function(pertussis, prevalence)

    @pytest.mark.parametrize("function", ONE_PREVALENCE)
    def test_zero_of_either_sign_accepted(self, pertussis, function):
        at_zero = flat(function(pertussis, 0.0))
        assert np.isfinite(at_zero).all()
        for zero in (-0.0, np.float64(-0.0), np.array(-0.0), 0, np.float64(0.0), np.array(0.0)):
            assert np.array_equal(flat(function(pertussis, zero)), at_zero)


class TestConfigJson:
    def test_round_trip(self, pertussis):
        text = config_to_json(pertussis)
        back = config_from_json(text)
        assert config_to_dict(back) == config_to_dict(pertussis)

    def test_unknown_key_rejected(self, pertussis):
        data = config_to_dict(pertussis)
        data["betas"] = data.pop("beta")
        with pytest.raises(ConfigError, match="unknown config keys: betas"):
            config_from_dict(data)

    def test_missing_key_rejected(self, pertussis):
        data = config_to_dict(pertussis)
        del data["mu"]
        with pytest.raises(ConfigError, match="missing config keys: mu"):
            config_from_dict(data)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 1 column"):
            config_from_json("{not json}")

    def test_round_trip_preserves_floats_exactly(self):
        cfg = build_general(1, (0.123456789012345678, 2.0), 0.1, 0.1, 1.0, 1.0, (0.0, 0.5))
        back = config_from_json(config_to_json(cfg))
        assert json.loads(config_to_json(back)) == json.loads(config_to_json(cfg))
        assert back.beta[0] == cfg.beta[0]

    def test_digest_is_computed_once_per_object_and_follows_replace(self, pertussis):
        canonical = json.dumps(config_to_dict(pertussis), sort_keys=True, separators=(",", ":"))
        digest = config_digest(pertussis)
        assert digest == hashlib.sha256(canonical.encode()).hexdigest()
        assert config_digest(pertussis) is digest
        changed = pertussis.replace(mu=2 * pertussis.mu)
        assert config_digest(changed) != digest
        assert config_digest(changed.replace(mu=pertussis.mu)) == digest

    def test_hashing_a_configuration_loads_no_kernel(self):
        # the model layer digests in Python: a configuration of any size put
        # in a set loads neither the compiled kernel nor a compiler process
        script = ("import sys, numpy as np; from waningsim.model import build_general, config_digest; "
                  "cfg = build_general(64, np.linspace(1.0, 2.0, 65), 0.1, 0.02, 1.0, 0.5, np.r_[0.0, np.full(64, 0.5)]); "
                  "{cfg}; config_digest(cfg); "
                  "print(sorted(set(sys.modules) & {'waningsim.stepper', 'subprocess'}))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestConfigEquality:
    """Configurations compare by their ``config_to_dict`` form and hash by
    their digest; the derived rates and prepared vectors take no part."""

    def test_equal_copies(self, pertussis):
        copy = pertussis_config()
        assert copy is not pertussis and copy == pertussis and hash(copy) == hash(pertussis)
        assert not copy != pertussis
        assert config_from_json(config_to_json(pertussis)) == pertussis

    def test_pickled_copy(self, pertussis):
        tier_weights(pertussis, 0.5)  # prepared vectors and the digest travel with the object
        copy = pickle.loads(pickle.dumps(pertussis))
        assert copy == pertussis and hash(copy) == hash(pertussis)

    def test_replaced_copy_differs_and_replacing_back_is_equal(self, pertussis):
        changed = pertussis.replace(mu=2 * pertussis.mu)
        assert changed != pertussis and hash(changed) != hash(pertussis)
        assert changed.replace(mu=pertussis.mu) == pertussis

    def test_prepared_vectors_take_no_part(self, pertussis):
        fresh = pertussis_config()
        tier_weights(pertussis, 0.5)
        assert "_outflow" in vars(pertussis) and "_outflow" not in vars(fresh)
        assert fresh == pertussis and pertussis == fresh

    def test_dict_key(self, pertussis):
        table = {pertussis: "pertussis", pertussis.replace(delta=0.5): "waning"}
        assert table[pertussis_config()] == "pertussis"
        assert table[pertussis_config().replace(delta=0.5)] == "waning"
        assert len({pertussis, pertussis_config(), pickle.loads(pickle.dumps(pertussis))}) == 1

    def test_negative_zero_is_stored_as_zero(self):
        a = build_general(1, (0.0, 2.0), 0.0, 0.1, 1.0, 0.0, (0.0, 0.0))
        b = build_general(1, (-0.0, 2.0), -0.0, 0.1, 1.0, -0.0, (-0.0, -0.0))
        assert a == b and hash(a) == hash(b) and config_digest(a) == config_digest(b)
        assert a.replace(delta=-0.0, beta=(-0.0, 2.0)) == a
        for value in (b.delta, b.omega, b.beta[0], *b.p, *b.omega_i, *b.delta_i):
            assert math.copysign(1.0, value) == 1.0

    def test_other_types_are_not_equal(self, pertussis):
        assert pertussis != config_to_dict(pertussis)
        assert pertussis != None  # noqa: E711

    def test_trajectories_compare_by_identity(self, pertussis):
        one = integrate(pertussis, epidemic_start(pertussis), 1.0)
        assert one == one and one != integrate(pertussis, epidemic_start(pertussis), 1.0)
        assert hash(one) == hash(one)

    @pytest.mark.parametrize("make", [
        lambda cfg: solve_dfe_closed_form(cfg),
        lambda cfg: refine_endemic(cfg.replace(delta=0.25)),
        lambda cfg: epidemic_start(cfg, 1e-4),
        lambda cfg: SweepSpec(cfg, "delta", [0.1, 0.2], "r0"),
        lambda cfg: TimeSeries(years=[2000, 2001], prevalence=[0.1, 0.2]),
        lambda cfg: FitResult(cfg, {"omega": 1.0}, 0.5, np.array([0.5, -0.5]), True, 3, 0),
        lambda cfg: dfe_spectrum(cfg, solve_dfe_closed_form(cfg)),
    ], ids=["DfeSolution", "EndemicSolution", "StateVector", "SweepSpec", "TimeSeries", "FitResult",
            "StabilityVerdict"])
    def test_records_with_array_fields_compare_by_identity(self, pertussis, make):
        # the generated __eq__ compared the arrays as tuple members and raised
        one, copy = make(pertussis), make(pertussis_config())
        assert one == one and one != copy and not one == copy
        assert hash(one) == hash(one) and len({one, copy}) == 2


def _assert_same_config(a, b):
    """Every field and derived array of ``a`` equals ``b``'s bit for bit."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
            assert not x.flags.writeable, f.name
        else:
            assert type(x) is type(y) and x == y, f.name


def _rebuilt(cfg, changes):
    fields = {key: getattr(cfg, key) for key in ("n", "beta", "delta", "mu", "r", "omega", "p")}
    return build_general(**{**fields, **changes})


class TestReplace:
    """``replace`` validates only what it substitutes, yet agrees with a full rebuild."""

    def test_random_substitutions_equal_build_general(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            cfg = random_config(rng, n_range=(1, 6))
            other = random_config(rng, n_range=(cfg.n, cfg.n))
            names = [k for k in ("beta", "delta", "mu", "r", "omega", "p") if rng.random() < 0.4]
            changes = {k: getattr(other, k) for k in names}
            if "beta" in changes and rng.random() < 0.5:
                changes["beta"] = cfg.beta * rng.uniform(0.05, 20.0)  # the fit's beta_scale
            if "p" in changes and rng.random() < 0.5:
                changes["p"] = list(changes["p"])  # any sequence, as for build_general
            _assert_same_config(cfg.replace(**changes), _rebuilt(cfg, changes))

    def test_new_n_rebuilds(self):
        cfg = build_general(1, (1.0, 2.0), 0.1, 0.1, 1.0, 1.0, (0.0, 0.5))
        changes = dict(n=2, beta=(1.0, 2.0, 3.0), p=(0.0, 0.2, 0.4))
        _assert_same_config(cfg.replace(**changes), _rebuilt(cfg, changes))

    def test_unchanged_arrays_are_shared(self, pertussis):
        rates = pertussis.replace(mu=0.5, r=3.0)
        assert all(getattr(rates, k) is getattr(pertussis, k) for k in ("beta", "p", "omega_i", "delta_i"))
        waning = pertussis.replace(delta=0.3)
        assert waning.omega_i is pertussis.omega_i and waning.delta_i is not pertussis.delta_i
        vaccination = pertussis.replace(omega=3.0)
        assert vaccination.delta_i is pertussis.delta_i and vaccination.omega_i is not pertussis.omega_i
        assert pertussis.replace(beta=pertussis.beta * 2.0).p is pertussis.p

    def test_substituted_arrays_are_private_copies(self, pertussis):
        beta = pertussis.beta * 2.0
        cfg = pertussis.replace(beta=beta)
        beta[0] = 1e6
        assert cfg.beta[0] == 2.0 * pertussis.beta[0]
        assert beta.flags.writeable

    @pytest.mark.parametrize(
        "changes",
        [
            dict(beta=(1.0, 2.0)),
            dict(beta=(2.0, 1.0, 3.0)),
            dict(beta=(math.nan, 2.0, 3.0)),
            dict(beta=(1.0, math.nan, 3.0)),
            dict(beta=(1.0, 2.0, math.inf)),
            dict(beta=(-1.0, 2.0, 3.0)),
            dict(beta=(1.0, math.nan, 0.5)),
            dict(p=(0.0, 0.5)),
            dict(p=(0.0, 1.5, 0.2)),
            dict(p=(0.0, math.nan, 0.2)),
            dict(p=(0.1, 0.2, 0.3)),
            dict(delta=-1.0),
            dict(delta=math.inf),
            dict(mu=0.0),
            dict(mu=math.nan),
            dict(r=0.0),
            dict(omega=-2.0),
            dict(omega=math.nan),
            dict(beta=(2.0, 1.0, 3.0), p=(0.0, 0.5)),  # the first fault in build_general's order is reported
            dict(mu=0.0, p=(0.0, 1.5, 0.2)),
            dict(beta=(2.0, 1.0, 3.0), omega=-1.0),
        ],
    )
    def test_invalid_substitution_raises_build_generals_message(self, changes):
        cfg = build_general(2, (1.0, 2.0, 3.0), 0.1, 0.1, 1.0, 1.0, (0.0, 0.2, 0.5))
        with pytest.raises(ConfigError) as rebuilt:
            _rebuilt(cfg, changes)
        with pytest.raises(ConfigError) as replaced:
            cfg.replace(**changes)
        assert str(replaced.value) == str(rebuilt.value)

    def test_unknown_field_rejected(self, pertussis):
        with pytest.raises(TypeError, match="omega_i"):
            pertussis.replace(omega_i=np.zeros(3))
