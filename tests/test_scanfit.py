"""Sweeps, bifurcation location, CSV ingestion, and fit round trips."""

from __future__ import annotations

import io
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from waningsim import scanfit, stepper
from waningsim.dfe import basic_reproduction_number
from waningsim.dynamics import IntegrationError, integrate
from waningsim.model import ConfigError, build_general, build_last_only, config_digest, epidemic_start
from waningsim.scanfit import (
    FitOptions,
    SweepSpec,
    TimeSeries,
    TimeSeriesError,
    fit,
    ingest_timeseries,
    simulate_annual_prevalence,
    substitute_parameter,
    sweep,
)

from oracles import find_bifurcation


BASE = build_general(2, (1.5, 2.0, 4.0), 0.05, 0.3, 1.2, 2.0, (0.0, 0.1, 0.5))


class TestSubstitution:
    def test_each_parameter(self):
        cfg = substitute_parameter(BASE, "beta0", 1.7)
        assert cfg.beta[0] == 1.7
        cfg = substitute_parameter(BASE, "omega", 9.0)
        assert cfg.omega == 9.0
        cfg = substitute_parameter(BASE, "delta", 0.4)
        assert cfg.delta == 0.4
        cfg = substitute_parameter(BASE, "omega_n", 3.0)
        assert cfg.omega_n == pytest.approx(3.0, rel=1e-15)
        cfg = substitute_parameter(BASE, "p_n", 0.9)
        assert cfg.p[-1] == 0.9

    def test_invalid_substitution_raises(self):
        with pytest.raises(ConfigError):
            substitute_parameter(BASE, "beta0", 3.0)  # would break monotonicity
        with pytest.raises(ConfigError):
            substitute_parameter(BASE, "nope", 1.0)

    def test_omega_n_requires_last_tier_coverage(self):
        cfg = build_general(1, (1.0, 2.0), 0.1, 0.1, 1.0, 1.0, (0.0, 0.0))
        with pytest.raises(ConfigError, match="coverage"):
            substitute_parameter(cfg, "omega_n", 1.0)


class TestSweep:
    def test_r0_sweep_is_deterministic_bitwise(self):
        spec = SweepSpec(BASE, "delta", np.linspace(0.0, 1.0, 21), "r0")
        a, b = sweep(spec), sweep(spec)
        assert a == b  # frozen dataclasses compare by value; floats bitwise

    def test_per_point_errors_are_recorded(self):
        spec = SweepSpec(BASE, "beta0", np.array([1.0, 1.9, 2.5]), "r0")
        result = sweep(spec)
        assert result.points[0].error is None
        assert result.points[2].classification == "error"
        assert "non-decreasing" in result.points[2].error

    @pytest.mark.parametrize("observable, target", [("r0", "basic_reproduction_number"),
                                                    ("endemic_I", "refine_endemic"),
                                                    ("terminal_prevalence", "integrate")])
    def test_programming_errors_propagate(self, monkeypatch, observable, target):
        # a point's own failures become error rows; a bug is not one of them
        def broken(*args, **kwargs):
            raise TypeError("not a per-point failure")

        monkeypatch.setattr(scanfit, target, broken)
        with pytest.raises(TypeError, match="not a per-point failure"):
            sweep(SweepSpec(BASE, "delta", np.array([0.05, 0.1]), observable))

    def test_last_only_omega_n_sweep_strictly_decreasing(self):
        cfg = build_last_only(2, (0.5, 1.0, 2.5), 0.3, 0.1, 1.5, 1.0, 0.8)
        spec = SweepSpec(cfg, "omega_n", np.linspace(0.01, 30, 50), "r0")
        values = sweep(spec).observables
        assert np.all(np.diff(values) < 0)

    def test_all_but_last_interior_sweep_r0_constant(self):
        base = build_general(2, (0.5, 1.0, 2.5), 0.3, 0.1, 1.5, 5.0, (0.0, 0.2, 0.0))
        r0s = set()
        for p1 in np.linspace(0, 1, 8):
            cfg = base.replace(p=np.array([0.0, p1, 0.0]))
            r0s.add(basic_reproduction_number(cfg).r0)
        assert len(r0s) == 1

    def test_endemic_observable_and_classification(self):
        spec = SweepSpec(BASE, "delta", np.array([0.001, 0.05]), "endemic_I")
        result = sweep(spec)
        for p in result.points:
            assert p.classification == "endemic"
            assert p.observable > 0

    def test_terminal_prevalence_observable(self):
        spec = SweepSpec(BASE, "delta", np.array([0.001, 0.05]), "terminal_prevalence", t_end=1500.0)
        endemic_spec = SweepSpec(BASE, "delta", np.array([0.001, 0.05]), "endemic_I")
        terminal = sweep(spec).observables
        refined = sweep(endemic_spec).observables
        np.testing.assert_allclose(terminal, refined, atol=1e-7)

    def test_csv_shape(self):
        spec = SweepSpec(BASE, "delta", np.array([0.0, 0.5]), "r0")
        text = sweep(spec).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "param_value,observable,classification"
        assert len(lines) == 3

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            SweepSpec(BASE, "delta", np.array([0.5, 0.1]), "r0")

    @pytest.mark.parametrize("grid", [[0.1, np.nan, 0.05], [np.nan, 0.1], [0.1, np.inf]])
    def test_grid_must_be_finite(self, grid):
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec(BASE, "delta", np.array(grid), "r0")

    @pytest.mark.parametrize("t_end", [np.nan, np.inf, -5.0, 0.0])
    def test_t_end_must_be_finite_and_positive(self, t_end):
        with pytest.raises(ConfigError, match="t_end must be finite and positive"):
            SweepSpec(BASE, "delta", np.array([0.1, 0.2]), "terminal_prevalence", t_end=t_end)

    def test_omega_n_sweep_needs_last_tier_coverage(self):
        # no point of such a sweep could be substituted, so the spec is refused
        cfg = BASE.replace(p=(0.0, 0.5, 0.0))
        with pytest.raises(ConfigError, match="^omega_n sweep requires positive coverage of the last tier$"):
            SweepSpec(cfg, "omega_n", np.array([0.1, 0.2, 0.3]), "r0")
        assert len(SweepSpec(cfg, "omega", np.array([0.1, 0.2, 0.3]), "r0").grid) == 3

    def test_a_point_that_fails_to_integrate_is_recorded(self, monkeypatch):
        # a failure other than a ConfigError, here the kernel's, is one error row too
        def exhausted(config, *args, **kwargs):
            if config.delta == 0.05:
                raise IntegrationError("step budget exhausted", 12.5)
            return integrate(config, *args, **kwargs)

        monkeypatch.setattr(scanfit, "integrate", exhausted)
        points = sweep(SweepSpec(BASE, "delta", np.array([0.001, 0.05]), "terminal_prevalence", t_end=50.0)).points
        assert points[0].error is None and points[0].classification == "endemic"
        assert np.isnan(points[1].observable)
        assert (points[1].classification, points[1].error) == ("error", "step budget exhausted at t=12.5")


class TestBifurcation:
    def test_last_only_zero_waning_analytic_threshold(self):
        beta0, beta_n, r, mu = 0.5, 4.0, 1.5, 0.5
        cfg = build_last_only(2, (beta0, 2.0, beta_n), 0.0, mu, r, 1.0, 1.0)
        spec = SweepSpec(cfg, "omega_n", np.linspace(0.01, 20, 30), "r0")
        expected = mu * (beta_n - r - mu) / (mu + r - beta0)
        assert find_bifurcation(spec, "r0") == pytest.approx(expected, abs=1e-7)
        assert find_bifurcation(spec, "existence") == pytest.approx(expected, abs=1e-7)

    def test_sir_threshold_emerges_at_high_return_rate(self):
        # with zero waning the existence margin crosses at
        # beta0* = ((omega_n+mu)(mu+r) - beta_n*mu)/omega_n, which tends to the
        # classic SIR threshold r + mu as the swept tier absorbs everyone
        mu, r, beta_n, omega_n = 0.5, 2.0, 4.0, 1e6
        cfg = build_last_only(1, (1.0, beta_n), 0.0, mu, r, omega_n, 1.0)
        spec = SweepSpec(cfg, "beta0", np.linspace(0.1, 3.9, 25), "r0")
        exact = ((omega_n + mu) * (mu + r) - beta_n * mu) / omega_n
        found_r0 = find_bifurcation(spec, "r0")
        found_margin = find_bifurcation(spec, "existence")
        assert found_r0 == pytest.approx(exact, abs=1e-7)
        assert found_margin == pytest.approx(exact, abs=1e-7)
        assert exact == pytest.approx(r + mu, abs=1e-5)

    def test_no_sign_change_raises(self):
        cfg = build_last_only(2, (0.5, 1.0, 2.5), 0.3, 0.1, 10.0, 1.0, 0.8)
        spec = SweepSpec(cfg, "omega_n", np.linspace(0.01, 5, 10), "r0")
        with pytest.raises(ValueError, match="no sign change"):
            find_bifurcation(spec, "r0")

    def test_dual_criteria_agree_for_small_delta(self):
        cfg = build_last_only(2, (0.5, 1.0, 4.0), 1e-5, 0.5, 1.5, 1.0, 1.0)
        spec = SweepSpec(cfg, "omega_n", np.linspace(0.01, 20, 40), "r0")
        r0_cross = find_bifurcation(spec, "r0")
        margin_cross = find_bifurcation(spec, "existence")
        grid_step = spec.grid[1] - spec.grid[0]
        assert abs(r0_cross - margin_cross) < 2 * grid_step


class TestIngest:
    def test_cases_population_division(self):
        ts = ingest_timeseries("year,cases,population\n2011,2762,34342780\n2012,100,1000000\n")
        assert ts.years.tolist() == [2011, 2012]
        assert ts.prevalence[0] == pytest.approx(2762 / 34342780, rel=1e-15)
        assert ts.prevalence[0] == pytest.approx(8.04e-5, rel=1e-2)

    def test_pre_divided_passthrough(self):
        ts = ingest_timeseries("year,prevalence\n1991,0.001\n1992,0.002\n")
        np.testing.assert_array_equal(ts.prevalence, [0.001, 0.002])

    def test_comments_and_blank_lines_skipped(self):
        text = "# source: survey\n\nyear,prevalence\n# mid comment\n1991,0.5\n"
        assert ingest_timeseries(text).years.tolist() == [1991]

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(TimeSeriesError, match="line 2"):
            ingest_timeseries("year,cases,population\n1991,abc,100\n")

    def test_non_monotone_years_rejected(self):
        with pytest.raises(TimeSeriesError, match="increasing"):
            ingest_timeseries("year,prevalence\n1995,0.1\n1993,0.1\n")

    def test_out_of_range_prevalence_rejected(self):
        with pytest.raises(TimeSeriesError, match="outside"):
            ingest_timeseries("year,cases,population\n1991,2000,1000\n")

    def test_bad_header_rejected(self):
        with pytest.raises(TimeSeriesError, match="header"):
            ingest_timeseries("time,value\n1,2\n")

    def test_file_object_input(self):
        ts = ingest_timeseries(io.StringIO("year,prevalence\n2000,0.25\n"))
        assert ts.prevalence[0] == 0.25

    # line 1 a comment, 3 blank, 4 the header, 6 a comment; rows from line 5
    LINES = ["# survey", "", "  ", "year,cases,population", '  1990,"25", 1000 ', "# mid", "1991,30,1000"]

    @pytest.mark.parametrize("lineno, row, message", [
        (5, "1990,abc,1000", "could not convert string to float"),
        (5, "1990,25", "expected 3 fields, got 2"),
        (7, "1991,30,0", "population must be positive"),
        (7, "1991,3000,1000", "prevalence 3.0 outside"),
        (5, '1990,"25,1000', "unexpected end of data"),
        (7, '1991,"30,1000', "unexpected end of data"),
        (7, '1991,"30"0,1000', "',' expected after '\"'"),
        (7, f"{2**63},30,1000", f"year {2**63} outside the 64-bit integer range"),
        (7, "1990,30,1000", "years must be strictly increasing, got 1990 after 1990"),
        # int() and float() read these, but none is a plain ASCII decimal
        (7, "1_991,30,1000", "year '1_991' is not a plain decimal number"),
        (7, "\uff11\uff19\uff19\uff11,30,1000", "year '\uff11\uff19\uff19\uff11' is not a plain decimal number"),
        (7, "1991,1_0e-2,1000", "cases '1_0e-2' is not a plain decimal number"),
        (7, "1991,30,inf", "population 'inf' is not a plain decimal number"),
        (7, "1991,30,1e400", "population 1e400 is beyond the double range"),
    ], ids=["float", "fields", "population", "range", "open-quote", "open-quote-last-line", "after-quote",
            "year-beyond-int64", "year-repeated", "year-underscore", "year-full-width", "cases-underscore",
            "population-inf", "population-overflows"])
    def test_every_error_names_its_line(self, lineno, row, message):
        lines = list(self.LINES)
        lines[lineno - 1] = row
        with pytest.raises(TimeSeriesError, match=f"^line {lineno}: {message}"):
            ingest_timeseries("\n".join(lines) + "\n")

    def test_a_prevalence_column_holds_plain_decimals(self):
        with pytest.raises(TimeSeriesError, match="^line 3: prevalence '1_0e-2' is not a plain decimal number$"):
            ingest_timeseries("year,prevalence\n2000,0.25\n2001,1_0e-2\n")
        assert ingest_timeseries("year,prevalence\n2000,.25\n2001,1.\n2002,+2.5E-1\n").prevalence.tolist() == [
            0.25, 1.0, 0.25]

    @pytest.mark.parametrize("years, prevalence, message", [
        ([2000, 2001], [0.1], "years and prevalence must be matching non-empty vectors"),
        ([], [], "years and prevalence must be matching non-empty vectors"),
        ([2001, 2000], [0.1, 0.2], "years must be strictly increasing"),
        ([2000, 2000], [0.1, 0.2], "years must be strictly increasing"),
        ([2000, 2001], [0.1, 1.5], r"prevalence must lie in \[0, 1\]"),
        ([2000, 2001], [-0.1, 0.2], r"prevalence must lie in \[0, 1\]"),
    ], ids=["sizes-differ", "empty", "decreasing", "repeated", "above-one", "negative"])
    def test_series_built_directly_is_checked(self, years, prevalence, message):
        with pytest.raises(TimeSeriesError, match=f"^{message}$"):
            TimeSeries(years=years, prevalence=prevalence)

    def test_years_a_full_int64_range_apart(self):
        # their difference wraps in int64
        ts = ingest_timeseries(f"year,prevalence\n{-2**63},0.1\n{2**63 - 1},0.2\n")
        assert ts.years.tolist() == [-2**63, 2**63 - 1]

    def test_a_quote_closed_on_a_later_line_names_the_line_that_opens_it(self):
        lines = list(self.LINES)
        lines[4], lines[6] = '1990,"25', '1991",30,1000'
        with pytest.raises(TimeSeriesError, match="^line 5: a quoted field is not closed on its line"):
            ingest_timeseries("\n".join(lines) + "\n")

    def test_one_reader_over_the_file(self, monkeypatch, tmp_path):
        readers = []
        reader = scanfit.csv.reader
        counted = SimpleNamespace(reader=lambda lines, **options: readers.append(lines) or reader(lines, **options),
                                  Error=scanfit.csv.Error)
        monkeypatch.setattr(scanfit, "csv", counted)
        path = tmp_path / "data.csv"
        path.write_text("\n".join(self.LINES) + "\n")
        with open(path, encoding="utf-8") as fh:
            ts = ingest_timeseries(fh)
        assert ts.years.tolist() == [1990, 1991] and ts.prevalence.tolist() == [0.025, 0.03]
        assert len(readers) == 1

    def test_a_path_is_neither_text_nor_a_file(self, tmp_path):
        # a path whose name holds a newline once read as CSV text
        path = tmp_path / "we\nird.csv"
        path.write_text("year,prevalence\n2000,0.25\n")
        with pytest.raises(TypeError, match=r"CSV text \(str\) or an open text file, got \w*Path"):
            ingest_timeseries(path)


FIT_TRUTH = build_general(2, (1.2, 2.0, 3.6), 0.08, 0.25, 1.1, 1.5, (0.0, 0.1, 0.5))


def synthetic_series(cfg, years, i0=1e-4, noise=0.0, seed=0):
    start = int(years[0]) - 1
    values = simulate_annual_prevalence(cfg, years, start, i0, rtol=1e-11, atol=1e-13)
    if noise:
        rng = np.random.default_rng(seed)
        values = values * (1.0 + noise * rng.standard_normal(values.size))
    return TimeSeries(years=np.asarray(years), prevalence=np.clip(values, 0, 1))


@pytest.fixture(scope="module")
def zero_noise_fit():
    # one 3-parameter fit, started away from the truth, shared by the two tests below
    years = np.arange(2000, 2025)
    data = synthetic_series(FIT_TRUTH, years, i0=1e-4)
    template = FIT_TRUTH.replace(delta=0.05, omega=2.5)
    options = FitOptions(initial_prevalence=1e-4, rtol=1e-11, atol=1e-13)
    return fit(template, ["beta_scale", "delta", "omega"], data, options)


class TestFit:
    def test_zero_noise_round_trip_three_parameters(self, zero_noise_fit):
        result = zero_noise_fit
        assert result.converged
        truth = {"beta_scale": 1.0, "delta": FIT_TRUTH.delta, "omega": FIT_TRUTH.omega}
        for name, expected in truth.items():
            assert abs(result.parameters[name] - expected) <= 1e-4 * max(abs(expected), 1e-3), name

    def test_zero_noise_fit_is_cheap_and_exact(self, zero_noise_fit):
        result = zero_noise_fit
        assert result.evaluations <= 100
        assert result.failed_evaluations == 0
        truth = {"beta_scale": 1.0, "delta": FIT_TRUTH.delta, "omega": FIT_TRUTH.omega}
        for name, expected in truth.items():
            assert result.parameters[name] == pytest.approx(expected, rel=1e-8, abs=0.0), name

    def test_noisy_fit_reaches_noise_floor(self):
        years = np.arange(2000, 2025)
        clean = synthetic_series(FIT_TRUTH, years, i0=1e-4)
        noisy = synthetic_series(FIT_TRUTH, years, i0=1e-4, noise=0.05, seed=7)
        noise_floor = float(np.sum((noisy.prevalence - clean.prevalence) ** 2))
        template = FIT_TRUTH.replace(delta=0.05)
        options = FitOptions(initial_prevalence=1e-4)
        result = fit(template, ["beta_scale", "delta"], noisy, options)
        assert result.sse <= 2.0 * noise_floor

    def test_bounds_respected_via_penalty(self):
        years = np.arange(2000, 2015)
        data = synthetic_series(FIT_TRUTH, years, i0=1e-4)
        result = fit(
            FIT_TRUTH,
            ["delta"],
            data,
            FitOptions(initial_prevalence=1e-4, max_iterations=200, restarts=0),
            bounds={"delta": (0.0, 0.06)},
        )
        assert 0.0 <= result.parameters["delta"] <= 0.06

    @pytest.mark.parametrize("options", [{"restarts": -3}, {"max_iterations": 0}, {"max_iterations": -4}])
    def test_options_that_skip_the_search_rejected(self, options):
        with pytest.raises(ConfigError, match="restarts|max_iterations"):
            FitOptions(**options)

    def test_unknown_parameter_rejected(self):
        years = np.arange(2000, 2005)
        data = synthetic_series(FIT_TRUTH, years, i0=1e-4)
        with pytest.raises(ConfigError, match="unknown free parameter"):
            fit(FIT_TRUTH, ["gamma"], data)

    def test_pertussis_style_fit_direction(self):
        # when the data demand it, the fit lowers the vaccination rate and
        # scales the whole transmission vector up (direction only; the
        # magnitudes depend on unpublished source values)
        from waningsim.data import pertussis_config

        template = pertussis_config()
        truth = template.replace(beta=np.array(template.beta) * 1.8, omega=0.04)
        years = np.arange(2000, 2012)
        data = synthetic_series(truth, years, i0=1e-4)
        result = fit(
            template,
            ["beta_scale", "omega"],
            data,
            FitOptions(initial_prevalence=1e-4, max_iterations=150, restarts=0),
        )
        assert result.parameters["omega"] < 1.0  # started at 20
        assert result.parameters["beta_scale"] > 1.2

    def test_fit_to_small_prevalences_does_not_stop_early(self):
        # pertussis prevalences are about 1e-5, so the gradient of the SSE is
        # tiny in absolute terms; a stopping test absolute in those units
        # ends this search at its start point, twice the true omega
        from waningsim.data import pertussis_config

        truth = pertussis_config().replace(omega=0.04)
        data = synthetic_series(truth, np.arange(2000, 2012), i0=1e-4)
        result = fit(
            truth.replace(omega=0.08),
            ["omega"],
            data,
            FitOptions(initial_prevalence=1e-4, max_iterations=150, restarts=0),
        )
        assert result.converged
        assert result.parameters["omega"] == pytest.approx(0.04, rel=1e-6)

    def test_sse_equals_sum_of_squared_residuals(self):
        years = np.arange(2000, 2010)
        data = synthetic_series(FIT_TRUTH, years, i0=1e-4)
        result = fit(
            FIT_TRUTH.replace(omega=2.0),
            ["omega"],
            data,
            FitOptions(initial_prevalence=1e-4, max_iterations=120, restarts=0),
        )
        assert result.sse == pytest.approx(float(result.residuals @ result.residuals), rel=1e-14)

    def test_failed_trial_points_are_counted(self, monkeypatch):
        years = np.arange(2000, 2010)
        data = synthetic_series(FIT_TRUTH, years, i0=1e-4)
        calls = []

        def flaky(config, *args, **kwargs):
            calls.append(config.omega)
            if len(calls) in (2, 3):
                raise IntegrationError("step budget exhausted", 0.5)
            return simulate_annual_prevalence(config, *args, **kwargs)

        monkeypatch.setattr(scanfit, "simulate_annual_prevalence", flaky)
        result = fit(
            FIT_TRUTH.replace(omega=2.0),
            ["omega"],
            data,
            FitOptions(initial_prevalence=1e-4, max_iterations=120, restarts=0),
        )
        assert len(calls) > 3
        assert result.failed_evaluations == 2
        assert result.to_json_dict()["failed_evaluations"] == 2
        # both neighbours of the first Jacobian failed: the search stopped blind
        assert result.converged is False

    def test_failed_difference_neighbour_does_not_stop_the_fit(self, monkeypatch):
        # the second evaluation is the forward neighbour of the start point;
        # the backward one takes its place in the Jacobian
        years = np.arange(2000, 2010)
        data = synthetic_series(FIT_TRUTH, years, i0=1e-4)
        calls = []

        def flaky(config, *args, **kwargs):
            calls.append(config.omega)
            if len(calls) == 2:
                raise IntegrationError("step budget exhausted", 0.5)
            return simulate_annual_prevalence(config, *args, **kwargs)

        monkeypatch.setattr(scanfit, "simulate_annual_prevalence", flaky)
        result = fit(
            FIT_TRUTH.replace(omega=2.0),
            ["omega"],
            data,
            FitOptions(initial_prevalence=1e-4, max_iterations=120, restarts=0),
        )
        assert calls[2] < 2.0 < calls[1]
        assert result.failed_evaluations == 1
        assert result.converged
        assert result.parameters["omega"] == pytest.approx(FIT_TRUTH.omega, rel=1e-6)

    def test_restarts_integrate_no_point_twice(self, monkeypatch):
        # each restart begins where the previous run stopped, and its first
        # Jacobian differences around that point again
        data = synthetic_series(FIT_TRUTH, np.arange(2000, 2010), i0=1e-4)
        integrated = []

        def counting(config, *args, **kwargs):
            integrated.append(config_digest(config))
            return simulate_annual_prevalence(config, *args, **kwargs)

        monkeypatch.setattr(scanfit, "simulate_annual_prevalence", counting)
        result = fit(
            FIT_TRUTH.replace(omega=2.0),
            ["omega"],
            data,
            FitOptions(initial_prevalence=1e-4, max_iterations=120, restarts=2),
        )
        assert len(set(integrated)) == len(integrated) == result.evaluations

    @pytest.mark.parametrize("free", [["omega", "omega"], ["p_x"], ["p_0"], ["p_3"]])
    def test_bad_free_parameter_list_rejected(self, free):
        data = synthetic_series(FIT_TRUTH, np.arange(2000, 2005), i0=1e-4)
        with pytest.raises(ConfigError, match=repr(free[-1])):
            fit(FIT_TRUTH, free, data)

    def test_start_point_that_fails_is_a_config_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise IntegrationError("step budget exhausted", 0.5)

        monkeypatch.setattr(scanfit, "simulate_annual_prevalence", failing)
        data = synthetic_series(FIT_TRUTH, np.arange(2000, 2005), i0=1e-4)
        with pytest.raises(ConfigError, match="start point cannot be evaluated: step budget"):
            fit(FIT_TRUTH, ["omega"], data, FitOptions(initial_prevalence=1e-4))

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a trial-point failure")

        monkeypatch.setattr(scanfit, "simulate_annual_prevalence", broken)
        data = synthetic_series(FIT_TRUTH, np.arange(2000, 2005), i0=1e-4)
        with pytest.raises(TypeError, match="not a trial-point failure"):
            fit(FIT_TRUTH, ["omega"], data, FitOptions(initial_prevalence=1e-4))


def trust_region_cases() -> dict:
    """Fits for the trust-region loop: named ones, then a seeded set in random
    boxes around the truth, from starts that may lie outside the box, where
    steps meet the bounds and reflect off them."""
    cases = {
        "one-parameter": (["omega"], {"omega": 2.3}, {}, False),
        "one-parameter-log": (["delta"], {"delta": 0.2}, {}, True),
        "two-parameter": (["beta_scale", "omega"], {"omega": 1.2}, {}, False),
        "two-parameter-log": (["beta_scale", "omega"], {"beta": (1.0, 1.8, 3.0)}, {}, True),
        "three-parameter": (["beta_scale", "delta", "omega"], {"delta": 0.05, "omega": 2.5}, {}, False),
        # the start 2.2 is clipped onto the upper bound 1.4, below the truth 1.5
        "clipped-start": (["omega"], {"omega": 2.2}, {"omega": (0.5, 1.4)}, False),
    }
    # this seed's set steps inside the box, reflects off a bound and follows
    # the scaled gradient
    rng = np.random.default_rng(4)
    for k in range(10):
        free = [["omega"], ["delta"], ["beta_scale", "omega"], ["delta", "omega"], ["beta_scale", "delta", "omega"]][k % 5]
        bounds, changes = {}, {}
        for name in free:
            truth = 1.0 if name == "beta_scale" else getattr(FIT_TRUTH, name)
            lower, upper = sorted(truth * rng.uniform(0.3, 1.7, 2))
            bounds[name] = (float(lower), float(upper))
            if name != "beta_scale":
                changes[name] = float(rng.uniform(0.5 * lower, 1.5 * upper))
        cases[f"box-{k}"] = (free, changes, bounds, bool(k % 2))
    # the truth lies beyond the delta and omega boxes, so a trust-region step
    # leaves the box and, stepped back from the bound it meets, beats both
    # its reflection and the gradient step
    cases["stepped-back"] = (["beta_scale", "delta", "omega"], {"delta": 0.17, "omega": 1.17},
                             {"beta_scale": (0.31, 1.49), "delta": (0.117, 0.134), "omega": (0.55, 0.89)}, False)
    return cases


class TestTrustRegion:
    """The in-house trust-region loop against SciPy's bounded driver, and its
    SVD against SciPy's LAPACK wrapper."""

    CASES = trust_region_cases()

    def fit_case(self, case):
        free, changes, bounds, log_sse = self.CASES[case]
        years = np.arange(2000, 2016)
        data = synthetic_series(FIT_TRUTH, years, i0=1e-4, noise=0.02, seed=list(self.CASES).index(case))
        options = FitOptions(initial_prevalence=1e-4, log_sse=log_sse)
        return fit(FIT_TRUTH.replace(**changes), free, data, options, bounds)

    @pytest.mark.parametrize("case", list(CASES))
    def test_reaches_the_minimum_of_scipys_driver(self, case, monkeypatch):
        from oracles import scipy_trust_region_reflective

        free = self.CASES[case][0]
        ours = self.fit_case(case)
        monkeypatch.setattr(scanfit, "_trust_region_reflective", scipy_trust_region_reflective)
        theirs = self.fit_case(case)
        for name in free:
            assert ours.parameters[name] == pytest.approx(theirs.parameters[name], rel=1e-9, abs=0.0), name
        assert ours.sse == pytest.approx(theirs.sse, rel=1e-12, abs=0.0)
        assert ours.evaluations <= theirs.evaluations + 2
        assert ours.converged == theirs.converged

    @pytest.mark.parametrize("case", list(CASES))
    def test_numpys_svd_fits_as_scipys_lapack_wrapper_did(self, case, monkeypatch):
        from oracles import scipy_svd

        ours = self.fit_case(case)
        monkeypatch.setattr(scanfit, "_svd", scipy_svd)
        theirs = self.fit_case(case)
        assert ours.parameters == theirs.parameters
        assert ours.sse == theirs.sse and ours.residuals.tobytes() == theirs.residuals.tobytes()
        assert ours.evaluations == theirs.evaluations and ours.converged == theirs.converged

    def test_the_cases_take_every_kind_of_step(self, monkeypatch):
        # kinds told apart by direction, so only where there are two or more
        # parameters: in one dimension every step is parallel to the others
        select, kinds = scanfit._select_step, set()

        def parallel(u, v):
            return u.dot(v) >= (1 - 1e-12) * np.sqrt(u.dot(u) * v.dot(v)) > 0

        def classified(x, J_h, diag_h, g_h, p_h, *args):
            step, step_h, predicted = select(x, J_h, diag_h, g_h, p_h, *args)
            if p_h.size > 1:
                kinds.add("inside" if step_h is p_h else "stepped back" if parallel(step_h, p_h)
                          else "gradient" if parallel(step_h, -g_h) else "reflected")
            return step, step_h, predicted

        monkeypatch.setattr(scanfit, "_select_step", classified)
        for case in self.CASES:
            self.fit_case(case)
        assert kinds == {"inside", "stepped back", "reflected", "gradient"}

    @pytest.mark.parametrize("m, alpha", [(1, 0.0), (4, 0.0), (4, 0.3)])
    def test_rank_deficient_step_is_scipys(self, m, alpha):
        # two equal columns and a zero Coleman-Li diagonal give the scaled
        # Jacobian rank one, so no Gauss-Newton step is tried; at m = 1 there
        # are also fewer residuals than parameters
        from oracles import scipy_levenberg_step

        rng = np.random.default_rng(m)
        column = rng.standard_normal(m)
        U, s, Vt = scanfit._svd(np.vstack((np.column_stack((column, column)), np.zeros((2, 2)))))
        uf = U.T.dot(np.concatenate((rng.standard_normal(m), np.zeros(2))))
        assert m < s.size or not s[-1] > np.finfo(float).eps * m * s[0]
        for radius in (1e-3, 0.5, 10.0):
            ours = scanfit._levenberg_step(m, uf, s, Vt.T, radius, alpha)
            theirs = scipy_levenberg_step(m, uf, s, Vt.T, radius, alpha)
            np.testing.assert_allclose(ours[0], theirs[0], rtol=1e-12, atol=0)
            assert ours[1] == pytest.approx(theirs[1], rel=1e-12, abs=0)
            assert np.linalg.norm(ours[0]) == pytest.approx(radius, rel=1e-12)

    def test_svd_factors_are_lapacks_bit_for_bit(self):
        from oracles import scipy_svd

        rng = np.random.default_rng(26)
        for _ in range(500):
            k = int(rng.integers(1, 4))
            a = np.vstack((rng.standard_normal((int(rng.integers(1, 30)), k)) * 10.0 ** rng.uniform(-8, 2, k),
                           np.diag(rng.uniform(0.0, 1.0, k))))
            for ours, theirs in zip(scanfit._svd(a), scipy_svd(a)):
                assert ours.tobytes(order="A") == theirs.tobytes(order="A")
                assert ours.flags.f_contiguous == theirs.flags.f_contiguous

    @pytest.mark.parametrize("name, value, box", [
        ("delta", 0.0, None),
        # the truth (delta 0.08, omega 1.5) lies outside the box, so the
        # gradient points out of it at the start
        ("delta", 0.1, (0.1, 0.3)),
        ("omega", 1.4, (0.5, 1.4)),
    ], ids=["default-lower-bound", "lower-bound", "upper-bound"])
    def test_start_on_a_bound_fits_inside_the_box_without_warnings(self, name, value, box):
        # the start moves 1e-10 relative inside first: the initial trust
        # radius divides by the square root of its distance to the bound
        data = synthetic_series(FIT_TRUTH, np.arange(2000, 2012), i0=1e-4)
        bounds = {name: box} if box else None
        lower, upper = box or scanfit.FREE_PARAMETER_BOUNDS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit(FIT_TRUTH.replace(**{name: value}), [name], data, FitOptions(initial_prevalence=1e-4), bounds)
        assert lower <= result.parameters[name] <= upper
        assert result.failed_evaluations == 0

    @pytest.mark.parametrize("name", ["delta", "omega"])
    def test_start_on_a_zero_bound_reaches_the_truth(self, name):
        # the start moves 1e-10 inside the default lower bound 0; the initial
        # trust radius comes from the start as given, so it is the fallback 1
        # and not one proportional to that shift, which stalled the search
        data = synthetic_series(FIT_TRUTH, np.arange(2000, 2025), i0=1e-4)
        result = fit(FIT_TRUTH.replace(**{name: 0.0}), [name], data, FitOptions(initial_prevalence=1e-4))
        assert result.converged
        assert result.parameters[name] == pytest.approx(getattr(FIT_TRUTH, name), rel=1e-6)
        assert result.evaluations <= 20

    @pytest.mark.parametrize("box", [(0.06, 0.06), (0.1, 0.0), (0.0, float("inf")), (float("nan"), 1.0)])
    def test_bounds_must_be_finite_and_ordered(self, box):
        data = synthetic_series(FIT_TRUTH, np.arange(2000, 2005), i0=1e-4)
        with pytest.raises(ConfigError, match="fit bounds must be finite with lower < upper"):
            fit(FIT_TRUTH, ["delta"], data, FitOptions(initial_prevalence=1e-4), bounds={"delta": box})


class TestTrialPoint:
    """One fit trial point: a substitution on the template and one kernel call."""

    YEARS = np.arange(2000, 2012)

    @pytest.fixture(params=sorted(stepper.kernels()))
    def kernel(self, request, monkeypatch):
        monkeypatch.setattr(stepper, "integrate_core", stepper.kernels()[request.param].integrate_core)
        return request.param

    @pytest.mark.parametrize(
        "names, values",
        [
            (["omega"], [2.3]),
            (["beta_scale"], [1.2]),
            (["beta_scale", "omega"], [0.9, 1.7]),
            (["p_1", "p_2"], [0.3, 0.7]),
            (["delta", "i0"], [0.2, 3e-5]),
        ],
    )
    def test_equals_the_sampled_trajectory_bit_for_bit(self, kernel, names, values):
        cfg, i0 = scanfit._apply_parameters(FIT_TRUTH, names, np.array(values), 1e-4)
        start = 1999
        t_obs = (self.YEARS - start + scanfit.YEAR_END_OFFSET).astype(float)
        traj = integrate(cfg, epidemic_start(cfg, i0), float(t_obs[-1]), rtol=1e-9, atol=1e-12, t_eval=t_obs)
        lean = simulate_annual_prevalence(cfg, self.YEARS, start, i0, rtol=1e-9, atol=1e-12)
        assert lean.tobytes() == traj.sample(t_obs)[:, -1].tobytes()

    @pytest.mark.parametrize("years", [[2003, 2001], [2001, 2001], [1997, 2000], []])
    def test_years_must_increase_strictly_after_the_start(self, years):
        with pytest.raises(ValueError, match="observation years"):
            simulate_annual_prevalence(FIT_TRUTH, years, 1999, 1e-4)

    @pytest.mark.parametrize("start", [2**63, -(2**63) - 5], ids=["after-int64", "before-int64"])
    def test_start_year_beyond_int64_is_named(self, start):
        with pytest.raises(ValueError, match=f"{start}$"):
            simulate_annual_prevalence(FIT_TRUTH, self.YEARS, start, 1e-4)

    @pytest.mark.parametrize("i0", [-1e-3, 1.5, float("nan")])
    def test_start_state_must_lie_on_the_simplex(self, i0):
        with pytest.raises(ValueError, match="non-negative, not NaN"):
            simulate_annual_prevalence(FIT_TRUTH, self.YEARS, 1999, i0)

    def test_kernel_failure_is_an_integration_error(self, monkeypatch):
        def exhausted(*args):
            return np.zeros(1), np.zeros((1, 4)), stepper.STATUS_MAX_STEPS, 7, 0, 0, 0.25

        monkeypatch.setattr(stepper, "integrate_core", exhausted)
        with pytest.raises(IntegrationError, match=r"step budget exhausted at t=0.25"):
            simulate_annual_prevalence(FIT_TRUTH, self.YEARS, 1999, 1e-4)

    @pytest.mark.parametrize("i0", [0.0, 1.0, -1.0, 2.0, float("nan"), float("inf")])
    def test_fit_start_prevalence_must_lie_inside_the_unit_interval(self, i0):
        with pytest.raises(ConfigError, match=r"i0 must be finite and in \(0, 1\)"):
            FitOptions(initial_prevalence=i0)
