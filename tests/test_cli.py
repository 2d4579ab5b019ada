"""Command-line interface: exit codes, manifests, and artifact layout."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import waningsim
from waningsim import dfe, stepper
from waningsim.cli import build_parser, main
from waningsim.dfe import susceptible_block_matrix
from waningsim.model import build_general, config_to_json
from waningsim.scanfit import simulate_annual_prevalence

ENDEMIC_CFG = build_general(2, (1.5, 2.0, 4.0), 0.02, 0.3, 1.2, 2.0, (0.0, 0.1, 0.5))
# with mu = 1e-300, every product in the small-waning existence margin is subnormal
UNDERFLOWING_PRODUCTS = dict(n=3, beta=(1e-300, 1e-300, 1e-12, 1e-12), delta=0.0, r=1e-300, omega=1e-12,
                             p=(0.0, 0.066, 0.834, 0.036))


@pytest.fixture
def config_path(tmp_path, pertussis):
    path = tmp_path / "config.json"
    path.write_text(config_to_json(pertussis))
    return str(path)


@pytest.fixture
def endemic_config_path(tmp_path):
    path = tmp_path / "endemic.json"
    path.write_text(config_to_json(ENDEMIC_CFG))
    return str(path)


def split_csv_artifact(text: str):
    lines = text.splitlines(keepends=True)
    manifest_lines = [l for l in lines if l.startswith("#")]
    data = "".join(l for l in lines if not l.startswith("#"))
    assert len(manifest_lines) == 1
    manifest = json.loads(manifest_lines[0].split("# manifest: ", 1)[1])
    return manifest, data


class TestSimulate:
    def test_csv_artifact_and_rerun_identity(self, endemic_config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--config", endemic_config_path, "--t-end", "50",
                "--samples", "25", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        m1, d1 = split_csv_artifact(out1.read_text())
        m2, d2 = split_csv_artifact(out2.read_text())
        assert d1 == d2  # data section byte-identical across reruns
        assert m1["run_key"] == m2["run_key"]
        assert m1["config_hash"] == m2["config_hash"]
        lines = d1.strip().splitlines()
        assert lines[0] == "t,S_0,S_1,S_2,I"
        assert len(lines) == 27  # header + 26 sample rows including t=0

    def test_json_format(self, endemic_config_path, tmp_path, capsys):
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "10",
                     "--samples", "5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["command"] == "simulate"
        assert doc["data"]["terminal_status"] in ("max_time", "converged_endemic")
        assert len(doc["data"]["times"]) == 6

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["simulate", "--config", str(bad), "--t-end", "10"])
        assert code == 2
        assert "line 1 column" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--t-end", "5"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "typo.json"
        bad.write_text('{"n": 1, "beta": [1, 2], "delta": 0.1, "mu": 0.1, "r": 1, "omega": 0, "p": [0, 0], "betas": 3}')
        assert main(["simulate", "--config", str(bad), "--t-end", "5"]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("delta", None, "delta must be a number, got None"),
        ("mu", [0.1], "mu must be a number, got [0.1]"),
        ("omega", {}, "omega must be a number, got {}"),
        ("delta", "0.1", "delta must be a number, got '0.1'"),
        ("delta", True, "delta must be a number, got True"),
        ("beta", [True, 2.0, 4.0], "beta[0] must be a number, got True"),
        ("beta", [1.5, "2", 4.0], "beta[1] must be a number, got '2'"),
        ("p", [False, 0.1, 0.5], "p[0] must be a number, got False"),
        ("p", {"0": 0.0}, "p must be a list of numbers"),
    ])
    def test_wrongly_typed_config_field_exits_2(self, tmp_path, capsys, field, value, message):
        cfg = json.loads(config_to_json(ENDEMIC_CFG))
        cfg[field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--t-end", "5"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_nan_horizon_exits_2(self, endemic_config_path, capsys):
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "nan"]) == 2
        assert "t_end must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["-1", "-5"])
    def test_negative_samples_exits_2(self, endemic_config_path, samples, capsys):
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "5", "--samples", samples]) == 2
        assert f"--samples must be >= 0, got {samples}" in capsys.readouterr().err

    def test_nan_initial_prevalence_exits_2(self, endemic_config_path, capsys):
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "5", "--i0", "nan"]) == 2
        assert "not NaN" in capsys.readouterr().err

    def test_stiff_blowup_exits_3(self, tmp_path, capsys):
        stiff = tmp_path / "stiff.json"
        stiff.write_text(config_to_json(build_general(1, (1e6, 1e6), 0.0, 1.0, 1.0, 0.0, (0.0, 0.0))))
        code = main(["simulate", "--config", str(stiff), "--t-end", "1000", "--max-steps", "2000"])
        assert code == 3
        assert "integration failed" in capsys.readouterr().err


class TestAnalyze:
    def test_subcritical_report(self, config_path, capsys):
        assert main(["analyze", "--config", config_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        data = doc["data"]
        assert data["r0"]["regime"] == "stable"
        assert data["endemic"] is None
        assert not data["localization"]["validity"]  # waning beyond certificate
        assert data["consistency"]["consistent"]

    def test_supercritical_certified_report(self, endemic_config_path, capsys):
        assert main(["analyze", "--config", endemic_config_path]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["r0"]["regime"] == "unstable"
        assert data["localization"]["validity"]
        assert data["endemic"]["certification"] == "certified-contraction"
        assert data["endemic_stability"]["classification"] == "asymptotically_stable"
        assert data["consistency"]["checked"] and data["consistency"]["consistent"]
        assert max(abs(a - b) for a, b in zip(data["dfe"]["s"], dfe.solve_dfe_numeric(ENDEMIC_CFG).s)) < 1e-10

    def test_large_waning_uncertified_flagged(self, tmp_path, capsys):
        cfg = ENDEMIC_CFG.replace(delta=1.5)
        path = tmp_path / "big_delta.json"
        path.write_text(config_to_json(cfg))
        assert main(["analyze", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert not data["localization"]["validity"]
        assert data["endemic"]["certification"] == "numeric-uncertified"
        assert not data["consistency"]["checked"]

    def test_fast_rates_fresh_solution_accepted(self, tmp_path, capsys):
        # a certified solution whose residual |beta . S* - (r + mu)| is
        # 1.3e-9 in absolute terms but 4.6e-13 relative to r + mu ~ 2867
        cfg = build_general(
            2,
            (0.0716025958484413, 2367.287618846118, 4687.155969853261),
            0.8159213016594168,
            7.610923899440758,
            2859.394996798647,
            3.5838634774146807,
            (0.0, 0.09004517838160708, 0.6412439283923741),
        )
        path = tmp_path / "fast_rates.json"
        path.write_text(config_to_json(cfg))
        assert main(["analyze", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["endemic"]["certification"] == "certified-contraction"
        assert data["endemic_stability"]["classification"] == "asymptotically_stable"
        assert data["consistency"]["consistent"]


    @pytest.mark.parametrize("delta", [0.02, 1.5], ids=["certified", "uncertified"])
    def test_no_transmission_has_no_endemic_equilibrium(self, tmp_path, capsys, delta):
        # beta_n == 0 leaves the linear prevalence equation without a root
        path = tmp_path / "zero_beta.json"
        path.write_text(config_to_json(ENDEMIC_CFG.replace(beta=(0.0, 0.0, 0.0), delta=delta)))
        assert main(["analyze", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["r0"]["r0"] == 0.0 and data["r0"]["regime"] == "stable"
        assert data["localization"]["exists"] == "none"
        assert data["localization"]["roots"] == [None, None]
        assert data["endemic"] is None and data["endemic_error"] is None
        assert data["dfe_stability"]["classification"] == "asymptotically_stable"
        assert data["consistency"]["consistent"]

    @pytest.mark.parametrize("fields, expected", [
        ({"delta": 0.2}, (None, None, "susceptible block is numerically singular at prevalence 0.0")),
        ({"delta": 0.0}, (None, None, None)),
        # the no-waning condition reduces to x^2 + 1.036 x - 0.964 = 0; its
        # products are subnormal unless the rates are scaled first
        (UNDERFLOWING_PRODUCTS,
         (pytest.approx(0.5921008963152855, rel=1e-12, abs=0.0), "certified-contraction", None)),
        (dict(n=1, beta=(1e-12, 13.80), delta=0.0, r=1e-300, omega=0.0, p=(0.0, 0.248)),
         (1.0, "certified-contraction", None)),
        # roots far below 1e-285, found to the relative tolerance, not an absolute one
        (dict(n=1, beta=(0.0, 0.09468161530643912), delta=0.0, r=0.012349673970336606, omega=0.0, p=(0.0, 0.878)),
         (pytest.approx(7.041208505847825e-299, rel=1e-12, abs=0.0), "certified-contraction", None)),
        (dict(n=1, beta=(1e-300, 309.58707489458175), delta=0.0, r=1.341042845006398, omega=0.0, p=(0.0, 0.008)),
         (pytest.approx(7.424582213246018e-301, rel=1e-12, abs=0.0), "certified-contraction", None)),
        # Brent's method needs more than 100 iterations on the bracket at 0
        (dict(n=4, beta=(0.001155515437346742, 0.01838831675173134, 12.727612456653722, 17.264982046268692,
                         968.2152064133929), delta=1000.0, r=1e-300, omega=17.0, p=(0.0, 0.158, 0.066, 0.084, 0.894)),
         (1.0, "numeric-uncertified", None)),
        # the condition at prevalence 1 rounds below 0, where it is >= 0 exactly
        (dict(n=3, beta=(0.017670407866605457, 0.024934869212355652, 0.71253018222773, 1.3292926338282425),
              delta=0.0, r=1e-300, omega=0.02, p=(0.0, 0.658, 0.778, 0.637)),
         (1.0, "certified-contraction", None)),
        # there the rounding noise of the condition crosses 0 in the last cell,
        # and that root, not 1, solves the condition to the stale-residual bound
        (dict(n=4, beta=(0.0, 1e-300, 1e-12, 0.006173893931142045, 0.2200220751333211), delta=0.003222199039327274,
              r=0.0037258554729891567, omega=63.641113389198146, p=(0.0, 0.236, 0.62, 0.041, 0.772)),
         (pytest.approx(0.997012561665431, rel=1e-12, abs=0.0), "numeric-uncertified", None)),
        # the condition is rounding noise on (0, 1]: a bracket's signs do not
        # survive its re-evaluation, and the failure is reported, not raised
        (dict(n=1, beta=(718.230197215631, 1412.97883069321), delta=0.001, r=1000.0, omega=1e-300, p=(0.0, 0.466)),
         (None, None, "Brent's method failed on the bracket [0.70703125, 0.7109375]: "
                      "f(a) and f(b) must have different signs")),
        # the linear root's product beta_n * (r + mu) underflows to 0
        (dict(n=1, beta=(0.0, 1e-300), delta=0.0, r=1e-300, omega=0.0, p=(0.0, 0.5)), (None, None, None)),
    ], ids=["0.2", "0.0", "underflowing-products", "tiny-beta0", "linear-root-near-zero", "quadratic-root-near-zero",
            "long-brent-search", "root-at-one", "noise-crossing-in-last-cell", "noise-bracket",
            "linear-root-product-underflows"])
    def test_vanishing_birth_rate_is_reported(self, tmp_path, capsys, pertussis, fields, expected):
        # mu**3 underflows to 0, and the eigenvalue -mu sits in the marginal band
        path = tmp_path / "tiny_mu.json"
        path.write_text(config_to_json(pertussis.replace(mu=1e-300, **fields)))
        assert main(["analyze", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["localization"]["hat_c"] is None  # infinite
        endemic = data["endemic"] or {}
        assert (endemic.get("i_star"), endemic.get("certification"), data["endemic_error"]) == expected
        assert not data["consistency"]["checked"]

    def test_inconsistent_report_exits_4_before_writing(self, endemic_config_path, tmp_path, capsys, monkeypatch):
        from waningsim import cli

        analyze_config = cli.analyze_config

        def inconsistent(config):
            report = analyze_config(config)
            report["consistency"] = {"checked": True, "consistent": False, "note": "planted contradiction"}
            return report

        monkeypatch.setattr(cli, "analyze_config", inconsistent)
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", endemic_config_path, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "regime consistency violated: planted contradiction\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("delta, omega", [(15.0, 2.0), (0.005, 0.05)], ids=["products-overflow", "products-underflow"])
    def test_hundreds_of_tiers(self, tmp_path, capsys, delta, omega):
        # products of n = 300 rates leave the double range; the report must not
        n = 300
        p = np.full(n + 1, 0.3)
        p[0] = 0.0
        cfg = build_general(n, np.linspace(1.5, 40, n + 1), delta, 0.02, 17.0, omega, p)
        path = tmp_path / "n300.json"
        path.write_text(config_to_json(cfg))
        assert main(["analyze", "--config", str(path)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        data = json.loads(capsys.readouterr().out, parse_constant=reject)["data"]
        births = np.zeros(n + 1)
        births[-1] = -cfg.mu
        oracle = float(cfg.beta @ np.linalg.solve(susceptible_block_matrix(cfg), births)) / (cfg.r + cfg.mu)
        assert data["r0"]["r0"] == pytest.approx(oracle, rel=1e-12)

class TestSmallCommands:
    def test_dfe_document(self, config_path, capsys):
        assert main(["dfe", "--config", config_path]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert abs(sum(data["s"]) - 1.0) < 1e-12
        assert data["numeric_gap"] < 1e-10

    def test_r0_document(self, config_path, capsys):
        assert main(["r0", "--config", config_path]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["regime"] == "stable"
        assert 0 < data["r0"] < 1

    @pytest.mark.parametrize("command, code", [("dfe", 2), ("analyze", 0)], ids=["dfe", "analyze"])
    def test_singular_numeric_dfe_exits_2(self, tmp_path, capsys, command, code):
        # only the dense check in dfe solves the singular matrix; analyze
        # reports the closed form, exact here
        path = tmp_path / "singular.json"
        path.write_text(config_to_json(build_general(1, (1.0, 2.0), 0.5, 1e-300, 1.0, 1.0, (0.0, 0.5))))
        assert main([command, "--config", str(path)]) == code
        captured = capsys.readouterr()
        if command == "dfe":
            assert captured.err == "error: susceptible block matrix is singular to working precision\n"
            assert captured.out == ""
            return
        data = json.loads(captured.out)["data"]
        assert data["r0"]["r0"] == 1.5
        assert data["dfe"]["s"] == [0.5, 0.5]
        assert data["endemic"] is None
        assert data["endemic_error"] == "susceptible block is numerically singular at prevalence 0.0"
        assert "dfe_numeric_gap" not in data

    @pytest.mark.parametrize("command", ["r0", "analyze"])
    def test_non_finite_threshold_exits_2(self, config_path, capsys, monkeypatch, command):
        def nan_dfe(config):
            return dfe.DfeSolution(s=np.full(config.n + 1, np.nan))

        monkeypatch.setattr(dfe, "solve_dfe_closed_form", nan_dfe)
        assert main([command, "--config", config_path]) == 2
        captured = capsys.readouterr()
        assert "transmission level at the disease-free equilibrium is nan" in captured.err
        assert captured.out == ""


class TestSweep:
    def write_spec(self, tmp_path, **overrides):
        spec = {
            "config": json.loads(config_to_json(ENDEMIC_CFG)),
            "parameter": "delta",
            "grid": {"start": 0.0, "stop": 0.5, "num": 11},
            "observable": "r0",
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_csv_output_and_rerun_identity(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["sweep", "--spec", spec, "--out", str(out1)]) == 0
        assert main(["sweep", "--spec", spec, "--out", str(out2)]) == 0
        m1, d1 = split_csv_artifact(out1.read_text())
        _, d2 = split_csv_artifact(out2.read_text())
        assert d1 == d2
        assert d1.splitlines()[0] == "param_value,observable,classification"
        assert len(d1.strip().splitlines()) == 12
        assert m1["command"] == "sweep"

    def test_parallel_jobs_match_serial(self, tmp_path):
        spec = self.write_spec(tmp_path)
        serial, parallel = tmp_path / "ser.csv", tmp_path / "par.csv"
        assert main(["sweep", "--spec", spec, "--out", str(serial)]) == 0
        assert main(["sweep", "--spec", spec, "--jobs", "3", "--out", str(parallel)]) == 0
        assert split_csv_artifact(serial.read_text())[1] == split_csv_artifact(parallel.read_text())[1]

    def test_json_format(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, grid=[0.0, 0.1, 0.2])
        assert main(["sweep", "--spec", spec, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["data"]["points"]) == 3
        # rerun: the data section is byte-identical even though the manifest
        # timestamp moves
        assert main(["sweep", "--spec", spec, "--format", "json"]) == 0
        doc2 = json.loads(capsys.readouterr().out)
        assert json.dumps(doc["data"]) == json.dumps(doc2["data"])

    def test_endemic_prevalence_without_transmission(self, tmp_path, capsys):
        config = json.loads(config_to_json(ENDEMIC_CFG.replace(beta=(0.0, 0.0, 0.0))))
        spec = self.write_spec(tmp_path, config=config, observable="endemic_I", grid=[0.0, 0.02, 1.5])
        assert main(["sweep", "--spec", spec, "--format", "json"]) == 0
        points = json.loads(capsys.readouterr().out)["data"]["points"]
        assert [(p["observable"], p["classification"]) for p in points] == [(None, "dfe_stable")] * 3

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, parameter="nonsense")
        assert main(["sweep", "--spec", spec]) == 2
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end", [float("nan"), -5.0])
    def test_bad_t_end_exits_2(self, tmp_path, capsys, t_end):
        spec = self.write_spec(tmp_path, observable="terminal_prevalence", grid=[1.0, 2.0], t_end=t_end)
        assert main(["sweep", "--spec", spec]) == 2
        assert "t_end must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"t_end": None}, "t_end must be a number, got None"),
        ({"t_end": "5"}, "t_end must be a number, got '5'"),
        ({"grid": [0.0, "0.1", 0.2]}, "grid[1] must be a number, got '0.1'"),
        ({"grid": {"start": None, "stop": 0.5, "num": 11}}, "grid start must be a number, got None"),
        ({"grid": {"start": 0.0, "stop": 0.5, "num": "11"}}, "grid num must be an integer, got '11'"),
        ({"grid": {"start": 0.0, "stop": 0.5, "num": True}}, "grid num must be an integer, got True"),
        ({"grid": "0:1"}, "grid must be a list of numbers or an object"),
        ({"config": dict(json.loads(config_to_json(ENDEMIC_CFG)), r=None)}, "r must be a number, got None"),
    ])
    def test_wrongly_typed_spec_field_exits_2(self, tmp_path, capsys, overrides, message):
        assert main(["sweep", "--spec", self.write_spec(tmp_path, **overrides)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_exits_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--spec", self.write_spec(tmp_path), "--jobs", jobs, "--out", str(out)]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_json_is_strict_rfc_8259(self, tmp_path, capsys):
        # a negative waning rate is a per-point error whose observable is NaN
        spec = self.write_spec(tmp_path, grid=[-0.1, 0.0, 0.1])
        assert main(["sweep", "--spec", spec, "--format", "json"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        points = json.loads(capsys.readouterr().out, parse_constant=reject)["data"]["points"]
        assert points[0]["observable"] is None
        assert points[0]["classification"] == "error" and points[0]["error"]
        assert all(isinstance(p["observable"], float) for p in points[1:])


class TestFit:
    def test_round_trip_fixture(self, tmp_path, capsys):
        years = np.arange(2000, 2012)
        values = simulate_annual_prevalence(ENDEMIC_CFG, years, 1999, 1e-4)
        data_path = tmp_path / "data.csv"
        data_path.write_text(
            "year,prevalence\n" + "\n".join(f"{y},{float(v)!r}" for y, v in zip(years, values)) + "\n"
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_to_json(ENDEMIC_CFG.replace(omega=2.4)))
        code = main([
            "fit", "--config", str(cfg_path), "--data", str(data_path),
            "--free", "omega", "--i0", "1e-4", "--start-year", "1999",
            "--max-iterations", "120", "--restarts", "0",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["converged"]
        assert abs(doc["data"]["parameters"]["omega"] - 2.0) < 1e-3

    def test_missing_data_file_exits_2(self, config_path, tmp_path):
        assert main(["fit", "--config", config_path, "--data", str(tmp_path / "none.csv")]) == 2

    @pytest.mark.parametrize("option", [["--restarts", "-3"], ["--max-iterations", "0"]])
    def test_search_that_would_be_skipped_exits_2(self, config_path, option, capsys):
        from waningsim.data import synthetic_prevalence_path

        assert main(["fit", "--config", config_path, "--data", str(synthetic_prevalence_path()), *option]) == 2
        assert "must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("free", ["omega,omega", "p_x"])
    def test_bad_free_parameter_list_exits_2(self, config_path, free, capsys):
        from waningsim.data import synthetic_prevalence_path

        assert main(["fit", "--config", config_path, "--data", str(synthetic_prevalence_path()),
                     "--free", free]) == 2
        assert repr(free.split(",")[-1]) in capsys.readouterr().err

    def test_start_point_that_fails_exits_2(self, config_path, monkeypatch, capsys):
        from waningsim import scanfit
        from waningsim.data import synthetic_prevalence_path
        from waningsim.dynamics import IntegrationError

        def failing(*args, **kwargs):
            raise IntegrationError("step budget exhausted (stiff regime)", 0.5)

        monkeypatch.setattr(scanfit, "simulate_annual_prevalence", failing)
        assert main(["fit", "--config", config_path, "--data", str(synthetic_prevalence_path())]) == 2
        assert "start point cannot be evaluated" in capsys.readouterr().err

    def test_shipped_synthetic_dataset_round_trip(self, tmp_path, capsys):
        from waningsim.data import synthetic_prevalence_path, synthetic_truth_config

        template = synthetic_truth_config().replace(omega=2.4)
        cfg_path = tmp_path / "template.json"
        cfg_path.write_text(config_to_json(template))
        code = main([
            "fit", "--config", str(cfg_path), "--data", str(synthetic_prevalence_path()),
            "--free", "omega", "--i0", "1e-4", "--start-year", "1999",
            "--max-iterations", "150", "--restarts", "0",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["converged"] is True
        assert abs(doc["data"]["parameters"]["omega"] - 2.0) < 1e-2


@pytest.fixture
def inputs(tmp_path, endemic_config_path):
    """Input files of every command: a config, a fit template with its data, a sweep spec."""
    years = np.arange(2000, 2006)
    values = simulate_annual_prevalence(ENDEMIC_CFG, years, 1999, 1e-4)
    data = tmp_path / "data.csv"
    data.write_text("year,prevalence\n" + "".join(f"{y},{float(v)!r}\n" for y, v in zip(years, values)))
    template = tmp_path / "template.json"
    template.write_text(config_to_json(ENDEMIC_CFG.replace(omega=2.4)))
    spec = TestSweep().write_spec(tmp_path)
    return {"config": endemic_config_path, "template": str(template), "data": str(data), "spec": spec,
            "dir": tmp_path}


class TestParserBuiltOnce:
    """``main`` builds its parser once per process; no command may leave
    state behind in it for the next."""

    @staticmethod
    def data_section(argv, out) -> str:
        assert main(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        if text.startswith("{"):
            return json.dumps(json.loads(text)["data"])
        return split_csv_artifact(text)[1]

    @pytest.mark.parametrize("first, second", [
        (["simulate", "--t-end", "20", "--samples", "0"], ["simulate", "--t-end", "20"]),
        (["fit", "--free", "omega", "--start-year", "1999", "--max-iterations", "3", "--restarts", "0",
          "--log-sse"],
         ["fit", "--free", "omega", "--start-year", "1999", "--max-iterations", "3", "--restarts", "0"]),
        (["sweep", "--format", "json"], ["sweep"]),
    ])
    def test_options_do_not_leak_between_commands(self, inputs, first, second):
        def argv(words):
            files = {"simulate": ["--config", inputs["config"]],
                     "fit": ["--config", inputs["template"], "--data", inputs["data"], "--i0", "1e-4"],
                     "sweep": ["--spec", inputs["spec"]]}[words[0]]
            return words[:1] + files + words[1:]

        out = inputs["dir"] / "out"
        fresh = {}
        for words in (first, second):
            build_parser.cache_clear()
            fresh[tuple(words)] = self.data_section(argv(words), out)
        build_parser.cache_clear()
        for words in (first, second, first, second):
            assert self.data_section(argv(words), out) == fresh[tuple(words)]
        assert fresh[tuple(first)] != fresh[tuple(second)]

    def test_bad_arguments_leave_the_parser_usable(self, inputs):
        good = ["simulate", "--config", inputs["config"], "--t-end", "20"]
        build_parser.cache_clear()
        expected = self.data_section(good, inputs["dir"] / "a.csv")
        for bad in (["simulate", "--config", inputs["config"], "--t-end", "20", "--samples", "many"],
                    ["simulate", "--t-end", "20"],
                    ["sweep", "--spec", inputs["spec"], "--format", "xml"],
                    ["no-such-command"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            assert self.data_section(good, inputs["dir"] / "b.csv") == expected
        assert build_parser() is build_parser()


class TestRerunsDifferOnlyInManifest:
    """Every command run twice on the same inputs writes the same bytes
    outside its manifest, and the manifest names the kernel."""

    @staticmethod
    def split(text: str):
        if text.startswith("{"):
            head, data = text.split('\n  "data": ', 1)
            prefix, manifest = head.split('"manifest": ', 1)
            return prefix + data, json.loads(manifest.rstrip(","))
        manifest_line, rest = text.split("\n", 1)
        return rest, json.loads(manifest_line.removeprefix("# manifest: "))

    @pytest.mark.parametrize("command", [
        ["simulate", "--format", "json"], ["simulate", "--format", "csv"], ["analyze"], ["sweep"],
        ["sweep", "--format", "json"], ["fit"], ["dfe"], ["r0"],
    ], ids=lambda words: "-".join(words).replace("--format-", ""))
    def test_two_runs(self, inputs, command):
        files = {"simulate": ["--config", inputs["config"], "--t-end", "30"],
                 "fit": ["--config", inputs["template"], "--data", inputs["data"], "--i0", "1e-4", "--free", "omega",
                         "--start-year", "1999", "--max-iterations", "5", "--restarts", "0"],
                 "sweep": ["--spec", inputs["spec"]]}.get(command[0], ["--config", inputs["config"]])
        texts = []
        for run in (1, 2):
            out = inputs["dir"] / f"run{run}"
            assert main(command[:1] + files + command[1:] + ["--out", str(out)]) == 0
            texts.append(out.read_text())
        (rest1, manifest1), (rest2, manifest2) = map(self.split, texts)
        assert rest1 == rest2
        assert manifest1["kernel"] == manifest2["kernel"] == stepper.active_kernel()
        assert manifest1["run_key"] == manifest2["run_key"]


class TestManifestOptions:
    """The manifest records every parsed option except the files read and
    written, and a sweep adds its spec's parameter, observable, grid size
    and horizon."""

    @pytest.mark.parametrize("words, options", [
        (["simulate", "--t-end", "30"],
         {"t_end": 30.0, "samples": 200, "i0": 1e-06, "rtol": 1e-10, "atol": 1e-12, "max_steps": 5000000,
          "format": "csv"}),
        (["simulate", "--t-end", "30", "--samples", "5", "--i0", "1e-5", "--rtol", "1e-8", "--format", "json"],
         {"t_end": 30.0, "samples": 5, "i0": 1e-05, "rtol": 1e-08, "atol": 1e-12, "max_steps": 5000000,
          "format": "json"}),
        (["analyze"], {}),
        (["dfe"], {}),
        (["r0"], {}),
        (["sweep"],
         {"parameter": "delta", "observable": "r0", "grid_size": 11, "t_end": 2000.0, "jobs": 1, "format": "csv"}),
        (["sweep", "--jobs", "2", "--format", "json"],
         {"parameter": "delta", "observable": "r0", "grid_size": 11, "t_end": 2000.0, "jobs": 2, "format": "json"}),
        (["fit", "--free", " omega, delta ", "--i0", "1e-4", "--start-year", "1999", "--max-iterations", "5",
          "--restarts", "0", "--log-sse"],
         {"data": "DATA", "free": ["omega", "delta"], "start_year": 1999, "i0": 0.0001, "log_sse": True,
          "max_iterations": 5, "restarts": 0}),
    ], ids=["simulate-csv", "simulate-json", "analyze", "dfe", "r0", "sweep-csv", "sweep-json", "fit"])
    def test_options(self, inputs, words, options):
        files = {"fit": ["--config", inputs["template"], "--data", inputs["data"]],
                 "sweep": ["--spec", inputs["spec"]]}.get(words[0], ["--config", inputs["config"]])
        out = inputs["dir"] / "artifact"
        assert main(words[:1] + files + words[1:] + ["--out", str(out)]) == 0
        manifest = TestRerunsDifferOnlyInManifest.split(out.read_text())[1]
        assert manifest["command"] == words[0]
        if "data" in options:
            options = dict(options, data=inputs["data"])
        assert manifest["options"] == options
        assert list(manifest["options"]) == sorted(options)


def test_module_entry_point_smoke(config_path):
    # the child imports the same waningsim as this test, wherever that lives
    src = str(Path(waningsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "waningsim", "r0", "--config", config_path],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["manifest"]["tool_version"]


class TestRatesNearTheBottomOfTheDoubleRange:
    """``beta0 * beta_n`` underflows, or the monic quadratic's ``a * a``
    overflows: ``analyze`` still reports, with no traceback and no false exit 4."""

    def analyze(self, tmp_path, capsys, cfg):
        path = tmp_path / "tiny.json"
        path.write_text(config_to_json(cfg))
        code = main(["analyze", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return json.loads(captured.out)["data"]

    def test_underflowing_transmission_product_is_subcritical(self, tmp_path, capsys):
        cfg = build_general(1, (1e-300, 1e-300), 22.59, 0.5885, 1e-300, 0.03127, (0.0, 0.07556))
        data = self.analyze(tmp_path, capsys, cfg)
        assert data["r0"]["regime"] == "stable"
        assert data["endemic"] is None
        assert all(y < -1e299 for y in data["localization"]["roots"])

    def test_overflowing_monic_coefficient_keeps_the_endemic_root(self, tmp_path, capsys):
        cfg = build_general(4, (1e-300, 1e-300, 1e-12, 0.7067, 26.84), 0.003037, 0.1036, 24.03, 1e-12,
                            (0.0, 0.5798, 0.5467, 0.3191, 0.9719))
        data = self.analyze(tmp_path, capsys, cfg)
        # beta0 negligible: the quadratic's small root is that of its linear part
        root = data["localization"]["margin"] / (cfg.beta[-1] * (cfg.mu + cfg.r))
        assert data["localization"]["roots"][1] == pytest.approx(root, rel=1e-12)
        assert data["endemic"]["i_star"] == pytest.approx(data["localization"]["roots"][1], rel=1e-4)
        assert data["consistency"] == {"checked": True, "consistent": True,
                                       "note": "unstable DFE with a unique stable endemic equilibrium"}

    def test_subnormal_margin_products_keep_the_no_waning_root(self, tmp_path, capsys, pertussis):
        # unscaled, the subnormal products put the roots at (-0.518, 1.861)
        data = self.analyze(tmp_path, capsys, pertussis.replace(mu=1e-300, **UNDERFLOWING_PRODUCTS))
        assert data["localization"]["roots"][1] == pytest.approx(data["endemic"]["i_star"], rel=1e-12, abs=0.0)


class TestFitStartPrevalence:
    @pytest.mark.parametrize("i0", ["0", "1", "2", "-1", "nan", "inf"])
    def test_i0_outside_the_unit_interval_exits_2_before_the_search(self, config_path, monkeypatch, capsys, i0):
        from waningsim import scanfit
        from waningsim.data import synthetic_prevalence_path

        def never(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(scanfit, "simulate_annual_prevalence", never)
        assert main(["fit", "--config", config_path, "--data", str(synthetic_prevalence_path()), "--i0", i0]) == 2
        assert "i0 must be finite and in (0, 1)" in capsys.readouterr().err
