"""Command-line interface: exit codes, manifests, and artifact layout."""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from waningsim import cli, dfe, model, scanfit, stepper
from waningsim.cli import build_parser, main
from waningsim.dfe import basic_reproduction_number, susceptible_block_matrix
from waningsim.model import build_general, config_digest, config_to_json
from waningsim.scanfit import simulate_annual_prevalence, substitute_parameter

from conftest import child_env, tiny_rate_configs
from oracles import solve_dfe_numeric

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

    def test_json_config_digest_computed_once_for_manifest_and_data(self, endemic_config_path, capsys,
                                                                     monkeypatch):
        sha256, hashed = model.hashlib.sha256, []
        monkeypatch.setattr(model, "hashlib", SimpleNamespace(sha256=lambda b: hashed.append(b) or sha256(b)))
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "10", "--format", "json"]) == 0
        assert len(hashed) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["config_hash"] == doc["data"]["config_hash"] == config_digest(ENDEMIC_CFG)

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
        # integer literals beyond the double range
        pytest.param("delta", 10**400, "delta must be finite, got an integer beyond the double range",
                     id="delta-huge-integer"),
        pytest.param("beta", [10**400, 2.0, 4.0], "beta entries must be finite, got an integer beyond the double range",
                     id="beta-huge-integer"),
        pytest.param("p", [0, 10**400, 0.5], "p entries must be finite, got an integer beyond the double range",
                     id="p-huge-integer"),
    ])
    def test_wrongly_typed_config_field_exits_2(self, tmp_path, capsys, field, value, message):
        cfg = json.loads(config_to_json(ENDEMIC_CFG))
        cfg[field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--t-end", "5"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_duplicate_config_key_exits_2(self, tmp_path, capsys, pertussis):
        # the last delta would give R0 5.30; the first, 0.979
        path = tmp_path / "twice.json"
        path.write_text(config_to_json(pertussis)[:-2] + ',\n  "delta": 5.0\n}')
        out = tmp_path / "r0.json"
        assert main(["r0", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: duplicate key 'delta'\n"
        assert not out.exists()

    @pytest.mark.parametrize("max_steps", [str(2**63), str(2**64 + 1)])
    def test_step_budget_beyond_int64_exits_2(self, endemic_config_path, capsys, max_steps):
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "5", "--max-steps", max_steps]) == 2
        assert f"max_steps must be >= 1 and < 2**63, got {max_steps}" in capsys.readouterr().err

    def test_nan_horizon_exits_2(self, endemic_config_path, capsys):
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "nan"]) == 2
        assert "t_end must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["-1", "-5"])
    def test_negative_samples_exits_2(self, endemic_config_path, samples, capsys):
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "5", "--samples", samples]) == 2
        assert f"--samples must be >= 0, got {samples}" in capsys.readouterr().err

    def test_more_samples_than_steps_exits_2_before_the_grid(self, endemic_config_path, capsys):
        # a grid of 10**30 + 1 times cannot be allocated; the check comes first
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "5", "--samples", str(10**30)]) == 2
        err = capsys.readouterr().err
        assert f"--samples {10**30} exceeds --max-steps 5000000" in err

    def test_nan_initial_prevalence_exits_2(self, endemic_config_path, capsys):
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "5", "--i0", "nan"]) == 2
        assert "not NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("i0", ["1.5", "-1", "nan"])
    def test_initial_prevalence_outside_the_unit_interval_names_i0(self, tmp_path, endemic_config_path, capsys, i0):
        out = tmp_path / "s.json"
        assert main(["simulate", "--config", endemic_config_path, "--t-end", "5", "--i0", i0, "--out", str(out)]) == 2
        assert "i0" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_below_the_least_step_is_reached(self, config_path, capsys):
        # 1e-15 is below 16 ulp(1), the least step the underflow test passes at t = 0
        assert main(["simulate", "--config", config_path, "--t-end", "1e-15", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["times"][-1] == 1e-15 and len(doc["data"]["times"]) == 201

    def test_stiff_blowup_exits_3(self, tmp_path, capsys):
        # the run needs about 430 attempted steps to reach 1000 y
        stiff = tmp_path / "stiff.json"
        stiff.write_text(config_to_json(build_general(1, (1e6, 1e6), 0.0, 1.0, 1.0, 0.0, (0.0, 0.0))))
        code = main(["simulate", "--config", str(stiff), "--t-end", "1000", "--max-steps", "200"])
        assert code == 3
        assert "integration failed" in capsys.readouterr().err

    def test_stiff_run_completes_on_the_implicit_step(self, tmp_path, capsys):
        stiff = tmp_path / "stiff.json"
        stiff.write_text(config_to_json(build_general(1, (1e6, 1e6), 0.0, 1.0, 1.0, 0.0, (0.0, 0.0))))
        assert main(["simulate", "--config", str(stiff), "--t-end", "1000", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["times"][-1] == 1000.0
        assert 0 < data["n_implicit"] < data["n_accepted"]


class TestAnalyze:
    def test_subcritical_report(self, config_path, capsys):
        assert main(["analyze", "--config", config_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        data = doc["data"]
        assert data["r0"]["regime"] == "stable"
        assert data["endemic"] is None
        assert not data["localization"]["validity"]  # waning beyond certificate
        assert data["consistency"]["consistent"]

    @pytest.mark.parametrize("factor", [1.0, 5.0], ids=["pertussis", "pertussis-beta-x5"])
    def test_localization_is_the_no_waning_roots_and_the_margin(self, tmp_path, capsys, pertussis, factor):
        path = tmp_path / "config.json"
        path.write_text(config_to_json(pertussis.replace(beta=factor * pertussis.beta)))
        assert main(["analyze", "--config", str(path)]) == 0
        loc = json.loads(capsys.readouterr().out)["data"]["localization"]
        assert set(loc) == {"exists", "validity", "roots", "margin"}
        assert None not in (loc["exists"], loc["validity"], loc["margin"], *loc["roots"])

    def test_supercritical_certified_report(self, endemic_config_path, capsys):
        assert main(["analyze", "--config", endemic_config_path]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["r0"]["regime"] == "unstable"
        assert data["localization"]["validity"]
        assert data["endemic"]["certification"] == "certified-unique"
        assert data["endemic_stability"]["classification"] == "asymptotically_stable"
        assert data["consistency"]["checked"] and data["consistency"]["consistent"]
        assert max(abs(a - b) for a, b in zip(data["dfe"]["s"], solve_dfe_numeric(ENDEMIC_CFG).s)) < 1e-10

    def test_large_waning_uncertified_flagged(self, tmp_path, capsys):
        cfg = ENDEMIC_CFG.replace(delta=1.5)
        path = tmp_path / "big_delta.json"
        path.write_text(config_to_json(cfg))
        assert main(["analyze", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert not data["localization"]["validity"]
        assert data["endemic"]["certification"] == "certified-unique"
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
        assert data["endemic"]["certification"] == "certified-unique"
        assert data["endemic_stability"]["classification"] == "asymptotically_stable"
        assert data["consistency"]["consistent"]

    @pytest.mark.parametrize("beta0", [0.0, 1.0], ids=["linear", "quadratic"])
    def test_huge_rates_are_analyzed(self, tmp_path, capsys, beta0):
        # mu**2 and mu**3 overflow in the given time unit (a Python float
        # power raises), not in the rates of model.unit_rates
        path = tmp_path / "huge_mu.json"
        path.write_text(config_to_json(build_general(1, (beta0, 2e200), 0.0, 1e200, 1.0, 0.0, (0.0, 0.0))))
        assert main(["analyze", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["data"]["r0"]["r0"] == 2.0

    def test_close_roots_below_the_relative_separation_are_certified(self, tmp_path, capsys):
        # R0 = 1.0239; the no-waning roots -0.0987 and 0.0142 lie 0.113 apart,
        # less than delta^(1/3) = 0.203 but more than (delta/rho)^(1/3) = 0.066
        cfg = build_general(2, (13.867219307387971, 24.344194668484025, 28.393508740335353), 0.00832366110852375,
                            0.06893092843434542, 14.032112733393582, 2.7716960948033003,
                            (0.0, 0.5935657392674846, 0.6672214446619615))
        path = tmp_path / "close_roots.json"
        path.write_text(config_to_json(cfg))
        assert main(["analyze", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        roots = data["localization"]["roots"]
        assert roots == [pytest.approx(-0.0987, abs=1e-4), pytest.approx(0.0142, abs=1e-4)]
        assert data["localization"]["exists"] == "unique" and data["endemic_error"] is None
        assert data["endemic"]["i_star"] == pytest.approx(0.016298, abs=1e-6)
        assert data["endemic"]["certification"] == "certified-unique"
        assert data["consistency"]["checked"] and data["consistency"]["consistent"]

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
        # R0 is 0.959: no root
        ({"delta": 0.2}, (None, None, None)),
        ({"delta": 0.0}, (None, None, None)),
        # the no-waning condition reduces to x^2 + 1.036 x - 0.964 = 0; its
        # products are subnormal unless the rates are scaled first
        (UNDERFLOWING_PRODUCTS,
         (pytest.approx(0.5921008963152855, rel=1e-12, abs=0.0), "certified-unique", None)),
        (dict(n=1, beta=(1e-12, 13.80), delta=0.0, r=1e-300, omega=0.0, p=(0.0, 0.248)),
         (1.0, "certified-unique", None)),
        # roots far below 1e-285, found to the relative tolerance, not an absolute one
        (dict(n=1, beta=(0.0, 0.09468161530643912), delta=0.0, r=0.012349673970336606, omega=0.0, p=(0.0, 0.878)),
         (pytest.approx(7.041208505847825e-299, rel=1e-12, abs=0.0), "certified-unique", None)),
        (dict(n=1, beta=(1e-300, 309.58707489458175), delta=0.0, r=1.341042845006398, omega=0.0, p=(0.0, 0.008)),
         (pytest.approx(7.424582213246018e-301, rel=1e-12, abs=0.0), "certified-unique", None)),
        # r and mu are below the rounding of the other terms of the condition G,
        # which is exactly 0 at prevalence 1: the root 1 needs no Brent search
        # (the condition r + mu - beta . S took over 100 iterations here)
        (dict(n=4, beta=(0.001155515437346742, 0.01838831675173134, 12.727612456653722, 17.264982046268692,
                         968.2152064133929), delta=1000.0, r=1e-300, omega=17.0, p=(0.0, 0.158, 0.066, 0.084, 0.894)),
         (1.0, "certified-unique", None)),
        # G(1) = r + mu - b (beta_n - beta . w/sum(w)) > r; at these rates it
        # rounds to 0, and the root below 1 is 1 to double precision
        (dict(n=3, beta=(0.017670407866605457, 0.024934869212355652, 0.71253018222773, 1.3292926338282425),
              delta=0.0, r=1e-300, omega=0.02, p=(0.0, 0.658, 0.778, 0.637)),
         (1.0, "certified-unique", None)),
        # R0 is 1.0e-11 and G > 0 on [0, 1], where the rounding noise of
        # r + mu - beta . S crosses 0 in the last cell
        (dict(n=4, beta=(0.0, 1e-300, 1e-12, 0.006173893931142045, 0.2200220751333211), delta=0.003222199039327274,
              r=0.0037258554729891567, omega=63.641113389198146, p=(0.0, 0.236, 0.62, 0.041, 0.772)),
         (None, None, None)),
        # r + mu - beta . S is rounding noise on (0, 1], G is not: one root,
        # equal to that of a 700-digit dense solve
        (dict(n=1, beta=(718.230197215631, 1412.97883069321), delta=0.001, r=1000.0, omega=1e-300, p=(0.0, 0.466)),
         (pytest.approx(1.0372775952089367e-06, rel=1e-12, abs=0.0), "certified-unique", None)),
        # R0 is 1e-22 and G > 0 on [0, 1]; a noise crossing of r + mu - beta . S
        # gave a root whose residual failed the stale-solution check (exit 2)
        (dict(n=2, beta=(1e-300, 1e-12, 1e-12), delta=1e-12, r=0.03999514033254006, omega=1.990620263801867,
              p=(0.0, 0.129, 0.208)),
         (None, None, None)),
        # the linear root's product beta_n * (r + mu) underflows to 0
        (dict(n=1, beta=(0.0, 1e-300), delta=0.0, r=1e-300, omega=0.0, p=(0.0, 0.5)), (None, None, None)),
        # mu is 3.7e-17 beta_n: G(1) = r + b (omega_n + mu + beta . w/sum(w)) > 0,
        # which the sum r + mu - beta_n b + ... rounded below 0, leaving no
        # bracket; the root 1 - mu/beta_n is 1 to double precision
        (dict(n=1, beta=(0.0, 2.0**-942), delta=2.0**-942, r=5e-324, omega=0.0, p=(0.0, 0.0)),
         (1.0, "certified-unique", None)),
        # sum(S(x)) = 1 + x r/mu leaves the double range for x > 0.1; the
        # search evaluates G alone, which stays below the largest rate
        (dict(n=1, beta=(0.0, 0.0), delta=1.0, r=1e9, omega=0.0, p=(0.0, 0.0)), (None, None, None)),
        # R0 is 2.5e16; the existence margin 2.5e-584 underflows to 0, and its
        # sign comes from the scaled rates: the root 1 - 4e-17 is 1.0
        (dict(n=1, beta=(0.0, 2.5e-284), delta=0.0, r=5e-324, omega=0.0, p=(0.0, 0.0)),
         (1.0, "certified-unique", None)),
    ], ids=["0.2", "0.0", "underflowing-products", "tiny-beta0", "linear-root-near-zero", "quadratic-root-near-zero",
            "long-brent-search", "root-at-one", "noise-crossing-in-last-cell", "noise-bracket",
            "stale-noise-root", "linear-root-product-underflows", "birth-rate-below-rounding-at-one",
            "profile-overflows-off-root", "margin-underflows"])
    def test_vanishing_birth_rate_is_reported(self, tmp_path, capsys, request, pertussis, fields, expected):
        # mu/rho, rho the largest rate, is tiny, so the eigenvalue -mu sits in
        # the marginal band
        path = tmp_path / "tiny_mu.json"
        path.write_text(config_to_json(pertussis.replace(mu=1e-300, **fields)))
        assert main(["analyze", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        endemic = data["endemic"] or {}
        assert (endemic.get("i_star"), endemic.get("certification"), data["endemic_error"]) == expected
        if request.node.callspec.id == "linear-root-product-underflows":
            # every rate is 1e-300 or 0, so no rate is small beside the others:
            # the eigenvalues -1e-300 lie outside the band 1e-10 rho (mu**2
            # underflowed, and the band held them, only in the given time unit)
            assert data["consistency"] == {"checked": True, "consistent": True,
                                           "note": "stable DFE and no endemic equilibrium"}
        else:
            assert not data["consistency"]["checked"]

    def test_tiny_rate_endemic_states_lie_on_the_simplex(self, tmp_path, capsys):
        path = tmp_path / "tiny_rates.json"
        faults = []
        for k, cfg in enumerate(tiny_rate_configs(300, seed=5)):
            path.write_text(config_to_json(cfg))
            code = main(["analyze", "--config", str(path)])
            captured = capsys.readouterr()
            if code != 0:
                faults.append((k, f"exit {code}: {captured.err.strip()}"))
                continue
            data = json.loads(captured.out)["data"]
            endemic = data["endemic"]
            if endemic is not None:
                total = math.fsum(endemic["s_star"]) + endemic["i_star"]
                if abs(total - 1.0) > 1e-9:
                    faults.append((k, f"i* = {endemic['i_star']!r} off the simplex: total {total!r}"))
            elif data["r0"]["r0"] > 1.0 + 1e-9:
                faults.append((k, f"R0 = {data['r0']['r0']!r} without an endemic state: {data['endemic_error']}"))
        assert not faults, f"{len(faults)} faults, first {faults[:3]}"

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
    def test_dfe_document(self, config_path, pertussis, capsys):
        assert main(["dfe", "--config", config_path]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert set(data) == {"s", "i"}
        assert abs(sum(data["s"]) - 1.0) < 1e-12
        assert max(abs(a - b) for a, b in zip(data["s"], solve_dfe_numeric(pertussis).s)) < 1e-10

    def test_dfe_answers_without_a_dense_solve(self, config_path, pertussis, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise np.linalg.LinAlgError("the closed form needs no dense solve")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        assert main(["dfe", "--config", config_path]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["s"] == dfe.solve_dfe_closed_form(pertussis).s.tolist()

    def test_dfe_on_tiny_rates_is_the_closed_form(self, tmp_path, capsys):
        # a dense solve of these blocks is singular on some and off by up to
        # 1.0 on others; dfe reports the profile that r0 and analyze use
        path = tmp_path / "tiny_rates.json"
        faults = []
        for k, cfg in enumerate(tiny_rate_configs(1500, seed=5)):
            path.write_text(config_to_json(cfg))
            code = main(["dfe", "--config", str(path)])
            captured = capsys.readouterr()
            if code != 0:
                faults.append((k, f"exit {code}: {captured.err.strip()}"))
                continue
            data = json.loads(captured.out)["data"]
            if set(data) != {"s", "i"} or data["s"] != basic_reproduction_number(cfg).dfe.s.tolist():
                faults.append((k, f"data {data!r}"))
        assert not faults, f"{len(faults)} faults, first {faults[:3]}"

    def test_r0_document(self, config_path, capsys):
        assert main(["r0", "--config", config_path]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["regime"] == "stable"
        assert 0 < data["r0"] < 1

    @pytest.mark.parametrize("command", ["dfe", "analyze"])
    def test_singular_numeric_dfe_exits_2(self, tmp_path, capsys, command):
        # the susceptible block is singular to working precision, which no
        # command solves densely: both report the closed forms, exact here
        path = tmp_path / "singular.json"
        path.write_text(config_to_json(build_general(1, (1.0, 2.0), 0.5, 1e-300, 1.0, 1.0, (0.0, 0.5))))
        assert main([command, "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        if command == "dfe":
            assert data == {"s": [0.5, 0.5], "i": 0.0}
            return
        assert data["r0"]["r0"] == 1.5
        assert data["dfe"]["s"] == [0.5, 0.5]
        assert (data["endemic"]["i_star"], data["endemic"]["s_star"]) == (0.25, [0.5, 0.25])
        assert data["endemic_error"] is None
        assert "dfe_numeric_gap" not in data

    @pytest.mark.parametrize("command, target, message", [
        (["analyze"], (cli, "analyze_config"),
         "Unable to allocate 74.5 GiB for an array with shape (100002, 100002) and data type float64"),
        (["simulate", "--t-end", "10"], (stepper, "integrate_core"), "the C kernel could not allocate its step record"),
    ], ids=["analyze", "simulate"])
    def test_out_of_memory_exits_2(self, config_path, capsys, monkeypatch, command, target, message):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(*target, out_of_memory)
        assert main([*command, "--config", config_path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["r0", "analyze"])
    def test_non_finite_threshold_exits_2(self, config_path, capsys, monkeypatch, command):
        def nan_dfe(config):
            return dfe.DfeSolution(s=np.full(config.n + 1, np.nan))

        monkeypatch.setattr(dfe, "solve_dfe_closed_form", nan_dfe)
        assert main([command, "--config", config_path]) == 2
        captured = capsys.readouterr()
        assert "transmission level at the disease-free equilibrium is nan" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["r0", "analyze"])
    def test_subnormal_birth_rate_exits_2(self, tmp_path, capsys, command):
        # here |d_0| = mu at prevalence 0, and 1/mu overflows in the tier weights
        path = tmp_path / "subnormal_mu.json"
        path.write_text('{"n": 1, "beta": [0.0, 2.0], "delta": 0.0, "mu": 5e-324, "r": 1.0, "omega": 1.0, '
                        '"p": [0.0, 0.5]}')
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: mu must be finite and >= 2.2250738585072014e-308, got 5e-324\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["r0", "analyze"])
    def test_overflowing_outflow_exits_2(self, tmp_path, capsys, command):
        # delta + omega + mu + beta_n, the bound on every tier's outflow, is inf
        path = tmp_path / "overflow.json"
        path.write_text('{"n": 1, "beta": [1.5e308, 1.5e308], "delta": 1e308, "mu": 1.0, "r": 1.0, '
                        '"omega": 1.0, "p": [0.0, 0.5]}')
        out = tmp_path / "out.json"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: delta + omega + mu + beta_n must be finite, "
                                "got 1e+308 + 1.0 + 1.0 + 1.5e+308\n")
        assert captured.out == "" and not out.exists()


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
        ({"grid": [0.1, 10**400]}, "grid[1] must be finite, got an integer beyond the double range"),
        ({"grid": {"start": 0, "stop": -10**400, "num": 3}},
         "grid stop must be finite, got an integer beyond the double range"),
        ({"t_end": 10**400}, "t_end must be finite, got an integer beyond the double range"),
    ])
    def test_wrongly_typed_spec_field_exits_2(self, tmp_path, capsys, overrides, message):
        assert main(["sweep", "--spec", self.write_spec(tmp_path, **overrides)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("member, twice", [
        ('"observable"', '"grid": [0.2, 0.3], "observable"'),
        ('"num": 11', '"num": 3, "num": 11'),
        ('"delta": ', '"delta": 0.5, "delta": '),
    ], ids=["grid", "num", "config-delta"])
    def test_duplicate_spec_key_exits_2(self, tmp_path, capsys, member, twice):
        path = Path(self.write_spec(tmp_path))
        path.write_text(path.read_text().replace(member, twice, 1))
        assert main(["sweep", "--spec", str(path)]) == 2
        key = twice.split('"')[1]
        assert capsys.readouterr().err == f"error: duplicate key {key!r}\n"

    @pytest.mark.parametrize("grid, message", [
        ({"start": 0.1, "stop": 0.3, "num": 3, "endpoint": False}, "unknown grid keys: endpoint"),
        ({"start": 0.1, "stop": 0.3, "num": 3, "step": 0.1, "Num": 3}, "unknown grid keys: Num, step"),
        ({"start": 0.1, "stop": 0.3, "num": -1}, "grid num must be >= 2, got -1"),
        ({"start": 0.1, "stop": 0.3, "num": 0}, "grid num must be >= 2, got 0"),
        ({"start": 0.1, "stop": 0.3, "num": 1}, "grid num must be >= 2, got 1"),
        ({"start": 0.1, "stop": 0.3, "num": 10**30}, f"grid num must be <= {scanfit.MAX_GRID_NUM}, got {10**30}"),
        ({"start": 0.1, "stop": 0.3, "num": scanfit.MAX_GRID_NUM + 1},
         f"grid num must be <= {scanfit.MAX_GRID_NUM}, got {scanfit.MAX_GRID_NUM + 1}"),
        ({"start": 0.1, "num": 3}, "missing grid keys: stop"),
        ({"num": 3, "Stop": 0.3}, "unknown grid keys: Stop"),
        ({}, "missing grid keys: start, stop, num"),
    ], ids=["endpoint", "two-unknown", "negative-num", "zero-num", "one-num", "huge-num", "num-above-bound",
            "missing-stop", "unknown-before-missing", "empty"])
    def test_bad_grid_object_exits_2(self, tmp_path, capsys, grid, message):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--spec", self.write_spec(tmp_path, grid=grid), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ([0.1, 0.2], "sweep spec must be a JSON object, got list"),
        ("delta", "sweep spec must be a JSON object, got str"),
        # missing spec keys are named before the config, itself incomplete, is read
        ({"config": {"n": 1}, "parameter": "delta"}, "missing sweep spec keys: grid, observable"),
        ({"config": {}, "parameter": "delta", "grid": {"start": 0.1, "num": 3}, "observable": "r0"},
         "missing config keys: n, beta, delta, mu, r, omega, p"),
    ], ids=["list", "string", "missing-spec-keys", "missing-config-keys"])
    def test_spec_that_is_no_spec_object_exits_2(self, tmp_path, capsys, spec, message):
        path, out = tmp_path / "spec.json", tmp_path / "s.csv"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_omega_n_sweep_without_last_tier_coverage_runs_no_point(self, tmp_path, capsys, monkeypatch):
        # every point would fail substitute_parameter's check, so the spec does
        monkeypatch.setattr(scanfit, "_evaluate_point", lambda *args: pytest.fail("a sweep point ran"))
        config = json.loads(config_to_json(ENDEMIC_CFG.replace(p=(0.0, 0.5, 0.0))))
        out = tmp_path / "s.csv"
        spec = self.write_spec(tmp_path, config=config, parameter="omega_n", grid=[0.1, 0.2, 0.3])
        assert main(["sweep", "--spec", spec, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: omega_n sweep requires positive coverage of the last tier\n"
        assert not out.exists()

    def test_two_point_grid_object(self, tmp_path):
        out = tmp_path / "s.csv"
        grid = {"start": 0.1, "stop": 0.3, "num": 2}
        assert main(["sweep", "--spec", self.write_spec(tmp_path, grid=grid), "--out", str(out)]) == 0
        rows = split_csv_artifact(out.read_text())[1].splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.1", "0.3"]

    @pytest.mark.parametrize("jobs", ["0", "-3", "2"])
    def test_bad_jobs_exits_2(self, tmp_path, capsys, monkeypatch, jobs):
        from waningsim import scanfit

        monkeypatch.setattr(scanfit, "_evaluate_point", lambda *args: pytest.fail("a sweep point ran"))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--spec", self.write_spec(tmp_path), "--jobs", jobs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --jobs must be 1, got {jobs}: sweeps run in one process\n"
        assert not out.exists()

    def test_max_real_part_across_r0_one_is_the_closed_form(self, tmp_path, capsys, pertussis):
        # beta0 from 0 to 20 takes the bundled config across R0 = 1 (at beta0 = 9.37)
        spec = self.write_spec(tmp_path, config=json.loads(config_to_json(pertussis)), parameter="beta0",
                               grid={"start": 0.0, "stop": 20.0, "num": 41}, observable="max_real_part")
        assert main(["sweep", "--spec", spec, "--format", "json"]) == 0
        points = json.loads(capsys.readouterr().out)["data"]["points"]
        labels = []
        for point in points:
            cfg = substitute_parameter(pertussis, "beta0", point["value"])
            r0 = dfe.basic_reproduction_number(cfg)
            label = "endemic" if r0.r0 > 1.0 else "dfe_stable"
            assert repr(point["observable"]) == repr(max(r0.threshold_sum - (cfg.r + cfg.mu), -cfg.mu)), point
            assert point["error"] is None and point["classification"] == label, point
            assert (point["observable"] > 0.0) == (label == "endemic"), point
            labels.append(label)
        flip = labels.index("endemic")
        assert flip > 0 and labels == ["dfe_stable"] * flip + ["endemic"] * (len(points) - flip), labels

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

    def test_data_path_with_a_newline_is_a_file(self, inputs, tmp_path, capsys):
        # fit opens --data whatever its name holds
        path = tmp_path / "we\nird.csv"
        argv = ["fit", "--config", inputs["template"], "--data", str(path), "--i0", "1e-4", "--free", "omega",
                "--start-year", "1999", "--max-iterations", "5", "--restarts", "0"]
        assert main(argv) == 2
        assert "No such file" in capsys.readouterr().err
        path.write_bytes(Path(inputs["data"]).read_bytes())
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["data"]["parameters"]["omega"] > 0

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

    @pytest.mark.parametrize("start_year", [str(10**30), str(-10**30), "2001"],
                             ids=["huge", "huge-negative", "after-the-first-year"])
    def test_start_year_outside_its_range_exits_2(self, config_path, capsys, start_year):
        # the shipped data's years run from 2000 to 2024
        from waningsim.data import synthetic_prevalence_path

        assert main(["fit", "--config", config_path, "--data", str(synthetic_prevalence_path()),
                     f"--start-year={start_year}"]) == 2
        assert capsys.readouterr().err == (f"error: start year must lie in [{2024 - 2**63 + 1}, 2000], "
                                           f"got {start_year}\n")

    def test_start_point_that_fails_exits_2(self, config_path, monkeypatch, capsys):
        from waningsim import scanfit
        from waningsim.data import synthetic_prevalence_path
        from waningsim.dynamics import IntegrationError

        def failing(*args, **kwargs):
            raise IntegrationError("step budget exhausted", 0.5)

        monkeypatch.setattr(scanfit, "simulate_annual_prevalence", failing)
        assert main(["fit", "--config", config_path, "--data", str(synthetic_prevalence_path())]) == 2
        assert "start point cannot be evaluated" in capsys.readouterr().err

    def test_data_with_a_byte_order_mark_fits_as_the_plain_file(self, tmp_path, capsys):
        # spreadsheet programs export UTF-8 CSV with a leading U+FEFF
        from waningsim.data import synthetic_prevalence_path, synthetic_truth_config

        template = tmp_path / "template.json"
        template.write_text(config_to_json(synthetic_truth_config().replace(omega=2.4)))
        plain = synthetic_prevalence_path()
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        fits = []
        for data in (plain, marked):
            assert main(["fit", "--config", str(template), "--data", str(data), "--free", "omega", "--i0", "1e-4",
                         "--start-year", "1999", "--max-iterations", "20", "--restarts", "0"]) == 0
            fits.append(json.loads(capsys.readouterr().out)["data"])
        assert fits[1] == fits[0]
        assert fits[0]["parameters"]["omega"] != 2.4

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


class TestArgumentDispatch:
    """``main`` gives a known command's arguments straight to that command's
    parser, and parses them once; for every command a missing required
    option, a badly typed or missing value, an unknown option and
    ``--help`` exit with the status, standard output and standard error of
    the full parser, and so do no command, ``--help`` alone and an unknown
    command."""

    # arguments each command's parser accepts; the files need not exist, as no command runs
    VALID = {
        "simulate": ["--config", "c.json", "--t-end", "30", "--samples", "5", "--format", "json", "--out", "o"],
        "analyze": ["--config", "c.json"],
        "dfe": ["--config", "c.json", "--out", "-"],
        "r0": ["--config", "c.json"],
        "sweep": ["--spec", "s.json", "--jobs", "2", "--format", "json"],
        "fit": ["--config", "c.json", "--data", "d.csv", "--free", "omega, delta", "--start-year", "1999",
                "--log-sse", "--max-iterations", "7", "--restarts", "0"],
    }
    MISSING = {
        "simulate": ["--config", "c.json"],
        "analyze": [],
        "dfe": ["--out", "o"],
        "r0": [],
        "sweep": ["--jobs", "2"],
        "fit": ["--config", "c.json"],
    }
    # a value of the wrong type, or none, where a command has no typed option
    BAD_VALUE = {
        "simulate": ["--config", "c.json", "--t-end", "30", "--samples", "many"],
        "analyze": ["--config"],
        "dfe": ["--config", "c.json", "--out"],
        "r0": ["--config"],
        "sweep": ["--spec", "s.json", "--format", "xml"],
        "fit": ["--config", "c.json", "--data", "d.csv", "--max-iterations", "1.5"],
    }

    @staticmethod
    def outcome(call, argv, capsys):
        """Exit status, standard output and standard error of a call that exits."""
        with pytest.raises(SystemExit) as exc:
            call(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("command", list(VALID))
    @pytest.mark.parametrize("case", ["missing", "bad-value", "unknown-option", "unknown-option-value", "help"])
    def test_errors_and_help_match_the_full_parser(self, command, case, capsys):
        argv = [command] + {
            "missing": self.MISSING[command],
            "bad-value": self.BAD_VALUE[command],
            "unknown-option": self.VALID[command] + ["--bogus"],
            "unknown-option-value": ["--seed", "3"] + self.VALID[command],
            "help": self.VALID[command][:2] + ["--help"],
        }[case]
        expected = self.outcome(build_parser().parse_args, argv, capsys)
        assert expected[0] == (0 if case == "help" else 2)
        assert self.outcome(main, argv, capsys) == expected

    @pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["no-such-command"], ["--config", "c.json"],
                                      ["Analyze", "--config", "c.json"]],
                             ids=["no-command", "help", "h", "unknown-command", "option-first", "wrong-case"])
    def test_no_or_unknown_command_matches_the_full_parser(self, argv, capsys):
        expected = self.outcome(build_parser().parse_args, argv, capsys)
        assert self.outcome(main, argv, capsys) == expected

    @pytest.mark.parametrize("command", list(VALID))
    def test_arguments_parse_as_the_full_parser_parses_them(self, command):
        argv = [command] + self.VALID[command]
        assert vars(cli._parse(argv)) == vars(build_parser().parse_args(argv))
        assert vars(cli._parse(tuple(argv))) == vars(build_parser().parse_args(argv))

    def test_a_known_command_is_parsed_once(self, inputs, monkeypatch):
        parses = []
        original = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            parses.append(parser.prog)
            return original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert main(["r0", "--config", inputs["config"], "--out", str(inputs["dir"] / "r0.json")]) == 0
        assert parses == ["waningsim r0"]


class TestRerunsDifferOnlyInManifest:
    """Every command run twice on the same inputs writes the same bytes
    outside its manifest, and the manifest names the kernel.  A third run
    with the Python writers (``stepper.format_floats`` set to ``None``, as
    without the compiled library) writes those bytes too, and every JSON
    artifact is strict JSON."""

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
    def test_two_runs(self, inputs, command, monkeypatch):
        files = {"simulate": ["--config", inputs["config"], "--t-end", "30"],
                 "fit": ["--config", inputs["template"], "--data", inputs["data"], "--i0", "1e-4", "--free", "omega",
                         "--start-year", "1999", "--max-iterations", "5", "--restarts", "0"],
                 "sweep": ["--spec", inputs["spec"]]}.get(command[0], ["--config", inputs["config"]])
        texts = []
        for run in (1, 2, 3):
            if run == 3:
                monkeypatch.setattr(stepper, "format_floats", None)
            out = inputs["dir"] / f"run{run}"
            assert main(command[:1] + files + command[1:] + ["--out", str(out)]) == 0
            texts.append(out.read_text())
        (rest1, manifest1), (rest2, manifest2), (python_rest, _) = map(self.split, texts)
        assert rest1 == rest2 == python_rest
        assert manifest1["kernel"] == manifest2["kernel"] == stepper.active_kernel()
        assert manifest1["run_key"] == manifest2["run_key"]
        if texts[0].startswith("{"):
            json.loads(texts[0], parse_constant=pytest.fail)


# runs the commands given as JSON in a fresh interpreter, with every import
# of SciPy made to fail first when asked, and reports the exit codes and the
# SciPy modules loaded after the import of the CLI and after each command
WITHOUT_SCIPY = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from waningsim.cli import main

def scipy_modules():
    return sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "scipy" and module)

report = {"after_import": scipy_modules(), "codes": [], "loaded": []}
for argv in json.loads(sys.argv[2]):
    report["codes"].append(main(argv))
    report["loaded"].append(scipy_modules())
print(json.dumps(report))
"""


class TestWithoutScipy:
    """No command needs SciPy, and none imports it: each writes the data
    section of the in-process run in a fresh interpreter that cannot import
    SciPy, and a fresh interpreter that can has loaded none of it."""

    @staticmethod
    def commands(inputs) -> list:
        words = []
        for observable in ("endemic_I", "terminal_prevalence"):
            spec = {"config": json.loads(config_to_json(ENDEMIC_CFG)), "parameter": "delta",
                    "grid": [0.0, 0.02, 0.3], "observable": observable, "t_end": 200.0}
            path = inputs["dir"] / f"spec_{observable}.json"
            path.write_text(json.dumps(spec))
            words.append(["sweep", "--spec", str(path)])
        config = ["--config", inputs["config"]]
        words += [["analyze", *config], ["simulate", *config, "--t-end", "30"], ["dfe", *config], ["r0", *config],
                  ["fit", "--config", inputs["template"], "--data", inputs["data"], "--i0", "1e-4", "--free", "omega",
                   "--start-year", "1999"]]
        return [argv + ["--out", str(inputs["dir"] / f"{k}-{argv[0]}")] for k, argv in enumerate(words)]

    @pytest.mark.parametrize("mode", ["blocked", "importable"])
    def test_every_command_runs_without_scipy(self, inputs, mode):
        commands = self.commands(inputs)
        expected = []
        for argv in commands:
            assert main(argv) == 0
            expected.append(TestRerunsDifferOnlyInManifest.split(Path(argv[-1]).read_text())[0])
        proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, mode, json.dumps(commands)],
                              capture_output=True, text=True, timeout=300, env=child_env())
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["codes"] == [0] * len(commands), proc.stderr
        assert report["after_import"] == [] and report["loaded"] == [[]] * len(commands)
        for argv, data in zip(commands, expected):
            assert TestRerunsDifferOnlyInManifest.split(Path(argv[-1]).read_text())[0] == data, argv[0]


IMPORT_BOUNDARY = """
import json, sys
from waningsim import stepper
from waningsim.cli import main

watched, argv = json.loads(sys.argv[1]), json.loads(sys.argv[2])
report = {"kernel": stepper.active_kernel(), "after_import": [name for name in watched if name in sys.modules]}
if argv:
    report["code"] = main(argv)
    report["after_command"] = [name for name in watched if name in sys.modules]
print(json.dumps(report))
"""


class TestImportBoundary:
    """A command loads only the modules it runs: in a fresh interpreter,
    ``import waningsim.cli`` loads none of the modules below, ``r0``, ``dfe``
    and ``simulate`` none either, ``analyze`` the equation layers but not the
    sweep and fit layer, and no command loads a process pool's modules."""

    WATCHED = ("waningsim.scanfit", "waningsim.endemic", "waningsim.stability", "csv", "concurrent.futures",
               "concurrent.futures.process", "multiprocessing", "subprocess")
    EQUATIONS = ["waningsim.endemic", "waningsim.stability"]
    SCANFIT = ["waningsim.scanfit", *EQUATIONS, "csv"]

    def run(self, argv) -> list:
        """The watched modules loaded after ``argv`` ran in a fresh interpreter."""
        proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY, json.dumps(self.WATCHED), json.dumps(argv)],
                              capture_output=True, text=True, timeout=300, env=child_env())
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report.get("code", 0) == 0, proc.stderr
        # this process has loaded the compiled library, so the child finds it
        # cached; without a usable compiler each import tries a build
        assert report["kernel"] == stepper.active_kernel()
        built = {"subprocess"} if report["kernel"] == "python" else set()
        assert set(report["after_import"]) - built == set()
        return sorted(set(report.get("after_command", [])) - built)

    @pytest.mark.parametrize("command, loaded", [
        ([], []),
        (["r0"], []),
        (["dfe"], []),
        (["simulate", "--t-end", "30"], []),
        (["analyze"], EQUATIONS),
        (["sweep", "--jobs", "1"], SCANFIT),
        (["fit"], SCANFIT),
    ], ids=["import", "r0", "dfe", "simulate", "analyze", "sweep-serial", "fit"])
    def test_command_loads_only_what_it_runs(self, inputs, command, loaded):
        files = {"fit": ["--config", inputs["template"], "--data", inputs["data"], "--i0", "1e-4", "--free", "omega",
                         "--start-year", "1999", "--max-iterations", "5", "--restarts", "0"],
                 "sweep": ["--spec", inputs["spec"]]}
        argv = []
        if command:
            argv = command + files.get(command[0], ["--config", inputs["config"]]) + ["--out", str(inputs["dir"] / "out")]
        assert self.run(argv) == sorted(loaded)


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
        (["sweep", "--format", "json"],
         {"parameter": "delta", "observable": "r0", "grid_size": 11, "t_end": 2000.0, "jobs": 1, "format": "json"}),
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
    proc = subprocess.run(
        [sys.executable, "-m", "waningsim", "r0", "--config", config_path],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
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
    def test_i0_outside_the_unit_interval_exits_2_before_the_search(self, tmp_path, config_path, monkeypatch, capsys,
                                                                      i0):
        from waningsim import scanfit
        from waningsim.data import synthetic_prevalence_path

        def never(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(scanfit, "simulate_annual_prevalence", never)
        out = tmp_path / "fit.json"
        assert main(["fit", "--config", config_path, "--data", str(synthetic_prevalence_path()), "--i0", i0,
                     "--out", str(out)]) == 2
        assert "i0 must be finite and in (0, 1)" in capsys.readouterr().err
        assert not out.exists()
