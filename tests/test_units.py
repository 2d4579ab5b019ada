"""The time unit changes no answer of ``analyze``.

The model is homogeneous in its rates, ``f(y; lambda theta) = lambda f(y;
theta)``, so a change of time unit multiplies every rate by one factor
``lambda``: R0, the susceptible profiles, the prevalences, the localization
roots and every label stay as they are, while the eigenvalues and
``threshold_sum`` scale by ``lambda``.
Under a power of two every rate scales exactly, so the invariants are
compared bit for bit; per-day rates (``lambda = 1/365.25``) round once each,
so there R0 and i* are compared to a relative tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from waningsim.reports import analyze_config

from conftest import seeded_configs

POWERS = (-300, -40, -1, 1, 40, 300)


def rescaled(config, scale):
    """``config`` with every rate passed through ``scale``."""
    return config.replace(beta=[scale(b) for b in config.beta], delta=scale(config.delta), mu=scale(config.mu),
                          r=scale(config.r), omega=scale(config.omega))


def labels(report: dict) -> dict:
    loc, endemic, verdict = report["localization"], report["endemic"], report["endemic_stability"]
    return {
        "regime": report["r0"]["regime"],
        "dfe_stability": report["dfe_stability"]["classification"],
        "endemic_stability": verdict and verdict["classification"],
        "exists": loc["exists"],
        "validity": loc["validity"],
        "certification": endemic and endemic["certification"],
        "endemic_error": report["endemic_error"] is not None,
        "consistency": report["consistency"],
    }


def invariants(report: dict) -> dict:
    """Every value of the report that a change of time unit leaves as it is."""
    loc, endemic = report["localization"], report["endemic"] or {}
    return {
        "r0": report["r0"]["r0"],
        "dfe": report["dfe"]["s"],
        "roots": loc["roots"],
        "i_star": endemic.get("i_star"),
        "s_star": endemic.get("s_star"),
    }


def eigenvalues(verdict) -> np.ndarray:
    return np.array([complex(*z) for z in verdict["eigenvalues"]]) if verdict else np.zeros(0)


@pytest.fixture(scope="module")
def originals(pertussis):
    beta = pertussis.beta
    configs = [pertussis, pertussis.replace(beta=5.0 * beta), *seeded_configs()]
    return [(config, analyze_config(config)) for config in configs]


@pytest.mark.parametrize("k", POWERS, ids=[f"2^{k}" for k in POWERS])
def test_power_of_two_units_change_no_answer(originals, k):
    faults = []
    for index, (config, report) in enumerate(originals):
        scaled = analyze_config(rescaled(config, lambda v: math.ldexp(v, k)))
        if labels(scaled) != labels(report):
            faults.append((index, "labels", labels(report), labels(scaled)))
        if invariants(scaled) != invariants(report):
            faults.append((index, "invariants"))
        if scaled["r0"]["threshold_sum"] != math.ldexp(report["r0"]["threshold_sum"], k):
            faults.append((index, "threshold_sum"))
        for name in ("dfe_stability", "endemic_stability"):
            given, found = eigenvalues(report[name]), eigenvalues(scaled[name])
            if given.shape != found.shape:
                faults.append((index, name, "count"))
            elif given.size:
                scale = 2.0**k * np.abs(given).max()
                gap = np.abs(found - 2.0**k * given).max() / scale
                if not gap <= 1e-14:
                    faults.append((index, name, gap))
    assert not faults, f"{len(faults)} faults, first {faults[:3]}"


def test_per_day_rates_change_no_label(originals):
    faults = []
    for index, (config, report) in enumerate(originals):
        scaled = analyze_config(rescaled(config, lambda v: v / 365.25))
        if labels(scaled) != labels(report):
            faults.append((index, "labels", labels(report), labels(scaled)))
        if scaled["r0"]["r0"] != pytest.approx(report["r0"]["r0"], rel=1e-13, abs=0.0):
            faults.append((index, "r0", report["r0"]["r0"], scaled["r0"]["r0"]))
        i_star, day_i_star = (report["endemic"] or {}).get("i_star"), (scaled["endemic"] or {}).get("i_star")
        if (i_star is None) != (day_i_star is None) or (
                i_star is not None and day_i_star != pytest.approx(i_star, rel=1e-13, abs=0.0)):
            faults.append((index, "i_star", i_star, day_i_star))
    assert not faults, f"{len(faults)} faults, first {faults[:3]}"
