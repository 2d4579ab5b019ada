"""The analysis report's DFE reuse and the JSON artifact writer: the bytes
``json.dumps(indent=2)`` writes, with ``null`` for non-finite floats."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest

from waningsim import dfe, endemic, stepper
from waningsim.dynamics import integrate
from waningsim.model import build_general, epidemic_start
from waningsim.reports import analyze_config, json_document
from waningsim.scanfit import _evaluate_point

from conftest import random_config

CHARS = "az09 _-\"\\/\x00\x01\x1f\x7f\t\n\ré€ß ☃\U0001f600\ud800"


def random_float(rng) -> float:
    kind = rng.integers(5)
    if kind == 0:
        return float(rng.choice([0.0, -0.0, 1.0, -2.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5]))
    if kind == 1:
        return float(rng.integers(-1000, 1000))
    return float(rng.standard_normal() * 10.0 ** rng.uniform(-300, 300))


def random_string(rng) -> str:
    return "".join(rng.choice(list(CHARS), size=rng.integers(0, 8)))


def random_value(rng, depth: int = 0):
    kind = rng.integers(11 if depth < 4 else 7)
    if kind == 0:
        return random_float(rng)
    if kind == 1:
        return int(rng.choice([0, -1, 7, 2**70, -(2**64)]))
    if kind == 2:
        return bool(rng.integers(2))
    if kind == 3:
        return None
    if kind == 4:
        return np.float64(random_float(rng))
    if kind == 5:
        return random_string(rng)
    if kind == 6:  # the list fast path
        return [random_float(rng) for _ in range(rng.integers(0, 6))]
    if kind == 7:
        return {random_string(rng): random_value(rng, depth + 1) for _ in range(rng.integers(0, 4))}
    if kind == 8:
        return tuple(random_value(rng, depth + 1) for _ in range(rng.integers(0, 4)))
    if kind == 9:
        return [[random_float(rng) for _ in range(3)] for _ in range(rng.integers(0, 3))]
    return [random_value(rng, depth + 1) for _ in range(rng.integers(0, 4))]


def max_real_part_sweep_point(cfg):
    point = _evaluate_point(cfg, "omega", cfg.omega, "max_real_part", 1.0)
    assert point.error is None
    return point


@pytest.mark.parametrize("analysis", [analyze_config, max_real_part_sweep_point])
def test_each_dfe_solved_once(analysis, pertussis, monkeypatch):
    solve = dfe.solve_dfe_closed_form
    calls = []

    def counted(config):
        calls.append(config)
        return solve(config)

    for name, module in list(sys.modules.items()):
        if name.startswith("waningsim") and hasattr(module, "solve_dfe_closed_form"):
            monkeypatch.setattr(module, "solve_dfe_closed_form", counted)
    analysis(pertussis)
    assert len(calls) == 1


def test_max_real_part_sweep_point_needs_no_eigensolve(pertussis, monkeypatch):
    rng = np.random.default_rng(25)
    configs = [pertussis] + [random_config(rng, n_range=(1, 16)) for _ in range(50)]
    expected = [analyze_config(cfg)["dfe_stability"]["max_real_part"] for cfg in configs]

    def no_eigensolve(matrix):
        raise AssertionError("the max_real_part sweep point ran an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigensolve)
    for cfg, value in zip(configs, expected):
        assert max_real_part_sweep_point(cfg).observable.hex() == value.hex()


def test_refinement_failure_is_reported_not_raised(monkeypatch):
    # Brent's method failing on the bracket leaves the report without an
    # endemic point, and says why
    def failing(*args):
        raise RuntimeError("failed to converge after 5 iterations")

    monkeypatch.setattr(endemic, "_brentq", failing)
    cfg = build_general(2, (1.5, 2.0, 4.0), 0.02, 0.3, 1.2, 2.0, (0.0, 0.1, 0.5))
    report = analyze_config(cfg)
    assert report["r0"]["regime"] == "unstable"
    assert report["endemic"] is None and report["endemic_stability"] is None
    assert report["endemic_error"].startswith("Brent's method failed on the bracket [")
    assert report["endemic_error"].endswith("]: failed to converge after 5 iterations")


def reference(manifest, data) -> str:
    return json.dumps({"manifest": manifest, "data": data}, indent=2) + "\n"


def test_bytes_of_json_dumps_on_random_finite_documents():
    rng = np.random.default_rng(20261018)
    for _ in range(500):
        manifest = {random_string(rng): random_value(rng, 2) for _ in range(rng.integers(0, 4))}
        data = random_value(rng)
        assert json_document(manifest, data) == reference(manifest, data)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_are_null(bad):
    data = {
        "scalar": bad,
        "numpy": np.float64(bad),
        "floats": [1.5, bad, -2.0],
        "ints": [1, bad, 3],
        "rows": [[0.25, bad], (bad,)],
    }
    nulled = {
        "scalar": None,
        "numpy": None,
        "floats": [1.5, None, -2.0],
        "ints": [1, None, 3],
        "rows": [[0.25, None], [None]],
    }
    text = json_document({"k": bad}, data)
    assert text == reference({"k": None}, nulled)
    json.loads(text, parse_constant=pytest.fail)


@pytest.mark.parametrize("bad", [np.int64(3), {1.0, 2.0}, [0.5, {"x"}], {"a": {1: 2}}])
def test_values_json_cannot_write_raise_type_error(bad):
    # an int key is written as a string by json.dumps; artifacts only have str keys
    with pytest.raises(TypeError):
        json_document({}, bad)


def random_run(rng):
    """A list of floats or a matrix of them, now and then with an int, a
    bool, a non-finite float, a float subclass or a ragged or empty row."""
    shape = (int(rng.integers(1, 5)), int(rng.integers(0, 6)))
    rows = [[random_float(rng) for _ in range(shape[1])] for _ in range(shape[0])]
    for _ in range(rng.integers(0, 3)):
        if not shape[1]:
            break
        row, col = rng.integers(shape[0]), rng.integers(shape[1])
        rows[row][col] = [1, True, False, float("nan"), float("-inf"), np.float64(0.5), 2**60][rng.integers(7)]
    if rng.integers(6) == 0:
        rows[-1] = rows[-1][:-1]
    if rng.integers(4) == 0:
        rows = [tuple(row) for row in rows]
    return rows[0] if rng.integers(2) else rows


def nulled(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [nulled(v) for v in value]
    if isinstance(value, dict):
        return {k: nulled(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("formatter", ["compiled", "python"])
def test_float_runs_are_written_as_json_dumps_writes_them(formatter, monkeypatch):
    if formatter == "python":
        monkeypatch.setattr(stepper, "format_floats", None)
    elif stepper.format_floats is None:
        pytest.skip("compiled library not built")
    rng = np.random.default_rng(41)
    for _ in range(1500):
        data = {"run": random_run(rng), "nested": {"k": [random_run(rng), random_run(rng)]}}
        assert json_document({}, data) == reference({}, nulled(data))


@pytest.mark.skipif(stepper.format_floats is None, reason="compiled library not built")
def test_one_formatter_call_per_float_list_or_matrix(monkeypatch):
    cfg = build_general(3, (1.5, 2.0, 3.0, 4.0), 0.2, 0.3, 1.2, 2.0, (0.0, 0.1, 0.2, 0.5))
    doc = integrate(cfg, epidemic_start(cfg), 5.0, t_eval=np.linspace(0.1, 5.0, 50)).to_json_dict()
    calls, format_floats = [], stepper.format_floats

    def counted(values, cols, sep, row_sep):
        calls.append((len(values), cols))
        return format_floats(values, cols, sep, row_sep)

    monkeypatch.setattr(stepper, "format_floats", counted)
    text = json_document({}, doc)
    cols = len(doc["states"][0])
    assert sorted(calls) == sorted([(len(doc["times"]),) * 2, (len(doc["states"]) * cols, cols)])
    monkeypatch.setattr(stepper, "format_floats", None)
    assert json_document({}, doc) == text


def random_array(rng):
    """A float64 array of 0 to 2 dimensions (among them ``(k, 1)``, ``(1, k)``
    and 0-size shapes), often a transposed or strided view, with signed
    zeros, subnormals and now and then a non-finite value."""
    shape = [(), (int(rng.integers(0, 9)),), (int(rng.integers(0, 5)), int(rng.integers(0, 5))),
             (int(rng.integers(1, 9)), 1), (1, int(rng.integers(1, 9)))][rng.integers(5)]
    base = np.array([random_float(rng) for _ in range(2 * 2 * max(math.prod(shape), 1))])
    special = [-0.0, 5e-324, -2.5e-320, 2.225073858507201e-308]
    if rng.integers(3) == 0:
        special += [math.nan, math.inf, -math.inf]
    for _ in range(rng.integers(0, 4)):
        base[rng.integers(base.size)] = special[rng.integers(len(special))]
    view = rng.integers(3)
    if view == 0 or not shape:
        return base[: math.prod(shape)].reshape(shape)
    if view == 1:  # transposed
        return base[: math.prod(shape)].reshape(shape[::-1]).T
    return base.reshape(-1, 2)[::2, 1][: math.prod(shape)].reshape(shape)  # strided


@pytest.mark.parametrize("formatter", ["compiled", "python"])
def test_an_array_is_written_as_its_tolist(formatter, monkeypatch):
    if formatter == "python":
        monkeypatch.setattr(stepper, "format_floats", None)
    elif stepper.format_floats is None:
        pytest.skip("compiled library not built")
    rows = np.array([[-0.0, 5e-324, math.nan], [math.inf, -math.inf, 1.5]])
    nulled_rows = [[-0.0, 5e-324, None], [None, None, 1.5]]
    assert json_document({}, {"a": rows, "b": rows.T}) == reference({}, {"a": nulled_rows,
                                                                         "b": [list(c) for c in zip(*nulled_rows)]})
    rng = np.random.default_rng(20261019)
    for _ in range(1500):
        arr = random_array(rng)
        text = json_document({}, {"a": arr})
        assert text == json_document({}, {"a": arr.tolist()})
        assert text == reference({}, {"a": nulled(arr.tolist())})
        json.loads(text, parse_constant=pytest.fail)


@pytest.mark.parametrize("arr", [np.arange(6), np.arange(6.0, dtype=np.float32), np.zeros((2, 2, 2)),
                                 np.array([True, False] * 3), np.array(2.5)],
                         ids=["int64", "float32", "3-d", "bool", "0-d"])
def test_other_arrays_are_written_as_their_tolist(arr):
    assert json_document({}, {"a": arr}) == reference({}, {"a": arr.tolist()})
