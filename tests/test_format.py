"""The compiled float formatter of ``_stepper.c``: its power-of-ten table,
as ``ws_init`` derives it when the library is loaded, against exact Python
integers, and its output against ``float.__repr__``, byte for byte."""

from __future__ import annotations

import ctypes
import math
from array import array

import numpy as np
import pytest

from waningsim import stepper

compiled = pytest.mark.skipif("c" not in stepper.kernels(), reason="compiled library not built")
K_MIN, K_MAX = -324, 292  # the table's range of k, as in _stepper.c


def flog2pow10(e: int) -> int:
    """floor(log2(10^e)), exactly."""
    return (10**e).bit_length() - 1 if e >= 0 else -(10**-e).bit_length()


@compiled
def test_power_of_ten_table_rederived_exactly():
    table = (ctypes.c_uint64 * 1234).in_dll(stepper._lib, "ws_pow10")
    pairs = list(zip(table[0::2], table[1::2]))
    assert len(pairs) == K_MAX - K_MIN + 1 == 617
    for k, (hi, lo) in zip(range(K_MIN, K_MAX + 1), pairs):
        r = flog2pow10(-k) - 125
        num, den = 10 ** max(-k, 0) << max(-r, 0), 10 ** max(k, 0) << max(r, 0)
        g = num // den + 1  # floor(10^-k / 2^r) + 1
        assert 2**125 < g < 2**126
        assert (hi, lo) == (g >> 63, g & (2**63 - 1)), k


def formatted(values) -> list:
    """Each value as the compiled formatter writes it."""
    text = stepper.format_floats(np.array(values, dtype=np.float64), max(len(values), 1), "\n", "\n")
    assert text is not None
    return text.split("\n")


def assert_repr(values) -> None:
    values = [float(v) for v in values]
    got, want = formatted(values), list(map(float.__repr__, values))
    mismatches = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not mismatches, mismatches[:5]


def signed(values) -> list:
    return [*values, *(-v for v in values)]


@compiled
class TestAgainstRepr:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        count = 0
        while count < 10**6:
            values = rng.integers(0, 2**64, size=250_000, dtype=np.uint64).view(np.float64)
            values = values[np.isfinite(values)]
            assert_repr(values.tolist())
            count += values.size
        assert count >= 10**6

    def test_every_power_of_two(self):
        assert_repr(signed([math.ldexp(1.0, e) for e in range(-1074, 1024)]))

    def test_powers_of_ten_and_neighbours(self):
        tens = [float(f"1e{k}") for k in range(-323, 309)]
        assert_repr(signed([x for t in tens for x in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf))]))

    def test_integers_around_two_to_the_53(self):
        assert_repr(signed([float(2**53 + d) for d in range(-3000, 3001)]))

    def test_notation_switches(self):
        edges = [1e-4, 1e-5, 1e16, 1e15, 9999999999999998.0, 0.00009999999999999999]
        assert_repr(signed([x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]))

    def test_extremes(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                  1.7976931348623157e308, -1.7976931348623157e308]
        assert formatted(values) == ["0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308",
                                     "2.225073858507201e-308", "1.7976931348623157e+308",
                                     "-1.7976931348623157e+308"]
        assert_repr(values)

    def test_short_decimals(self):
        rng = np.random.default_rng(7)
        mantissas = rng.integers(1, 10**rng.integers(1, 18, size=20_000), dtype=np.int64)
        values = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), rng.integers(-330, 310, 20_000).tolist())]
        assert_repr([v for v in values if math.isfinite(v)])


@compiled
class TestLayout:
    def test_separators_between_elements_and_rows(self):
        text = stepper.format_floats(np.array([1.0, 0.5, -2.0, 1e-7, 3.25]), 2, ", ", ";\n")
        assert text == "1.0, 0.5;\n-2.0, 1e-07;\n3.25"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_refused(self, bad):
        assert stepper.format_floats(np.array([1.0, bad]), 2, ",", "\n") is None

    def test_empty_run(self):
        assert stepper.format_floats(np.array([]), 1, ",", "\n") == ""

    def test_bad_arguments_raise(self):
        with pytest.raises(TypeError):
            stepper.format_floats(array("f", [1.0]), 1, ",", "\n")
        with pytest.raises(ValueError):
            stepper.format_floats(np.array([1.0]), 0, ",", "\n")

    def test_contiguous_float64_array_is_read_in_memory_order(self):
        values = np.array([[1.0, 0.5], [-2.0, 1e-7], [3.25, -0.0]])
        assert stepper.format_floats(values, 2, ", ", ";\n") == "1.0, 0.5;\n-2.0, 1e-07;\n3.25, -0.0"
        assert stepper.format_floats(values.reshape(-1), 3, ",", "|") == "1.0,0.5,-2.0|1e-07,3.25,-0.0"
        assert stepper.format_floats(np.empty((0, 3)), 3, ",", "\n") == ""
        assert stepper.format_floats(np.array([1.0, np.nan]), 2, ",", "\n") is None

    @pytest.mark.parametrize("bad", [
        np.arange(4), np.arange(4.0, dtype=np.float32), np.arange(4.0).astype(">f8"), np.arange(4.0)[::2],
        np.arange(6.0).reshape(2, 3).T, [1.0, 2.0], (1.0,), b"12345678", array("d", [1.0]),
    ], ids=["int64", "float32", "big-endian", "strided", "transposed", "list", "tuple", "bytes", "array-d"])
    def test_other_inputs_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            stepper.format_floats(bad, 1, ",", "\n")
