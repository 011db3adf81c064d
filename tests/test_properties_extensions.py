"""Property-based tests for the extension modules (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hw import quantize_array
from repro.experiments import ascii_chart

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


class TestQuantizationProperties:
    @given(
        arrays(dtype=np.float64, shape=st.integers(1, 60), elements=finite),
        st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_bounded_by_half_delta(self, values, bits):
        quantized = quantize_array(values, bits)
        max_abs = np.abs(values).max()
        if max_abs == 0:
            np.testing.assert_allclose(quantized, 0.0)
            return
        delta = max_abs / (2 ** (bits - 1) - 1)
        assert np.abs(quantized - values).max() <= delta / 2 + 1e-12

    @given(
        arrays(dtype=np.float64, shape=st.integers(1, 60), elements=finite),
        st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, bits):
        once = quantize_array(values, bits)
        twice = quantize_array(once, bits)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    @given(
        arrays(dtype=np.float64, shape=st.integers(1, 60), elements=finite),
        st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_preserved(self, values, bits):
        quantized = quantize_array(values, bits)
        assert np.abs(quantized).max() <= np.abs(values).max() + 1e-12


class TestAsciiChartProperties:
    @given(
        st.lists(finite, min_size=2, max_size=12),
        st.lists(finite, min_size=2, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_crashes_and_same_width_rows(self, xs, ys):
        n = min(len(xs), len(ys))
        text = ascii_chart(xs[:n], {"s": ys[:n]}, width=24, height=6)
        body = [l for l in text.splitlines() if "|" in l]
        assert body
        assert len({len(l) for l in body}) == 1  # aligned rows
