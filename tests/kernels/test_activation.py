"""GELU / add-bias kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import ExecutionContext
from repro.kernels.activation import (
    add_bias,
    add_bias_gelu,
    apply_gelu,
    gelu,
    gelu_reference,
)


class TestGeluMath:
    def test_known_values(self):
        # GELU(0) = 0, GELU(x) -> x for large x, -> 0 for very negative x
        assert gelu_reference(np.array(0.0)) == 0.0
        assert gelu_reference(np.array(10.0)) == pytest.approx(10.0, rel=1e-6)
        assert gelu_reference(np.array(-10.0)) == pytest.approx(0.0, abs=1e-8)

    def test_half_at_zero_slope(self):
        eps = 1e-6
        derivative = (
            gelu_reference(np.array(eps)) - gelu_reference(np.array(-eps))
        ) / (2 * eps)
        assert derivative == pytest.approx(0.5, rel=1e-3)

    def test_tanh_approximation_close(self, rng):
        x = rng.normal(size=1000) * 3
        c = math.sqrt(2.0 / math.pi)
        tanh_gelu = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        np.testing.assert_allclose(tanh_gelu, gelu_reference(x), atol=2e-3)

    @given(x=st.floats(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_monotone_above_minus_one(self, x):
        # GELU is monotone increasing for x >= -0.75 (approx location of min)
        if x >= -0.7:
            a = gelu_reference(np.array(x))
            b = gelu_reference(np.array(x + 0.1))
            assert b >= a

    @given(x=st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_bounded_below(self, x):
        assert gelu_reference(np.array(x)) >= -0.17


class TestKernels:
    def test_add_bias(self, rng):
        x = rng.normal(size=(6, 8))
        b = rng.normal(size=8)
        np.testing.assert_allclose(add_bias(x, b), x + b, rtol=1e-12)

    def test_gelu_kernel(self, rng):
        x = rng.normal(size=(6, 8))
        np.testing.assert_allclose(gelu(x), gelu_reference(x), rtol=1e-12)

    def test_fused_equals_sequential(self, rng):
        x = rng.normal(size=(6, 8))
        b = rng.normal(size=8)
        np.testing.assert_allclose(
            add_bias_gelu(x, b), gelu(add_bias(x, b)), rtol=1e-12
        )

    def test_fused_is_one_launch(self, rng):
        x = rng.normal(size=(6, 8))
        b = rng.normal(size=8)
        ctx = ExecutionContext()
        add_bias_gelu(x, b, ctx=ctx)
        assert ctx.kernel_count() == 1

    def test_fused_faster_than_two_kernels(self, rng):
        x = rng.normal(size=(4096, 3072))
        b = rng.normal(size=3072)
        two = ExecutionContext()
        gelu(add_bias(x, b, ctx=two), ctx=two)
        one = ExecutionContext()
        add_bias_gelu(x, b, ctx=one)
        assert one.elapsed_us() < two.elapsed_us()

    def test_bad_bias_shape(self, rng):
        with pytest.raises(ValueError, match="bias"):
            add_bias(rng.normal(size=(4, 8)), rng.normal(size=7))

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            gelu(rng.normal(size=(2, 3, 4)))


def _gelu_float64(x: np.ndarray) -> np.ndarray:
    """Float64 ``x * Phi(x)`` from stdlib ``math.erf``, element by element."""
    return np.array(
        [v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.tolist()]
    )


class TestGeluAccuracy:
    def test_within_2e6_of_float64_erf(self):
        x = np.linspace(-10.0, 10.0, 400_001, dtype=np.float32)
        got = gelu_reference(x)
        assert float(np.max(np.abs(got - _gelu_float64(x)))) <= 2e-6
        # Phi is clipped to [0, 1]: GELU(x) lies between 0 and x
        assert np.all(got >= np.minimum(x, 0)) and np.all(got <= np.maximum(x, 0))

    def test_float64_input_within_2e6(self, rng):
        x = rng.normal(size=20_000) * 4
        got = gelu_reference(x)
        assert got.dtype == np.float64
        assert float(np.max(np.abs(got - _gelu_float64(x)))) <= 2e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_limits(self, dtype):
        fi = np.finfo(dtype)
        assert gelu_reference(np.zeros(3, dtype)).tolist() == [0.0] * 3
        beyond = np.nextafter(dtype(4.0 * math.sqrt(2.0)), dtype(np.inf))
        x = np.array([beyond, 6.0, 10.0, 1e3, 1e30, fi.max / 2, fi.max], dtype)
        np.testing.assert_array_equal(gelu_reference(x), x)
        np.testing.assert_array_equal(gelu_reference(-x), np.zeros_like(x))


class TestGeluBlocking:
    """Each element's bits depend on its value alone, never on blocking."""

    @pytest.fixture
    def base(self, rng):
        return (rng.normal(size=(2484, 64)) * 4).astype(np.float32)

    def test_row_slices_bitwise(self, base):
        full = gelu_reference(base)
        for lo, hi in ((0, 32), (5, 12), (31, 33), (40, 41), (2483, 2484)):
            np.testing.assert_array_equal(
                gelu_reference(base[lo:hi]), full[lo:hi]
            )

    @pytest.mark.parametrize("rows", [1, 31, 33, 2484])
    def test_row_counts_bitwise(self, base, rows):
        x = base[:rows]
        # one long row: a single block over every element
        flat = gelu_reference(x.ravel()).reshape(x.shape)
        np.testing.assert_array_equal(gelu_reference(x), flat)

    def test_offset_noncontiguous_view(self, base):
        view = base[3:200:2, 5:61]
        assert not view.flags.c_contiguous
        expected = gelu_reference(view.copy())
        np.testing.assert_array_equal(gelu_reference(view), expected)
        buf = base.copy()
        apply_gelu(buf[3:200:2, 5:61], out=buf[3:200:2, 5:61])
        np.testing.assert_array_equal(buf[3:200:2, 5:61], expected)
        untouched = np.ones(buf.shape, bool)
        untouched[3:200:2, 5:61] = False
        np.testing.assert_array_equal(buf[untouched], base[untouched])

    def test_1d_and_3d(self, base):
        x3 = base[:96].reshape(3, 32, 64)
        expected = gelu_reference(base[:96])
        np.testing.assert_array_equal(
            gelu_reference(x3), expected.reshape(x3.shape)
        )
        np.testing.assert_array_equal(
            gelu_reference(base[:96].ravel()), expected.ravel()
        )

    def test_apply_gelu_allows_out_aliasing_x(self, base):
        buf = base.copy()
        apply_gelu(buf, out=buf)
        np.testing.assert_array_equal(buf, gelu_reference(base))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_preserved(self, base, dtype):
        x = base[:40].astype(dtype)
        assert gelu_reference(x).dtype == dtype
        assert add_bias_gelu(x, np.zeros(64, dtype)).dtype == dtype
