"""GELU / add-bias kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import ExecutionContext
from repro.kernels.activation import (
    FAST_GELU_ATOL,
    add_bias,
    add_bias_gelu,
    apply_gelu,
    force_gelu_variant,
    forced_gelu_variant,
    gelu,
    gelu_into,
    gelu_reference,
    gelu_tanh,
    gelu_tanh_into,
    resolve_gelu_variant,
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
        np.testing.assert_allclose(
            gelu_tanh(x), gelu_reference(x), atol=2e-3
        )

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


class TestGeluVariants:
    def test_tanh_into_bitwise_matches_allocating(self, rng):
        x = rng.normal(size=(64, 32)) * 3
        out = np.empty_like(x)
        tmp = np.empty_like(x)
        gelu_tanh_into(x, out=out, tmp=tmp)
        np.testing.assert_array_equal(out, gelu_tanh(x))

    def test_exact_into_bitwise_matches_allocating(self, rng):
        x = rng.normal(size=(64, 32)) * 3
        out = np.empty_like(x)
        tmp = np.empty_like(x)
        gelu_into(x, out=out, tmp=tmp)
        np.testing.assert_array_equal(out, gelu_reference(x))

    def test_tanh_within_documented_atol(self, rng):
        # FAST_GELU_ATOL is the documented worst case over the reals;
        # a dense sweep through the error curve's maximum must respect it
        x = np.linspace(-8.0, 8.0, 200_001)
        diff = np.abs(gelu_tanh(x) - gelu_reference(x))
        assert 0 < float(diff.max()) <= FAST_GELU_ATOL

    def test_apply_gelu_dispatches_by_variant(self, rng):
        x = rng.normal(size=(8, 16))
        for variant, reference in (
            ("exact", gelu_reference),
            ("tanh", gelu_tanh),
        ):
            out, tmp = np.empty_like(x), np.empty_like(x)
            apply_gelu(x, out=out, tmp=tmp, variant=variant)
            np.testing.assert_array_equal(out, reference(x))

    def test_apply_gelu_allows_out_aliasing_x(self, rng):
        x = rng.normal(size=(8, 16))
        expected = gelu_tanh(x)
        buf = x.copy()
        apply_gelu(buf, out=buf, tmp=np.empty_like(x), variant="tanh")
        np.testing.assert_array_equal(buf, expected)

    def test_force_overrides_and_restores(self):
        assert forced_gelu_variant() is None
        assert resolve_gelu_variant("tanh") == "tanh"
        with force_gelu_variant("exact"):
            assert forced_gelu_variant() == "exact"
            assert resolve_gelu_variant("tanh") == "exact"
        assert forced_gelu_variant() is None
        assert resolve_gelu_variant("tanh") == "tanh"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown GELU variant"):
            resolve_gelu_variant("relu")
        with pytest.raises(ValueError, match="unknown GELU variant"):
            with force_gelu_variant("relu"):
                pass

    def test_add_bias_gelu_variant_numerics_and_launch(self, rng):
        x = rng.normal(size=(6, 8))
        b = rng.normal(size=8)
        exact_ctx, tanh_ctx = ExecutionContext(), ExecutionContext()
        exact = add_bias_gelu(x, b, ctx=exact_ctx, variant="exact")
        fast = add_bias_gelu(x, b, ctx=tanh_ctx, variant="tanh")
        np.testing.assert_array_equal(fast, gelu_tanh(x + b))
        assert float(np.abs(fast - exact).max()) <= FAST_GELU_ATOL
        # variant selection is numeric-plane only: identical launches
        assert [r.launch for r in exact_ctx.records] == [
            r.launch for r in tanh_ctx.records
        ]
