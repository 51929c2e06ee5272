"""API health meta-tests: documentation and descriptor validity across the
whole public surface.

Three contracts a downstream user relies on:

* every public module, class and function carries a docstring (the
  documentation deliverable, enforced);
* every public ``*_launch`` builder produces a KernelLaunch the A100
  timing model accepts (no descriptor can silently violate device
  limits at realistic shapes);
* importing the package, its CLI, serving and model never imports
  scipy, which is a test-only dependency.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.gpusim import A100_SPEC, kernel_time_us


def walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(walk_modules())


class TestDocstrings:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_module_documented(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_public_callables_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, (
            f"{module.__name__} has undocumented public names: "
            f"{undocumented}"
        )


class TestLaunchBuilders:
    """Every launch builder must emit a descriptor the device accepts."""

    def builders(self):
        from repro.attention.fused_short import fused_short_launch
        from repro.attention.flash_varlen import flash_varlen_launch
        from repro.attention.standard import standard_mha_launches
        from repro.decoder.generation import decode_attention_launch
        from repro.kernels.activation import (
            add_bias_gelu_launch,
            add_bias_launch,
            gelu_launch,
        )
        from repro.kernels.batched_gemm import batched_gemm_launch
        from repro.kernels.gemm import gemm_launch
        from repro.kernels.layernorm import (
            add_bias_residual_launch,
            fused_layernorm_launch,
            layernorm_launch,
        )
        from repro.kernels.packing import pack_launch, unpack_launch
        from repro.kernels.prefix_sum import prefix_sum_launch
        from repro.kernels.reduction import full_reduction_launch
        from repro.kernels.softmax import (
            add_mask_launch,
            scale_scores_launch,
            softmax_launch,
            zeropad_softmax_launch,
        )
        from repro.kernels.transpose import (
            add_bias_split_heads_packed_qkv_launch,
            add_bias_split_heads_qkv_launch,
            add_bias_unpack_split_heads_qkv_launch,
            pack_merge_heads_launch,
            split_heads_launch,
        )

        lens = np.array([100, 256, 180, 220])
        rows, hidden = 4096, 768
        yield gemm_launch(rows, hidden, hidden)
        yield batched_gemm_launch(48, 256, 256, 64)
        yield add_bias_launch(rows, hidden)
        yield gelu_launch(rows, hidden)
        yield add_bias_gelu_launch(rows, 4 * hidden)
        yield layernorm_launch(rows, hidden)
        yield fused_layernorm_launch(rows, hidden)
        yield add_bias_residual_launch(rows, hidden)
        yield softmax_launch(rows, 256)
        yield scale_scores_launch(rows, 256)
        yield add_mask_launch(rows, 256, 1024)
        yield zeropad_softmax_launch(list(lens), 12)
        yield pack_launch(756, hidden)
        yield unpack_launch(756, 1024, hidden)
        yield prefix_sum_launch(16, 256)
        yield full_reduction_launch(list(lens), 12)
        yield split_heads_launch(rows, hidden)
        yield add_bias_split_heads_qkv_launch(rows, 3 * hidden)
        yield add_bias_unpack_split_heads_qkv_launch(756, 1024, 3 * hidden)
        yield add_bias_split_heads_packed_qkv_launch(756, 3 * hidden)
        yield pack_merge_heads_launch(756, hidden)
        yield fused_short_launch(lens, 12, 64)
        yield flash_varlen_launch(lens, 12, 64)
        yield decode_attention_launch(lens, 12, 64)
        yield from standard_mha_launches(16, 256, 12, hidden)

    def test_all_builders_price_on_a100(self):
        count = 0
        for launch in self.builders():
            t = kernel_time_us(launch, A100_SPEC)
            assert t >= A100_SPEC.kernel_launch_overhead_us, launch.name
            assert np.isfinite(t), launch.name
            count += 1
        assert count >= 30

    def test_all_builders_carry_categories(self):
        for launch in self.builders():
            assert launch.category, launch.name
            assert launch.name, launch.category


class TestRuntimeDependencies:
    def test_scipy_stays_off_the_runtime_path(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, repro, repro.cli, repro.serving, repro.core.model; "
            "print('scipy' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert done.stdout.strip() == "False"
