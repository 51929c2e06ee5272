"""End-to-end BERT encoder model with selectable optimisation preset.

:class:`BertEncoderModel` stacks :data:`BertConfig.num_layers` encoder
layers.  With ``remove_padding`` enabled, the zero-padding algorithm runs
*once* per forward pass (prefix-sum kernel + pack), activations stay
packed across all layers, and the output is unpacked at the very end —
matching the pipeline of Figure 2 (c).

Every forward runs the kernels eagerly: each call allocates its own
activations and prices its launches into the caller's context.  Launch
graphs live one level up, where pricing repeats: the serving runtimes'
:class:`~repro.gpusim.graph.GraphCache` replays the estimator chains
(:func:`~repro.core.estimator.estimate_model_graphed`,
:func:`~repro.core.estimator.estimate_model_tiled`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import BertConfig, OptimizationConfig
from repro.core.encoder import encoder_layer_packed, encoder_layer_padded
from repro.core.estimator import estimate_model_tiled
from repro.core.padding import (
    CrossRequestPacking,
    pack,
    packing_from_mask,
    unpack,
)
from repro.core.sharding import ShardSpec
from repro.core.weights import ModelWeights, init_model_weights
from repro.gpusim.stream import (
    ExecutionContext,
    NullContext,
    resolve_context,
)


@dataclass(frozen=True)
class ForwardResult:
    """Output of one forward pass plus cost-model statistics."""

    hidden: np.ndarray
    time_us: float
    kernel_count: int
    flops: float
    dram_bytes: float


class BertEncoderModel:
    """A BERT encoder stack on the simulated-GPU substrate.

    Parameters
    ----------
    config:
        Architecture (heads, head size, layers, FFN scale).
    opt:
        Which ByteTransformer optimisations are active; pick one of the
        :data:`repro.core.config.STEPWISE_PRESETS` to replicate a Figure
        13 variant.
    weights:
        Shared :class:`ModelWeights`; initialised from ``seed`` when
        omitted.  Pass the same weights to different presets to assert
        numerical equivalence.
    """

    def __init__(
        self,
        config: BertConfig | None = None,
        opt: OptimizationConfig | None = None,
        weights: ModelWeights | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config or BertConfig()
        self.opt = opt or OptimizationConfig()
        if weights is not None and weights.num_layers != self.config.num_layers:
            raise ValueError(
                f"weights have {weights.num_layers} layers, config wants "
                f"{self.config.num_layers}"
            )
        self.weights = weights or init_model_weights(self.config, seed)
        if self.weights.hidden_size != self.config.hidden_size:
            raise ValueError(
                f"weights hidden size {self.weights.hidden_size} != config "
                f"hidden size {self.config.hidden_size}"
            )
        # warm the per-layer weight/bias splits and per-head views once so
        # the forward path never re-slices parameters
        self.weights.precompute(self.config.num_heads)

    def forward(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        *,
        ctx: ExecutionContext | None = None,
    ) -> np.ndarray:
        """Run the stack on a padded ``[B, S, H]`` input with its mask.

        Always returns the padded ``[B, S, H]`` output (zeros on padding
        when the packed pipeline ran).
        """
        if x.ndim != 3:
            raise ValueError(f"expected [B, S, H] input, got {x.shape}")
        batch, seq_len, hidden = x.shape
        if hidden != self.config.hidden_size:
            raise ValueError(
                f"hidden {hidden} != config hidden {self.config.hidden_size}"
            )
        if mask.shape != (batch, seq_len):
            raise ValueError(
                f"mask shape {mask.shape} != ({batch}, {seq_len})"
            )
        context = resolve_context(ctx)
        flat = x.reshape(batch * seq_len, hidden)
        out = self._forward_numeric(flat, mask, batch, seq_len, context)
        return out.reshape(batch, seq_len, hidden)

    def forward_packed(
        self,
        x_tile: np.ndarray,
        mega: CrossRequestPacking,
        *,
        ctx: ExecutionContext | None = None,
        shard: "ShardSpec | None" = None,
    ) -> np.ndarray:
        """Run the stack over a pre-packed cross-request megabatch tile.

        ``x_tile`` is a ``[tile, H]`` buffer whose first
        ``mega.total_tokens`` rows are the merged requests' valid tokens
        (see :func:`repro.core.padding.pack_segments`); the quantization
        tail is ignored on input and zeroed on output.  Returns the
        ``[tile, H]`` packed output — scatter it back per request with
        :func:`repro.core.padding.scatter_segments`.

        The two planes split the way continuous serving needs them to:

        * **numerics** run launch-free over the *real* segments only
          (``x_tile[:total]`` under the merged :class:`PackedSeqs`, so
          attention sees per-request boundaries and results are bitwise
          what each request would get alone);
        * **cost** is the tile's canonical launch chain
          (:func:`~repro.core.estimator.estimate_model_tiled`), so every
          composition of one tile prices the same stream.

        ``shard`` prices one tensor-parallel rank's slice of the chain
        (sharded GEMMs + the two all-reduces per layer; the context must
        carry a cluster).  The numeric plane is *not* resharded: a real
        all-reduce sums per-rank partials in a different float order
        than the single-device GEMM, which would break the bitwise
        oracle, so the exact numerics run once while the cost plane
        models each rank's stream — see DESIGN.md §14.
        """
        if not self.opt.remove_padding:
            raise ValueError(
                "forward_packed needs the packed pipeline (remove_padding)"
            )
        hidden = self.config.hidden_size
        if x_tile.ndim != 2 or x_tile.shape != (mega.tile, hidden):
            raise ValueError(
                f"expected [{mega.tile}, {hidden}] tile buffer, got "
                f"{x_tile.shape}"
            )
        context = resolve_context(ctx)
        # cost plane: price the canonical tile launch chain.
        # A NullContext caller owns pricing elsewhere (the serving
        # runtime prices the tile on its fault-hooked context), so the
        # chain is skipped entirely rather than estimated into the void.
        if not isinstance(context, NullContext):
            estimate_model_tiled(
                context,
                self.config,
                self.opt,
                mega.tile,
                mega.packing.max_seq_len,
                shard=shard,
            )
        # numeric plane: real segments only, launch-free
        return self._forward_numeric_packed(x_tile, mega)

    def _forward_numeric_packed(
        self, x_tile: np.ndarray, mega: CrossRequestPacking
    ) -> np.ndarray:
        """Megabatch numerics under a NullContext; returns [tile, H]."""
        context = NullContext()
        hidden = self.config.hidden_size
        total = mega.total_tokens
        packing = mega.packing
        hidden_state = x_tile[:total]
        for layer in self.weights.layers:
            hidden_state = encoder_layer_packed(
                hidden_state,
                layer,
                self.config,
                self.opt,
                packing,
                ctx=context,
            )
        out = np.zeros((mega.tile, hidden), dtype=x_tile.dtype)
        out[:total] = hidden_state
        return out

    def _forward_numeric(
        self,
        flat: np.ndarray,
        mask: np.ndarray,
        batch: int,
        seq_len: int,
        context: ExecutionContext,
    ) -> np.ndarray:
        """One forward on the flat ``[B*S, H]`` tensor; returns flat out."""
        if self.opt.remove_padding:
            packing = packing_from_mask(mask, ctx=context)
            hidden_state = pack(flat, packing, ctx=context)
            for layer in self.weights.layers:
                hidden_state = encoder_layer_packed(
                    hidden_state,
                    layer,
                    self.config,
                    self.opt,
                    packing,
                    ctx=context,
                )
            return unpack(hidden_state, packing, ctx=context)
        out = flat
        for layer in self.weights.layers:
            out = encoder_layer_padded(
                out, layer, self.config, self.opt, mask, ctx=context
            )
        # zero the padding so padded and packed pipelines agree exactly
        return out * mask.reshape(batch * seq_len, 1)

    def forward_with_stats(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        *,
        ctx: ExecutionContext | None = None,
    ) -> ForwardResult:
        """Forward pass returning output plus the run's cost statistics."""
        context = ctx if ctx is not None else ExecutionContext()
        before_time = context.elapsed_us()
        before_kernels = context.kernel_count()
        before_flops = context.total_flops()
        before_bytes = context.total_dram_bytes()
        hidden = self.forward(x, mask, ctx=context)
        return ForwardResult(
            hidden=hidden,
            time_us=context.elapsed_us() - before_time,
            kernel_count=context.kernel_count() - before_kernels,
            flops=context.total_flops() - before_flops,
            dram_bytes=context.total_dram_bytes() - before_bytes,
        )
