"""Configuration objects and the Figure-13 preset ladder."""

import pytest

from repro.core.config import (
    BASELINE,
    FUSED_MHA,
    GELU_FUSION,
    LAYERNORM_FUSION,
    RM_PADDING,
    STANDARD_BERT,
    STEPWISE_PRESETS,
    BertConfig,
    OptimizationConfig,
)


class TestBertConfig:
    def test_standard_shape(self):
        assert STANDARD_BERT.num_heads == 12
        assert STANDARD_BERT.head_size == 64
        assert STANDARD_BERT.hidden_size == 768
        assert STANDARD_BERT.ffn_size == 3072
        assert STANDARD_BERT.num_layers == 12

    def test_single_layer_keeps_shape(self):
        single = STANDARD_BERT.single_layer()
        assert single.num_layers == 1
        assert single.hidden_size == STANDARD_BERT.hidden_size

    @pytest.mark.parametrize(
        "field", ["num_heads", "head_size", "num_layers", "ffn_scale"]
    )
    def test_positive_fields(self, field):
        with pytest.raises(ValueError, match=field):
            BertConfig(**{field: 0})


class TestOptimizationPresets:
    def test_ladder_is_cumulative(self):
        """Each Figure 13 variant includes all previous optimisations."""
        flags = [
            (p.fuse_layernorm, p.fuse_gelu, p.remove_padding, p.fused_mha)
            for p in STEPWISE_PRESETS
        ]
        for earlier, later in zip(flags, flags[1:]):
            for a, b in zip(earlier, later):
                assert b or not a  # a flag never turns back off

    def test_ladder_order(self):
        assert STEPWISE_PRESETS == (
            BASELINE,
            LAYERNORM_FUSION,
            GELU_FUSION,
            RM_PADDING,
            FUSED_MHA,
        )

    def test_labels_unique(self):
        labels = [p.label for p in STEPWISE_PRESETS]
        assert len(set(labels)) == len(labels)

    def test_fused_mha_requires_packing(self):
        with pytest.raises(ValueError, match="remove_padding"):
            OptimizationConfig(fused_mha=True, remove_padding=False)

    def test_short_cutover_positive(self):
        with pytest.raises(ValueError, match="fused_mha_short_max_seq"):
            OptimizationConfig(fused_mha_short_max_seq=0)

    def test_baseline_has_everything_off(self):
        assert not BASELINE.fuse_layernorm
        assert not BASELINE.fuse_gelu
        assert not BASELINE.remove_padding
        assert not BASELINE.fused_mha
