"""Model specs: Table 1 formulas, Table 2 distribution, Table 4 zoo, MoE."""

import pytest

from repro.errors import ConfigurationError
from repro.models import (
    MODEL_ZOO,
    closed_form_layer_bytes,
    get_model,
    layer_footprint,
    moe_layer,
    tensor_size_distribution,
    transformer_layer,
)
from repro.models.moe import MoEConfig
from repro.models.transformer import FP16, FP32, TensorKind
from repro.units import GiB, MiB


class TestTable1Formulas:
    """The tensor inventory must reproduce Table 1's closed forms."""

    @pytest.mark.parametrize(
        "dm,dffn,b,s",
        [(2304, 9216, 1, 2048), (8192, 32768, 4, 2048), (12288, 49152, 16, 1024)],
    )
    def test_totals_match_closed_form_up_to_small_terms(self, dm, dffn, b, s):
        layer = transformer_layer(dm, dffn, b, s)
        exact = layer_footprint(layer)
        closed = closed_form_layer_bytes(dm, dffn, b, s)
        # Differences are exactly the small terms the paper ignores:
        # LayerNorm params (8 d_m per layer-pair in FP16 terms) and the
        # b x s score tensors.
        assert exact.params_bytes - closed.params_bytes == 2 * 2 * 4 * dm
        assert exact.acts_bytes - closed.acts_bytes == 2 * 4 * b * s
        assert exact.optims_bytes - closed.optims_bytes == 2 * 3 * 4 * 2 * dm

    def test_gpt3_175b_section22_totals(self):
        """648 / 162 / 1944 GiB over 96 layers (Section 2.2)."""
        layer = transformer_layer(12288, 49152, 1, 2048)
        fp = layer_footprint(layer)
        assert 96 * fp.params_bytes / GiB == pytest.approx(648, rel=0.005)
        assert 96 * fp.acts_bytes / GiB == pytest.approx(162, rel=0.005)
        assert 96 * fp.optims_bytes / GiB == pytest.approx(1944, rel=0.005)

    def test_optims_are_three_fp32_per_param(self):
        layer = transformer_layer(128, 512, 1, 64)
        assert layer.optims_bytes == layer.param_count * 3 * FP32

    def test_params_include_gradients(self):
        layer = transformer_layer(128, 512, 1, 64)
        assert layer.params_bytes == layer.param_count * 2 * FP16

    def test_param_count_formula(self):
        dm, dffn = 128, 512
        layer = transformer_layer(dm, dffn, 1, 64)
        expected = 4 * dm * dm + 2 * dm * dffn + 4 * dm  # + LN params
        assert layer.param_count == expected

    def test_cross_attention_adds_a_block(self):
        plain = transformer_layer(128, 512, 1, 64)
        cross = transformer_layer(128, 512, 1, 64, cross_attention=True)
        assert cross.param_count - plain.param_count == 4 * 128 * 128 + 2 * 128

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigurationError):
            transformer_layer(0, 512, 1, 64)


class TestTable2Distribution:
    def test_large_entries_match_paper_exactly(self):
        layer = transformer_layer(12288, 49152, 16, 2048)
        dist = tensor_size_distribution(layer)
        large = {s: c for s, c in dist.items() if s >= 1.0}
        assert large == {
            3072.0: 4, 2304.0: 6, 1152.0: 4, 768.0: 20, 576.0: 12, 288.0: 8,
        }

    def test_counts_scale_with_multiplicity(self):
        layer = transformer_layer(256, 1024, 1, 32)
        dist = tensor_size_distribution(layer)
        assert sum(dist.values()) == (
            2 * len(layer.params) + 2 * len(layer.activations)
            + 3 * len(layer.optim_states)
        )


class TestModelZoo:
    def test_all_table4_rows_present(self):
        assert len(MODEL_ZOO) == 11
        assert "gpt3-175b" in MODEL_ZOO and "t5-moe-1.2t" in MODEL_ZOO

    def test_lookup_case_insensitive(self):
        assert get_model("GPT3-13B") is MODEL_ZOO["gpt3-13b"]

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            get_model("gpt5")

    def test_gpt3_175b_computed_params_near_nominal(self):
        model = get_model("gpt3-175b").build(1, 2048)
        assert model.param_count == pytest.approx(175e9, rel=0.02)

    def test_gpt3_55b_computed_params_near_nominal(self):
        model = get_model("gpt3-55b").build(1, 2048)
        assert model.param_count == pytest.approx(55e9, rel=0.01)

    def test_t5_builds_encoder_and_decoder(self):
        model = get_model("t5-1.4b").build(1, 128)
        assert model.num_layers == 32  # 16 encoder + 16 decoder
        names = [layer.name for layer in model.layers]
        assert names[0].startswith("enc") and names[-1].startswith("dec")

    def test_t5_nominal_size(self):
        model = get_model("t5-1.4b").build(1, 128)
        assert model.param_count == pytest.approx(1.4e9, rel=0.15)

    def test_with_layers_scales_depth(self):
        base = get_model("gpt3-28b")
        deeper = base.with_layers(52)
        assert deeper.build(1, 128).num_layers == 52
        ratio = deeper.build(1, 128).param_count / base.build(1, 128).param_count
        assert ratio == pytest.approx(2.0)

    def test_t5_moe_total_params(self):
        model = get_model("t5-moe-1.2t").build(1, 128)
        assert model.param_count == pytest.approx(1.24e12, rel=0.02)


class TestMoE:
    def test_expert_param_count(self):
        config = MoEConfig(d_model=1024, d_ffn=16384, num_experts=2304)
        assert config.expert_param_count == 2 * 1024 * 16384
        assert config.total_expert_params == 2304 * 2 * 1024 * 16384

    def test_experts_per_gpu_even_sharding(self):
        config = MoEConfig(d_model=64, d_ffn=128, num_experts=16)
        assert config.experts_on_gpu(8) == 2
        with pytest.raises(ConfigurationError):
            config.experts_on_gpu(3)

    def test_moe_layer_has_router_and_experts(self):
        layer = moe_layer(64, 128, num_experts=4, batch_size=1, seq_len=8)
        names = [p.name for p in layer.params]
        assert any("router" in n for n in names)
        assert sum(".expert" in n for n in names) == 8  # w1+w2 per expert
        assert layer.num_experts == 4

    def test_moe_activations_match_dense(self):
        """Capacity-factor-1 routing keeps activation volume dense-like."""
        dense = transformer_layer(64, 128, 2, 8)
        moe = moe_layer(64, 128, num_experts=4, batch_size=2, seq_len=8)
        assert moe.acts_bytes == dense.acts_bytes

    def test_invalid_topk_rejected(self):
        with pytest.raises(ConfigurationError):
            MoEConfig(d_model=8, d_ffn=16, num_experts=2, top_k=3)
