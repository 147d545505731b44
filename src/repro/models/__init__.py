"""Transformer model specifications and memory-footprint analysis.

Implements Section 2.2 of the paper: per-layer tensor inventories under
mixed-precision training with Adam (Table 1), the tensor-size distribution
of a GPT-3 layer (Table 2), and the model zoo of the evaluation (Table 4).
"""

from repro.models.transformer import (
    FP16,
    FP32,
    LayerSpec,
    ModelSpec,
    TensorKind,
    TensorSpec,
    transformer_layer,
)
from repro.models.zoo import MODEL_ZOO, ModelConfig, get_model
from repro.models.footprint import (
    FootprintReport,
    closed_form_layer_bytes,
    layer_footprint,
    tensor_size_distribution,
)
from repro.models.moe import MoEConfig, moe_layer

__all__ = [
    "FP16",
    "FP32",
    "TensorKind",
    "TensorSpec",
    "LayerSpec",
    "ModelSpec",
    "transformer_layer",
    "ModelConfig",
    "MODEL_ZOO",
    "get_model",
    "FootprintReport",
    "layer_footprint",
    "tensor_size_distribution",
    "closed_form_layer_bytes",
    "MoEConfig",
    "moe_layer",
]
