"""Memory-footprint analysis: Tables 1 and 2 and the Section 2.2 totals.

``layer_footprint`` evaluates the closed-form Table 1 totals; the tensor
inventory from :mod:`repro.models.transformer` must agree with them exactly
(a unit test enforces this). ``tensor_size_distribution`` reproduces
Table 2's histogram of tensor sizes inside one GPT-3 layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.models.transformer import LayerSpec
from repro.units import MiB


@dataclass(frozen=True)
class FootprintReport:
    """Byte totals for a layer or a model, Table 1 column layout."""

    params_bytes: int
    acts_bytes: int
    optims_bytes: int

    @property
    def model_state_bytes(self) -> int:
        return self.params_bytes + self.optims_bytes

    @property
    def total_bytes(self) -> int:
        return self.params_bytes + self.acts_bytes + self.optims_bytes


def closed_form_layer_bytes(
    d_model: int, d_ffn: int, batch_size: int, seq_len: int
) -> FootprintReport:
    """Table 1 "Total" row, ignoring LayerNorm/score small terms as the
    paper does: Params = 16 d_m^2 + 8 d_m d_ffn, Acts = 40 b s d_m +
    8 b s d_ffn, Optims = 48 d_m^2 + 24 d_m d_ffn.
    """
    dm, dffn, b, s = d_model, d_ffn, batch_size, seq_len
    return FootprintReport(
        params_bytes=16 * dm * dm + 8 * dm * dffn,
        acts_bytes=40 * b * s * dm + 8 * b * s * dffn,
        optims_bytes=48 * dm * dm + 24 * dm * dffn,
    )


def layer_footprint(layer: LayerSpec) -> FootprintReport:
    """Exact byte totals summed over the layer's tensor inventory."""
    return FootprintReport(
        params_bytes=layer.params_bytes,
        acts_bytes=layer.acts_bytes,
        optims_bytes=layer.optims_bytes,
    )


def tensor_size_distribution(layer: LayerSpec) -> dict[float, int]:
    """Histogram of physical tensor sizes (MiB) within one layer.

    Reproduces Table 2: each FP16 parameter contributes itself and its
    gradient (two physical tensors), each FP32 optimizer entry contributes
    master/momentum/variance (three), and each activation contributes its
    value and gradient (two). Keys are MiB sizes, values are counts.
    """
    histogram: Counter[float] = Counter()
    for spec in (*layer.params, *layer.activations, *layer.optim_states):
        size_mib = spec.bytes_single / MiB
        histogram[size_mib] += spec.multiplicity
    return dict(sorted(histogram.items(), reverse=True))
