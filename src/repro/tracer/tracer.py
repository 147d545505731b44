"""The Tracer: builds per-iteration access patterns from a model spec.

Training is iterative, so one traced iteration fixes the schedule for all
iterations (Section 4.2: "the key characteristic of deep learning training
is the iterative nature"). The logical-ID convention used here:

- forward of layer ``i``   -> operation ``i``
- backward of layer ``i``  -> operation ``2L - 1 - i``
- update of layer ``i``    -> operation ``2L + (L - 1 - i)``
  (updates run in reverse layer order, matching Algorithm 2's
  ``for l_i in reverse(model)`` — gradients of the last layer arrive first)

so an iteration spans ``3L`` logical operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.transformer import ModelSpec, TensorKind
from repro.tracer.access import AccessPattern, TensorAccess
from repro.tracer.costmodel import CostModel


@dataclass(frozen=True)
class LayerTrace:
    """Per-layer operation IDs and durations for one iteration."""

    layer_index: int
    name: str
    fwd_id: int
    bwd_id: int
    update_id: int
    fwd_time: float
    bwd_time: float
    recompute_time: float
    cpu_update_time: float
    gpu_update_time: float
    param_bytes_fp16: int
    grad_bytes_fp16: int
    optim_bytes_fp32: int
    act_bytes_fp16: int
    param_count: int


@dataclass(frozen=True)
class IterationTrace:
    """Everything the Unified Scheduler needs about one iteration."""

    model_name: str
    pattern: AccessPattern
    layers: tuple[LayerTrace, ...]
    batch_size: int
    seq_len: int

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_ops(self) -> int:
        return self.pattern.num_ops

    @property
    def total_param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    @property
    def total_fp16_param_bytes(self) -> int:
        return sum(layer.param_bytes_fp16 for layer in self.layers)

    @property
    def total_optim_bytes(self) -> int:
        return sum(layer.optim_bytes_fp32 for layer in self.layers)


class Tracer:
    """Derives the access pattern of one training iteration.

    ``use_recompute`` mirrors Angel-PTM's default of releasing activations
    in the forward pass and regenerating them during backward (Section 4.2),
    which shrinks each activation's life-time to its producing op.
    """

    def __init__(self, cost_model: CostModel, use_recompute: bool = True):
        self._cost = cost_model
        self.use_recompute = use_recompute

    def trace(self, model: ModelSpec) -> IterationTrace:
        """Run the symbolic iteration and collect access records."""
        num_layers = model.num_layers
        if num_layers == 0:
            raise ConfigurationError("model has no layers")
        num_ops = 3 * num_layers
        accesses: list[TensorAccess] = []
        layer_traces: list[LayerTrace] = []
        next_tensor_id = 0

        for i, layer in enumerate(model.layers):
            fwd_id = i
            bwd_id = 2 * num_layers - 1 - i
            update_id = 2 * num_layers + (num_layers - 1 - i)

            for spec in layer.params:
                cpu_t, gpu_t = self._cost.production_times(spec.bytes_single)
                # FP16 parameter: needed from forward until its update.
                accesses.append(
                    TensorAccess(
                        tensor_id=next_tensor_id,
                        name=spec.name,
                        first_id=fwd_id,
                        end_id=update_id,
                        cpu_time=cpu_t,
                        gpu_time=gpu_t,
                        nbytes=spec.bytes_single,
                        kind=TensorKind.PARAM,
                        layer_index=i,
                    )
                )
                next_tensor_id += 1
                # FP16 gradient: produced at backward, consumed by update.
                accesses.append(
                    TensorAccess(
                        tensor_id=next_tensor_id,
                        name=f"{spec.name}.grad",
                        first_id=bwd_id,
                        end_id=update_id,
                        cpu_time=cpu_t,
                        gpu_time=gpu_t,
                        nbytes=spec.bytes_single,
                        kind=TensorKind.PARAM,
                        layer_index=i,
                    )
                )
                next_tensor_id += 1

            for spec in layer.optim_states:
                cpu_t, gpu_t = self._cost.production_times(spec.bytes_single)
                accesses.append(
                    TensorAccess(
                        tensor_id=next_tensor_id,
                        name=spec.name,
                        first_id=update_id,
                        end_id=update_id,
                        cpu_time=cpu_t,
                        gpu_time=gpu_t,
                        nbytes=spec.bytes_single * spec.multiplicity,
                        kind=TensorKind.OPTIM,
                        layer_index=i,
                    )
                )
                next_tensor_id += 1

            for spec in layer.activations:
                cpu_t, gpu_t = self._cost.production_times(spec.bytes_single)
                end_id = fwd_id if self.use_recompute else bwd_id
                accesses.append(
                    TensorAccess(
                        tensor_id=next_tensor_id,
                        name=spec.name,
                        first_id=fwd_id,
                        end_id=end_id,
                        cpu_time=cpu_t,
                        gpu_time=gpu_t,
                        nbytes=spec.bytes_single,
                        kind=TensorKind.ACTIVATION,
                        layer_index=i,
                    )
                )
                next_tensor_id += 1

            layer_traces.append(
                LayerTrace(
                    layer_index=i,
                    name=layer.name,
                    fwd_id=fwd_id,
                    bwd_id=bwd_id,
                    update_id=update_id,
                    fwd_time=self._cost.forward_time(layer, model.batch_size, model.seq_len),
                    bwd_time=self._cost.backward_time(layer, model.batch_size, model.seq_len),
                    recompute_time=(
                        self._cost.recompute_time(layer, model.batch_size, model.seq_len)
                        if self.use_recompute
                        else 0.0
                    ),
                    cpu_update_time=self._cost.cpu_update_time(layer.param_count),
                    gpu_update_time=self._cost.gpu_update_time(layer.param_count),
                    param_bytes_fp16=sum(p.bytes_single for p in layer.params),
                    grad_bytes_fp16=sum(p.bytes_single for p in layer.params),
                    optim_bytes_fp32=layer.optims_bytes,
                    act_bytes_fp16=sum(a.bytes_single for a in layer.activations),
                    param_count=layer.param_count,
                )
            )

        pattern = AccessPattern(accesses=tuple(accesses), num_ops=num_ops)
        return IterationTrace(
            model_name=model.name,
            pattern=pattern,
            layers=tuple(layer_traces),
            batch_size=model.batch_size,
            seq_len=model.seq_len,
        )
