"""Functional ZeRO-3: parameters themselves sharded, gathered per layer.

Section 3.2: "we adopt the parameter sharding approach proposed by ZeRO,
which evenly splits each parameter among multiple GPUs. When a parameter
needs to be calculated, the complete parameter is obtained through an
all-gather operation."

Unlike the cluster's ZeRO step (:func:`repro.cluster.worker.zero_step`,
which keeps a full replica per rank and shards gradients and optimizer
state), this engine keeps exactly one flat shard of every parameter per
rank. A single
shared module executes the math; before each module's forward its
parameters are assembled from the shards (the all-gather) and afterwards
the gathered copies are dropped, so full parameters exist only around
their computation — ZeRO-3's memory invariant, which the tests assert.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShardingError
from repro.nn.data import Batch
from repro.nn.functional import cross_entropy
from repro.nn.layers import Module
from repro.nn.optim import MixedPrecisionAdam
from repro.nn.tensor import round_fp16
from repro.checkpoint.reshard import merge_shards, split_even


class Zero3Engine:
    """ZeRO-3 sharded training over a shared compute module.

    The module's parameter arrays act as the transient "gathered" buffers:
    outside of a forward/backward pass they are zeroed out, and the
    authoritative values live only in per-rank shards.
    """

    def __init__(
        self,
        model: Module,
        num_ranks: int,
        lr: float = 1e-3,
        mixed_precision: bool = True,
    ):
        if num_ranks <= 0:
            raise ConfigurationError("num_ranks must be positive")
        self.model = model
        self.num_ranks = num_ranks
        self.mixed_precision = mixed_precision
        self._params = model.parameters()

        # Authoritative state: per-rank FP32 master/moment shards and
        # FP16-rounded parameter shards, all flat.
        self.master_shards: list[list[np.ndarray]] = []
        self.m_shards: list[list[np.ndarray]] = []
        self.v_shards: list[list[np.ndarray]] = []
        self.param_shards: list[list[np.ndarray]] = []
        for param in self._params:
            flat = param.data.reshape(-1).astype(np.float32)
            self.master_shards.append(split_even(flat.copy(), num_ranks))
            self.m_shards.append(split_even(np.zeros_like(flat), num_ranks))
            self.v_shards.append(split_even(np.zeros_like(flat), num_ranks))
            # Initial shards carry the raw values (mixed-precision casting
            # happens at compute time); every update refreshes them with
            # FP16-rounded masters, matching MixedPrecisionAdam.
            self.param_shards.append(split_even(flat.copy(), num_ranks))
        self.lr = lr
        self._adam = MixedPrecisionAdam([], lr=lr)  # reuse its _apply math
        self._adam_t = 0
        self._gathered = False
        self.gather_bytes = 0
        self.reduce_bytes = 0
        self._drop_parameters()

    # ------------------------------------------------------------------
    # Gather / drop (the ZeRO-3 parameter life cycle)
    # ------------------------------------------------------------------
    def _gather_parameters(self) -> None:
        """All-gather: assemble full FP16 parameters from the shards."""
        for index, param in enumerate(self._params):
            full = merge_shards(self.param_shards[index], param.data.size)
            param.data[...] = full.reshape(param.data.shape)
            self.gather_bytes += full.nbytes
        self._gathered = True

    def _drop_parameters(self) -> None:
        """Release the gathered copies (only shards persist)."""
        for param in self._params:
            param.data[...] = 0.0
        self._gathered = False

    @property
    def parameters_materialized(self) -> bool:
        return self._gathered

    def full_parameter(self, index: int) -> np.ndarray:
        """Reassemble one parameter from its shards (for tests/eval)."""
        param = self._params[index]
        return merge_shards(self.param_shards[index], param.data.size).reshape(
            param.data.shape
        )

    # ------------------------------------------------------------------
    # Training step
    # ------------------------------------------------------------------
    def train_step(self, batch: Batch) -> float:
        """One data-parallel iteration over the global ``batch``.

        Each rank computes on its micro-batch against the gathered
        parameters; gradients reduce-scatter into per-rank shards; each
        rank updates its own FP32 shard and refreshes its FP16 shard.
        """
        micro_batches = self._split(batch)
        grad_accum = [np.zeros(p.data.size, dtype=np.float32) for p in self._params]
        losses = []
        for micro in micro_batches:
            self._gather_parameters()
            logits = self.model(micro.inputs, self.mixed_precision)
            loss = cross_entropy(logits, micro.targets)
            self.model.zero_grad()
            loss.backward()
            for index, param in enumerate(self._params):
                if param.grad is not None:
                    grad_accum[index] += param.grad.reshape(-1)
            self._drop_parameters()
            losses.append(loss.item())

        # Reduce-scatter: each rank keeps the mean-gradient slice it owns.
        self._adam_t += 1
        for index in range(len(self._params)):
            mean_grad = grad_accum[index] / self.num_ranks
            grad_shards = split_even(mean_grad, self.num_ranks)
            self.reduce_bytes += mean_grad.nbytes
            for rank in range(self.num_ranks):
                self._apply_shard(index, rank, grad_shards[rank])
        return float(np.mean(losses))

    def _apply_shard(self, index: int, rank: int, grad: np.ndarray) -> None:
        self._adam.t = self._adam_t
        self._adam._apply(
            self.master_shards[index][rank],
            grad,
            self.m_shards[index][rank],
            self.v_shards[index][rank],
        )
        self.param_shards[index][rank][...] = round_fp16(self.master_shards[index][rank])

    def _split(self, batch: Batch) -> list[Batch]:
        if batch.inputs.shape[0] % self.num_ranks:
            raise ShardingError(
                f"global batch {batch.inputs.shape[0]} does not split over "
                f"{self.num_ranks} ranks"
            )
        micro = batch.inputs.shape[0] // self.num_ranks
        return [
            Batch(
                inputs=batch.inputs[rank * micro:(rank + 1) * micro],
                targets=batch.targets[rank * micro:(rank + 1) * micro],
            )
            for rank in range(self.num_ranks)
        ]

    # ------------------------------------------------------------------
    # Memory accounting (the ZeRO memory claim)
    # ------------------------------------------------------------------
    def resident_state_bytes(self, rank: int) -> int:
        """Persistent per-rank bytes: FP16 param shard + FP32 states."""
        if not 0 <= rank < self.num_ranks:
            raise ShardingError(f"rank {rank} outside [0, {self.num_ranks})")
        total = 0
        for index in range(len(self._params)):
            total += self.param_shards[index][rank].size * 2  # stored as FP16
            total += self.master_shards[index][rank].nbytes
            total += self.m_shards[index][rank].nbytes
            total += self.v_shards[index][rank].nbytes
        return total

    def evaluate(self, batch: Batch) -> float:
        """Loss on ``batch`` with gathered parameters (then dropped)."""
        from repro.nn.tensor import no_grad

        self._gather_parameters()
        try:
            with no_grad():
                logits = self.model(batch.inputs, self.mixed_precision)
                return cross_entropy(logits, batch.targets).item()
        finally:
            self._drop_parameters()
