"""Reusable engine construction — one ``JobFactory``, every driver.

Four call sites used to hand-roll the same tiny-transformer workload
before handing it to ``repro.api.initialize``: the chaos harness, the
profiling bench, ``repro train`` and the cluster workers. The fleet
gateway makes a fifth, and builds engines *repeatedly* (a preempted job's
resume must reconstruct exactly the engine it lost). ``JobFactory``
owns that recipe: a frozen :class:`JobWorkload` describes the model and
data stream, and the factory turns it into models, optimizers, batch
streams, engines and a page-footprint estimate — all deterministic
functions of the workload, which is what makes preempt→resume
bit-identical and fleet admission decisions reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
from repro.units import KiB, MiB


@dataclass(frozen=True)
class JobWorkload:
    """One training job's model + data knobs (a deterministic recipe)."""

    vocab_size: int = 32
    d_model: int = 32
    d_ffn: int = 64
    num_heads: int = 4
    layers: int = 2
    seq_len: int = 16
    batch_size: int = 8
    lr: float = 2e-3
    seed: int = 0


class JobFactory:
    """Builds models, optimizers, engines and batches from one workload.

    Everything is a pure function of the workload: calling any method
    twice yields bit-identical objects, so a resumed job retrains the
    same numbers it would have produced uninterrupted.
    """

    def __init__(self, workload: JobWorkload | None = None):
        self.workload = workload or JobWorkload()

    def model(self) -> TinyTransformerLM:
        w = self.workload
        return TinyTransformerLM(
            vocab_size=w.vocab_size,
            d_model=w.d_model,
            d_ffn=w.d_ffn,
            num_heads=w.num_heads,
            num_layers=w.layers,
            max_seq=w.seq_len,
            seed=w.seed,
        )

    def optimizer(self, model) -> MixedPrecisionAdam:
        return MixedPrecisionAdam(model.parameters(), lr=self.workload.lr)

    def engine(self, config):
        """Fresh model + optimizer wrapped by ``repro.api.initialize``."""
        from repro.api import initialize

        model = self.model()
        return initialize(model, self.optimizer(model), config)

    def train(self, engine, steps: int) -> list[float]:
        """Run the Figure-6 loop over the first ``steps`` batches; returns
        the per-step losses."""
        losses = []
        for batch in self.batches(steps):
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            losses.append(loss.item())
        return losses

    def batches(self, steps: int) -> list:
        """The job's deterministic batch stream (seed+1, every driver)."""
        w = self.workload
        return list(
            lm_synthetic_batches(
                w.vocab_size, w.seq_len, w.batch_size, steps, seed=w.seed + 1
            )
        )

    def page_footprint(self, page_bytes: int) -> int:
        """Upper bound on pages the engine pins: FP16 + 3×FP32 per param.

        Matches the engine's registration policy (small tensors take an
        individual page; large tensors may share only their tails), so it
        never under-counts — the admission-control contract.
        """
        pages = 0
        for _, param in self.model().named_parameters():
            for bytes_per_el in (2, 4, 4, 4):  # fp16, master, m, v
                nbytes = param.data.size * bytes_per_el
                pages += max(1, -(-nbytes // page_bytes))
        return pages


def engine_config(gpu_bytes: int = 4 * MiB, ssd: bool = False,
                  lock_free: bool = False, pipeline: bool = False):
    """The engine setting ``repro train`` runs a workload under: 64 MiB
    of CPU memory and 64 KiB pages, plus a 32 MiB SSD tier with ``ssd``
    and an update sweep every 4 steps with ``lock_free``."""
    from repro.engine.angel import AngelConfig

    return AngelConfig(
        gpu_memory_bytes=gpu_bytes,
        cpu_memory_bytes=64 * MiB,
        ssd_bytes=32 * MiB if ssd else 0,
        page_bytes=64 * KiB,
        lock_free=lock_free,
        update_interval=4 if lock_free else 1,
        pipeline=pipeline,
    )


__all__ = ["JobFactory", "JobWorkload", "engine_config"]
