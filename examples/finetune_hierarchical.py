"""Fine-tuning under memory pressure: eviction across the hierarchy.

Section 3.1 of the paper motivates hierarchical memory with fine-tuning
workloads: many short jobs, small batches, and far more model than GPU.
This example fine-tunes a "pre-trained" model with a GPU pool too small to
hold all parameters at once, so the engine pages layers in and out (LRU)
as the forward pass walks the network — the Figure 1 workflow, observable
through the engine's memory report and access trace.

Run::

    python examples/finetune_hierarchical.py
"""

import numpy as np

from repro.api import AngelConfig, initialize
from repro.hardware.device import DeviceKind
from repro.nn import MixedPrecisionAdam, TinyTransformerLM, copy_task_batches
from repro.units import KiB, MiB


def pretrain(model, steps: int = 60) -> None:
    """A short 'pre-training' phase on the raw next-token task."""
    from repro.nn import cross_entropy, lm_synthetic_batches

    opt = MixedPrecisionAdam(model.parameters(), lr=2e-3)
    for batch in lm_synthetic_batches(32, 16, 8, steps, seed=3):
        loss = cross_entropy(model(batch.inputs, True), batch.targets)
        model.zero_grad()
        loss.backward()
        opt.step()


def main() -> None:
    model = TinyTransformerLM(
        vocab_size=32, d_model=32, d_ffn=64, num_heads=4, num_layers=4,
        max_seq=16, seed=2,
    )
    print("pre-training the base model ...")
    pretrain(model)

    # Fine-tune on the downstream copy task with a tiny GPU pool: only a
    # few layers fit at a time, so pages shuttle between tiers.
    optimizer = MixedPrecisionAdam(model.parameters(), lr=1e-3)
    config = AngelConfig(
        gpu_memory_bytes=512 * KiB,   # much smaller than the model
        cpu_memory_bytes=64 * MiB,
        page_bytes=32 * KiB,
    )
    engine = initialize(model, optimizer, config)

    gpu_pool = engine.allocator.pool(DeviceKind.GPU)
    print(f"GPU pool: {gpu_pool.num_pages} pages of 32KiB; "
          f"model needs ~{model.num_parameters * 2 // 1024}KiB of FP16 params")

    losses = []
    for step, batch in enumerate(copy_task_batches(32, 16, 8, 100, seed=4)):
        loss = engine(batch)
        engine.backward(loss)
        engine.step()
        losses.append(loss.item())
        if step % 20 == 0:
            resident = sum(
                1 for m in engine._managed
                if m.fp16.device_kind == DeviceKind.GPU
            )
            print(f"step {step:4d}  loss {np.mean(losses[-20:]):.4f}  "
                  f"params resident on GPU: {resident}/{len(engine._managed)}")

    print(f"\nfine-tune loss: {np.mean(losses[:10]):.3f} -> "
          f"{np.mean(losses[-10:]):.3f}")
    print(f"GPU pool peak usage: {gpu_pool.peak_in_use}/{gpu_pool.num_pages} pages "
          "(the engine never exceeded the budget)")

    print("\nparameter access pattern (what the Tracer records):")
    for name, first, last in engine.access_trace()[:6]:
        print(f"  {name:<24} first={first:<5} last={last}")
    engine.close()


if __name__ == "__main__":
    main()
