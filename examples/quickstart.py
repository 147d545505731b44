"""Quickstart: the paper's Figure 6 training interface.

Wrap any numpy model with ``angelptm.initialize(model, optimizer, config)``
and train with the three-call loop — forward, backward, step — while the
engine manages FP16 working parameters and FP32 optimizer states in paged
hierarchical memory (a capacity-limited "GPU" pool plus a CPU pool here).

Run::

    python examples/quickstart.py
"""

import numpy as np

from repro.api import AngelConfig, initialize
from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
from repro.units import KiB, MiB


def main() -> None:
    vocab, seq = 32, 16
    model = TinyTransformerLM(
        vocab_size=vocab, d_model=32, d_ffn=64, num_heads=4, num_layers=2,
        max_seq=seq, seed=0,
    )
    optimizer = MixedPrecisionAdam(model.parameters(), lr=2e-3)
    config = AngelConfig(
        gpu_memory_bytes=4 * MiB,    # the "GPU" tier is deliberately small
        cpu_memory_bytes=64 * MiB,
        page_bytes=64 * KiB,
    )

    engine = initialize(model, optimizer, config)
    print(f"model: {model.num_parameters:,} parameters")

    losses = []
    for step, batch in enumerate(lm_synthetic_batches(vocab, seq, 8, 120, seed=1)):
        loss = engine(batch)          # forward
        engine.backward(loss)         # backward + gradient offload
        engine.step()                 # paged Adam update
        losses.append(loss.item())
        if step % 20 == 0:
            print(f"step {step:4d}  loss {np.mean(losses[-20:]):.4f}")

    print(f"\nfinal loss: {np.mean(losses[-10:]):.4f} "
          f"(started at {np.mean(losses[:10]):.4f})")
    print("\nmemory tiers after training:")
    for tier, stats in engine.memory_report().items():
        print(f"  {tier:>4}: {stats['pages_in_use']:3d} pages in use, "
              f"peak {stats['peak_pages']}")
    engine.close()


if __name__ == "__main__":
    main()
