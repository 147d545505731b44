"""Extreme scale: SSD-resident optimizer states + the lock-free mechanism.

Reproduces Section 4.3's story end to end on the paged engine (this
machine's filesystem standing in for the NVMe tier):

1. FP32 master parameters, momenta and variances live in a *file-backed*
   SSD pool; every optimizer sweep does genuine disk I/O.
2. Synchronous training runs one sweep, and pays that I/O, every step.
3. The lock-free mechanism (Algorithm 2, ``lock_free=True``) buffers
   gradients on the CPU side and folds four iterations into each sweep —
   same data, near-identical convergence (Table 6). The wall-clock gain
   printed here comes from running a quarter of the sweeps.

Run::

    python examples/extreme_scale_ssd_lockfree.py
"""

import time

import numpy as np

from repro.api import AngelConfig, initialize
from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
from repro.units import KiB, MiB

VOCAB, SEQ, BATCH, STEPS = 32, 16, 8, 400


def make_model():
    return TinyTransformerLM(
        vocab_size=VOCAB, d_model=32, d_ffn=64, num_heads=4, num_layers=2,
        max_seq=SEQ, num_experts=4, seed=6,
    )


def train_paged(update_interval: int) -> tuple[float, float, int]:
    """Train through the paged engine with a real SSD tier; return
    (final loss, wall seconds, update sweeps)."""
    model = make_model()
    optimizer = MixedPrecisionAdam(model.parameters(), lr=2e-3)
    config = AngelConfig(
        gpu_memory_bytes=4 * MiB,
        cpu_memory_bytes=32 * MiB,
        ssd_bytes=32 * MiB,          # file-backed pool: real disk I/O
        page_bytes=64 * KiB,
        lock_free=update_interval > 1,
        update_interval=update_interval,
    )
    losses, sweeps = [], 0
    with initialize(model, optimizer, config) as engine:
        start = time.perf_counter()
        for batch in lm_synthetic_batches(VOCAB, SEQ, BATCH, STEPS, seed=5, chain_seed=5):
            loss = engine(batch)
            engine.backward(loss)
            sweeps += engine.step()
            losses.append(loss.item())
        elapsed = time.perf_counter() - start
    return float(np.mean(losses[-15:])), elapsed, sweeps


def main() -> None:
    print("=== paged training with a file-backed SSD tier ===")
    sync_loss, sync_time, sync_sweeps = train_paged(update_interval=1)
    print(f"synchronous: loss {sync_loss:.4f}, {sync_time:.2f}s, "
          f"{sync_sweeps} sweeps (each round-trips FP32 states through the SSD file)")

    lf_loss, lf_time, lf_sweeps = train_paged(update_interval=4)
    print(f"lock-free  : loss {lf_loss:.4f}, {lf_time:.2f}s, "
          f"{lf_sweeps} sweeps (each folds 4 iterations of buffered gradients)")
    print(f"-> {sync_sweeps / lf_sweeps:.0f}x fewer sweeps, "
          f"{sync_time / lf_time:.2f}x wall clock, loss gap "
          f"{abs(lf_loss - sync_loss) / sync_loss * 100:.1f}%")


if __name__ == "__main__":
    main()
