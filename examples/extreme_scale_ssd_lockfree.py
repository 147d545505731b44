"""Extreme scale: SSD-resident optimizer states + the lock-free mechanism.

Reproduces Section 4.3's story end to end on real hardware (this machine's
filesystem standing in for the NVMe tier):

1. FP32 master parameters, momenta and variances live in a *file-backed*
   SSD pool; every optimizer sweep does genuine disk I/O.
2. Synchronous training pays that I/O on the critical path each step.
3. The lock-free mechanism (Algorithm 2) decouples it: gradients
   accumulate in CPU buffers and an update sweep folds several iterations
   at once — same data, near-identical convergence (Table 6).

Run::

    python examples/extreme_scale_ssd_lockfree.py
"""

import time

import numpy as np

from repro.api import AngelConfig, initialize
from repro.lockfree import LockFreeTrainer
from repro.nn import MixedPrecisionAdam, TinyTransformerLM, lm_synthetic_batches
from repro.units import KiB, MiB

VOCAB, SEQ, BATCH, STEPS = 32, 16, 8, 400


def batches(seed=5):
    return lm_synthetic_batches(VOCAB, SEQ, BATCH, STEPS, seed=seed, chain_seed=5)


def make_model():
    return TinyTransformerLM(
        vocab_size=VOCAB, d_model=32, d_ffn=64, num_heads=4, num_layers=2,
        max_seq=SEQ, num_experts=4, seed=6,
    )


def train_paged(lock_free: bool) -> tuple[float, float]:
    """Train through the paged engine with a real SSD tier; return
    (final loss, wall seconds)."""
    model = make_model()
    optimizer = MixedPrecisionAdam(model.parameters(), lr=2e-3)
    config = AngelConfig(
        gpu_memory_bytes=4 * MiB,
        cpu_memory_bytes=32 * MiB,
        ssd_bytes=32 * MiB,          # file-backed pool: real disk I/O
        page_bytes=64 * KiB,
        lock_free=lock_free,
        update_interval=4 if lock_free else 1,
    )
    engine = initialize(model, optimizer, config)
    start = time.perf_counter()
    losses = []
    for batch in batches():
        loss = engine(batch)
        engine.backward(loss)
        engine.step()
        losses.append(loss.item())
    elapsed = time.perf_counter() - start
    engine.close()
    return float(np.mean(losses[-15:])), elapsed


def main() -> None:
    print("=== paged training with a file-backed SSD tier ===")
    sync_loss, sync_time = train_paged(lock_free=False)
    print(f"synchronous: loss {sync_loss:.4f}, {sync_time:.2f}s "
          "(every step round-trips FP32 states through the SSD file)")

    lf_loss, lf_time = train_paged(lock_free=True)
    print(f"lock-free  : loss {lf_loss:.4f}, {lf_time:.2f}s "
          "(one SSD sweep per 4 iterations folds accumulated gradients)")
    print(f"-> SSD-path work divided by 4, loss gap "
          f"{abs(lf_loss - sync_loss) / sync_loss * 100:.1f}%")

    print("\n=== genuinely threaded lock-free trainer (Algorithm 2) ===")
    model = make_model()
    optimizer = MixedPrecisionAdam(model.parameters(), lr=2e-3)
    trainer = LockFreeTrainer(model, optimizer, sweep_delay=0.01)
    log = trainer.train(batches())
    print(f"GPU-loop iterations: {log.iterations}, update sweeps: {log.sweeps} "
          f"(each sweep emulates ~10ms of SSD I/O)")
    print(f"loss {log.first_loss:.3f} -> {log.final_loss:.3f} with "
          f"~{log.iterations / max(1, log.sweeps):.1f} iterations of staleness")


if __name__ == "__main__":
    main()
