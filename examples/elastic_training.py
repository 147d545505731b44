"""Elastic training: checkpoint on 2 ranks, resume on 4 — Section 3.1.

The paper's seamless-scalability requirement in one script:

1. train the cluster's ZeRO step on 2 thread ranks (4 fixed data shards,
   so the global batch does not depend on the rank count);
2. checkpoint to disk and stop — the "failed" or paused job;
3. resume from the snapshot on 4 ranks: each rank takes its even slice
   of the FP32 master and Adam moments ("no need to re-configure their
   parallel schemes");
4. finish, and compare every loss with the single-process reference.

Checkpoints go to a temporary directory that is removed afterwards.

Run::

    python examples/elastic_training.py
"""

import tempfile
from dataclasses import replace

from repro.cluster import ClusterConfig, run_cluster_in_process, run_cluster_reference

TOTAL_STEPS = 40
PAUSE_AT = 20


def main() -> None:
    config = ClusterConfig(world_size=4, steps=TOTAL_STEPS,
                           checkpoint_every=10, seed=3)
    with tempfile.TemporaryDirectory(prefix="elastic-") as workdir:
        print("phase 1: 2-rank ZeRO data parallelism")
        first = run_cluster_in_process(replace(config, steps=PAUSE_AT), 2,
                                       workdir)
        print(f"  steps 0-{PAUSE_AT - 1}: loss {first[0]:.4f} -> "
              f"{first[-1]:.4f}, checkpointed at step {PAUSE_AT}")

        print("phase 2: resumed on 4 ranks (state re-sharded 2 -> 4)")
        losses = run_cluster_in_process(config, 4, workdir)
        print(f"  steps {PAUSE_AT}-{TOTAL_STEPS - 1}: loss "
              f"{losses[PAUSE_AT]:.4f} -> {losses[-1]:.4f}")

    reference = run_cluster_reference(config)
    delta = max(abs(a - b) for a, b in zip(losses, reference))
    for step in range(0, TOTAL_STEPS, 10):
        print(f"step {step:3d}  loss {losses[step]:.4f}  "
              f"(reference {reference[step]:.4f})")
    print(f"final loss {losses[-1]:.4f}; max |delta| vs the 1-process "
          f"reference {delta:.2e} (rank-order summation only)")


if __name__ == "__main__":
    main()
