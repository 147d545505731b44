"""Cluster-scale what-if analysis with the discrete-event simulator.

Plans and replays one training iteration of GPT3-175B on clusters from 8
to 768 GPUs, showing where the time goes (compute, PCIe movement, NCCL
collectives, CPU updates) and how Algorithm 1's overlap keeps the GPU
stream busy — the machinery behind Figures 7 and 8.

Run::

    python examples/cluster_simulation.py
"""

from repro.engine.planner import CapacityPlanner
from repro.hardware.cluster import a100_cluster
from repro.models import get_model
from repro.scheduler.unified import UnifiedScheduler


def main() -> None:
    config = get_model("gpt3-175b")
    print(f"model: {config.name} "
          f"({config.build(1, 2048).param_count / 1e9:.0f}B computed params)\n")

    header = (f"{'GPUs':>5} {'batch':>6} {'iter (s)':>9} {'samples/s':>10} "
              f"{'GPU busy':>9} {'PCIe busy':>10} {'cached layers':>14}")
    print(header)
    print("-" * len(header))

    for num_servers in (32, 48, 64, 96):
        cluster = a100_cluster(num_servers)
        planner = CapacityPlanner(cluster)
        batch = planner.max_micro_batch(config, "angel-ptm")
        scheduler = UnifiedScheduler(cluster)
        result = scheduler.simulate(config, batch)
        plan = result.plan
        print(f"{cluster.num_gpus:>5} {batch:>6} {result.iteration_time:>9.2f} "
              f"{result.samples_per_second:>10.2f} "
              f"{result.gpu_busy_fraction:>8.0%} "
              f"{result.pcie_busy_fraction:>9.0%} "
              f"{plan.cache.num_cached:>7}/{plan.trace.num_layers}")

    print("\nwhere one iteration's time goes (256 GPUs):")
    cluster = a100_cluster(32)
    result = UnifiedScheduler(cluster).simulate(config, micro_batch=12)
    for kind in ("compute", "pcie", "nccl", "cpu"):
        busy = result.timeline.busy_time(kind=kind)
        print(f"  {kind:>8}: {busy:8.2f}s of stream time "
              f"({busy / result.iteration_time:5.1%} of the iteration)")
    print(f"  makespan: {result.iteration_time:8.2f}s")

    # Export the iteration timeline for chrome://tracing / Perfetto.
    result.timeline.save_chrome_trace("gpt175b_iteration_trace.json")
    print("\ntimeline written to gpt175b_iteration_trace.json "
          "(open in chrome://tracing)")


if __name__ == "__main__":
    main()
