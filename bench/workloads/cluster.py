"""``cluster_zero``: two real ZeRO worker processes plus a coordinator.

The model is tiny on purpose, so the per-collective shared-memory segments
and the coordinator barriers — not numpy — set the step time. A cluster
run cannot be stopped by a clock, so its length is fixed up front from
the time budget: LAUNCHES launches of ``seconds * STEPS_PER_SECOND``
steps each. Several launches give several set-up samples
(``run_cluster`` entry -> ``generation_formed``) and throughput samples
per run, at ~3 s of spawn and teardown apiece.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro import api
from repro.cluster import ClusterConfig, run_cluster_reference

from bench.common import Outcome, median
from bench.hygiene import leaked_shm, shm_names

PROCESSES = 1  # its three launches are already fresh processes

LAUNCHES = 3
#: Steps per launch per second of budget: at the ~57 steps/s of the
#: two-core reference machine the three launches together step for
#: about ``--seconds``.
STEPS_PER_SECOND = 19
MIN_STEPS = 20
#: Steps of the single-process reference the cluster's losses must equal.
ORACLE_STEPS = 40


def _config(seed: int, seconds: float) -> ClusterConfig:
    return ClusterConfig(
        world_size=2, steps=max(MIN_STEPS, round(seconds * STEPS_PER_SECOND)),
        checkpoint_every=100, layers=4, seq_len=32, shard_batch=8,
        vocab_size=64, seed=seed,
    )


def setup(ctx):
    return None


class _Launch:
    """One ``api.cluster`` run, read back from its events and spans."""

    def __init__(self, config: ClusterConfig, workdir: str):
        entered_wall = time.time()
        began = time.perf_counter()
        self.report = api.cluster(config, workdir=workdir)
        total_s = time.perf_counter() - began
        times = {event["type"]: event["time"] for event in self.report.events}
        self.formation_s = times["generation_formed"] - entered_wall
        self.stepping_s = times["complete"] - times["generation_formed"]
        self.teardown_s = total_s - (times["complete"] - entered_wall)
        self.steps_per_s = config.steps / self.stepping_s
        #: ``{span name: [durations per rank stream]}``; step spans are
        #: named ``step<N>`` by the workers and folded under ``step``.
        self.spans: list[dict[str, list[float]]] = []
        for stream in api.trace_collect(workdir).streams:
            if stream.role != "rank":
                continue
            by_name: dict[str, list[float]] = {}
            for span in stream.spans:
                name = "step" if span["name"].startswith("step") else span["name"]
                by_name.setdefault(name, []).append(span["end"] - span["start"])
            self.spans.append(by_name)

    def step_durations(self) -> list[float]:
        return [d for rank in self.spans for d in rank.get("step", [])]

    def per_step_ms(self, name: str) -> float:
        """Mean over ranks of a span's summed time per step, in ms."""
        per_rank = [
            sum(rank.get(name, [])) / max(1, len(rank.get("step", [])))
            for rank in self.spans
        ]
        return 1e3 * sum(per_rank) / max(1, len(per_rank))


def measure(ctx, _rig) -> Outcome:
    imports_s = time.perf_counter() - ctx.started
    outcome = Outcome()
    config = _config(ctx.seed, ctx.seconds)
    shm_before = shm_names()
    launches: list[_Launch] = []
    for _ in range(LAUNCHES):
        outcome.attempted += config.steps
        workdir = os.path.join(ctx.workdir, f"launch{len(launches)}")
        try:
            launch = _Launch(config, workdir)
        except Exception as exc:
            outcome.failed += config.steps
            outcome.check(False, f"cluster launch raised {exc!r}")
            break
        launches.append(launch)
        outcome.setup_samples.append(imports_s + launch.formation_s)
        outcome.failed += config.steps - launch.report.steps_completed
        outcome.check(launch.report.complete, "cluster run did not complete")
    leaked = leaked_shm(shm_before)
    outcome.check(not leaked, f"cluster left shared-memory segments: {leaked}")

    began = time.perf_counter()
    oracle_steps = min(ORACLE_STEPS, config.steps)
    reference = run_cluster_reference(replace(config, steps=oracle_steps))
    reference_s = time.perf_counter() - began
    for launch in launches:
        outcome.check(
            launch.report.losses[:oracle_steps] == reference,
            "cluster losses differ from run_cluster_reference",
        )
        outcome.check(
            launch.report.losses == launches[0].report.losses,
            "cluster losses differ between launches of one seed",
        )
    if not launches:
        return outcome

    metrics = outcome.metrics
    if not ctx.traced:
        # The quietest launch, as ``common.best_window`` picks a window.
        metrics["ops_per_s"] = max(l.steps_per_s for l in launches)
        metrics["op_p50_ms"] = min(
            median(l.step_durations()) for l in launches) * 1e3
        return outcome
    steps = [d for launch in launches for d in launch.step_durations()]

    first = launches[0]
    step_ms = first.per_step_ms("step")
    collective_ms = (first.per_step_ms("reduce_scatter")
                     + first.per_step_ms("all_gather"))
    counters = first.report.rollup.get("counters", {})
    metrics["cluster.grads_ms_per_step"] = first.per_step_ms("grads")
    metrics["cluster.reduce_scatter_ms_per_step"] = first.per_step_ms("reduce_scatter")
    metrics["cluster.adam_ms_per_step"] = first.per_step_ms("adam")
    metrics["cluster.all_gather_ms_per_step"] = first.per_step_ms("all_gather")
    metrics["cluster.collective_wait_frac"] = collective_ms / step_ms
    metrics["cluster.collective_bytes_per_step"] = (
        counters.get("collective.reduce_scatter_bytes", 0)
        + counters.get("collective.all_gather_bytes", 0)
    ) / config.steps
    metrics["cluster.collective_calls_per_step"] = sum(
        len(rank.get("reduce_scatter", [])) + len(rank.get("all_gather", []))
        for rank in first.spans
    ) / config.steps
    saves = [d for rank in first.spans for d in rank.get("checkpoint", [])]
    metrics["cluster.checkpoint_ms_per_save"] = median(saves) * 1e3 if saves else 0.0
    # Both ranks leave the step barrier together, so the gap between
    # their gradient times is how long the faster one waits in the
    # reduce-scatter that follows.
    if len(first.spans) >= 2:
        skews = [
            abs(a - b) for a, b in
            zip(first.spans[0].get("grads", []), first.spans[1].get("grads", []))
        ]
        metrics["cluster.rank_skew_ms_p50"] = median(skews) * 1e3 if skews else 0.0
    metrics["cluster.step_p50_ms"] = median(steps) * 1e3
    metrics["cluster.steps_per_s"] = median([l.steps_per_s for l in launches])
    metrics["cluster.reference_steps_per_s"] = oracle_steps / reference_s
    metrics["cluster.formation_s"] = median([l.formation_s for l in launches])
    metrics["cluster.teardown_s"] = median([l.teardown_s for l in launches])
    metrics["cluster.shm_segments_leaked"] = len(leaked)
    # The workers export their spans whether or not the benchmark asks;
    # this pass adds no wrapper inside them, so it costs them nothing.
    metrics["trace.overhead_frac"] = 0.0
    for name in ("cluster.collective_bytes_per_step",
                 "cluster.collective_calls_per_step",
                 "cluster.shm_segments_leaked"):
        outcome.exact[name] = metrics[name]
    return outcome
