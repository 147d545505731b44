"""Deterministic, seedable job-traffic generation.

Stands in for Angel-PTM's production reality — "thousands of concurrent
training jobs" submitted by many teams (Section 2) — with a Poisson-ish
arrival process over a small tenant set, mixed nominal model sizes and
mixed priorities. Everything is drawn from one
``numpy.random.default_rng(seed)``: the same seed yields the same job
stream, which is what makes a gateway run reproducible down to the
admission order and the preemption victims.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet.factory import JobWorkload
from repro.fleet.jobs import JobSpec


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of the synthetic submission stream."""

    seed: int = 7
    num_jobs: int = 12
    tenants: tuple[str, ...] = ("ads", "nlp", "vision")
    #: Mean of the exponential inter-arrival gap, in virtual seconds.
    #: Deliberately shorter than a nominal job's runtime (≈14s for the
    #: smallest draw) so a backlog forms and preemption gets exercised.
    mean_interarrival: float = 6.0
    min_steps: int = 4
    max_steps: int = 8
    #: Nominal Table-4 models jobs stand in for, with draw weights —
    #: mixed sizes are what make packing decisions non-trivial.
    model_names: tuple[str, ...] = ("gpt3-1.7b", "t5-1.4b", "gpt3-13b")
    model_weights: tuple[float, ...] = (0.5, 0.3, 0.2)
    #: Priority classes with draw weights; higher value preempts lower.
    priorities: tuple[int, ...] = (0, 1, 2)
    priority_weights: tuple[float, ...] = (0.5, 0.3, 0.2)
    #: Depth choices for the tiny stand-in engine (real page pressure).
    layer_choices: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        if self.num_jobs <= 0:
            raise ConfigurationError("num_jobs must be positive")
        if self.mean_interarrival <= 0:
            raise ConfigurationError("mean_interarrival must be positive")
        if len(self.model_names) != len(self.model_weights):
            raise ConfigurationError("one weight per model name required")
        if len(self.priorities) != len(self.priority_weights):
            raise ConfigurationError("one weight per priority class required")


def generate_jobs(config: TrafficConfig) -> list[JobSpec]:
    """The submission stream: sorted by ``submit_time``, fully seeded."""
    rng = np.random.default_rng(config.seed)
    model_p = np.asarray(config.model_weights, dtype=float)
    model_p = model_p / model_p.sum()
    prio_p = np.asarray(config.priority_weights, dtype=float)
    prio_p = prio_p / prio_p.sum()
    jobs: list[JobSpec] = []
    now = 0.0
    for job_id in range(config.num_jobs):
        now += float(rng.exponential(config.mean_interarrival))
        tenant = config.tenants[int(rng.integers(len(config.tenants)))]
        priority = int(np.asarray(config.priorities)[
            int(rng.choice(len(config.priorities), p=prio_p))
        ])
        steps = int(rng.integers(config.min_steps, config.max_steps + 1))
        layers = int(np.asarray(config.layer_choices)[
            int(rng.integers(len(config.layer_choices)))
        ])
        model_name = config.model_names[
            int(rng.choice(len(config.model_names), p=model_p))
        ]
        workload = replace(
            JobWorkload(), layers=layers, seed=config.seed * 1000 + job_id
        )
        jobs.append(
            JobSpec(
                job_id=job_id,
                tenant=tenant,
                priority=priority,
                submit_time=round(now, 6),
                steps=steps,
                workload=workload,
                model_name=model_name,
            )
        )
    return jobs


__all__ = ["TrafficConfig", "generate_jobs"]
