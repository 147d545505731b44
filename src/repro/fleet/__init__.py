"""Multi-tenant training control plane (the "economical" half of §2).

Angel-PTM's economic argument is that many teams share one fleet:
thousands of concurrent training and fine-tuning jobs packed onto a
fixed machine pool. This package reproduces that control plane at
laptop scale:

- :mod:`repro.fleet.traffic` — a deterministic, seedable stream of job
  submissions (mixed nominal model sizes, priorities, tenants);
- :mod:`repro.fleet.factory` — one :class:`JobFactory` recipe for every
  engine the repo builds (gateway, chaos, bench, CLI, cluster);
- :mod:`repro.fleet.scheduler` — deficit fair-share ranking and
  DES-cost-model-priced first-fit packing with per-tenant page quotas;
- :mod:`repro.fleet.gateway` — the virtual-time event loop: admission,
  placement, checkpointed preemption, bit-identical resume, fleet-wide
  watchdog rollup.

``python3 -m bench run --workload fleet_stream`` drives the gateway and
reports its jobs/hour, p99 queue latency and preemptions.
"""

from repro.fleet.factory import JobFactory, JobWorkload
from repro.fleet.gateway import FleetConfig, FleetGateway, FleetReport
from repro.fleet.jobs import JobRecord, JobSpec, JobState
from repro.fleet.scheduler import FairShareScheduler, FleetNode
from repro.fleet.traffic import TrafficConfig, generate_jobs

__all__ = [
    "FairShareScheduler",
    "FleetConfig",
    "FleetGateway",
    "FleetNode",
    "FleetReport",
    "JobFactory",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobWorkload",
    "TrafficConfig",
    "generate_jobs",
]
