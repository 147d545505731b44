"""Workload registry: name in ``BENCHMARK.json`` -> implementing module.

A workload module provides ``PROCESSES`` (fresh interpreters an untraced
pass is split over, see ``bench/run.py``), ``setup(ctx)`` (everything before the first timed
operation; returns a rig with ``close()`` or ``None``) and
``measure(ctx, rig)`` (returns a ``bench.common.Outcome``).
"""

from bench.workloads import cluster, engine, fleet, ladder

WORKLOADS = {
    "gpu_resident": engine,
    "gpu_tight": engine,
    "ssd_pipeline": engine,
    "cluster_zero": cluster,
    "fleet_stream": fleet,
    "page_ladder": ladder,
}
