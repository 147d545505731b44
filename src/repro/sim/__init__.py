"""Discrete-event simulation substrate.

The throughput and scalability experiments of the paper (Tables 5-6,
Figures 7-9) depend on *when* computations, PCIe movements, collectives and
SSD I/O overlap. This package provides a deterministic stream-based
simulator: tasks execute on serialized streams (one per physical resource,
mirroring CUDA streams and link channels) and may depend on tasks from
other streams, which is exactly the execution model of the paper's Executor
and Communicator (Section 5).
"""

from repro.sim.engine import Simulator, SimTask
from repro.sim.stream import Stream
from repro.sim.timeline import Interval, Timeline

__all__ = [
    "Simulator",
    "SimTask",
    "Stream",
    "Timeline",
    "Interval",
]
