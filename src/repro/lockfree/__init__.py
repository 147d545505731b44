"""Building blocks of the Lock-Free Updating Mechanism (Section 4.3,
Algorithm 2).

Algorithm 2 itself runs in one place, the paged engine's update sweep
(:class:`repro.engine.angel.AngelModel` with ``lock_free=True`` and
``update_interval=k``): the backward pass deposits gradients into
:class:`GradientBuffers`, and every ``k`` steps the sweep folds what has
accumulated into one FP32 update per layer, its SSD state traffic read
ahead and written behind on the state I/O thread.
:class:`WorkQueue` is the keyed FIFO under the runtime's background
workers.
"""

from repro.lockfree.buffers import GradientBuffers
from repro.lockfree.queues import WorkQueue

__all__ = ["GradientBuffers", "WorkQueue"]
