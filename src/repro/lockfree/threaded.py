"""Genuinely threaded lock-free training (Algorithm 2's structure).

The GPU loop (main thread) computes forward/backward against the buffered
parameters and deposits gradients; the updating thread sweeps the layers in
reverse order, draining accumulated gradients and refreshing the buffered
parameters, until training finishes and the buffers are clear. numpy
releases the GIL inside kernels, so the two threads genuinely overlap.

An optional per-sweep delay emulates the SSD I/O the updating thread pays
in production (fetch + offload of the FP32 states, lines 4 and 7).

Failure handling: an exception on the updating thread is captured and
re-raised on the main thread at the next step boundary (or at finish) —
it never dies silently, never hangs ``join()``, and never strands dirty
buffers. With ``fallback_to_sync=True`` the trainer instead degrades to
the synchronous update path on the main thread and finishes training,
recording the captured error in ``update_error``.
"""

from __future__ import annotations

import threading
import time

from repro.errors import ConfigurationError, join_or_raise
from repro.lockfree.buffers import GradientBuffers
from repro.lockfree.staleness import TrainLog
from repro.nn.functional import cross_entropy
from repro.nn.layers import Module
from repro.nn.optim import MixedPrecisionAdam


class LockFreeTrainer:
    """Two-thread lock-free trainer."""

    def __init__(
        self,
        model: Module,
        optimizer: MixedPrecisionAdam,
        mixed_precision: bool = True,
        sweep_delay: float = 0.0,
        fallback_to_sync: bool = False,
        telemetry=None,
    ):
        if sweep_delay < 0:
            raise ConfigurationError("sweep_delay must be >= 0")
        self.model = model
        self.optimizer = optimizer
        self.mixed_precision = mixed_precision
        self.sweep_delay = sweep_delay
        self.fallback_to_sync = fallback_to_sync
        if telemetry is None:
            from repro.telemetry.core import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        #: repro.telemetry.Telemetry: GPU-loop spans on the calling
        #: thread's track, sweep spans on the updating thread's track, and
        #: an ``updater.sweep_seconds`` latency histogram.
        self.telemetry = telemetry
        self._params = model.parameters()
        self._buffers = GradientBuffers(self._params)
        self._stop = threading.Event()
        #: Guards the sweep-progress counters below: they are written on
        #: the updating thread and read on the GPU loop every iteration
        #: (found by ``repro check --self``, rule SA001).
        self._progress_lock = threading.Lock()
        self._sweeps = 0
        #: Iterations whose gradients a completed sweep has folded in; the
        #: GPU loop publishes ``iterations - applied`` as the staleness-lag
        #: gauge the watchdog monitors.
        self._iterations_applied = 0
        self._lag_gauge = self.telemetry.gauge("updater.lag_iterations")
        #: The exception that killed the updating thread, if any.
        self.update_error: BaseException | None = None
        #: True once the trainer degraded to synchronous updates.
        self.fell_back = False

    # ------------------------------------------------------------------
    # Updating thread (Algorithm 2, lines 1-7)
    # ------------------------------------------------------------------
    def _update_loop(self) -> None:
        try:
            while not self._stop.is_set() or self._buffers.has_uncleared:
                if not self._buffers.has_uncleared:
                    time.sleep(1e-4)
                    continue
                self._sweep_once()
        except BaseException as exc:  # surface on the main thread
            self.update_error = exc

    def _sweep_once(self) -> None:
        """One update sweep over all layers (shared by both paths)."""
        telemetry = self.telemetry
        started = telemetry.clock.perf() if telemetry.enabled else 0.0
        # Bias correction advances once per sweep, before any layer
        # applies (Adam's t must be >= 1 when gradients are folded in).
        with telemetry.span(f"update_sweep/{self._sweeps}", track="updater"):
            self.optimizer.bump_step()
            did_work = False
            covered = 0
            for index in reversed(range(len(self._params))):
                grad, count = self._buffers.drain(index)
                if count == 0:
                    continue
                did_work = True
                covered = max(covered, count)
                refreshed = self.optimizer.apply_gradient(index, grad / count)
                self._params[index].data[...] = refreshed
            if did_work:
                with self._progress_lock:
                    self._sweeps += 1
                    self._iterations_applied += covered
                if self.sweep_delay:
                    time.sleep(self.sweep_delay)  # emulated SSD I/O
        if did_work and telemetry.enabled:
            telemetry.histogram("updater.sweep_seconds").observe(
                telemetry.clock.perf() - started
            )
            telemetry.counter("engine.update_sweeps").inc()

    # ------------------------------------------------------------------
    # Failure surfacing / degradation
    # ------------------------------------------------------------------
    def _check_updater(self) -> None:
        """Step-boundary check: degrade to sync updates, or re-raise."""
        if self.update_error is None or self.fell_back:
            return
        if self.fallback_to_sync:
            self.fell_back = True
            return
        raise self.update_error

    # ------------------------------------------------------------------
    # GPU loop (Algorithm 2, lines 17-24) — runs on the calling thread
    # ------------------------------------------------------------------
    def train(self, batches) -> TrainLog:
        log = TrainLog()
        self.update_error = None
        self.fell_back = False
        updater = threading.Thread(
            target=self._update_loop, daemon=True, name="updater"
        )
        updater.start()
        try:
            for batch in batches:
                logits = self.model(batch.inputs, self.mixed_precision)
                loss = cross_entropy(logits, batch.targets)
                self.model.zero_grad()
                loss.backward()
                self._buffers.accumulate_all(self._params)
                log.losses.append(loss.item())
                log.iterations += 1
                # How far the buffered parameters lag the deposited
                # gradients, in iterations (the watchdog's staleness feed).
                self._lag_gauge.set(log.iterations - self._iterations_applied)
                self._check_updater()
                if self.fell_back and self._buffers.has_uncleared:
                    self._sweep_once()
        finally:
            self._stop.set()
            join_or_raise(updater, 30.0, "stuck update sweep?")
            # A crashed updater exits with buffers still dirty; a healthy
            # one drains them before returning (its loop condition).
            self._check_updater()
            if self.fell_back and self._buffers.has_uncleared:
                self._sweep_once()
        log.sweeps = self._sweeps
        return log
