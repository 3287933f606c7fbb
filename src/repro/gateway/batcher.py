"""The micro-batcher: coalesce admitted requests into ``annotate_batch`` calls.

One consumer task drains the :class:`~repro.gateway.admission.AdmissionQueue`
under the coalescing policy (up to ``max_batch`` tables per call, waiting at
most ``max_wait_s`` after the first arrival) and dispatches each batch to the
blocking :meth:`~repro.serve.service.AnnotationService.annotate_batch` on a
thread-pool executor, so the event loop keeps accepting traffic while the PLM
runs.  ``max_concurrent_batches`` bounds how many batches may be in flight at
once — the gateway's concurrency limiter; everything beyond it waits in the
admission queue where the shedding policy can see it.

Deadline handling inside a batch:

* the batch's *budget* handed to the service is the **largest** remaining
  budget across its members — an almost-expired rider must not kill the
  batch for everyone else (its own expiry is enforced per-request at the
  response edge by the gateway handler);
* a batch that fails fails *loudly*: the typed error is fanned out to every
  member's future, so an accepted request always resolves — result or typed
  error, never silence.  The chaos suite pins exactly that invariant.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections.abc import Callable

from repro.data.table import Table

from repro.gateway.admission import AdmissionQueue, PendingRequest

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Coalesce queued requests and fan results back out to their futures.

    Parameters
    ----------
    annotate:
        Blocking batch function ``(tables, budget_s | None) -> predictions``
        (normally ``service.annotate_batch``).  Runs on the loop's default
        thread-pool executor.
    queue:
        The admission queue to drain.
    max_batch:
        Maximum number of *requests* coalesced into one call (a multi-table
        request rides as one unit; the service micro-batches tables
        internally by its own ``max_batch`` either way).
    max_wait_s:
        How long to hold the first request of a batch while more arrive.
    max_concurrent_batches:
        Concurrency limiter: batches dispatched but not yet resolved.
    """

    def __init__(self, annotate: Callable[[list[Table], float | None], list[list[str]]],
                 queue: AdmissionQueue, *, max_batch: int = 16,
                 max_wait_s: float = 0.005, max_concurrent_batches: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_concurrent_batches < 1:
            raise ValueError("max_concurrent_batches must be at least 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        self._annotate = annotate
        self._queue = queue
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.max_concurrent_batches = max_concurrent_batches
        self._clock = clock
        self._slots = asyncio.Semaphore(max_concurrent_batches)
        self._tasks: set[asyncio.Task] = set()
        # Telemetry for /stats: how well is coalescing actually working?
        self.batches = 0
        self.batched_tables = 0
        self.batch_errors = 0
        self.max_coalesced = 0

    # ------------------------------------------------------------------ #
    @property
    def mean_batch_size(self) -> float:
        return self.batched_tables / self.batches if self.batches else 0.0

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "batched_tables": self.batched_tables,
            "batch_errors": self.batch_errors,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "max_batch_size": self.max_coalesced,
            # The effective policy, so operators can see what was derived.
            "max_concurrent_batches": self.max_concurrent_batches,
            "max_wait_ms": self.max_wait_s * 1e3,
        }

    # ------------------------------------------------------------------ #
    async def run(self) -> None:
        """Drain the queue until it is closed *and* empty, then join batches.

        This is the graceful-drain path: ``queue.close()`` stops intake,
        this loop keeps dispatching whatever was already admitted, and
        ``run()`` only returns once every in-flight batch has resolved its
        futures — no accepted request is abandoned by shutdown.
        """
        while True:
            batch = await self._queue.take(self.max_batch, self.max_wait_s)
            if not batch:
                break
            await self._slots.acquire()
            task = asyncio.create_task(self._run_batch(batch))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def _run_batch(self, batch: list[PendingRequest]) -> None:
        try:
            tables = [table for pending in batch for table in pending.tables]
            budget_s = self._batch_budget_s(batch)
            loop = asyncio.get_running_loop()
            try:
                results = await loop.run_in_executor(
                    None, self._annotate, tables, budget_s
                )
                self.batches += 1
                self.batched_tables += len(tables)
                self.max_coalesced = max(self.max_coalesced, len(tables))
            # repro: allow[REP104] -- the error is fanned out to every
            # member's future via pending.fail, which re-raises at await sites
            except BaseException as error:
                self.batch_errors += 1
                for pending in batch:
                    pending.fail(error)
                return
            cursor = 0
            for pending in batch:
                slice_ = results[cursor:cursor + len(pending.tables)]
                cursor += len(pending.tables)
                if not pending.future.done():
                    pending.future.set_result(slice_)
        finally:
            self._slots.release()

    def _batch_budget_s(self, batch: list[PendingRequest]) -> float | None:
        """The service-side budget: the longest remaining deadline on board."""
        remaining = max(pending.deadline.remaining_s() for pending in batch)
        return None if math.isinf(remaining) else max(remaining, 0.0)
