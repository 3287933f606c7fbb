"""Unit tests for the micro-batcher: coalescing, budgets, fan-out, drain.

The batcher's contract: every request it dequeues is resolved — with its
slice of the batch result or with the batch's typed error — and ``run()``
returns only after the queue is drained and every in-flight batch has
reported back.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.errors import ReplicaUnavailable
from repro.gateway import AdmissionQueue, Deadline, MicroBatcher, PendingRequest

from tests.gateway.util import FakeClock, make_table


def _pending(clock, budget_s=None, tables=1, tag="t"):
    deadline = (Deadline.never(clock) if budget_s is None
                else Deadline.after(budget_s, clock))
    return PendingRequest(
        tables=[make_table(f"{tag}{index}") for index in range(tables)],
        deadline=deadline,
        future=asyncio.get_running_loop().create_future(),
        enqueued_at=clock(),
    )


def _echo_annotate(record):
    def annotate(tables, budget_s):
        record.append((len(tables), budget_s))
        return [[f"label:{table.table_id}"] for table in tables]
    return annotate


async def _drain(batcher, queue):
    task = asyncio.create_task(batcher.run())
    await asyncio.sleep(0)
    queue.close()
    await asyncio.wait_for(task, 10.0)


class TestCoalescing:
    def test_queued_requests_ride_one_annotate_call(self):
        async def main():
            clock = FakeClock()
            queue = AdmissionQueue(maxsize=8, clock=clock)
            record = []
            batcher = MicroBatcher(_echo_annotate(record), queue,
                                   max_batch=8, max_wait_s=0.0, clock=clock)
            riders = [_pending(clock, tables=2, tag=f"r{i}-") for i in range(3)]
            for pending in riders:
                queue.offer(pending)
            await _drain(batcher, queue)
            assert record == [(6, None)]  # one call, all six tables aboard
            for pending in riders:
                result = pending.future.result()
                assert result == [[f"label:{table.table_id}"]
                                  for table in pending.tables]
            assert batcher.batches == 1
            assert batcher.batched_tables == 6
            assert batcher.max_coalesced == 6
            assert batcher.mean_batch_size == pytest.approx(6.0)
        asyncio.run(main())

    def test_max_batch_splits_the_queue(self):
        async def main():
            clock = FakeClock()
            queue = AdmissionQueue(maxsize=8, clock=clock)
            record = []
            batcher = MicroBatcher(_echo_annotate(record), queue,
                                   max_batch=2, max_wait_s=0.0, clock=clock)
            riders = [_pending(clock, tag=f"r{i}-") for i in range(5)]
            for pending in riders:
                queue.offer(pending)
            await _drain(batcher, queue)
            assert [n for n, _ in record] == [2, 2, 1]
            assert all(pending.future.result() for pending in riders)
        asyncio.run(main())

    def test_budget_is_the_longest_remaining_deadline(self):
        async def main():
            clock = FakeClock()
            queue = AdmissionQueue(maxsize=8, clock=clock)
            record = []
            batcher = MicroBatcher(_echo_annotate(record), queue,
                                   max_batch=8, max_wait_s=0.0, clock=clock)
            queue.offer(_pending(clock, budget_s=0.2, tag="near"))
            queue.offer(_pending(clock, budget_s=4.0, tag="far"))
            await _drain(batcher, queue)
            # The almost-expired rider must not shrink the batch's budget.
            assert record[0][1] == pytest.approx(4.0)
        asyncio.run(main())

    def test_any_unbounded_rider_means_no_budget(self):
        async def main():
            clock = FakeClock()
            queue = AdmissionQueue(maxsize=8, clock=clock)
            record = []
            batcher = MicroBatcher(_echo_annotate(record), queue,
                                   max_batch=8, max_wait_s=0.0, clock=clock)
            queue.offer(_pending(clock, budget_s=1.0))
            queue.offer(_pending(clock, budget_s=None))
            await _drain(batcher, queue)
            assert record[0][1] is None
        asyncio.run(main())


class TestFailureFanOut:
    def test_batch_error_reaches_every_rider(self):
        async def main():
            clock = FakeClock()
            queue = AdmissionQueue(maxsize=8, clock=clock)

            def explode(tables, budget_s):
                raise ReplicaUnavailable("every replica is down")

            batcher = MicroBatcher(explode, queue, max_batch=8,
                                   max_wait_s=0.0, clock=clock)
            riders = [_pending(clock, tag=f"r{i}-") for i in range(3)]
            for pending in riders:
                queue.offer(pending)
            await _drain(batcher, queue)
            for pending in riders:
                with pytest.raises(ReplicaUnavailable):
                    pending.future.result()
            assert batcher.batch_errors == 1
            assert batcher.batches == 0
        asyncio.run(main())

    def test_one_failed_batch_does_not_poison_the_next(self):
        async def main():
            clock = FakeClock()
            queue = AdmissionQueue(maxsize=8, clock=clock)
            calls = []

            def flaky(tables, budget_s):
                calls.append(len(tables))
                if len(calls) == 1:
                    raise RuntimeError("transient")
                return [["ok"] for _ in tables]

            batcher = MicroBatcher(flaky, queue, max_batch=1,
                                   max_wait_s=0.0, clock=clock)
            first = _pending(clock, tag="a")
            second = _pending(clock, tag="b")
            queue.offer(first)
            queue.offer(second)
            await _drain(batcher, queue)
            with pytest.raises(RuntimeError):
                first.future.result()
            assert second.future.result() == [["ok"]]
        asyncio.run(main())


class TestConcurrencyAndDrain:
    def test_concurrency_limiter_holds_the_second_batch(self):
        async def main():
            clock = FakeClock()
            queue = AdmissionQueue(maxsize=8, clock=clock)
            started = threading.Event()
            release = threading.Event()
            calls = []

            def gated(tables, budget_s):
                calls.append(len(tables))
                started.set()
                assert release.wait(10.0)
                return [["ok"] for _ in tables]

            batcher = MicroBatcher(gated, queue, max_batch=1, max_wait_s=0.0,
                                   max_concurrent_batches=1, clock=clock)
            first = _pending(clock, tag="a")
            second = _pending(clock, tag="b")
            queue.offer(first)
            queue.offer(second)
            task = asyncio.create_task(batcher.run())
            await asyncio.get_running_loop().run_in_executor(None, started.wait)
            await asyncio.sleep(0.05)
            # The limiter is the backpressure: batch two never dispatches
            # while batch one holds the only slot.
            assert calls == [1]
            release.set()
            queue.close()
            await asyncio.wait_for(task, 10.0)
            assert calls == [1, 1]
            assert first.future.result() == [["ok"]]
            assert second.future.result() == [["ok"]]
        asyncio.run(main())

    def test_run_joins_in_flight_batches_before_returning(self):
        async def main():
            clock = FakeClock()
            queue = AdmissionQueue(maxsize=8, clock=clock)
            started = threading.Event()
            release = threading.Event()

            def gated(tables, budget_s):
                started.set()
                assert release.wait(10.0)
                return [["ok"] for _ in tables]

            batcher = MicroBatcher(gated, queue, max_batch=8,
                                   max_wait_s=0.0, clock=clock)
            pending = _pending(clock, tag="a")
            queue.offer(pending)
            task = asyncio.create_task(batcher.run())
            await asyncio.get_running_loop().run_in_executor(None, started.wait)
            queue.close()
            await asyncio.sleep(0.05)
            assert not task.done()  # drain waits for the in-flight batch
            release.set()
            await asyncio.wait_for(task, 10.0)
            assert pending.future.result() == [["ok"]]
        asyncio.run(main())

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0}, {"max_concurrent_batches": 0}, {"max_wait_s": -1.0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        async def main():
            queue = AdmissionQueue(maxsize=2)
            with pytest.raises(ValueError):
                MicroBatcher(lambda tables, budget_s: [], queue, **kwargs)
        asyncio.run(main())
