"""WorkerPool lifecycle and supervision: warm reuse, worker loss,
per-task deadlines, unpicklable replies, close, batch-API sharing."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.align import FullGmxAligner, PoolError, WorkerPool, align_batch
from repro.align.parallel import (
    ShardTask,
    TaskTimeout,
    UnpicklableReply,
    WorkerLost,
    _align_shard,
    align_batch_sharded,
)
from repro.resilience import align_batch_resilient
from repro.workloads import generate_pair_set

HAS_PROCESSES = bool(multiprocessing.get_all_start_methods())

needs_processes = pytest.mark.skipif(
    not HAS_PROCESSES, reason="no multiprocessing start method available"
)


def _sleep_then_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def _unpicklable_reply(_):
    return lambda: None


def _wait_until(predicate, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _payload(pairs=2):
    pair_set = generate_pair_set("pool", 48, 0.1, pairs, seed=3)
    shard = [(p.pattern, p.text) for p in pair_set]
    return (FullGmxAligner(), ShardTask(shard, traceback=True))


class TestInlinePool:
    def test_single_worker_is_inline(self):
        pool = WorkerPool(1)
        assert not pool.process_mode
        assert pool.executor == "serial"
        assert pool.method is None
        assert pool.worker_pids() == []

    def test_submit_executes_inline(self):
        with WorkerPool(1) as pool:
            future = pool.submit(_align_shard, _payload())
            assert future.done()
            reply = future.result()
            assert len(reply.results) == 2
            assert reply.worker.startswith("pid:")

    def test_inline_error_raised_from_get(self):
        def boom(payload):
            raise ValueError("inline failure")

        with WorkerPool(1) as pool:
            future = pool.submit(boom, None)
            with pytest.raises(ValueError, match="inline failure"):
                future.result()

    def test_inline_timeout_is_a_soft_deadline(self):
        with WorkerPool(1) as pool:
            future = pool.submit(_sleep_then_pid, 0.05, timeout=0.01)
            assert future.done()
            with pytest.raises(TaskTimeout):
                future.result()
            assert pool.submit(_sleep_then_pid, 0.0, timeout=30).result()


class TestPoolLifecycle:
    def test_closed_pool_rejects_submissions(self):
        pool = WorkerPool(1)
        pool.close()
        assert pool.closed
        with pytest.raises(PoolError):
            pool.submit(_align_shard, _payload())

    def test_close_is_idempotent(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()

    @needs_processes
    def test_warm_start_pays_generation_once(self):
        with WorkerPool(2) as pool:
            assert pool.process_mode
            pids = pool.worker_pids()
            assert len(pids) == 2
            pool.start()  # idempotent
            assert pool.worker_pids() == pids
            for _ in range(3):
                pool.submit(_align_shard, _payload()).result(timeout=60)
            # Reuse never replaced a worker.
            assert pool.respawns == 0
            assert pool.worker_pids() == pids


@needs_processes
class TestWorkerSupervision:
    """Each task has one owning worker: losses and deadlines stay local."""

    def test_killed_busy_worker_fails_exactly_its_task(self):
        with WorkerPool(3) as pool:
            futures = [pool.submit(_sleep_then_pid, 1.5) for _ in range(3)]
            _wait_until(lambda: all(f.running() for f in futures))
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            lost, finished = [], []
            for future in futures:
                try:
                    finished.append(future.result(timeout=60))
                except WorkerLost:
                    lost.append(future)
            assert len(lost) == 1
            assert len(finished) == 2 and victim not in finished
            assert pool.respawns == 1
            assert victim not in pool.worker_pids()
            assert len(pool.worker_pids()) == 3
            assert pool.submit(_sleep_then_pid, 0).result(timeout=60)

    def test_killed_idle_worker_is_respawned(self):
        with WorkerPool(2) as pool:
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_until(lambda: pool.respawns == 1)
            assert victim not in pool.worker_pids()
            reply = pool.submit(_align_shard, _payload()).result(60)
            assert len(reply.results) == 2

    def test_timeout_kills_only_the_hung_worker(self):
        with WorkerPool(2) as pool:
            hung = pool.submit(_sleep_then_pid, 60, timeout=0.3)
            healthy = pool.submit(_sleep_then_pid, 1.0)
            with pytest.raises(TaskTimeout):
                hung.result(timeout=30)
            survivor = healthy.result(timeout=30)
            assert pool.respawns == 1
            assert survivor in pool.worker_pids()

    def test_unpicklable_reply_is_typed_and_worker_survives(self):
        with WorkerPool(2) as pool:
            pids = pool.worker_pids()
            # Occupy one worker so both follow-up tasks land on the other.
            blocker = pool.submit(_sleep_then_pid, 1.5)
            _wait_until(blocker.running)
            with pytest.raises(UnpicklableReply):
                pool.submit(_unpicklable_reply, None).result(timeout=30)
            after = pool.submit(_sleep_then_pid, 0).result(timeout=30)
            assert after != blocker.result(timeout=30)
            assert after in pids
            assert pool.respawns == 0
            assert pool.worker_pids() == pids

    def test_fault_free_resilient_run_uses_warm_workers(self):
        pair_set = generate_pair_set("warm", 64, 0.08, 12, seed=5)
        pairs = [(p.pattern, p.text) for p in pair_set]
        aligner = FullGmxAligner()
        batch = align_batch_resilient(
            aligner, pairs, workers=2, shard_size=2, shard_timeout=30.0
        )
        assert batch.results == align_batch(aligner, pairs).results
        workers = {shard.worker for shard in batch.telemetry.shards}
        assert len(batch.telemetry.shards) == 6
        assert len(workers) <= 2
        assert all(worker.startswith("pid:") for worker in workers)


class TestSharedPoolBatchAPI:
    """align_batch_sharded rides an external warm pool without owning it."""

    @needs_processes
    def test_external_pool_results_identical_and_pool_survives(self):
        pair_set = generate_pair_set("shared", 72, 0.08, 10, seed=21)
        pairs = [(p.pattern, p.text) for p in pair_set]
        aligner = FullGmxAligner()
        serial = align_batch(aligner, pairs)

        with WorkerPool(2) as pool:
            pids = pool.worker_pids()
            first = align_batch_sharded(
                aligner, pairs, shard_size=3, pool=pool
            )
            second = align_batch_sharded(
                aligner, pairs, shard_size=3, pool=pool
            )
            # The batch borrowed the pool: no churn, still open.
            assert pool.worker_pids() == pids
            assert pool.respawns == 0
            assert not pool.closed

        for batch in (first, second):
            assert [(r.score, r.cigar) for r in batch.results] == [
                (r.score, r.cigar) for r in serial.results
            ]
            assert batch.stats == serial.stats
            assert batch.telemetry.executor == pool.method

    def test_inline_external_pool_falls_back_serially(self):
        pair_set = generate_pair_set("shared-inline", 48, 0.08, 6, seed=22)
        pairs = [(p.pattern, p.text) for p in pair_set]
        aligner = FullGmxAligner()
        serial = align_batch(aligner, pairs)
        with WorkerPool(1) as pool:
            batch = align_batch_sharded(aligner, pairs, pool=pool)
        assert [(r.score, r.cigar) for r in batch.results] == [
            (r.score, r.cigar) for r in serial.results
        ]
        assert batch.telemetry.executor == "serial"

    @needs_processes
    def test_closed_external_pool_degrades_inline(self):
        pair_set = generate_pair_set("shared-closed", 48, 0.08, 4, seed=23)
        pairs = [(p.pattern, p.text) for p in pair_set]
        aligner = FullGmxAligner()
        pool = WorkerPool(2)
        pool.close()
        batch = align_batch_sharded(aligner, pairs, pool=pool)
        serial = align_batch(aligner, pairs)
        assert [(r.score, r.cigar) for r in batch.results] == [
            (r.score, r.cigar) for r in serial.results
        ]
        assert batch.telemetry.executor == "inline"
