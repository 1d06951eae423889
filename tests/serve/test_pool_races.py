"""WorkerPool worker-loss races under concurrent submitters.

A killed worker fails exactly the task it owned; these tests pin what
*must* survive the race: every concurrent submit either completes with
the correct result or fails with ``WorkerLost``, the pool respawns each
lost worker exactly once, and later submissions still succeed — whatever
the interleaving.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.align import FullGmxAligner, WorkerPool
from repro.align.parallel import ShardTask, WorkerLost, _align_shard
from repro.workloads import generate_pair_set

HAS_PROCESSES = bool(multiprocessing.get_all_start_methods())

needs_processes = pytest.mark.skipif(
    not HAS_PROCESSES, reason="no multiprocessing start method available"
)


def _payload(pairs=2, seed=3):
    pair_set = generate_pair_set("pool-race", 40, 0.1, pairs, seed=seed)
    shard = [(p.pattern, p.text) for p in pair_set]
    return (FullGmxAligner(), ShardTask(shard, traceback=True))


def _wait_for_respawns(pool, count, seconds=30.0):
    deadline = time.monotonic() + seconds
    while pool.respawns < count:
        assert time.monotonic() < deadline, "lost worker never respawned"
        time.sleep(0.01)


@needs_processes
@pytest.mark.slow
class TestWorkerKillRaces:
    def test_concurrent_submitters_during_worker_kill(self):
        """Submits racing worker kills either complete or fail with
        WorkerLost — never wedge the pool or corrupt another result."""
        pool = WorkerPool(2)
        payload = _payload()
        expected = _align_shard(payload).results
        stop = threading.Event()
        outcomes = []
        lock = threading.Lock()

        def submitter():
            while not stop.is_set():
                try:
                    results = pool.submit(_align_shard, payload).result(30).results
                except WorkerLost:
                    outcome = "lost"
                except Exception as exc:  # noqa: BLE001 - fails the test
                    outcome = f"error: {exc!r}"
                else:
                    # A reply is never corrupted or handed to another task.
                    outcome = "ok" if results == expected else "corrupt"
                with lock:
                    outcomes.append(outcome)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave submitters and supervisor
        try:
            with pool:
                for thread in threads:
                    thread.start()
                for kill in range(3):
                    time.sleep(0.2)  # let submits land on the workers
                    os.kill(pool.worker_pids()[kill % 2], signal.SIGKILL)
                    _wait_for_respawns(pool, kill + 1)
                # Wait for a post-kill round trip before stopping, so the
                # test proves recovery, not just survival.
                with lock:
                    seen = len(outcomes)
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    with lock:
                        if "ok" in outcomes[seen:]:
                            break
                    time.sleep(0.05)
                stop.set()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert pool.respawns == 3
                future = pool.submit(_align_shard, payload)
                assert future.result(timeout=30.0).results == expected
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            pool.close()
        assert "ok" in outcomes[seen:]
        assert set(outcomes) <= {"ok", "lost"}

    def test_concurrent_kills_respawn_each_worker(self):
        """Killing every worker at once respawns each exactly once."""
        with WorkerPool(2) as pool:
            before = pool.worker_pids()
            for pid in before:
                os.kill(pid, signal.SIGKILL)
            _wait_for_respawns(pool, 2)
            assert pool.respawns == 2
            assert set(pool.worker_pids()).isdisjoint(before)
            payload = _payload()
            future = pool.submit(_align_shard, payload)
            assert future.result(timeout=30.0).results == _align_shard(payload).results
