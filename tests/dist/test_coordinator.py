"""Coordinator: leasing, exactly-once epoch fencing, parole, degradation."""

import json
import threading
import time
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.align import FullGmxAligner, align_batch
from repro.align.parallel import (
    ShardItem,
    ShardTask,
    TaskTimeout,
    WorkerLost,
    _align_shard,
    _Task,
)
from repro.dist import (
    DistConfig,
    DistCoordinator,
    DistError,
    NodeFault,
    NodeHandle,
    PackedShard,
    ShardCompletion,
    ShardRequest,
    running_worker,
)
from repro.dist.chaos import NodeFaultPlan
from repro.dist.coordinator import DistPolicy, NodeFleet
from repro.dist.protocol import shard_checksum
from repro.resilience import CheckpointJournal
from repro.workloads import generate_pair_set


def _pairs(count=9, seed=31):
    pair_set = generate_pair_set("coord", 52, 0.08, count, seed=seed)
    return [(p.pattern, p.text) for p in pair_set]


class TestConstruction:
    def test_duplicate_node_names_rejected(self):
        nodes = [
            NodeHandle("n0", "http://127.0.0.1:1"),
            NodeHandle("n0", "http://127.0.0.1:2"),
        ]
        with pytest.raises(DistError, match="duplicate node name"):
            DistCoordinator(FullGmxAligner(), nodes)

    def test_bad_url_rejected_eagerly(self):
        with pytest.raises(DistError, match="needs host:port"):
            DistCoordinator(
                FullGmxAligner(), [NodeHandle("n0", "not-a-url")]
            )


class TestHappyPath:
    def test_byte_identical_to_serial(self):
        aligner = FullGmxAligner()
        pairs = _pairs()
        reference = align_batch(aligner, pairs)
        with running_worker(aligner, node="n0") as (_worker, url):
            coordinator = DistCoordinator(
                aligner,
                [NodeHandle("n0", url)],
                config=DistConfig(shard_size=3, heartbeat_interval=0.1),
            )
            outcome = coordinator.run(pairs)
        assert outcome.results == reference.results
        assert outcome.stats == reference.stats
        assert outcome.counters.shards == 3
        assert outcome.counters.leases_granted == 3
        assert outcome.counters.leases_expired == 0
        assert outcome.counters.local_shards == 0
        assert outcome.nodes["n0"]["completed"] == 3
        assert outcome.telemetry.executor == "dist"

    def test_two_nodes_split_the_batch(self):
        aligner = FullGmxAligner()
        pairs = _pairs(12)
        reference = align_batch(aligner, pairs)
        with running_worker(aligner, node="a") as (_wa, url_a):
            with running_worker(aligner, node="b") as (_wb, url_b):
                coordinator = DistCoordinator(
                    aligner,
                    [NodeHandle("a", url_a), NodeHandle("b", url_b)],
                    config=DistConfig(shard_size=2, heartbeat_interval=0.1),
                )
                outcome = coordinator.run(pairs)
        assert outcome.results == reference.results
        completed = [state["completed"] for state in outcome.nodes.values()]
        assert sum(completed) == 6
        assert all(count > 0 for count in completed)

    def test_checkpoint_resume_skips_done_shards(self, tmp_path):
        aligner = FullGmxAligner()
        pairs = _pairs(8)
        journal_path = tmp_path / "dist.ckpt"
        with running_worker(aligner, node="n0") as (_worker, url):
            nodes = [NodeHandle("n0", url)]
            config = DistConfig(shard_size=2, heartbeat_interval=0.1)
            first = DistCoordinator(
                aligner, nodes, config=config,
                checkpoint=str(journal_path),
            ).run(pairs)
            second = DistCoordinator(
                aligner, nodes, config=config,
                checkpoint=str(journal_path),
            ).run(pairs)
        assert first.results == second.results
        assert second.counters.resumed_shards == 4
        assert second.counters.leases_granted == 0
        journal = CheckpointJournal(str(journal_path), {})
        assert len(journal.entries) == 4  # exactly one record per shard


class TestGracefulDegradation:
    def test_zero_configured_nodes_runs_locally(self):
        aligner = FullGmxAligner()
        pairs = _pairs(6)
        reference = align_batch(aligner, pairs)
        coordinator = DistCoordinator(
            aligner, [], config=DistConfig(shard_size=2)
        )
        outcome = coordinator.run(pairs)
        assert outcome.results == reference.results
        assert outcome.counters.local_shards == 3
        assert outcome.counters.leases_granted == 0

    def test_faults_that_never_fired_are_not_accounted(self):
        aligner = FullGmxAligner()
        plan = NodeFaultPlan(seed=1, faults=[NodeFault("kill", shard=1)])
        outcome = DistCoordinator(
            aligner, [], config=DistConfig(shard_size=2), fault_plan=plan
        ).run(_pairs(6))
        assert outcome.counters.local_shards == 3
        assert [record.outcome for record in outcome.ledger] == ["planned"]
        assert outcome.accounted() is False

    def test_all_nodes_dead_falls_back_locally(self):
        aligner = FullGmxAligner()
        pairs = _pairs(4)
        reference = align_batch(aligner, pairs)
        # Nothing listens on this port: heartbeats fail immediately.
        coordinator = DistCoordinator(
            aligner,
            [NodeHandle("ghost", "http://127.0.0.1:1")],
            config=DistConfig(
                shard_size=2,
                heartbeat_interval=0.05,
                connect_timeout=0.2,
                lease_timeout=0.5,
                local_fallback_after=0.3,
            ),
        )
        outcome = coordinator.run(pairs)
        assert outcome.results == reference.results
        assert outcome.counters.local_shards == 2
        assert outcome.nodes["ghost"]["alive"] is False


class _FleetHarness:
    """A one-node fleet whose leases are granted by hand (no dispatch)."""

    def __init__(self, aligner, pairs):
        self.fleet = NodeFleet(
            [NodeHandle("n0", "http://127.0.0.1:1")], config=DistConfig()
        )
        self.shard = PackedShard(
            shard_id=0, lo=0, hi=len(pairs), pairs=pairs, cost=100
        )
        self.fleet.shards[0] = self.shard
        self.task = ShardTask(pairs)
        self.policy = DistPolicy(self.fleet, DistConfig(), journal=None)

    @property
    def counters(self):
        return self.fleet.counters

    def lease(self):
        future = Future()
        future.set_running_or_notify_cancel()
        task = _Task(_align_shard, (FullGmxAligner(), self.task), 5.0, future)
        lease, request = self.fleet._grant(
            task, self.fleet.nodes["n0"], time.monotonic()
        )
        assert request.epoch == lease.epoch
        return lease

    def expire(self, lease):
        self.fleet._expire(lease.deadline)

    def completion(self, lease, *, results, epoch=None, checksum=None):
        return ShardCompletion(
            shard_id=0,
            epoch=lease.epoch if epoch is None else epoch,
            node="n0",
            incarnation=1,
            checksum=(
                shard_checksum(self.shard.pairs)
                if checksum is None else checksum
            ),
            results=results,
        )

    def requeued(self, lease):
        """What the policy makes of the lease's finished task."""
        item = ShardItem(0, list(self.shard.pairs))
        return self.policy.settle(item, lease.task.future, inline=False)


class TestLeaseEpochFencing:
    """Duplicate/zombie completions must never be accounted."""

    def _harness(self):
        aligner = FullGmxAligner()
        pairs = _pairs(2)
        results = [aligner.align(p, t) for p, t in pairs]
        return _FleetHarness(aligner, pairs), results

    def test_current_epoch_completion_accounted_once(self):
        harness, results = self._harness()
        lease = harness.lease()
        harness.fleet._handle(
            ("completion", lease, harness.completion(lease, results=results))
        )
        reply = lease.task.future.result(timeout=0)
        assert reply.results == results
        assert (reply.epoch, reply.node) == (1, "n0")
        assert harness.counters.stale_discards == 0
        assert harness.fleet.nodes["n0"].completed == 1
        assert 0 not in harness.fleet._leases

    def test_duplicate_completion_discarded(self):
        harness, results = self._harness()
        lease = harness.lease()
        completion = harness.completion(lease, results=results)
        harness.fleet._handle(("completion", lease, completion))
        harness.fleet._handle(("completion", lease, completion))  # duplicate
        assert harness.fleet.nodes["n0"].completed == 1  # accounted once
        assert harness.counters.stale_discards == 1
        assert harness.fleet.nodes["n0"].stale == 1

    def test_stale_epoch_completion_discarded(self):
        harness, results = self._harness()
        old_lease = harness.lease()
        harness.expire(old_lease)
        new_lease = harness.lease()  # the shard was re-leased meanwhile
        assert new_lease.epoch == old_lease.epoch + 1
        harness.fleet._handle(
            (
                "completion",
                old_lease,
                harness.completion(old_lease, results=results),
            )
        )
        assert harness.counters.stale_discards == 1
        assert not new_lease.task.future.done()
        assert harness.fleet._leases[0] is new_lease

    def test_corrupt_completion_requeued_not_accounted(self):
        harness, results = self._harness()
        lease = harness.lease()
        harness.fleet._handle(
            (
                "completion",
                lease,
                harness.completion(lease, results=results, checksum=0xBAD),
            )
        )
        with pytest.raises(WorkerLost, match="checksum mismatch"):
            lease.task.future.result(timeout=0)
        assert harness.counters.corrupt_completions == 1
        assert harness.fleet.nodes["n0"].completed == 0
        [item] = harness.requeued(lease)
        assert item.attempt == 1 and item.ready_at > 0
        assert harness.counters.retries == 1

    def test_failure_from_expired_lease_ignored(self):
        harness, _results = self._harness()
        old_lease = harness.lease()
        harness.expire(old_lease)
        with pytest.raises(TaskTimeout):
            old_lease.task.future.result(timeout=0)
        harness.fleet._handle(("failure", old_lease, "connection reset"))
        assert harness.counters.leases_expired == 1
        assert harness.counters.lease_failures == 0
        assert harness.fleet.nodes["n0"].failures == 1

    def test_failure_from_current_lease_requeues(self):
        harness, _results = self._harness()
        lease = harness.lease()
        harness.fleet._handle(("failure", lease, "connection reset"))
        with pytest.raises(WorkerLost, match="connection reset"):
            lease.task.future.result(timeout=0)
        assert harness.counters.lease_failures == 1
        [item] = harness.requeued(lease)
        assert item.attempt == 1

    def test_failure_while_draining_ignored(self):
        harness, _results = self._harness()
        lease = harness.lease()
        harness.fleet._handle(("failure", lease, "late reset"), draining=True)
        assert not lease.task.future.done()
        assert harness.counters.lease_failures == 0
        assert harness.fleet._leases[0] is lease


class _StubNode:
    """A stdlib HTTP node with a settable ``/health`` incarnation whose
    ``/shard`` fails the first lease, then serves the shard body."""

    def __init__(self, aligner, *, respawn_after_failure):
        self.aligner = aligner
        self.incarnation = 1
        self.failed = False
        self.respawn_after_failure = respawn_after_failure
        node = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002
                pass

            def do_GET(self):  # noqa: N802
                self._send(200, {"incarnation": node.incarnation})

            def do_POST(self):  # noqa: N802
                body = self.rfile.read(int(self.headers["Content-Length"]))
                request = ShardRequest.from_json(body)
                if not node.failed:
                    node.failed = True
                    self._send(500, {"error": "first lease fails"})
                    # The supervisor restarts the node after the failure.
                    threading.Timer(
                        node.respawn_after_failure, node.respawn
                    ).start()
                    return
                reply = _align_shard((node.aligner, ShardTask(
                    request.pairs, lo=request.lo,
                    traceback=request.traceback,
                )))
                completion = ShardCompletion(
                    shard_id=request.shard_id,
                    epoch=request.epoch,
                    node="stub",
                    incarnation=node.incarnation,
                    checksum=reply.checksum,
                    results=reply.results,
                )
                self._send_raw(200, completion.to_json())

            def _send(self, code, payload):
                self._send_raw(code, json.dumps(payload).encode())

            def _send_raw(self, code, body):
                self.send_response(code)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )

    def respawn(self):
        self.incarnation += 1

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


class TestParole:
    def test_node_respawned_after_first_lease_is_paroled(self):
        aligner = FullGmxAligner()
        pairs = _pairs(4)
        reference = align_batch(aligner, pairs)
        with _StubNode(aligner, respawn_after_failure=0.1) as node:
            outcome = DistCoordinator(
                aligner,
                [NodeHandle("stub", node.url)],
                config=DistConfig(
                    shard_size=4,
                    heartbeat_interval=0.5,
                    max_node_failures=1,
                    lease_timeout=2.0,
                ),
            ).run(pairs)
        assert outcome.results == reference.results
        assert outcome.counters.lease_failures == 1
        assert outcome.counters.nodes_quarantined == 1
        assert outcome.counters.nodes_paroled == 1
        assert outcome.counters.local_shards == 0
        assert outcome.nodes["stub"]["respawns_seen"] == 1
        assert outcome.nodes["stub"]["quarantined"] is False
