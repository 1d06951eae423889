"""Dist coordinator: lease shards to nodes, account results exactly once.

A distributed batch runs on the one batch loop
(:func:`repro.align.parallel.run_batch`).  :class:`NodeFleet` is its
executor and drives a lease state machine per task::

    WAITING ──lease──▶ LEASED(node, epoch, deadline)
       │                   ├─ completion echoing the current epoch ─▶ ShardReply
       │                   ├─ deadline passed ──────────────────────▶ TaskTimeout
       │                   └─ dead node / HTTP failure / bad checksum ▶ WorkerLost
       └─ no usable node past the grace window ─▶ run locally

* **Leases** — every (re)lease of a shard bumps its **epoch**; only a
  completion echoing the current lease's epoch and the shard checksum
  resolves the task, anything else is a zombie reply and is discarded
  (``stale_discards``).
* **Heartbeats** — the fleet learns every node's incarnation before its
  first lease, then polls ``/health``.  A dead node's leases expire at
  once; a node answering with a *new* incarnation was respawned and is
  paroled with a clean failure slate.
* **Quarantine** — ``max_node_failures`` consecutive failures bench a
  node, like pair quarantine in the resilience engine.
* **Graceful degradation** — with zero usable nodes (none configured,
  all dead, or all quarantined past a grace window) a waiting task runs
  through the local shard body; the decision is per task, so leasing
  resumes once a node is paroled.

:class:`DistPolicy` is the policy: predicted-cost shards
(:mod:`.packing`), resume from the resilience
:class:`~repro.resilience.checkpoint.CheckpointJournal`, a journal
record per accepted completion (lease epoch and node as provenance),
and a failed lease re-leased after ``DistConfig.retry``'s seeded
backoff — unbounded, until a node or the local fallback completes it.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from ..align.base import Aligner, KernelStats, aligner_fingerprint
from ..align.batch import BatchResult, PairLike
from ..align.parallel import (
    BatchTelemetry, FailFast, PoolError, ShardDone, ShardItem, ShardReply,
    TaskTimeout, WorkerLost, _Task, run_batch, shard_checksum, shard_done,
)
from ..common.retry import RetryPolicy
from ..resilience.checkpoint import CheckpointJournal, journal_header
from .packing import PackedShard, pack_shards, pick_node
from .protocol import (
    DistError, NodeFault, ProtocolError, ShardCompletion, ShardRequest,
)


@dataclass(frozen=True)
class NodeHandle:
    """One configured worker node: a name and its base URL."""

    name: str
    url: str

    @property
    def address(self) -> Tuple[str, int]:
        parts = urlsplit(self.url)
        if not parts.hostname or not parts.port:
            raise DistError(f"node {self.name}: URL {self.url!r} needs host:port")
        return parts.hostname, parts.port


@dataclass
class DistConfig:
    """Coordinator tuning knobs.

    Attributes:
        lease_timeout: seconds a node holds a shard before the lease
            expires and the shard is re-leased elsewhere.
        heartbeat_interval: seconds between ``/health`` polls per node.
        connect_timeout: socket timeout for heartbeats.
        dispatch_slack: extra read-timeout seconds past the lease on the
            dispatch connection (so zombie replies are still *observed*
            and counted as stale rather than vanishing).
        max_node_failures: consecutive failures before quarantine.
        max_leases_per_node: concurrent shards leased to one node.
        retry: shared seeded backoff policy for lease reassignment.
        local_fallback_after: seconds with zero usable nodes before the
            coordinator degrades to local execution (immediately when no
            nodes are configured at all).  ``None`` → ``lease_timeout``.
        drain_timeout: seconds to wait at the end for outstanding zombie
            dispatch threads, so late stale replies are accounted.
        shard_size: pair cap per packed shard.
    """

    lease_timeout: float = 5.0
    heartbeat_interval: float = 0.5
    connect_timeout: float = 2.0
    dispatch_slack: float = 2.0
    max_node_failures: int = 3
    max_leases_per_node: int = 2
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=8, backoff_base=0.05, jitter=0.25
        )
    )
    local_fallback_after: Optional[float] = None
    drain_timeout: float = 10.0
    shard_size: Optional[int] = None


@dataclass
class _NodeState:
    """The fleet's view of one node (mutated under the fleet's lock: lease
    fields by the lease thread, liveness by the heartbeat thread)."""

    handle: NodeHandle
    alive: bool = True
    incarnation: Optional[int] = None
    consecutive_failures: int = 0
    quarantined: bool = False
    outstanding_cost: int = 0
    ewma_speed: float = 0.0
    leases: int = 0
    completed: int = 0
    failures: int = 0
    stale: int = 0
    respawns_seen: int = 0

    def usable(self) -> bool:
        return self.alive and not self.quarantined

    def to_dict(self) -> dict:
        return {
            "url": self.handle.url,
            "alive": self.alive,
            "incarnation": self.incarnation,
            "quarantined": self.quarantined,
            "completed": self.completed,
            "failures": self.failures,
            "stale_replies": self.stale,
            "respawns_seen": self.respawns_seen,
            "ewma_speed": round(self.ewma_speed, 1),
        }


@dataclass
class _Lease:
    task: _Task
    shard: PackedShard
    epoch: int
    node: str
    deadline: float
    started: float


@dataclass
class LeaseReply(ShardReply):
    """A shard reply with its lease provenance: the epoch it completed
    under and the node that ran it (``local`` for the fallback)."""

    epoch: int = 0
    node: str = "local"

    @classmethod
    def of(cls, reply, worker: str, epoch: int, node: str = "local"):
        """Wrap a :class:`ShardReply` or :class:`ShardCompletion`."""
        return cls(
            reply.results, reply.checksum, reply.elapsed, worker,
            spans=reply.spans, metrics=reply.metrics, epoch=epoch, node=node,
        )


@dataclass
class NodeFaultRecord:
    """Ledger entry: what happened to one planned node fault."""

    fault: NodeFault
    outcome: str = "planned"
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "fault": self.fault.to_dict(),
            "outcome": self.outcome,
            "detail": self.detail,
        }


#: Ledger outcomes that count as fully accounted for.
ACCOUNTED_OUTCOMES = (
    "absorbed",        # slow node finished within its lease
    "retried",         # crash/partition detected, shard re-leased
    "expired",         # lease timed out; zombie reply never surfaced
    "stale-discarded", # zombie reply arrived and was rejected by epoch
    "degraded",        # fired, then its shard completed locally
)


@dataclass
class DistCounters:
    """Aggregate accounting of one distributed run."""

    shards: int = 0
    leases_granted: int = 0
    leases_expired: int = 0
    lease_failures: int = 0
    stale_discards: int = 0
    retries: int = 0
    nodes_quarantined: int = 0
    nodes_paroled: int = 0
    local_shards: int = 0
    resumed_shards: int = 0
    corrupt_completions: int = 0
    journal_writes: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class DistBatchResult:
    """Outcome of one coordinated batch (mirrors ``BatchResult`` + provenance)."""

    results: List = field(default_factory=list)
    stats: KernelStats = field(default_factory=KernelStats)
    telemetry: Optional[BatchTelemetry] = None
    counters: DistCounters = field(default_factory=DistCounters)
    nodes: Dict[str, dict] = field(default_factory=dict)
    ledger: List[NodeFaultRecord] = field(default_factory=list)

    @property
    def pairs(self) -> int:
        return len(self.results)

    def as_batch_result(self) -> BatchResult:
        """The plain engine-compatible view (for byte-identity checks)."""
        return BatchResult(
            results=list(self.results),
            stats=self.stats.copy(),
            telemetry=self.telemetry,
        )

    def accounted(self) -> bool:
        """True when every planned fault reached a terminal outcome."""
        return all(
            record.outcome in ACCOUNTED_OUTCOMES for record in self.ledger
        )


class NodeFleet:
    """Worker nodes as an executor of the batch loop (see the module doc).

    It has the :class:`~repro.align.parallel.WorkerPool` surface the
    loop uses; ``workers`` counts lease slots.  A task's shard is looked
    up in ``shards`` (packed shards by first pair index, filled by
    :class:`DistPolicy`); ``fn`` runs only for the local fallback.  A
    lease thread owns leases, expiry and the fault ledger; one dispatch
    thread per lease does the ``POST /shard``.
    """

    method = "dist"
    process_mode = True

    def __init__(
        self, nodes: Iterable[NodeHandle], *, config: DistConfig,
        fingerprint: str = "", faults: Iterable[NodeFault] = (),
    ) -> None:
        self.config = config
        self.fingerprint = fingerprint
        self.nodes: Dict[str, _NodeState] = {}
        for handle in nodes:
            if handle.name in self.nodes:
                raise DistError(f"duplicate node name {handle.name!r}")
            handle.address  # validate URL eagerly  # noqa: B018
            self.nodes[handle.name] = _NodeState(handle)
        self.workers = max(1, len(self.nodes) * config.max_leases_per_node)
        self.shards: Dict[int, PackedShard] = {}
        self.counters = DistCounters()
        self.ledger: Dict[int, NodeFaultRecord] = {
            fault.shard: NodeFaultRecord(fault) for fault in faults
        }
        self._lock = threading.Lock()  # waiting tasks and node states
        self._waiting: Deque[_Task] = deque()
        self._leases: Dict[int, _Lease] = {}
        self._epochs: Dict[int, int] = {}
        self._events: "queue.Queue" = queue.Queue()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._dispatchers: List[threading.Thread] = []
        self.closed = False

    def submit(
        self, fn: Callable, payload, timeout: Optional[float] = None
    ) -> Future:
        """Queue ``fn(payload)`` for a lease; ``timeout`` is its deadline
        (default ``config.lease_timeout``)."""
        future: Future = Future()
        with self._lock:
            if self.closed:
                raise PoolError("node fleet is closed")
            if not self._threads:
                self._threads = [
                    threading.Thread(target=target, name=name, daemon=True)
                    for target, name in (
                        (self._run, "repro-dist-lease"),
                        (self._heartbeat_loop, "repro-dist-heartbeat"),
                    )
                ]
                for thread in self._threads:
                    thread.start()
            self._waiting.append(_Task(fn, payload, timeout, future))
        self._events.put(("wake",))
        return future

    def close(self) -> None:
        """Stop the fleet (idempotent).

        Outstanding dispatch threads are drained for up to
        ``drain_timeout`` so their late replies are observed and counted
        as stale; unfinished futures fail with :class:`PoolError`.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
        self._stop.set()
        self._events.put(("wake",))
        for thread in self._threads:
            thread.join()
        deadline = time.monotonic() + self.config.drain_timeout
        for thread in self._dispatchers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        while not self._events.empty():
            self._handle(self._events.get_nowait(), draining=True)
        unfinished = [lease.task for lease in self._leases.values()]
        for task in unfinished + list(iter(self._next_waiting, None)):
            task.future.set_exception(PoolError("node fleet closed"))

    # -- heartbeats ------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval):
            self._heartbeat_round()

    def _heartbeat_round(self) -> None:
        for state in self.nodes.values():
            self._heartbeat_one(state)

    def _heartbeat_one(self, state: _NodeState) -> None:
        try:
            status, body = _exchange(
                state.handle, "GET", "/health", self.config.connect_timeout
            )
            if status != 200:
                raise DistError(f"health returned {status}")
            incarnation = int(json.loads(body).get("incarnation", 1))
        except (OSError, ValueError, http.client.HTTPException, DistError):
            with self._lock:
                if state.alive:
                    state.alive = False
                    # The lease thread expires this node's leases on
                    # its next tick; wake it up.
                    self._events.put(("wake",))
            return
        with self._lock:
            revived = not state.alive
            state.alive = True
            if state.incarnation not in (None, incarnation):
                # Supervisor respawned the node: clean slate.
                state.respawns_seen += 1
                state.consecutive_failures = 0
                if state.quarantined:
                    state.quarantined = False
                    self.counters.nodes_paroled += 1
                    self._events.put(("wake",))
            elif revived:
                state.consecutive_failures = 0
            state.incarnation = incarnation

    # -- the lease thread ------------------------------------------------

    def _run(self) -> None:
        """Expire, lease, fall back locally, then wait for an event."""
        config = self.config
        self._heartbeat_round()  # learn every incarnation before leasing
        grace = config.local_fallback_after
        if grace is None:
            grace = config.lease_timeout
        last_usable = time.monotonic()
        while not self._stop.is_set():
            now = time.monotonic()
            self._expire(now)
            with self._lock:
                usable = [s for s in self.nodes.values() if s.usable()]
            if usable:
                last_usable = now
            self._lease_waiting(usable, now)
            if not self._leases and (
                not self.nodes or (not usable and now - last_usable >= grace)
            ):
                task = self._next_waiting()
                if task is not None:
                    self._run_local(task)
                    continue
            wake = min([now + max(0.02, config.heartbeat_interval)] + [
                lease.deadline for lease in self._leases.values()
            ])
            try:
                event = self._events.get(timeout=max(0.01, wake - now))
            except queue.Empty:
                continue
            self._handle(event)

    def _next_waiting(self) -> Optional[_Task]:
        with self._lock:
            while self._waiting:
                task = self._waiting.popleft()
                if task.future.set_running_or_notify_cancel():
                    return task
            return None

    def _expire(self, now: float) -> None:
        """Fail overdue leases, and at once every lease of a dead node."""
        for lease in list(self._leases.values()):
            with self._lock:
                node_dead = not self.nodes[lease.node].alive
            if node_dead or now >= lease.deadline:
                self.counters.leases_expired += 1
                if node_dead:
                    self._fail(lease, WorkerLost, "node died")
                else:
                    self._fail(lease, TaskTimeout, "lease expired")

    def _lease_waiting(self, usable: List[_NodeState], now: float) -> None:
        """Lease waiting tasks while a usable node has a free slot."""
        while True:
            with self._lock:
                candidates = [
                    (s.handle.name, s.outstanding_cost, s.ewma_speed)
                    for s in usable
                    if s.leases < self.config.max_leases_per_node
                ]
            if not candidates:
                return
            task = self._next_waiting()
            if task is None:
                return
            chosen = pick_node(candidates, self._shard(task).cost)
            lease, request = self._grant(task, self.nodes[chosen], now)
            thread = threading.Thread(
                target=self._dispatch,
                args=(lease, request),
                name=f"repro-dist-dispatch-{lease.shard.shard_id}"
                f"-e{lease.epoch}",
                daemon=True,
            )
            self._dispatchers.append(thread)
            thread.start()

    def _shard(self, task: _Task) -> PackedShard:
        return self.shards[task.payload[1].lo]

    def _next_epoch(self, shard: PackedShard) -> int:
        epoch = self._epochs[shard.shard_id] = (
            self._epochs.get(shard.shard_id, 0) + 1
        )
        return epoch

    def _grant(
        self, task: _Task, state: _NodeState, now: float
    ) -> Tuple[_Lease, ShardRequest]:
        """Lease ``task`` to ``state``'s node under the shard's next epoch,
        arming the shard's planned fault on its first lease."""
        shard = self._shard(task)
        timeout = (
            task.timeout if task.timeout is not None
            else self.config.lease_timeout
        )
        lease = _Lease(
            task, shard, self._next_epoch(shard), state.handle.name,
            deadline=now + timeout, started=now,
        )
        self._leases[shard.shard_id] = lease
        with self._lock:
            state.leases += 1
            state.outstanding_cost += shard.cost
        self.counters.leases_granted += 1
        fault = self._note(
            shard, ("planned",), "armed", f"armed on {lease.node}"
        )
        shard_task = task.payload[1]
        request = ShardRequest(
            shard.shard_id, lease.epoch, shard.lo, shard.hi, shard.pairs,
            traceback=shard_task.traceback, fingerprint=self.fingerprint,
            want_obs=shard_task.obs, fault=fault,
        )
        return lease, request

    def _note(
        self, shard: PackedShard, before: Tuple[str, ...], outcome: str,
        detail: str,
    ) -> Optional[NodeFault]:
        """Move the shard's fault record from ``before`` to ``outcome``;
        returns the fault when it moved."""
        record = self.ledger.get(shard.shard_id)
        if record is None or record.outcome not in before:
            return None
        record.outcome, record.detail = outcome, detail
        return record.fault

    def _release(self, lease: _Lease) -> _NodeState:
        """End ``lease`` and free its node slot (caller holds the lock)."""
        del self._leases[lease.shard.shard_id]
        state = self.nodes[lease.node]
        state.leases -= 1
        state.outstanding_cost -= lease.shard.cost
        return state

    def _fail(self, lease: _Lease, error: type, reason: str) -> None:
        """Fail a current lease's task; the policy decides the re-lease."""
        with self._lock:
            state = self._release(lease)
            state.failures += 1
            state.consecutive_failures += 1
            if (
                not state.quarantined
                and state.consecutive_failures >= self.config.max_node_failures
            ):
                state.quarantined = True
                self.counters.nodes_quarantined += 1
        self._note(
            lease.shard, ("armed",),
            "expired" if error is TaskTimeout else "retried",
            f"{reason} on {lease.node}",
        )
        lease.task.future.set_exception(error(
            f"shard {lease.shard.shard_id} epoch {lease.epoch}: {reason} "
            f"on {lease.node}"
        ))

    def _handle(self, event, *, draining: bool = False) -> None:
        kind = event[0]
        if kind == "wake":
            return
        lease: _Lease = event[1]
        current = self._leases.get(lease.shard.shard_id) is lease
        if kind == "failure":
            # A failure of an expired lease, or one drained at close,
            # leaves the shard where it is.
            if current and not draining:
                self.counters.lease_failures += 1
                self._fail(lease, WorkerLost, event[2])
            return
        completion: ShardCompletion = event[2]
        if not current or completion.epoch != lease.epoch:
            self.counters.stale_discards += 1
            with self._lock:
                state = self.nodes.get(completion.node)
                if state is not None:
                    state.stale += 1
            self._note(
                lease.shard, ("armed", "expired"), "stale-discarded",
                f"zombie completion from {completion.node} (epoch "
                f"{completion.epoch} != {self._epochs[lease.shard.shard_id]})",
            )
            return
        if completion.checksum != shard_checksum(lease.shard.pairs):
            self.counters.corrupt_completions += 1
            self.counters.lease_failures += 1
            self._fail(lease, WorkerLost, "completion checksum mismatch")
            return
        sample = lease.shard.cost / max(1e-6, time.monotonic() - lease.started)
        with self._lock:
            state = self._release(lease)
            state.completed += 1
            state.consecutive_failures = 0
            state.ewma_speed = (
                sample
                if state.ewma_speed == 0.0
                else 0.7 * state.ewma_speed + 0.3 * sample
            )
        self._note(
            lease.shard, ("armed",), "absorbed",
            f"completed within lease on {lease.node}",
        )
        lease.task.future.set_result(LeaseReply.of(
            completion, f"{lease.node}#{completion.incarnation}",
            completion.epoch, lease.node,
        ))

    def _run_local(self, task: _Task) -> None:
        """Run a waiting task through the local shard body."""
        shard = self._shard(task)
        epoch = self._next_epoch(shard)
        try:
            reply = task.fn(task.payload)
        except Exception as exc:  # noqa: BLE001 - carried by the future
            task.future.set_exception(exc)
            return
        self.counters.local_shards += 1
        self._note(
            shard, ("armed", "retried", "expired"), "degraded",
            "completed by local fallback",
        )
        task.future.set_result(
            LeaseReply.of(reply, f"local:{reply.worker}", epoch)
        )

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, lease: _Lease, request: ShardRequest) -> None:
        """Dispatch-thread body: one POST /shard, one event, no locks."""
        read_timeout = self.config.lease_timeout + self.config.dispatch_slack
        if request.fault is not None and request.fault.kind == "hang":
            # Keep the socket open long enough to *observe* the zombie
            # reply — that is the point of the stale-discard ledger.
            read_timeout = max(
                read_timeout, request.fault.seconds + self.config.dispatch_slack
            )
        try:
            status, body = _exchange(
                self.nodes[lease.node].handle, "POST", "/shard",
                read_timeout, request.to_json(),
            )
            if status == 200:
                event = ("completion", lease, ShardCompletion.from_json(body))
            else:
                event = ("failure", lease, f"HTTP {status}: {body[:160]!r}")
        except (OSError, http.client.HTTPException, ProtocolError) as exc:
            event = ("failure", lease, f"{type(exc).__name__}: {exc}")
        self._events.put(event)


def _exchange(
    node: NodeHandle, method: str, path: str, timeout: float,
    body: Optional[bytes] = None,
) -> Tuple[int, bytes]:
    """One request on a fresh connection to ``node``: (status, body)."""
    conn = http.client.HTTPConnection(*node.address, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class DistPolicy(FailFast):
    """The dist rules on the batch loop (see the module doc)."""

    span = "batch.align_dist"
    result_type = DistBatchResult

    def __init__(
        self, fleet: NodeFleet, config: DistConfig,
        journal: Optional[CheckpointJournal],
    ) -> None:
        self.shards = fleet.shards
        self.counters = fleet.counters
        self.retry = config.retry
        self.timeout = config.lease_timeout
        self.journal = journal

    def cut(
        self, aligner: Aligner, pairs: Iterable[PairLike], shard_size: int,
        traceback: bool,
    ) -> Iterator[List[Tuple[str, str]]]:
        packed = pack_shards(
            aligner, pairs, shard_size=shard_size, traceback=traceback
        )
        self.counters.shards = len(packed)
        self.shards.update((shard.lo, shard) for shard in packed)
        return iter([shard.pairs for shard in packed])

    def resume(self, item: ShardItem) -> Optional[ShardDone]:
        if self.journal is None:
            return None
        cached = self.journal.lookup(
            item.lo, item.hi, shard_checksum(item.pairs)
        )
        if cached is None:
            return None
        self.counters.resumed_shards += 1
        return ShardDone(item.lo, item.hi, cached[0], worker="journal")

    def settle(self, item: ShardItem, future: Future, inline: bool):
        try:
            reply: LeaseReply = future.result()
        except (TaskTimeout, WorkerLost):
            item.attempt += 1
            self.counters.retries += 1
            item.ready_at = time.monotonic() + self.retry.delay(
                self.shards[item.lo].shard_id, item.attempt
            )
            return [item]
        if self.journal is not None:
            self.journal.record(
                item.lo, item.hi, reply.checksum, reply.results,
                epoch=reply.epoch, node=reply.node,
            )
            self.counters.journal_writes = self.journal.writes
        return [shard_done(item, reply, inline)]


class DistCoordinator:
    """Drives one batch across a set of worker nodes (single-use)."""

    def __init__(
        self,
        aligner: Aligner,
        nodes: Iterable[NodeHandle],
        *,
        config: Optional[DistConfig] = None,
        checkpoint: Optional[str] = None,
        journal_meta: Optional[dict] = None,
        fault_plan=None,
    ) -> None:
        self.aligner = aligner
        self.config = config if config is not None else DistConfig()
        self.checkpoint = checkpoint
        self.journal_meta = journal_meta
        self.fingerprint = aligner_fingerprint(aligner)
        self.fleet = NodeFleet(
            nodes,
            config=self.config,
            fingerprint=self.fingerprint,
            faults=fault_plan.faults if fault_plan is not None else (),
        )

    def run(
        self,
        pairs: Iterable[PairLike],
        *,
        traceback: bool = True,
    ) -> DistBatchResult:
        fleet = self.fleet
        if fleet.closed:
            raise DistError("a DistCoordinator runs one batch")
        journal = None
        if self.checkpoint:
            journal = CheckpointJournal(self.checkpoint, journal_header(
                self.aligner, traceback=traceback, extra=self.journal_meta
            ))
        try:
            batch = run_batch(
                self.aligner, pairs, workers=max(1, len(fleet.nodes)),
                shard_size=self.config.shard_size, traceback=traceback,
                validate=False, pool=fleet,
                policy=DistPolicy(fleet, self.config, journal),
                caller="DistCoordinator.run",
            )
        finally:
            fleet.close()
        batch.counters = fleet.counters
        batch.nodes = {name: node.to_dict() for name, node in fleet.nodes.items()}
        batch.ledger = [fleet.ledger[key] for key in sorted(fleet.ledger)]
        return batch
