"""Sharded batch alignment (inter-sequence parallelism, §7.2).

The paper scales GMX across pairs, not within one alignment: 16 cores,
each with a private GMX unit, split a read set and meet only at the memory
controllers.  This module is the software analogue for the functional
harness, and the one batch driver behind
:func:`~repro.align.batch.align_batch`, :func:`align_batch_sharded`,
:func:`repro.resilience.align_batch_resilient` and the dist coordinator:

* **one shard body** — :func:`_align_shard` aligns a shard's pairs in
  order and returns a :class:`ShardReply`.  It runs as a
  :class:`WorkerPool` task (in a worker process, or inline), and the
  alignment service and dist nodes call it too;
* **one dispatch loop** — :func:`run_batch` cuts the input into shards
  and :func:`_drive` keeps them in flight on a pool (a
  :class:`WorkerPool`, or the dist node fleet), settles every finished
  task through a *policy*, and :func:`merge_shards` merges the
  completed runs in input order;
* **policies** — a plain batch uses :class:`FailFast` (the first failure
  propagates unchanged); the resilience policy
  (:mod:`repro.resilience.engine`) adds retry, bisection, fallback,
  quarantine, the checkpoint journal and fault arming on the same loop;
  the dist policy, cost-packed shards and re-lease backoff.

Three properties the driver guarantees:

* **Determinism** — results and merged stats are byte-identical for any
  worker count, executor and policy that recovers.  Runs are merged in
  input order and every stat reduction is order-insensitive.
* **Streaming** — the input may be a generator (e.g.
  :func:`repro.workloads.seqio.iter_pairs`); shards are cut lazily with
  ``islice`` and at most two per worker are in flight, so the dataset is
  never materialised in the parent.
* **Graceful degradation** — ``workers=1``, a non-picklable aligner, or a
  platform without ``fork``/``spawn`` all run the same loop on an
  in-process pool.

Every run records a :class:`BatchTelemetry`: wall time, per-shard timings,
worker utilisation, and pairs/second.  These are *measured host* numbers —
they validate the shape of the paper's Figure-12 scaling claims (see
:func:`repro.sim.multicore.measured_scaling`) but never replace the
modelled cycle counts, which remain the source of all reported figures.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import threading
import time
import zlib
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import (
    Callable, Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple,
)

from ..analysis.sanitizer import runtime as dsan
from ..obs import runtime as obs
from .base import Aligner, AlignmentResult, ResilienceCounters
from .batch import BatchResult, PairLike, _as_pair

#: Pairs per shard when the caller does not choose (big enough to amortise
#: pickling/IPC, small enough to load-balance across a 16-worker pool).
DEFAULT_SHARD_SIZE = 16


@dataclass(frozen=True)
class ShardTelemetry:
    """Measured execution of one shard.

    Attributes:
        index: shard position in input order.
        pairs: pairs aligned by the shard.
        wall_seconds: shard execution time inside its worker.
        worker: executing worker label (``pid:<n>``, or ``inline``).
    """

    index: int
    pairs: int
    wall_seconds: float
    worker: str


@dataclass
class BatchTelemetry:
    """Measured execution profile of one batch-alignment run.

    Wall-clock here is *host measurement* — it characterises the harness's
    own parallel execution (the paper's inter-sequence parallelism made
    real), not the modelled hardware.  Modelled numbers stay with
    :meth:`~repro.align.batch.BatchResult.modelled_throughput`.

    Attributes:
        workers: worker processes requested (1 = in-process).
        shard_size: maximum pairs per shard.
        wall_seconds: end-to-end batch wall time in the parent.
        executor: how shards ran (``serial``, ``inline``, ``fork``,
            ``spawn``, ``forkserver``, or ``resilient-*`` variants).
        shards: per-shard measurements, in input order.
        fallback_reason: why a multi-worker run degraded to the in-process
            executor (e.g. the concrete pickling failure of the aligner);
            ``None`` when no fallback happened.
        resilience: fault/recovery accounting when the batch ran through
            :mod:`repro.resilience`; ``None`` for plain runs.
        backend: kernel backend name of the aligner (see
            :mod:`repro.align.backends`); ``None`` for aligners without a
            pluggable kernel.
    """

    workers: int
    shard_size: int
    wall_seconds: float = 0.0
    executor: str = "serial"
    shards: List[ShardTelemetry] = field(default_factory=list)
    fallback_reason: Optional[str] = None
    resilience: Optional[ResilienceCounters] = None
    backend: Optional[str] = None

    @property
    def shard_count(self) -> int:
        """Number of shards executed."""
        return len(self.shards)

    @property
    def pairs(self) -> int:
        """Total pairs across all shards."""
        return sum(shard.pairs for shard in self.shards)

    @property
    def pairs_per_second(self) -> float:
        """Measured end-to-end pairs/second, total on every input.

        0.0 for an empty batch; ``inf`` for a non-empty batch whose wall
        time measured as zero (clock granularity on an instant batch) —
        never a ``ZeroDivisionError``.
        """
        if not self.pairs:
            return 0.0
        if self.wall_seconds <= 0:
            return float("inf")
        return self.pairs / self.wall_seconds

    @property
    def busy_seconds(self) -> float:
        """Total worker-occupied time summed over shards."""
        return sum(shard.wall_seconds for shard in self.shards)

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker pool kept busy (busy / workers·wall).

        1.0 means perfect overlap; serial execution reports ~1.0 by
        construction; parallel runs lose utilisation to IPC, imbalance and
        pool startup.  0.0 for an empty batch.
        """
        if self.wall_seconds <= 0 or self.workers < 1:
            return 0.0
        return min(1.0, self.busy_seconds / (self.workers * self.wall_seconds))

    def speedup_vs(self, other: "BatchTelemetry") -> float:
        """Wall-clock speedup of this run relative to ``other``.

        Total on zero-time telemetry: two instant runs compare as 1.0, an
        instant run beats any timed run by ``inf``, and a timed run against
        an instant one reports 0.0 — no division by zero on any input.
        """
        if self.wall_seconds <= 0:
            return float("inf") if other.wall_seconds > 0 else 1.0
        return other.wall_seconds / self.wall_seconds


def iter_shards(
    pairs: Iterable[PairLike], shard_size: int
) -> Iterator[List[Tuple[str, str]]]:
    """Lazily cut a pair iterable into shards of normalised tuples.

    Consumes the input incrementally (``islice``), so generators and
    streaming readers are never materialised; each yielded shard holds
    plain ``(pattern, text)`` tuples, the cheapest payload to pickle.
    """
    if shard_size < 1:
        raise ValueError(f"shard size must be positive, got {shard_size}")
    iterator = iter(pairs)
    while True:
        shard = [
            _as_pair(item)
            for item in itertools.islice(iterator, shard_size)
        ]
        if not shard:
            return
        yield shard


def pair_checksum(pattern: str, text: str) -> int:
    """Order-sensitive checksum of one pair (CRC32 over both sequences)."""
    return zlib.crc32(pattern.encode() + b"\x00" + text.encode())


def shard_checksum(pairs: Iterable[Tuple[str, str]]) -> int:
    """Order-sensitive checksum of a shard's pairs.

    The shard body reports it for the pairs it actually aligned, so a
    caller holding the pristine pairs detects data corrupted in flight.
    """
    checksum = 0
    for pattern, text in pairs:
        checksum = (
            checksum * 1000003 + pair_checksum(pattern, text)
        ) & 0xFFFFFFFF
    return checksum


@dataclass
class ShardTask:
    """The work order of one shard: what :func:`_align_shard` runs.

    Attributes:
        pairs: the shard's ``(pattern, text)`` pairs, in input order.
        lo: batch index of the first pair.
        traceback / validate: as in :func:`~repro.align.batch.align_batch`.
        obs: the parent records observability; a shard running in a
            worker process captures its spans and metrics and ships them
            back in the reply.
        guard: a supervised attempt's fault and cross-check hooks, set by
            the resilience policy (see :mod:`repro.resilience.engine`);
            ``None`` for a plain shard.
    """

    pairs: Sequence[Tuple[str, str]]
    lo: int = 0
    traceback: bool = True
    validate: bool = False
    obs: bool = False
    guard: Optional[object] = None


@dataclass
class ShardReply:
    """The outcome of one shard, as it comes back from a worker.

    Attributes:
        results: per-pair results, in shard order.
        checksum: :func:`shard_checksum` of the pairs actually aligned.
        elapsed: seconds spent in the shard body.
        worker: ``pid:<n>`` of the process that ran the shard.
        unfired: ids of the guard's armed faults that changed nothing.
        spans / metrics: observability captured in a worker process.
    """

    results: List[AlignmentResult]
    checksum: int
    elapsed: float
    worker: str
    unfired: Tuple[int, ...] = ()
    spans: List[dict] = field(default_factory=list)
    metrics: Optional[dict] = None


def _align_shard(payload: Tuple[Aligner, ShardTask]) -> ShardReply:
    """The one shard body: align a shard's pairs in order.

    Every path that aligns a shard runs this function as a
    :class:`WorkerPool` task or calls it directly — plain and resilient
    batches, the alignment service and dist nodes — so all of them run
    the code the conformance and chaos suites prove deterministic.  It is
    module-level so it pickles under every start method, and it is their
    one dsan worker root.

    A plain shard (no guard) records a ``shard.align`` span and counts
    ``batch.shards``.  A supervised attempt records ``shard.attempt``;
    its guard first enacts the worker and data faults armed on the
    attempt, then wraps each pair in its hardware fault hooks and trace
    capture and cross-checks each result, and finally may poison the
    reply.
    """
    aligner, task = payload
    start = time.perf_counter()
    guard = task.guard
    capture = task.obs and not obs.owns_recorder()
    with obs.capture() if capture else contextlib.nullcontext() as captured:
        pairs = task.pairs if guard is None else guard.enact(task.pairs)
        if guard is None:
            span = obs.span("shard.align", pairs=len(pairs))
        else:
            span = obs.span(
                "shard.attempt", lo=task.lo, hi=task.lo + len(pairs),
                armed=len(guard.armed),
            )
        results: List[AlignmentResult] = []
        with span:
            for offset, (pattern, text) in enumerate(pairs):
                if guard is None:
                    result = aligner.align(
                        pattern, text, traceback=task.traceback
                    )
                else:
                    with guard.striking(aligner, offset) as traces:
                        result = aligner.align(
                            pattern, text, traceback=task.traceback
                        )
                if task.validate and result.alignment is not None:
                    result.alignment.validate()
                if guard is not None:
                    guard.vet(
                        aligner, pattern, text, result, task.lo + offset,
                        traces,
                    )
                results.append(result)
        if guard is None:
            obs.inc("batch.shards")
    reply = ShardReply(
        results=results,
        checksum=shard_checksum(pairs),
        elapsed=time.perf_counter() - start,
        worker=f"pid:{os.getpid()}",
    )
    if capture:
        recorder, registry = captured
        reply.spans = recorder.drain()
        reply.metrics = registry.snapshot().to_dict()
    return reply if guard is None else guard.deliver(reply)


def _pickling_failure(aligner: Aligner) -> Optional[str]:
    """Why ``aligner`` cannot ship to worker processes (None when it can).

    Only the concrete failures ``pickle.dumps`` raises on unpicklable
    objects are treated as "fall back inline": ``PicklingError`` (the
    documented failure), ``TypeError`` (lambdas, locks, open files), and
    ``AttributeError`` (local classes / lost module references).  Anything
    else — a crash inside ``__reduce__``, say — is a real bug and
    propagates to the caller instead of being silently swallowed.
    """
    try:
        pickle.dumps(aligner)
        return None
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        return f"{type(aligner).__name__} is not picklable: {exc}"


def _resolve_start_method(preferred: Optional[str]) -> Optional[str]:
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} unavailable (have {available})"
            )
        return preferred
    # fork is cheapest and inherits the aligner for free; spawn is the
    # portable fallback (macOS/Windows default).
    for method in ("fork", "spawn", "forkserver"):
        if method in available:
            return method
    return None


class PoolError(RuntimeError):
    """Root of :class:`WorkerPool` failures; raised on lifecycle misuse."""


class WorkerLost(PoolError):
    """The worker process running a task died before it replied."""


class TaskTimeout(PoolError):
    """A task ran past the ``timeout`` it was submitted with."""


class UnpicklableReply(PoolError):
    """A task's reply could not cross the process boundary."""


def _worker_main(conn) -> None:
    """Worker-process loop: one ``(fn, payload)`` request, one reply.

    SIGINT is left to the parent: a foreground Ctrl-C reaches the whole
    process group, and the parent's orderly shutdown stops the workers
    anyway.  A reply (value or raised exception) that fails to pickle is
    replaced by an :class:`UnpicklableReply`, so the worker survives it.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            fn, payload = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(payload))
        except Exception as exc:  # noqa: BLE001 - shipped to the future
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # noqa: BLE001 - pickling the reply
            conn.send((False, UnpicklableReply(
                f"reply of {getattr(fn, '__qualname__', fn)!r} failed to "
                f"pickle: {type(exc).__name__}: {exc}"
            )))


class _Task(NamedTuple):
    fn: Callable
    payload: object
    timeout: Optional[float]
    future: Future


@dataclass(eq=False)
class _Worker:
    """One worker process, its duplex pipe and the task it owns."""

    process: object
    conn: object
    task: Optional[_Task] = None
    deadline: Optional[float] = None


class WorkerPool:
    """A reusable worker pool: create once, submit many, close once.

    This is the one owner of worker processes behind the one-shot batch
    API (:func:`align_batch_sharded` creates an ephemeral pool per call),
    the resilient engine (one ephemeral pool per batch) and the
    long-lived alignment service (:mod:`repro.serve` creates one warm
    pool at startup).  In process mode it runs ``workers`` long-lived
    processes, each with one duplex pipe; one supervisor thread waits on
    the pipes, the process sentinels and a wake-up pipe, and gives each
    worker at most one task at a time.  Because every task has exactly
    one owner:

    * a worker that dies fails only its own task's future, with
      :class:`WorkerLost`, and only that worker is respawned;
    * ``submit(..., timeout=)`` is a hard deadline: the owning worker is
      killed (and respawned) and the future fails with
      :class:`TaskTimeout`;
    * a reply that cannot be pickled fails its future with
      :class:`UnpicklableReply` and the worker keeps serving.

    Without a start method (``workers=1``, or a platform without
    ``fork``/``spawn``) the pool executes inline and :meth:`submit`
    returns an already-completed future; an inline task that ran past its
    ``timeout`` completes as :class:`TaskTimeout` (a soft deadline).

    Lifecycle: :meth:`start` (optional — the first submit starts
    lazily) → :meth:`submit`/:meth:`imap` → :meth:`close`.  ``respawns``
    counts worker processes replaced after a death or a deadline kill.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._method = (
            _resolve_start_method(start_method) if workers > 1 else None
        )
        self._lock = threading.Lock()
        self._queue: Deque[_Task] = deque()
        self._workers: List[_Worker] = []
        self._supervisor: Optional[threading.Thread] = None
        self._wake_r = self._wake_w = None
        self._closed = False
        self.respawns = 0

    @property
    def method(self) -> Optional[str]:
        """Multiprocessing start method (``None`` for the inline executor)."""
        return self._method

    @property
    def process_mode(self) -> bool:
        """True when tasks run in worker processes (not inline)."""
        return self._method is not None

    @property
    def executor(self) -> str:
        """Executor label for :class:`BatchTelemetry` (method or inline)."""
        if self._method is not None:
            return self._method
        return "serial" if self.workers == 1 else "inline"

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_started(self) -> None:
        """Spawn the workers and the supervisor once (caller holds the lock)."""
        if self._closed:
            raise PoolError("worker pool is closed")
        if not self.process_mode or self._supervisor is not None:
            return
        import multiprocessing

        self._context = multiprocessing.get_context(self._method)
        self._wake_r, self._wake_w = self._context.Pipe(duplex=False)
        self._workers = [self._spawn() for _ in range(self.workers)]
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def start(self) -> "WorkerPool":
        """Start the workers now (idempotent); returns self for chaining."""
        with self._lock:
            self._ensure_started()
        return self

    def worker_pids(self) -> List[int]:
        """PIDs of the worker processes (empty for inline pools)."""
        return [worker.process.pid for worker in self._workers]

    def submit(
        self, fn: Callable, payload, timeout: Optional[float] = None
    ) -> Future:
        """Run ``fn(payload)`` on one worker; returns its :class:`Future`.

        ``fn`` must be a module-level callable (it crosses the pickle
        boundary).  ``timeout`` is the task's deadline in seconds from the
        moment a worker takes it (see the class docstring for the failure
        types the future can carry).
        """
        future: Future = Future()
        with self._lock:
            self._ensure_started()
            if self.process_mode:
                self._queue.append(_Task(fn, payload, timeout, future))
                self._wake_w.send_bytes(b"")
                return future
        future.set_running_or_notify_cancel()
        start = time.perf_counter()
        try:
            value = fn(payload)
        except Exception as exc:  # noqa: BLE001 - carried by the future
            future.set_exception(exc)
            return future
        elapsed = time.perf_counter() - start
        if timeout is not None and elapsed > timeout:
            future.set_exception(TaskTimeout(
                f"inline task took {elapsed:.3f}s (soft deadline {timeout}s)"
            ))
        else:
            future.set_result(value)
        return future

    def imap(self, fn: Callable, payloads: Iterable) -> Iterator:
        """Ordered map over the pool, fed lazily (inline: a plain ``map``).

        At most two tasks per worker are outstanding, so a generator
        input is consumed only as results are yielded.
        """
        with self._lock:
            self._ensure_started()
        if not self.process_mode:
            return map(fn, payloads)
        return self._imap(fn, payloads)

    def _imap(self, fn: Callable, payloads: Iterable) -> Iterator:
        window: Deque[Future] = deque()
        try:
            for payload in payloads:
                window.append(self.submit(fn, payload))
                if len(window) >= 2 * self.workers:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            for future in window:
                future.cancel()

    # -- supervisor thread ----------------------------------------------

    def _next_task(self) -> Optional[_Task]:
        with self._lock:
            while self._queue:
                task = self._queue.popleft()
                if task.future.set_running_or_notify_cancel():
                    return task
            return None

    def _dispatch(self, worker: _Worker, task: _Task) -> bool:
        """Hand ``task`` to idle ``worker``; False if it failed to pickle."""
        try:
            request = ForkingPickler.dumps((task.fn, task.payload))
        except Exception as exc:  # noqa: BLE001 - the caller's payload
            task.future.set_exception(exc)
            return False
        worker.task = task
        if task.timeout is not None:
            worker.deadline = time.monotonic() + task.timeout
        try:
            worker.conn.send_bytes(request)
        except OSError:
            pass  # the worker is dead; its sentinel reports the loss
        return True

    def _receive(self, worker: _Worker) -> None:
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):
            self._replace(worker, WorkerLost, "died before replying")
            return
        except Exception as exc:  # noqa: BLE001 - unpickling the reply
            ok, value = False, UnpicklableReply(
                f"reply failed to unpickle: {type(exc).__name__}: {exc}"
            )
        task, worker.task, worker.deadline = worker.task, None, None
        if ok:
            task.future.set_result(value)
        else:
            task.future.set_exception(value)

    def _replace(self, worker: _Worker, error: type, reason: str) -> None:
        """Kill (if needed) and respawn one worker; fail only its task."""
        worker.process.kill()
        worker.process.join()
        worker.conn.close()
        self._workers[self._workers.index(worker)] = self._spawn()
        self.respawns += 1
        if worker.task is not None:
            worker.task.future.set_exception(error(
                f"worker pid {worker.process.pid} {reason} "
                f"(exit code {worker.process.exitcode})"
            ))

    def _supervise(self) -> None:
        try:
            self._supervise_loop()
        finally:
            with self._lock:
                self._closed = True
            self._teardown()

    def _supervise_loop(self) -> None:
        from multiprocessing.connection import wait

        workers = self._workers
        while True:
            idle = [worker for worker in workers if worker.task is None]
            while idle:
                task = self._next_task()
                if task is None:
                    break
                if self._dispatch(idle[-1], task):
                    idle.pop()
            deadlines = [w.deadline for w in workers if w.deadline is not None]
            timeout = (
                max(0.0, min(deadlines) - time.monotonic())
                if deadlines else None
            )
            busy = {w.conn: w for w in workers if w.task is not None}
            sentinels = {w.process.sentinel: w for w in workers}
            ready = wait([self._wake_r, *busy, *sentinels], timeout=timeout)
            if self._wake_r in ready:
                while self._wake_r.poll():
                    self._wake_r.recv_bytes()
                if self._closed:
                    return
            # Replies first: a worker that answered and then died still
            # delivered its task.
            for handle in ready:
                if handle in busy:
                    self._receive(busy[handle])
            for handle in ready:
                worker = sentinels.get(handle)
                if worker is not None and worker in workers:
                    self._replace(worker, WorkerLost, "died before replying")
            now = time.monotonic()
            for worker in list(workers):
                if worker.deadline is not None and now >= worker.deadline:
                    self._replace(
                        worker, TaskTimeout,
                        f"was killed at its {worker.task.timeout}s deadline",
                    )

    def _teardown(self) -> None:
        """Stop every worker; unfinished futures fail with PoolError."""
        for worker in self._workers:
            worker.process.terminate()
        for worker in self._workers:
            worker.process.join()
            worker.conn.close()
            if worker.task is not None:
                worker.task.future.set_exception(PoolError("pool closed"))
        while True:
            task = self._next_task()
            if task is None:
                break
            task.future.set_exception(PoolError("pool closed"))
        self._wake_r.close()
        self._wake_w.close()

    def close(self) -> None:
        """Stop the pool (idempotent); unfinished futures fail, submits raise."""
        with self._lock:
            wake = not self._closed and self._supervisor is not None
            self._closed = True
            if wake:
                self._wake_w.send_bytes(b"")
        if self._supervisor is not None:
            self._supervisor.join()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def align_batch_sharded(
    aligner: Aligner,
    pairs: Iterable[PairLike],
    *,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    traceback: bool = True,
    validate: bool = False,
    start_method: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
) -> BatchResult:
    """Align a batch across a sharded worker pool.

    Args:
        pairs: any iterable of pair-likes — lists, :class:`PairSet`,
            generators, :func:`~repro.workloads.seqio.iter_pairs` streams.
        workers: worker processes; ``None`` uses the host CPU count,
            ``1`` executes in-process (deterministic fallback).
        shard_size: pairs per shard (default ``DEFAULT_SHARD_SIZE``).
        traceback / validate: as in :func:`~repro.align.batch.align_batch`.
        start_method: force a multiprocessing start method (testing hook).
        pool: an existing warm :class:`WorkerPool` to reuse — the batch
            runs on it without paying pool spin-up and leaves it open for
            the next caller.  ``None`` (the one-shot path) creates an
            ephemeral pool for this batch and closes it afterwards.

    Returns:
        A :class:`~repro.align.batch.BatchResult` whose ``results``,
        ``stats`` and ordering are identical to a serial run, with
        :attr:`~repro.align.batch.BatchResult.telemetry` populated.
    """
    if workers is None:
        workers = pool.workers if pool is not None else (os.cpu_count() or 1)
    if pool is not None and (workers < 2 or _pickling_failure(aligner)):
        pool = None  # the batch runs in-process; run_batch records why
    return run_batch(
        aligner, pairs,
        workers=workers, shard_size=shard_size,
        traceback=traceback, validate=validate,
        pool=pool, start_method=start_method,
        caller="align_batch_sharded",
    )


@dataclass
class ShardItem:
    """A run of the batch's pairs awaiting dispatch.

    A cut shard, a retry of it, or a bisected half.  ``attempt`` and
    ``armed`` are the policy's bookkeeping; ``ready_at`` is the
    monotonic time before which the loop must not dispatch it.
    """

    lo: int
    pairs: List[Tuple[str, str]]
    attempt: int = 0
    ready_at: float = 0.0
    armed: tuple = ()

    @property
    def hi(self) -> int:
        return self.lo + len(self.pairs)


@dataclass
class ShardDone:
    """A completed run of pairs ``[lo, hi)``, merged in input order."""

    lo: int
    hi: int
    results: List[AlignmentResult]
    elapsed: float = 0.0
    worker: str = ""


def shard_done(item: ShardItem, reply: ShardReply, inline: bool) -> ShardDone:
    """Accept a shard's reply: absorb its observability, record it done."""
    _absorb_obs(reply.spans, reply.metrics)
    return ShardDone(
        item.lo, item.hi, reply.results, reply.elapsed,
        "inline" if inline else reply.worker,
    )


class FailFast:
    """The policy of a plain batch: the first failure propagates unchanged.

    A policy tells :func:`run_batch` how to treat each shard; the
    resilience policy (:mod:`repro.resilience.engine`) has the same
    members:

    * ``span`` / ``result_type`` — the batch span and the result class;
    * ``timeout`` — the per-task deadline given to :meth:`WorkerPool.submit`;
    * ``executor(pool, workers)`` — the telemetry executor label;
    * ``bind(aligner, pool)`` — the aligner the tasks carry;
    * ``cut(aligner, pairs, shard_size, traceback)`` — the input cut into
      shards of ``(pattern, text)`` pairs, in input order;
    * ``resume(item)`` — a :class:`ShardDone` replayed without running
      the item, or ``None``;
    * ``task(item, task)`` — the :class:`ShardTask` to submit for it;
    * ``settle(item, future, inline)`` — the outcomes of a finished task:
      each a :class:`ShardDone` to keep or a :class:`ShardItem` to queue;
    * ``finish(batch, telemetry)`` — accounting after the merge.
    """

    span = "batch.align"
    result_type = BatchResult
    timeout: Optional[float] = None

    def executor(self, pool: WorkerPool, workers: int) -> str:
        return pool.method or ("inline" if workers > 1 else "serial")

    def bind(self, aligner: Aligner, pool: WorkerPool) -> Aligner:
        return aligner

    def cut(
        self, aligner: Aligner, pairs: Iterable[PairLike], shard_size: int,
        traceback: bool,
    ) -> Iterator[List[Tuple[str, str]]]:
        return iter_shards(pairs, shard_size)

    def resume(self, item: ShardItem) -> Optional[ShardDone]:
        return None

    def task(self, item: ShardItem, task: ShardTask) -> ShardTask:
        return task

    def settle(self, item: ShardItem, future: Future, inline: bool):
        return [shard_done(item, future.result(), inline)]

    def finish(self, batch: BatchResult, telemetry: BatchTelemetry) -> None:
        obs.inc("batch.runs")
        obs.inc("batch.pairs", batch.pairs)


def run_batch(
    aligner: Aligner,
    pairs: Iterable[PairLike],
    *,
    workers: int,
    shard_size: Optional[int],
    traceback: bool,
    validate: bool,
    pool: Optional[WorkerPool] = None,
    start_method: Optional[str] = None,
    policy=None,
    caller: str,
) -> BatchResult:
    """The one batch driver behind every batch entry point.

    The policy cuts ``pairs`` into shards, :func:`_drive` runs them on a
    pool, and the completions merge in input order.  A live process-mode
    ``pool`` (a warm :class:`WorkerPool`, or the dist node fleet) runs
    the batch as given; without one, ``workers > 1`` with a picklable
    aligner fans out over an ephemeral pool, and anything else runs on an
    in-process pool.  ``policy`` (default :class:`FailFast`) decides what
    a failed shard means; ``caller`` names the batch for the sanitizer's
    leak check.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    if policy is None:
        policy = FailFast()
    fallback_reason = owned = None
    if pool is None or pool.closed or not pool.process_mode:
        fallback_reason = _pickling_failure(aligner) if workers > 1 else None
        fan_out = pool is None and workers > 1 and fallback_reason is None
        pool = owned = WorkerPool(
            workers if fan_out else 1, start_method=start_method
        )
    telemetry = BatchTelemetry(
        workers=workers,
        shard_size=shard_size,
        executor=policy.executor(pool, workers),
        fallback_reason=fallback_reason,
        backend=getattr(getattr(aligner, "backend", None), "name", None),
    )
    task_aligner = policy.bind(aligner, pool)
    batch = policy.result_type()
    start = time.perf_counter()
    token = dsan.batch_begin()
    try:
        with obs.span(policy.span, workers=workers):
            completed, total = _drive(
                task_aligner,
                policy.cut(aligner, pairs, shard_size, traceback),
                pool, policy, traceback=traceback, validate=validate,
            )
    finally:
        if owned is not None:
            owned.close()
        dsan.batch_end(token, caller)
    merge_shards(batch, completed, total, telemetry)
    policy.finish(batch, telemetry)
    telemetry.wall_seconds = time.perf_counter() - start
    batch.telemetry = telemetry
    return batch


def _drive(
    aligner: Aligner,
    shards: Iterator[List[Tuple[str, str]]],
    pool: WorkerPool,
    policy,
    *,
    traceback: bool,
    validate: bool,
) -> Tuple[List[ShardDone], int]:
    """The one dispatch loop: keep shards in flight until the batch drains.

    A process pool gets up to two tasks per worker in flight, so a
    generator input is consumed only as shards complete; an inline pool
    runs one task at a time, each settled before the next is cut, so
    inline runs replay exactly.  Queued items whose ``ready_at`` has
    come go before new shards.  Returns the completed runs and the
    number of pairs cut.
    """
    window = 2 * pool.workers if pool.process_mode else 1
    inline = not pool.process_mode
    completed: List[ShardDone] = []
    queued: List[ShardItem] = []
    active: Dict[Future, ShardItem] = {}
    total = 0
    exhausted = False
    try:
        while True:
            now = time.monotonic()
            while len(active) < window:
                due = [item for item in queued if item.ready_at <= now]
                if due:
                    item = min(due, key=lambda entry: entry.ready_at)
                    queued.remove(item)
                else:
                    shard = None if exhausted else next(shards, None)
                    if shard is None:
                        exhausted = True
                        break
                    item = ShardItem(total, shard)
                    total += len(shard)
                done = policy.resume(item)
                if done is not None:
                    completed.append(done)
                    continue
                task = policy.task(item, ShardTask(
                    item.pairs, lo=item.lo, traceback=traceback,
                    validate=validate, obs=obs.enabled(),
                ))
                future = pool.submit(
                    _align_shard, (aligner, task), timeout=policy.timeout
                )
                active[future] = item
            wait_s = max(
                0.0, min((item.ready_at for item in queued), default=now) - now
            )
            if not active:
                if exhausted and not queued:
                    return completed, total
                time.sleep(min(0.05, wait_s or 0.001))
                continue
            ready, _ = wait(
                active, timeout=wait_s or None, return_when=FIRST_COMPLETED
            )
            for future in [f for f in active if f in ready]:  # submit order
                item = active.pop(future)
                for outcome in policy.settle(item, future, inline):
                    if isinstance(outcome, ShardDone):
                        completed.append(outcome)
                    else:
                        queued.append(outcome)
    finally:
        for future in active:
            future.cancel()


def merge_shards(
    batch,
    completed: Iterable[ShardDone],
    total: int,
    telemetry: Optional[BatchTelemetry] = None,
) -> None:
    """Merge completed runs into ``batch`` in input order.

    Results and stats accumulate run by run; ``telemetry`` (optional)
    gains one :class:`ShardTelemetry` per run.  Raises ``RuntimeError``
    unless the runs tile ``[0, total)`` exactly.
    """
    cursor = 0
    for index, done in enumerate(sorted(completed, key=lambda d: d.lo)):
        if done.lo != cursor:
            raise RuntimeError(
                f"batch lost coverage: gap before pair {done.lo} "
                f"(have up to {cursor})"
            )
        cursor = done.hi
        batch.results.extend(done.results)
        for result in done.results:
            batch.stats.merge(result.stats)
        if telemetry is not None:
            telemetry.shards.append(ShardTelemetry(
                index=index, pairs=len(done.results),
                wall_seconds=done.elapsed, worker=done.worker,
            ))
    if cursor != total:
        raise RuntimeError(
            f"batch lost coverage: completed {cursor} of {total} pairs"
        )


def _absorb_obs(spans: List[dict], metrics: Optional[dict]) -> None:
    """Merge a worker's drained spans/metrics into the parent's recorders."""
    if not obs.enabled():
        return
    if spans:
        obs.recorder().absorb(list(spans))
    if metrics:
        from ..obs.metrics import snapshot_from_dict

        obs.metrics().absorb(snapshot_from_dict(metrics))
