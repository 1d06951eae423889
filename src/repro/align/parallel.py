"""Sharded parallel batch alignment (inter-sequence parallelism, §7.2).

The paper scales GMX across pairs, not within one alignment: 16 cores,
each with a private GMX unit, split a read set and meet only at the memory
controllers.  This module is the software analogue for the functional
harness — it partitions any pair iterable into shards, fans the shards out
over a ``multiprocessing`` pool, and merges per-shard results and
:class:`~repro.align.base.KernelStats` back in input order, so a parallel
run is observationally identical to :func:`repro.align.batch.align_batch`
run serially (same results, same stats, same ordering).

Three properties the engine guarantees:

* **Determinism** — results and merged stats are byte-identical for any
  worker count, including the in-process fallback.  Shards are merged in
  input order and every stat reduction is order-insensitive.
* **Streaming** — the input may be a generator (e.g.
  :func:`repro.workloads.seqio.iter_pairs`); shards are cut lazily with
  ``islice`` and the dataset is never materialised in the parent.
* **Graceful degradation** — ``workers=1``, a non-picklable aligner, or a
  platform without ``fork``/``spawn`` all fall back to a deterministic
  in-process execution of the same sharded code path.

Every run records a :class:`BatchTelemetry`: wall time, per-shard timings,
worker utilisation, and pairs/second.  These are *measured host* numbers —
they validate the shape of the paper's Figure-12 scaling claims (see
:func:`repro.sim.multicore.measured_scaling`) but never replace the
modelled cycle counts, which remain the source of all reported figures.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import (
    Callable, Deque, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

from ..analysis.sanitizer import runtime as dsan
from ..obs import runtime as obs
from .base import Aligner, AlignmentResult, KernelStats, ResilienceCounters
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


#: A worker's observability freight: drained span dicts + metrics payload.
ObsBuffers = Tuple[List[dict], Optional[dict]]


def _run_shard_pairs(
    aligner: Aligner,
    shard: List[Tuple[str, str]],
    traceback: bool,
    validate: bool,
) -> Tuple[List[AlignmentResult], KernelStats]:
    results: List[AlignmentResult] = []
    with obs.span("shard.align", pairs=len(shard)):
        for pattern, text in shard:
            result = aligner.align(pattern, text, traceback=traceback)
            if validate and result.alignment is not None:
                result.alignment.validate()
            results.append(result)
    obs.inc("batch.shards")
    return results, KernelStats.merged(result.stats for result in results)


def _align_shard(
    payload: Tuple[Aligner, List[Tuple[str, str]], bool, bool, bool],
) -> Tuple[List[AlignmentResult], KernelStats, float, str, ObsBuffers]:
    """Worker body: align one shard and pre-merge its stats.

    Module-level so it pickles under every multiprocessing start method.
    The last payload element asks the worker to capture observability for
    an enabled parent: spans and metrics recorded during the shard come
    back as picklable buffers (see :meth:`repro.obs.SpanRecorder.drain`)
    and the parent absorbs them into its own trace.  When the shard runs
    in the parent process (inline/serial executors), recording already
    targets the parent's recorder and the buffers stay empty.
    """
    aligner, shard, traceback, validate, want_obs = payload
    start = time.perf_counter()
    buffers: ObsBuffers = ([], None)
    if want_obs and not obs.owns_recorder():
        with obs.capture() as (recorder, registry):
            results, stats = _run_shard_pairs(
                aligner, shard, traceback, validate
            )
        buffers = (recorder.drain(), registry.snapshot().to_dict())
    else:
        results, stats = _run_shard_pairs(aligner, shard, traceback, validate)
    elapsed = time.perf_counter() - start
    return results, stats, elapsed, f"pid:{os.getpid()}", buffers


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
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    shards = iter_shards(pairs, shard_size)

    batch = BatchResult()
    telemetry = BatchTelemetry(
        workers=workers,
        shard_size=shard_size,
        backend=getattr(getattr(aligner, "backend", None), "name", None),
    )
    start = time.perf_counter()

    pickling_failure = _pickling_failure(aligner) if workers > 1 else None
    use_pool = workers > 1 and pickling_failure is None
    if use_pool:
        if pool is not None:
            use_pool = pool.process_mode and not pool.closed
            method = pool.method
        else:
            method = _resolve_start_method(start_method)
            use_pool = method is not None
    token = dsan.batch_begin()
    try:
        with obs.span("batch.align", workers=workers):
            if use_pool:
                telemetry.executor = method
                _run_pool(
                    aligner, shards, workers, method, traceback, validate,
                    batch, telemetry, pool=pool,
                )
            else:
                telemetry.executor = "inline" if workers > 1 else "serial"
                telemetry.fallback_reason = pickling_failure
                for index, shard in enumerate(shards):
                    results, stats, seconds, _, _ = _align_shard(
                        (aligner, shard, traceback, validate, False)
                    )
                    _merge_shard(batch, telemetry, index, results, stats,
                                 seconds, worker="inline")
    finally:
        dsan.batch_end(token, "align_batch_sharded")
    obs.inc("batch.runs")
    obs.inc("batch.pairs", batch.pairs)

    telemetry.wall_seconds = time.perf_counter() - start
    batch.telemetry = telemetry
    return batch


def _run_pool(
    aligner: Aligner,
    shards: Iterator[List[Tuple[str, str]]],
    workers: int,
    method: str,
    traceback: bool,
    validate: bool,
    batch: BatchResult,
    telemetry: BatchTelemetry,
    pool: Optional[WorkerPool] = None,
) -> None:
    """Fan shards out over a pool; merge completions in input order.

    With ``pool=None`` an ephemeral :class:`WorkerPool` is created and
    closed around the batch (the historical one-shot behaviour); a caller
    pool is borrowed and left open — the warm-pool path the alignment
    service depends on.
    """
    owns_pool = pool is None
    if owns_pool:
        pool = WorkerPool(workers, start_method=method)
    payloads = (
        (aligner, shard, traceback, validate, obs.enabled())
        for shard in shards
    )
    try:
        # imap preserves submission order and consumes the payload
        # generator lazily, so streaming inputs stay streaming.
        for index, (results, stats, seconds, worker, buffers) in enumerate(
            pool.imap(_align_shard, payloads)
        ):
            _absorb_obs_buffers(buffers)
            _merge_shard(
                batch, telemetry, index, results, stats, seconds,
                worker=worker,
            )
    finally:
        if owns_pool:
            pool.close()


def _absorb_obs_buffers(buffers: ObsBuffers) -> None:
    """Merge a worker's drained spans/metrics into the parent's recorders."""
    span_buffer, metrics_payload = buffers
    if not obs.enabled():
        return
    if span_buffer:
        obs.recorder().absorb(span_buffer)
    if metrics_payload:
        from ..obs.metrics import snapshot_from_dict

        obs.metrics().absorb(snapshot_from_dict(metrics_payload))


def _merge_shard(
    batch: BatchResult,
    telemetry: BatchTelemetry,
    index: int,
    results: List[AlignmentResult],
    stats: KernelStats,
    seconds: float,
    *,
    worker: str,
) -> None:
    batch.results.extend(results)
    batch.stats.merge(stats)
    telemetry.shards.append(
        ShardTelemetry(
            index=index, pairs=len(results), wall_seconds=seconds,
            worker=worker,
        )
    )
