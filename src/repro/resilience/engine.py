"""Fault-tolerant batch alignment: retry, bisect, degrade, checkpoint.

Resilience is a policy on the one batch driver
(:func:`repro.align.parallel.run_batch`): :func:`align_batch_resilient`
runs the same shard body and dispatch loop as a plain batch, with
:class:`ResiliencePolicy` deciding what each finished attempt means.  It
keeps a batch correct — byte-identical to a fault-free serial run —
while workers crash, hang, return garbage, or the (modelled) hardware
corrupts values:

* **deadlines** — each shard attempt runs under ``shard_timeout`` as a
  :class:`~repro.align.parallel.WorkerPool` task: in process mode the
  pool kills the owning worker at the deadline (hard), inline attempts
  are rejected retroactively (soft deadline).
* **retry with seeded backoff** — failed attempts are retried up to
  ``max_retries`` times with exponentially growing, deterministically
  jittered delays (:class:`RetryPolicy`), so campaigns replay exactly.
* **detection** — results are rejected when the shard's input checksum
  disagrees (data corruption in flight), when a reply cannot cross the
  transport, and — with ``cross_check=True`` — when the aligner's score
  disagrees with the bit-parallel BPM baseline, the traced instruction
  stream fails the static program verifier, or the alignment fails
  replay validation.
* **bisection → fallback → quarantine** — a shard that exhausts its
  retries is split in half to isolate the poison; a single pair that
  still fails is re-aligned with the ``fallback`` aligner (BPM by
  default); if even that fails the pair is quarantined and reported,
  never silently dropped and never allowed to abort the batch.
* **checkpoint/resume** — with ``checkpoint=<path>``, completed shards
  are journalled (:mod:`.checkpoint`); a rerun resumes from the journal
  and produces the same :class:`~repro.align.batch.BatchResult`.

Fault injection (``fault_plan=``) drives the same machinery with planned,
seeded faults — see :mod:`.faults`.  The policy arms each attempt's
faults in a guard (:class:`_AttemptGuard`) that travels in the shard
task and acts inside the shard body, and every planned fault is
accounted for in the returned ledger.
"""

from __future__ import annotations

import contextlib
import pickle
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..align.base import Aligner, AlignmentResult, ResilienceCounters
from ..align.batch import BatchResult, PairLike
from ..align.parallel import (
    BatchTelemetry,
    FailFast,
    ShardDone,
    ShardItem,
    ShardReply,
    ShardTask,
    TaskTimeout,
    UnpicklableReply,
    WorkerLost,
    WorkerPool,
    _pickling_failure,
    run_batch,
    shard_checksum,
    shard_done,
)
from ..common.retry import RetryPolicy
from ..core.cigar import AlignmentError
from ..core.isa import fault_injection
from ..obs import runtime as obs
from .checkpoint import CheckpointJournal, journal_header
from .faults import FaultError, FaultPlan, FaultSpec
from .injectors import (
    FaultHookChain,
    HardwareFaultInjector,
    apply_worker_fault,
    corrupt_pair,
)

#: Deadline applied when a fault plan is present but none was chosen —
#: hang faults are only detectable under a deadline.
DEFAULT_CHAOS_TIMEOUT = 5.0


class CrossCheckError(RuntimeError):
    """A result failed independent verification (score/CIGAR/trace)."""


@dataclass
class FaultRecord:
    """Ledger entry: what happened to one planned fault.

    Outcomes: ``planned`` (never armed), ``armed`` (injected, verdict
    pending), ``retried`` (struck an attempt that failed and was
    retried), ``detected`` (observed without needing a retry — e.g. a
    slow shard), ``degraded`` (its pair recovered via the fallback
    aligner), ``quarantined`` (its pair was quarantined), ``masked``
    (armed but physically changed nothing), ``silent`` (corrupted a
    value yet the attempt passed every check — a detection gap),
    ``resumed`` (its shard was replayed from a checkpoint journal).
    """

    spec: FaultSpec
    outcome: str = "planned"
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "fault": self.spec.to_dict(),
            "outcome": self.outcome,
            "detail": self.detail,
        }


@dataclass
class QuarantinedPair:
    """A pair excluded from the batch after the full degradation chain."""

    index: int
    pattern: str
    text: str
    reason: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "pattern": self.pattern,
            "text": self.text,
            "reason": self.reason,
        }


@dataclass
class ResilientBatchResult(BatchResult):
    """A :class:`BatchResult` plus the resilience run's accounting.

    Attributes:
        quarantined: pairs excluded after retry → bisection → fallback
            all failed (empty on healthy runs; ``results`` then covers
            every input pair in order).
        ledger: one :class:`FaultRecord` per planned fault.
    """

    quarantined: List[QuarantinedPair] = field(default_factory=list)
    ledger: List[FaultRecord] = field(default_factory=list)


@dataclass
class _ShardFailure:
    """Failed shard attempt: a classification plus human-readable detail."""

    kind: str  # timeout | crash | exception | unpicklable | cross-check | data
    detail: str


class _PoisonedReply:
    """Deliberately unpicklable wrapper (injected ``unpicklable`` fault)."""

    def __init__(self, reply: ShardReply):
        self.reply = reply
        self.trap = lambda: None  # closures never pickle


@contextlib.contextmanager
def _trace_capture(
    aligner: Aligner, enabled: bool
) -> Iterator[Optional[List]]:
    """Redirect ``aligner.trace_sink`` into a fresh buffer for one block.

    Yields the buffer (``None`` when disabled or the aligner has no
    sink); the previous sink comes back in a ``finally``, so a raising
    alignment cannot leave the sink dangling for later pairs.
    """
    if not enabled or not hasattr(aligner, "trace_sink"):
        yield None
        return
    previous = aligner.trace_sink
    traces: List = []
    aligner.trace_sink = traces
    try:
        yield traces
    finally:
        aligner.trace_sink = previous


class _AttemptGuard:
    """The resilience hooks of one supervised attempt (a shard task's guard).

    It travels inside the :class:`~repro.align.parallel.ShardTask` and
    runs in the shard body, in a worker process or inline: it enacts the
    attempt's worker and data faults, arms each pair's hardware faults
    and trace capture, cross-checks each result, and poisons the reply
    when an ``unpicklable`` fault struck.
    """

    def __init__(
        self,
        armed: Tuple[FaultSpec, ...],
        *,
        lo: int,
        cross_check: bool,
        hang_seconds: float,
        slow_seconds: float,
    ):
        self.armed = armed
        self.lo = lo
        self.cross_check = cross_check
        self.hang_seconds = hang_seconds
        self.slow_seconds = slow_seconds
        self.unfired: List[int] = []
        self.poison = False

    def enact(self, pairs: Sequence[Tuple[str, str]]) -> List[Tuple[str, str]]:
        """Strike the worker faults, then corrupt a copy of the pairs."""
        for spec in self.armed:
            if spec.layer == "worker":
                marker = apply_worker_fault(
                    spec,
                    hang_seconds=self.hang_seconds,
                    slow_seconds=self.slow_seconds,
                )
                self.poison = self.poison or marker == "unpicklable"
        pairs = list(pairs)
        for spec in self.armed:
            if spec.layer != "data":
                continue
            offset = spec.pair_index - self.lo
            pattern, text = pairs[offset]
            mutated = corrupt_pair(spec, pattern, text)
            if mutated != (pattern, text):
                pairs[offset] = mutated
            else:
                self.unfired.append(spec.fault_id)
        return pairs

    @contextlib.contextmanager
    def striking(self, aligner: Aligner, offset: int) -> Iterator[Optional[List]]:
        """Arm one pair's hardware faults and trace capture around its alignment."""
        injectors = [
            HardwareFaultInjector(spec)
            for spec in self.armed
            if spec.layer == "hardware" and spec.pair_index - self.lo == offset
        ]
        with _trace_capture(aligner, self.cross_check) as traces:
            if injectors:
                with fault_injection(FaultHookChain(injectors)):
                    yield traces
            else:
                yield traces
        self.unfired.extend(
            injector.spec.fault_id for injector in injectors
            if not injector.fired
        )

    def vet(
        self,
        aligner: Aligner,
        pattern: str,
        text: str,
        result: AlignmentResult,
        index: int,
        traces: Optional[List],
    ) -> None:
        """Cross-check one result: BPM score, alignment score, trace.

        Raises :class:`CrossCheckError` on any disagreement; a no-op
        unless the batch asked for cross-checks.
        """
        if not self.cross_check:
            return
        if result.exact:
            from ..baselines.bpm import BpmAligner

            reference = BpmAligner().align(pattern, text, traceback=False)
            if reference.score != result.score:
                raise CrossCheckError(
                    f"pair {index}: score {result.score} disagrees with "
                    f"BPM reference {reference.score}"
                )
        if result.alignment is not None and result.alignment.score != result.score:
            raise CrossCheckError(
                f"pair {index}: alignment score {result.alignment.score} "
                f"!= result score {result.score}"
            )
        if traces:
            tile_size = getattr(aligner, "tile_size", None)
            if tile_size:
                from ..analysis import verify_trace
                from ..analysis.diagnostics import Severity

                for pass_index, events in enumerate(traces):
                    diagnostics = verify_trace(
                        events,
                        tile_size=tile_size,
                        label=f"pair{index}.{pass_index}",
                    )
                    errors = [
                        d for d in diagnostics if d.severity is Severity.ERROR
                    ]
                    if errors:
                        raise CrossCheckError(
                            f"pair {index}: program verifier: "
                            f"{errors[0].code} {errors[0].message}"
                        )

    def deliver(self, reply: ShardReply):
        """The attempt's reply, carrying the faults that changed nothing."""
        reply.unfired = tuple(self.unfired)
        return _PoisonedReply(reply) if self.poison else reply


def _classify(item: ShardItem, future: Future):
    """Map a finished attempt's future to a reply or a :class:`_ShardFailure`."""
    where = f"shard [{item.lo},{item.hi})"
    try:
        value = future.result()
    except TaskTimeout as exc:
        return _ShardFailure("timeout", f"{where}: {exc}")
    except WorkerLost as exc:
        return _ShardFailure("crash", f"{where}: {exc}")
    except UnpicklableReply as exc:
        return _ShardFailure("unpicklable", f"{where}: {exc}")
    except (CrossCheckError, AlignmentError) as exc:
        return _ShardFailure("cross-check", str(exc))
    except FaultError as exc:
        return _ShardFailure("crash", str(exc))
    except Exception as exc:  # noqa: BLE001 - any other attempt failure
        return _ShardFailure("exception", f"{type(exc).__name__}: {exc}")
    if isinstance(value, _PoisonedReply):  # inline: nothing was pickled
        return _ShardFailure(
            "unpicklable", f"{where} reply poisoned (injected)"
        )
    return value


_FAILURE_COUNTERS = {
    "timeout": "timeouts",
    "crash": "crashes",
    "exception": "crashes",
    "unpicklable": "crashes",
    "cross-check": "cross_check_mismatches",
    "data": "data_faults",
}




class ResiliencePolicy(FailFast):
    """Retry, bisection, fallback, quarantine and the journal, as a policy.

    The batch loop (:func:`repro.align.parallel.run_batch`) calls it the
    way it calls :class:`~repro.align.parallel.FailFast`: it arms each
    attempt's planned faults, replays journalled items, and turns every
    finished attempt into completed runs or items to queue again.
    """

    span = "batch.align_resilient"
    result_type = ResilientBatchResult

    def __init__(
        self,
        *,
        cross_check: bool,
        retry: RetryPolicy,
        timeout: Optional[float],
        slow_threshold: Optional[float],
        plan: Optional[FaultPlan],
        journal: Optional[CheckpointJournal],
        fallback: Optional[Aligner],
        traceback: bool,
        validate: bool,
    ):
        self.cross_check = cross_check
        self.retry = retry
        self.timeout = timeout
        self.slow_threshold = slow_threshold
        self.plan = plan
        self.journal = journal
        self._fallback = fallback
        self.traceback = traceback
        self.validate = validate or cross_check
        self.counters = ResilienceCounters()
        self.ledger: Dict[int, FaultRecord] = {
            spec.fault_id: FaultRecord(spec=spec)
            for spec in (plan.faults if plan else ())
        }
        self._untriggered = set(self.ledger)
        self._injected: set = set()
        self._quarantined: Dict[int, List[QuarantinedPair]] = {}
        self.hang_seconds = 0.5
        self.slow_seconds = 0.05

    # -- set-up -------------------------------------------------------------

    def executor(self, pool: WorkerPool, workers: int) -> str:
        return f"resilient-{pool.method or 'inline'}"

    def bind(self, aligner: Aligner, pool: WorkerPool) -> Aligner:
        inline = not pool.process_mode
        if self.timeout is not None:
            self.hang_seconds = self.timeout * (1.2 if inline else 3.0)
            self.slow_seconds = self.timeout * 0.6
        if inline and self.plan is not None and _pickling_failure(aligner) is None:
            # Every process-mode attempt carries its own pickled copy of the
            # aligner; inline, one copy keeps injected state out of the
            # caller's aligner.
            return pickle.loads(pickle.dumps(aligner))
        return aligner

    # -- arming and resume --------------------------------------------------

    def task(self, item: ShardItem, task: ShardTask) -> ShardTask:
        """Arm the faults that strike this attempt (transient: once)."""
        armed = []
        for spec in self.plan.for_pairs(item.lo, item.hi) if self.plan else ():
            if spec.persistent:
                armed.append(spec)
            elif spec.fault_id in self._untriggered:
                self._untriggered.discard(spec.fault_id)
                armed.append(spec)
        for spec in armed:
            if spec.fault_id not in self._injected:
                self._injected.add(spec.fault_id)
                self.counters.faults_injected += 1
            record = self.ledger[spec.fault_id]
            if record.outcome == "planned":
                record.outcome = "armed"
        item.armed = tuple(armed)
        return replace(task, validate=self.validate, guard=_AttemptGuard(
            item.armed,
            lo=item.lo,
            cross_check=self.cross_check,
            hang_seconds=self.hang_seconds,
            slow_seconds=self.slow_seconds,
        ))

    def resume(self, item: ShardItem) -> Optional[ShardDone]:
        """Replay the item from the journal when already completed."""
        if self.journal is None:
            return None
        stored = self.journal.lookup(
            item.lo, item.hi, shard_checksum(item.pairs)
        )
        if stored is None:
            return None
        results, quarantined = stored
        self.counters.shards_resumed += 1
        obs.inc("resilience.shards_resumed")
        if self.plan is not None:
            for spec in self.plan.for_pairs(item.lo, item.hi):
                record = self.ledger[spec.fault_id]
                if record.outcome == "planned":
                    record.outcome = "resumed"
                    record.detail = "shard replayed from checkpoint journal"
                self._untriggered.discard(spec.fault_id)
        if quarantined:
            self._quarantined[item.lo] = [
                QuarantinedPair(**entry) for entry in quarantined
            ]
        return ShardDone(item.lo, item.hi, results, worker="journal")

    # -- outcome handling ---------------------------------------------------

    def settle(self, item: ShardItem, future: Future, inline: bool) -> list:
        outcome = _classify(item, future)
        if (
            isinstance(outcome, ShardReply)
            and outcome.checksum != shard_checksum(item.pairs)
        ):
            outcome = _ShardFailure(
                "data",
                f"shard [{item.lo},{item.hi}) input checksum mismatch "
                f"(corrupted in flight)",
            )
        if isinstance(outcome, _ShardFailure):
            return self._on_failure(item, outcome)
        return [self._on_success(item, outcome, inline)]

    def _on_success(
        self, item: ShardItem, reply: ShardReply, inline: bool
    ) -> ShardDone:
        slow_hit = (
            self.slow_threshold is not None
            and reply.elapsed > self.slow_threshold
        )
        if slow_hit:
            self.counters.slow_shards += 1
        for spec in item.armed:
            record = self.ledger[spec.fault_id]
            if spec.fault_id in reply.unfired:
                record.outcome = "masked"
                record.detail = "armed but changed nothing"
            elif spec.layer == "worker" and spec.kind == "slow":
                if slow_hit:
                    record.outcome = "detected"
                    record.detail = f"slow shard ({reply.elapsed:.3f}s)"
                    self.counters.faults_detected += 1
                else:
                    record.outcome = "silent"
                    record.detail = "slept below the slow threshold"
            else:
                record.outcome = "silent"
                record.detail = "corrupted a value but every check passed"
        return self._complete(item, shard_done(item, reply, inline))

    def _on_failure(self, item: ShardItem, failure: _ShardFailure) -> list:
        counter = _FAILURE_COUNTERS.get(failure.kind, "crashes")
        setattr(
            self.counters, counter, getattr(self.counters, counter) + 1
        )
        obs.inc(f"resilience.{counter}")
        if item.armed:
            self.counters.faults_detected += len(item.armed)
        item.attempt += 1
        if item.attempt <= self.retry.max_retries:
            self.counters.retries += 1
            obs.inc("resilience.retries")
            for spec in item.armed:
                record = self.ledger[spec.fault_id]
                record.outcome = "retried"
                record.detail = f"{failure.kind}: {failure.detail}"
            item.ready_at = time.monotonic() + self.retry.delay(
                item.lo, item.attempt
            )
            return [item]
        if item.hi - item.lo > 1:
            self.counters.bisections += 1
            split = len(item.pairs) // 2
            now = time.monotonic()
            return [
                ShardItem(item.lo, item.pairs[:split], ready_at=now),
                ShardItem(item.lo + split, item.pairs[split:], ready_at=now),
            ]
        return [self._degrade(item, failure)]

    def _degrade(self, item: ShardItem, failure: _ShardFailure) -> ShardDone:
        pattern, text = item.pairs[0]
        targeting = (
            self.plan.for_pairs(item.lo, item.hi) if self.plan else ()
        )
        try:
            result = self.fallback.align(
                pattern, text, traceback=self.traceback
            )
            if self.validate and result.alignment is not None:
                result.alignment.validate()
        except Exception as exc:
            self.counters.quarantined_pairs += 1
            obs.inc("resilience.quarantined_pairs")
            reason = (
                f"primary: {failure.kind}: {failure.detail}; fallback "
                f"{type(self.fallback).__name__}: "
                f"{type(exc).__name__}: {exc}"
            )
            for spec in targeting:
                record = self.ledger[spec.fault_id]
                record.outcome = "quarantined"
                record.detail = reason
            return self._complete(
                item,
                ShardDone(item.lo, item.hi, [], worker="quarantine"),
                [QuarantinedPair(
                    index=item.lo, pattern=pattern, text=text, reason=reason,
                )],
            )
        self.counters.fallbacks += 1
        obs.inc("resilience.fallbacks")
        for spec in targeting:
            record = self.ledger[spec.fault_id]
            record.outcome = "degraded"
            record.detail = (
                f"pair recovered via {type(self.fallback).__name__} after "
                f"{failure.kind}"
            )
        return self._complete(
            item, ShardDone(item.lo, item.hi, [result], worker="fallback")
        )

    @property
    def fallback(self) -> Aligner:
        if self._fallback is None:
            from ..baselines.bpm import BpmAligner

            self._fallback = BpmAligner()
        return self._fallback

    def _complete(
        self,
        item: ShardItem,
        done: ShardDone,
        quarantined: Sequence[QuarantinedPair] = (),
    ) -> ShardDone:
        """Keep a completed item's quarantine and journal it."""
        if quarantined:
            self._quarantined[item.lo] = list(quarantined)
        if self.journal is not None:
            self.journal.record(
                item.lo,
                item.hi,
                shard_checksum(item.pairs),
                done.results,
                [entry.to_dict() for entry in quarantined],
            )
            self.counters.checkpoints_written += 1
        return done

    def finish(self, batch: ResilientBatchResult, telemetry: BatchTelemetry) -> None:
        batch.quarantined = [
            entry
            for lo in sorted(self._quarantined)
            for entry in self._quarantined[lo]
        ]
        batch.ledger = [
            self.ledger[fault_id] for fault_id in sorted(self.ledger)
        ]
        telemetry.resilience = self.counters
        obs.inc("batch.resilient_runs")


def align_batch_resilient(
    aligner: Aligner,
    pairs: Iterable[PairLike],
    *,
    workers: int = 1,
    shard_size: Optional[int] = None,
    traceback: bool = True,
    validate: bool = False,
    cross_check: bool = False,
    max_retries: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    slow_threshold: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    journal_meta: Optional[dict] = None,
    fallback: Optional[Aligner] = None,
    start_method: Optional[str] = None,
) -> ResilientBatchResult:
    """Align a batch under supervision: deadlines, retries, quarantine.

    A healthy run returns results, stats and ordering byte-identical to
    :func:`repro.align.batch.align_batch` run serially; so does a run
    whose faults are all transient (each planned fault fires at most
    once, the struck attempts are retried on healthy hardware).

    Args:
        workers: processes in the batch's warm
            :class:`~repro.align.parallel.WorkerPool` (1 = supervised
            inline execution with the same retry/degradation semantics).
        shard_size: pairs per shard (default ``DEFAULT_SHARD_SIZE``).
        cross_check: independently verify every result — BPM score
            comparison, alignment replay validation, and (for tracing
            GMX aligners) the static program verifier.  This is the
            detection layer for silent compute corruption.
        max_retries: attempts after the first, per work item
            (overrides ``retry.max_retries``).
        shard_timeout: per-attempt deadline in seconds.  In process mode
            the pool kills the attempt's worker at the deadline; inline
            attempts are rejected after the fact.  Defaults to
            :data:`DEFAULT_CHAOS_TIMEOUT` when a fault plan is present.
        slow_threshold: elapsed seconds above which a successful shard
            counts as *slow* (default: half the deadline).
        retry: full backoff policy (see :class:`RetryPolicy`).
        fault_plan: planned faults to inject (chaos campaigns).
        checkpoint: journal path for checkpoint/resume
            (:mod:`.checkpoint`); an existing journal written by the same
            aligner configuration is resumed from automatically.
        journal_meta: extra provenance merged into the journal header —
            callers whose work depends on more than the aligner and
            traceback flag (e.g. the stream pipeline's chunk geometry)
            add it here so a journal written under different parameters
            is rejected on resume instead of silently replayed.
        fallback: aligner of last resort for poison pairs (default BPM).
        start_method: force a multiprocessing start method.

    Returns:
        A :class:`ResilientBatchResult`; ``telemetry.resilience`` holds
        the :class:`~repro.align.base.ResilienceCounters`, ``ledger``
        accounts for every planned fault, and ``quarantined`` lists any
        pairs the degradation chain gave up on.
    """
    if retry is None:
        retry = RetryPolicy()
    if max_retries is not None:
        retry = replace(retry, max_retries=max_retries)
    if retry.max_retries < 0:
        raise ValueError(
            f"max_retries must be >= 0, got {retry.max_retries}"
        )
    if shard_timeout is None and fault_plan is not None:
        shard_timeout = DEFAULT_CHAOS_TIMEOUT
    if slow_threshold is None and shard_timeout is not None:
        slow_threshold = shard_timeout * 0.5
    journal = None
    if checkpoint is not None:
        journal = CheckpointJournal(checkpoint, journal_header(
            aligner,
            traceback=traceback,
            plan=fault_plan.fingerprint if fault_plan else None,
            extra=journal_meta,
        ))
    return run_batch(
        aligner, pairs,
        workers=workers, shard_size=shard_size,
        traceback=traceback, validate=validate,
        start_method=start_method,
        policy=ResiliencePolicy(
            cross_check=cross_check,
            retry=retry,
            timeout=shard_timeout,
            slow_threshold=slow_threshold,
            plan=fault_plan,
            journal=journal,
            fallback=fallback,
            traceback=traceback,
            validate=validate,
        ),
        caller="align_batch_resilient",
    )
