"""The four workloads: set-up, a timed measurement and a traced run.

Each workload exposes the same three steps:

* :meth:`setup` generates the seeded inputs and starts the program (pool,
  server), warm; it returns its raw and host-normalised durations.
* :meth:`measure` runs with tracing off for the given seconds, checks
  every output and returns the end-to-end metrics.
* :meth:`trace` runs half the time untraced and half traced (layer
  functions wrapped, see :mod:`bench.spans`) and returns the per-layer
  metrics and the layer table.

Reported times are host-normalised (see :mod:`bench.hostspeed`); the raw
values travel beside them in ``Measurement.raw``.  Per-layer metrics that
a workload's path does not reach read 0 (``stream.*`` on ``short-pool``).
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.align.batch as batch_api
import repro.align.parallel as parallel_api
import repro.stream.pipeline as stream_api
from repro.align.base import KernelStats
from repro.align.full_gmx import FullGmxAligner
from repro.align.parallel import WorkerPool
from repro.baselines.bpm import BpmAligner
from repro.baselines.nw import NeedlemanWunschAligner
from repro.serve import AlignmentService, ServeConfig, running_server
from repro.sim.core_model import estimate_kernel
from repro.sim.soc import GEM5_OOO

from . import hostspeed, inputs
from .checks import check_alignment, check_score, check_served, check_stream
from .loadgen import Outcome, run_phase
from .report import Frame, median, percentile, ratio, unattributed_share
from .spans import SpanTotals, Tracer, instrumented, layer_targets

#: Workers of every pool the benchmark starts.
WORKERS = 2
#: Kernel backend of every Full(GMX) aligner the benchmark builds.
BACKEND = "bitpar"
#: Fewest timed calls a measurement makes, however slow the program.
MIN_CALLS = 5


def full_gmx() -> FullGmxAligner:
    return FullGmxAligner(backend=BACKEND)


def modelled(stats: KernelStats) -> Dict[str, float]:
    """Instructions and gem5-OoO cycles the cycle model assigns ``stats``.

    Modelled counts depend only on the inputs, never on host speed.
    """
    estimate = estimate_kernel(stats, GEM5_OOO.core, GEM5_OOO.memory)
    return {
        "sim.instructions": float(stats.total_instructions),
        "sim.modelled_cycles": float(estimate.cycles),
    }


def peak_mb(fn: Callable[[], object]) -> float:
    """Peak traced Python allocation while ``fn`` runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def calibrated(fn: Callable[[], object]) -> Tuple[float, float]:
    """Raw and host-normalised seconds of ``fn()``."""
    before = hostspeed.kernel_seconds()
    begin = time.perf_counter()
    fn()
    seconds = time.perf_counter() - begin
    return seconds, seconds * hostspeed.factor(
        before, hostspeed.kernel_seconds())


def scale_times(metrics: Dict[str, float], speed: float) -> Dict[str, float]:
    """Host-normalise every time-valued metric (``*_s``, ``*_ms``)."""
    return {
        name: value * speed if name.endswith(("_s", "_ms")) else value
        for name, value in metrics.items()
    }


@dataclass
class Measurement:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    frames: List[Frame] = field(default_factory=list)
    raw: Dict[str, float] = field(default_factory=dict)


@dataclass
class CallRecord:
    """One timed user call and the verdict of its output check.

    ``speed`` turns the call's raw ``seconds`` into normalised seconds.
    """

    seconds: float
    pairs: int
    bases: int
    failures: int
    extra: Dict[str, float] = field(default_factory=dict)
    speed: float = 1.0


def call_metrics(records: Sequence[CallRecord],
                 normalise: bool = True) -> Dict[str, float]:
    """End-to-end metrics of a call loop, each call one request."""
    def seconds(record: CallRecord) -> float:
        return record.seconds * (record.speed if normalise else 1.0)

    latencies = [seconds(r) for r in records]
    return {
        "pairs_per_s": median([r.pairs / seconds(r) for r in records]),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
        "latency_p95_ms": 1e3 * percentile(latencies, 0.95),
        "saturated_rps": len(records) / sum(latencies),
        "ref_bases_per_s": median([r.bases / seconds(r) for r in records]),
    }


def mean_speed(records: Sequence[CallRecord]) -> float:
    return ratio(sum(r.seconds * r.speed for r in records),
                 sum(r.seconds for r in records))


#: Per-layer metrics only some workloads fill in; the rest report 0.
ZERO_LAYERS = (
    "parallel.shard_busy_s", "parallel.idle_ipc_s", "parallel.utilization",
    "parallel.shards", "serve.http_s", "serve.service_s",
    "serve.cache.hit_ratio", "serve.coalesce.pairs_per_batch",
    "serve.rejected", "serve.generator_late_ms",
)


def layer_metrics(spans: Dict[str, SpanTotals], calls: int) -> Dict[str, float]:
    """Per-call layer metrics every workload reports (0 where unused)."""
    def per_call(value: float) -> float:
        return ratio(value, calls)

    chunks = spans["windows.scan_window"].count
    jobs = spans["stream.chunk_align"].count
    metrics = dict.fromkeys(ZERO_LAYERS, 0.0)
    metrics.update({
        "backends.full_matrix_s": per_call(spans["backends.full_matrix"].self_s),
        "backends.cells": per_call(spans["backends.cells"].count),
        # Aligner.align outside full_matrix: the traceback, gmx_tb included.
        "full_gmx.traceback_s": per_call(
            spans["full_gmx.align"].self_s + spans["core.gmx_tb"].self_s),
        "core.gmx_tb_s": per_call(spans["core.gmx_tb"].self_s),
        "core.gmx_tb_calls": per_call(spans["core.gmx_tb"].count),
        "stream.scan_s": per_call(
            spans["stream.stream_align_fasta"].self_s
            + spans["seqio.fasta_blocks"].self_s
            + spans["windows.scan_window"].self_s),
        "stream.fasta_s": per_call(spans["seqio.fasta_blocks"].self_s),
        "stream.sketch_s": per_call(spans["windows.scan_window"].self_s),
        "stream.align_s": per_call(spans["stream.chunk_align"].self_s),
        "stream.stitch_s": per_call(
            spans["stream.stitch_submit"].self_s
            + spans["stream.stitch_finish"].self_s),
        "stream.chunks": per_call(chunks),
        "stream.jobs": per_call(jobs),
        "stream.job_ratio": ratio(jobs, chunks),
    })
    return metrics


class Workload:
    """Shared driver of the three call-loop workloads.

    Subclasses generate inputs in :meth:`build`, start the program in
    :meth:`start`, and perform and check one timed user call in
    :meth:`call`.
    """

    name = ""

    def __init__(self, seconds: float, workdir: Path,
                 trace_mode: bool = False) -> None:
        self.seconds = seconds
        self.workdir = workdir
        self._expected = None

    # -- hooks -----------------------------------------------------------

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Start program resources and warm them (part of set-up)."""

    def stop(self) -> None:
        """Release program resources (idempotent)."""

    def expect(self):
        """Oracle outputs for the check, computed untimed after set-up."""
        raise NotImplementedError

    def call(self) -> CallRecord:
        raise NotImplementedError

    def program_call(self):
        """One call of the program alone, without the check."""
        raise NotImplementedError

    def modelled_stats(self) -> KernelStats:
        """Kernel stats of the fixed unit the cycle model covers."""
        return self.program_call().stats

    def trace_frames(self, spans: Dict[str, SpanTotals],
                     records: List[CallRecord]) -> List[Frame]:
        raise NotImplementedError

    def extra_layers(self, records: List[CallRecord]) -> Dict[str, float]:
        return {}

    # -- driver ----------------------------------------------------------

    def setup(self, seed: int) -> Tuple[float, float]:
        self.stop()
        self._expected = None

        def build_and_start() -> None:
            self.build(seed)
            self.start()

        return calibrated(build_and_start)

    def teardown(self) -> None:
        self.stop()

    @property
    def expected(self):
        if self._expected is None:
            self._expected = self.expect()
        return self._expected

    def _calls(self, seconds: float) -> List[CallRecord]:
        _ = self.expected  # the oracle never runs inside the timed loop
        records: List[CallRecord] = []
        before = hostspeed.kernel_seconds()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(records) < MIN_CALLS:
            record = self.call()
            after = hostspeed.kernel_seconds()
            record.speed = hostspeed.factor(before, after)
            before = after
            records.append(record)
        return records

    def measure(self) -> Measurement:
        records = self._calls(self.seconds)
        failed = sum(1 for r in records if r.failures)
        metrics = call_metrics(records)
        metrics["peak_mem_mb"] = peak_mb(self.program_call)
        metrics["success_share"] = 1.0 - failed / len(records)
        return Measurement(metrics, len(records), failed,
                           raw=call_metrics(records, normalise=False))

    def trace(self, tracer: Tracer) -> Measurement:
        half = self.seconds / 2
        untraced = self._calls(half)
        with instrumented(tracer, layer_targets()):
            # Restart so pool workers fork with the wrappers in place.
            self.stop()
            self.start()
            tracer.reset()
            traced = self._calls(half)
            spans = tracer.snapshot()
        frames = self.trace_frames(spans, traced)
        metrics = layer_metrics(spans, len(traced))
        metrics.update(self.extra_layers(traced))
        metrics = scale_times(metrics, mean_speed(traced))
        metrics.update(modelled(self.modelled_stats()))
        metrics["bench.trace_overhead"] = ratio(
            median([r.seconds * r.speed for r in traced]),
            median([r.seconds * r.speed for r in untraced]))
        metrics["bench.unattributed_share"] = unattributed_share(frames)
        records = untraced + traced
        failed = sum(1 for r in records if r.failures)
        return Measurement(metrics, len(records), failed, frames)


def _process_frame(spans: Dict[str, SpanTotals], records: List[CallRecord],
                   names: Sequence[str]) -> Frame:
    return Frame(
        "benchmark process",
        sum(r.seconds for r in records),
        [(name, spans[name].self_s) for name in names],
    )


class ShortPool(Workload):
    """150 bp / 5% pairs with full traceback through align_batch_sharded
    on a warm 2-worker pool; one call aligns one 64-pair batch."""

    name = "short-pool"

    def __init__(self, seconds: float, workdir: Path,
                 trace_mode: bool = False) -> None:
        super().__init__(seconds, workdir)
        self.pool: Optional[WorkerPool] = None
        self.pairs: List[Tuple[str, str]] = []
        self.aligner = full_gmx()

    def build(self, seed: int) -> None:
        self.pairs = inputs.short_pairs(seed)

    def start(self) -> None:
        self.pool = WorkerPool(WORKERS).start()
        # Warm the first dispatch with a small batch: a full one would add
        # a timed call's noise to set-up.
        parallel_api.align_batch_sharded(
            self.aligner, self.pairs[:WORKERS], workers=WORKERS,
            pool=self.pool,
        )

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def program_call(self):
        return parallel_api.align_batch_sharded(
            self.aligner, self.pairs, workers=WORKERS, pool=self.pool,
        )

    def expect(self) -> List[int]:
        oracle = NeedlemanWunschAligner()
        return [oracle.align(p, t, traceback=False).score for p, t in self.pairs]

    def call(self) -> CallRecord:
        begin = time.perf_counter()
        result = self.program_call()
        seconds = time.perf_counter() - begin
        failures = len(result.results) != len(self.pairs)
        for (pattern, text), outcome, want in zip(
                self.pairs, result.results, self.expected):
            ops = outcome.alignment.ops if outcome.alignment else None
            if check_alignment(pattern, text, outcome.score, ops, want):
                failures += 1
        telemetry = result.telemetry
        return CallRecord(
            seconds, len(self.pairs), sum(len(t) for _, t in self.pairs),
            failures,
            extra={
                "wall": telemetry.wall_seconds,
                "busy": telemetry.busy_seconds,
                "shards": telemetry.shard_count,
            },
        )

    def trace_frames(self, spans, records) -> List[Frame]:
        wall = sum(r.extra["wall"] for r in records)
        busy = sum(r.extra["busy"] for r in records)
        # The worker frame's "other" works out to shard busy time outside
        # Aligner.align (result lists, stats merge).
        workers = Frame(
            f"worker slots ({WORKERS} x batch wall)",
            WORKERS * wall,
            [(name, spans[name].self_s) for name in (
                "backends.full_matrix", "core.gmx_tb", "full_gmx.align")]
            + [("parallel.idle_ipc (slots - shard busy)", WORKERS * wall - busy)],
        )
        parent = _process_frame(spans, records, (
            "parallel.align_batch_sharded", "parallel.imap"))
        return [parent, workers]

    def extra_layers(self, records) -> Dict[str, float]:
        wall = sum(r.extra["wall"] for r in records)
        busy = sum(r.extra["busy"] for r in records)
        calls = len(records)
        return {
            "parallel.shard_busy_s": busy / calls,
            "parallel.idle_ipc_s": (WORKERS * wall - busy) / calls,
            "parallel.utilization": ratio(busy, WORKERS * wall),
            "parallel.shards": sum(r.extra["shards"] for r in records) / calls,
        }


class LongScore(Workload):
    """10 kbp / 15% pairs, distance only, serial align_batch; one call
    aligns one pair."""

    name = "long-score"

    def __init__(self, seconds: float, workdir: Path,
                 trace_mode: bool = False) -> None:
        super().__init__(seconds, workdir)
        self.pairs: List[Tuple[str, str]] = []
        self.aligner = full_gmx()
        self._next = 0

    def build(self, seed: int) -> None:
        self.pairs = inputs.long_pairs(seed)
        self._next = 0

    def start(self) -> None:
        self._align(self.pairs[0])  # warm

    def _align(self, pair):
        return batch_api.align_batch(self.aligner, [pair], traceback=False)

    def expect(self) -> List[int]:
        # One word spanning the whole pattern: single-block Myers, an
        # implementation independent of the GMX tile backends.
        oracle = BpmAligner(word_size=inputs.LONG_LENGTH * 2)
        return [oracle.align(p, t, traceback=False).score for p, t in self.pairs]

    def call(self) -> CallRecord:
        index = self._next % len(self.pairs)
        self._next += 1
        pair = self.pairs[index]
        begin = time.perf_counter()
        result = self._align(pair)
        seconds = time.perf_counter() - begin
        failures = int(
            len(result.results) != 1
            or check_score(result.results[0].score, self.expected[index])
            is not None
        )
        return CallRecord(seconds, 1, len(pair[1]), failures)

    def program_call(self):
        return self._align(self.pairs[0])

    def modelled_stats(self) -> KernelStats:
        return batch_api.align_batch(
            self.aligner, self.pairs, traceback=False).stats

    def trace_frames(self, spans, records) -> List[Frame]:
        return [_process_frame(spans, records, (
            "batch.align_batch", "full_gmx.align", "backends.full_matrix",
            "core.gmx_tb"))]


class StreamScan(Workload):
    """A 3 kbp / 1.5% query planted near the far end of a 2 Mbp FASTA
    reference, aligned with serial stream_align_fasta; one call is one
    scan."""

    name = "stream-scan"

    def __init__(self, seconds: float, workdir: Path,
                 trace_mode: bool = False) -> None:
        super().__init__(seconds, workdir)
        self.input: Optional[inputs.StreamInput] = None

    def build(self, seed: int) -> None:
        self.input = inputs.stream_input(seed, self.workdir)

    def program_call(self):
        return stream_api.stream_align_fasta(
            self.input.path, self.input.query, record=self.input.record)

    def expect(self) -> int:
        return self.input.planted_edits

    def call(self) -> CallRecord:
        begin = time.perf_counter()
        result = self.program_call()
        seconds = time.perf_counter() - begin
        problem = check_stream(result.stitched, self.input.reference,
                               self.input.query, self.expected)
        return CallRecord(seconds, result.counters.jobs,
                          result.reference_length, int(problem is not None))

    def trace_frames(self, spans, records) -> List[Frame]:
        return [_process_frame(spans, records, (
            "stream.stream_align_fasta", "seqio.fasta_blocks",
            "windows.scan_window", "stream.chunk_align",
            "stream.stitch_submit", "stream.stitch_finish"))]


def serve_metrics(light: Sequence[Outcome], speeds: Sequence[float],
                  overload: Sequence[Outcome], overload_start: float,
                  overload_s: float) -> Dict[str, float]:
    """Light-phase latency (a failed request misses), each scaled by its
    ``speeds`` factor, and raw overload rates."""
    latencies = [(o.done - o.due) * speed if o.ok else float("inf")
                 for o, speed in zip(light, speeds)]
    completed = [o for o in overload
                 if o.ok and o.done - overload_start <= overload_s]
    return {
        "pairs_per_s": sum(len(o.request.pairs) for o in completed)
        / overload_s,
        "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
        "latency_p95_ms": 1e3 * percentile(latencies, 0.95),
        "saturated_rps": len(completed) / overload_s,
        "ref_bases_per_s": sum(
            len(text) for o in completed for _, text in o.request.pairs
        ) / overload_s,
    }


class ServeMixed:
    """An open loop against a real AlignmentHTTPServer with 2 keep-alive
    connections: a ``light`` phase at a fixed rate well under capacity,
    then an ``overload`` phase offered more than capacity.

    A request spans the benchmark process and both pool workers, so
    light-phase latencies are host-normalised by a
    :class:`~bench.hostspeed.Sampler` running beside the requests, from
    its samples taken while no request was in flight.  The overload rates
    stay raw: with requests always in flight there are no idle samples.
    """

    name = "serve-mixed"

    #: Offered request rates (requests/s) of the two phases.
    LIGHT_RATE = 15.0
    OVERLOAD_RATE = 60.0
    #: Leading light-schedule requests whose pairs the cycle model covers.
    MODELLED_REQUESTS = 32
    #: Cached requests replayed while the serving process's peak is taken.
    PEAK_REQUESTS = 16

    def __init__(self, seconds: float, workdir: Path,
                 trace_mode: bool = False) -> None:
        if trace_mode:
            # light untraced, then light and overload traced
            self.light_s, self.overload_s = 0.35 * seconds, 0.3 * seconds
        else:
            self.light_s, self.overload_s = 0.7 * seconds, 0.3 * seconds
        self.seed = 0
        self.light: List[inputs.Request] = []
        self.overload: List[inputs.Request] = []
        self._stack: Optional[contextlib.ExitStack] = None
        self.service: Optional[AlignmentService] = None
        self.address: Tuple[str, int] = ("", 0)
        self.aligner = full_gmx()

    def setup(self, seed: int) -> Tuple[float, float]:
        self.stop()

        def build_and_start() -> None:
            self.seed = seed
            self.light, self.overload = inputs.serve_schedule(
                seed, [(self.LIGHT_RATE, self.light_s),
                       (self.OVERLOAD_RATE, self.overload_s)])
            self.start()

        return calibrated(build_and_start)

    def start(self) -> None:
        stack = contextlib.ExitStack()
        try:
            self.service = stack.enter_context(AlignmentService(
                self.aligner, config=ServeConfig(workers=WORKERS)))
            server, _ = stack.enter_context(running_server(self.service))
            self.address = server.server_address[:2]
            # Warm the pool with a pair no schedule holds (a scheduled
            # pair's text and pattern swapped), so nothing scheduled is
            # cached before the timed phases.
            pattern, text = self.light[0].pairs[0]
            run_phase(*self.address, [inputs.Request(0.0, ((text, pattern),))],
                      connections=1)
        except BaseException:
            stack.close()
            raise
        self._stack = stack

    def stop(self) -> None:
        if self._stack is not None:
            self._stack.close()
            self._stack = None
            self.service = None

    def teardown(self) -> None:
        self.stop()

    def _play(self, requests, stop_after=None) -> List[Outcome]:
        return run_phase(*self.address, requests, connections=WORKERS,
                         stop_after=stop_after)

    def _light(self) -> Tuple[List[Outcome], List[float]]:
        """The light phase and each request's host-speed factor."""
        with hostspeed.Sampler() as sampler:
            light = self._play(self.light)
        sampler.drop_busy([(o.sent, o.done) for o in light])
        return light, [sampler.factor(o.due, o.done) for o in light]

    def _phases(self):
        light, speeds = self._light()
        overload_start = time.perf_counter()
        overload = self._play(self.overload, stop_after=self.overload_s)
        return light, speeds, overload, overload_start

    def _failures(self, outcomes: Sequence[Outcome]) -> int:
        pairs = sorted({pair for o in outcomes for pair in o.request.pairs})
        expected = dict(zip(pairs, batch_api.align_batch(
            self.aligner, pairs).results))
        failed = 0
        for outcome in outcomes:
            if not outcome.ok or len(outcome.rows) != len(outcome.request.pairs):
                failed += 1
            elif any(check_served(row, expected[pair]) for row, pair in
                     zip(outcome.rows, outcome.request.pairs)):
                failed += 1
        return failed

    def _peak_requests(self) -> None:
        replay = [inputs.Request(0.0, r.pairs)
                  for r in self.light[:self.PEAK_REQUESTS]]
        run_phase(*self.address, replay, connections=1)

    def measure(self) -> Measurement:
        light, speeds, overload, overload_start = self._phases()
        outcomes = light + overload
        failed = self._failures(outcomes)
        metrics = serve_metrics(light, speeds, overload, overload_start,
                                self.overload_s)
        # The peak over many cached requests: a single one's peak varies
        # with what the server threads allocate beside it.
        metrics["peak_mem_mb"] = peak_mb(self._peak_requests)
        metrics["success_share"] = 1.0 - failed / len(outcomes)
        raw = serve_metrics(light, [1.0] * len(light), overload,
                            overload_start, self.overload_s)
        return Measurement(metrics, len(outcomes), failed, raw=raw)

    def trace(self, tracer: Tracer) -> Measurement:
        untraced, untraced_speeds = self._light()
        with instrumented(tracer, layer_targets()):
            # Restart so pool workers fork with the wrappers in place.
            self.stop()
            self.start()
            tracer.reset()
            batches = self.service.coalescer.batches
            dispatched = self.service.coalescer.pairs_out
            light, speeds, overload, _ = self._phases()
            spans = tracer.snapshot()
            batches = self.service.coalescer.batches - batches
            dispatched = self.service.coalescer.pairs_out - dispatched
        traced = light + overload
        calls = len(traced)
        request_s = sum(o.done - o.due for o in traced)
        round_trip_s = sum(o.done - o.sent for o in traced)
        pairs_s = spans["serve.align_pairs"].total_s
        frame = Frame("request time (due to reply)", request_s, [
            ("client.generator_wait", sum(o.sent - o.due for o in traced)),
            ("serve.http (round trip - align_pairs)", round_trip_s - pairs_s),
            ("serve.align_pairs", spans["serve.align_pairs"].self_s),
            ("serve.cache_lookup", spans["serve.cache_lookup"].self_s),
        ])
        metrics = layer_metrics(spans, calls)
        metrics.update({
            "serve.http_s": (round_trip_s - pairs_s) / calls,
            "serve.service_s": spans["serve.align_pairs"].self_s / calls,
            "serve.cache.hit_ratio": ratio(
                spans["serve.cache_hits"].count,
                spans["serve.cache_lookup"].count),
            "serve.coalesce.pairs_per_batch": ratio(dispatched, batches),
            "serve.rejected": float(sum(1 for o in traced if o.status == 429)),
            "serve.generator_late_ms": 1e3 * ratio(
                sum(o.sent - o.due for o in light), len(light)),
        })
        # A schedule of exactly MODELLED_REQUESTS requests: the same
        # prefix every light schedule of this seed starts with.
        (modelled_requests,) = inputs.serve_schedule(self.seed, [(
            self.LIGHT_RATE, self.MODELLED_REQUESTS / self.LIGHT_RATE)])
        modelled_pairs = sorted({pair for r in modelled_requests
                                 for pair in r.pairs})
        metrics.update(modelled(batch_api.align_batch(
            self.aligner, modelled_pairs).stats))
        def light_latency(outcomes, factors) -> float:
            return median([(o.done - o.due) * f
                           for o, f in zip(outcomes, factors)])

        metrics["bench.trace_overhead"] = ratio(
            light_latency(light, speeds),
            light_latency(untraced, untraced_speeds))
        metrics["bench.unattributed_share"] = unattributed_share([frame])
        outcomes = untraced + traced
        return Measurement(metrics, len(outcomes), self._failures(outcomes),
                           [frame])


WORKLOADS = {
    cls.name: cls for cls in (ShortPool, LongScore, ServeMixed, StreamScan)
}
