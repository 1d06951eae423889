"""Span recorder for the traced benchmark run.

The traced run wraps calls into each layer's public functions (see
:func:`layer_targets`) and records, per span name, how often it ran, its
total time and its *self* time: the span's duration minus the part of it
that child spans on the same thread cover.

Accumulators live in an anonymous shared memory map, so pool workers
forked after :func:`instrumented` is entered add their spans to the same
table as the parent.  Each thread keeps its own span stack; a span opened
on one thread is never the parent of a span on another.
"""

from __future__ import annotations

import functools
import mmap
import multiprocessing
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Accumulator fields per name: count, total seconds, self seconds.
_FIELDS = 3


@dataclass(frozen=True)
class SpanTotals:
    """What one span name accumulated."""

    count: float = 0.0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span and counter accumulators shared by a process and its forks.

    Args:
        names: every span or counter name the run may record.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self.names: Tuple[str, ...] = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("span names must be unique")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._map = mmap.mmap(-1, 8 * _FIELDS * max(1, len(self.names)))
        self._cells = memoryview(self._map).cast("d")
        self._lock = multiprocessing.get_context("fork").Lock()
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one span called ``name``."""
        base = _FIELDS * self._index[name]
        stack = self._stack()
        frame = [0.0]  # seconds covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                self._cells[base] += 1
                self._cells[base + 1] += elapsed
                self._cells[base + 2] += elapsed - frame[0]

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to the count of counter ``name``."""
        base = _FIELDS * self._index[name]
        with self._lock:
            self._cells[base] += amount

    def reset(self) -> None:
        with self._lock:
            for i in range(len(self._cells)):
                self._cells[i] = 0.0

    def snapshot(self) -> Dict[str, SpanTotals]:
        with self._lock:
            values = list(self._cells)
        return {
            name: SpanTotals(*values[_FIELDS * i:_FIELDS * i + _FIELDS])
            for i, name in enumerate(self.names)
        }

    def close(self) -> None:
        self._cells.release()
        self._map.close()

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def wrap_iterator(self, fn: Callable, name: str) -> Callable:
        """``fn`` returning an iterator whose every step is span ``name``.

        The wait for each item, not the iterator's creation, is the work
        (a FASTA block read, a pool result arriving).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                with self.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return wrapper


#: A patch point: (owner object, attribute, wrapper factory).
Target = Tuple[object, str, Callable[[Tracer, Callable], Callable]]


def _span(name: str):
    return lambda tracer, fn: tracer.wrap(fn, name)


def _iter_span(name: str):
    return lambda tracer, fn: tracer.wrap_iterator(fn, name)


def _full_matrix(tracer: Tracer, fn: Callable) -> Callable:
    """Span ``backends.full_matrix`` that also counts DP cells swept."""
    timed = tracer.wrap(fn, "backends.full_matrix")

    @functools.wraps(fn)
    def wrapper(self, request):
        tracer.add(
            "backends.cells",
            len(request.pattern) * sum(len(c) for c in request.t_chunks),
        )
        return timed(self, request)

    return wrapper


def _cache_lookup(tracer: Tracer, fn: Callable) -> Callable:
    """Span ``serve.cache_lookup`` that also counts hits."""
    timed = tracer.wrap(fn, "serve.cache_lookup")

    @functools.wraps(fn)
    def wrapper(self, key):
        entry = timed(self, key)
        if entry is not None:
            tracer.add("serve.cache_hits", 1)
        return entry

    return wrapper


#: Every span and counter name the patch points below record.
SPAN_NAMES = (
    "batch.align_batch",
    "parallel.align_batch_sharded",
    "parallel.imap",
    "parallel.submit",
    "full_gmx.align",
    "backends.full_matrix",
    "backends.cells",
    "core.gmx_tb",
    "serve.align_pairs",
    "serve.cache_lookup",
    "serve.cache_hits",
    "stream.stream_align_fasta",
    "seqio.fasta_blocks",
    "windows.scan_window",
    "stream.chunk_align",
    "stream.stitch_submit",
    "stream.stitch_finish",
)


def layer_targets() -> List[Target]:
    """The public functions of each layer that the traced run wraps.

    Callers must reach module-level functions through their module
    (``repro.align.batch.align_batch``) for the patch to apply.
    """
    import repro.align.batch as batch
    import repro.align.parallel as parallel
    import repro.stream.pipeline as pipeline
    import repro.workloads.seqio as seqio
    from repro.align.backends import get_backend
    from repro.align.full_gmx import FullGmxAligner
    from repro.baselines.edlib_like import EdlibAligner
    from repro.core.isa import GmxIsa
    from repro.mapper.windows import QuerySketch
    from repro.serve.cache import AlignmentCache
    from repro.serve.service import AlignmentService
    from repro.stream.stitch import Stitcher

    return [
        (batch, "align_batch", _span("batch.align_batch")),
        (parallel, "align_batch_sharded",
         _span("parallel.align_batch_sharded")),
        (parallel.WorkerPool, "imap", _iter_span("parallel.imap")),
        (parallel.WorkerPool, "submit", _span("parallel.submit")),
        (FullGmxAligner, "align", _span("full_gmx.align")),
        (type(get_backend("bitpar")), "full_matrix", _full_matrix),
        (GmxIsa, "gmx_tb", _span("core.gmx_tb")),
        (AlignmentService, "align_pairs", _span("serve.align_pairs")),
        (AlignmentCache, "lookup", _cache_lookup),
        (pipeline, "stream_align_fasta",
         _span("stream.stream_align_fasta")),
        (seqio, "iter_fasta_blocks", _iter_span("seqio.fasta_blocks")),
        (QuerySketch, "scan_window", _span("windows.scan_window")),
        (EdlibAligner, "align", _span("stream.chunk_align")),
        (Stitcher, "submit", _span("stream.stitch_submit")),
        (Stitcher, "finish", _span("stream.stitch_finish")),
    ]


_MISSING = object()


@contextmanager
def instrumented(tracer: Tracer, targets: Sequence[Target]) -> Iterator[None]:
    """Patch every target with its wrapper; restore all on exit."""
    saved = []
    try:
        for owner, attribute, factory in targets:
            own = vars(owner).get(attribute, _MISSING)
            saved.append((owner, attribute, own))
            setattr(owner, attribute, factory(tracer, getattr(owner, attribute)))
        yield
    finally:
        for owner, attribute, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
