"""Alignment-as-a-service: warm pools, coalescing, content-addressed cache.

The serving subsystem turns the batch alignment engine into a long-lived
service: a warm :class:`~repro.align.parallel.WorkerPool` paid for once at
startup, a micro-batching :class:`~repro.serve.coalescer.Coalescer` that
packs concurrent requests into shards, a content-addressed
:class:`~repro.serve.cache.AlignmentCache`, admission control with
back-pressure (429 + ``Retry-After``), and crash recovery that re-executes
a shard whose worker died.  See ``docs/serving.md``.
"""

from ..align.base import aligner_fingerprint
from .cache import AlignmentCache, CachedAlignment, CacheError, pair_key
from .coalescer import Coalescer, CoalescerError, PendingPair
from .http import (
    AlignmentHTTPServer,
    AlignmentRequestHandler,
    RequestError,
    running_server,
)
from .service import (
    AlignmentService,
    ServeConfig,
    ServeError,
    ServeResult,
    ServiceClosedError,
    ServiceSaturatedError,
)

__all__ = [
    "AlignmentCache",
    "AlignmentHTTPServer",
    "AlignmentRequestHandler",
    "AlignmentService",
    "CacheError",
    "CachedAlignment",
    "Coalescer",
    "CoalescerError",
    "PendingPair",
    "RequestError",
    "ServeConfig",
    "ServeError",
    "ServeResult",
    "ServiceClosedError",
    "ServiceSaturatedError",
    "aligner_fingerprint",
    "pair_key",
    "running_server",
]
