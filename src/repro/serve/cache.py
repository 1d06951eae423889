"""Content-addressed LRU cache for alignment results.

Identical alignment requests are pure recomputation: the same (pattern,
text) pair through the same kernel with the same parameters always
produces the same score, CIGAR, and :class:`~repro.align.base.KernelStats`
— the byte-identity guarantee the conformance suites prove.  The serving
layer therefore keys a bounded LRU on the **content address** of a
request — the SHA-256 of (pattern, text, aligner fingerprint, traceback
flag) — and answers repeats from memory, the Scrooge-style work avoidance
that turns hot pairs into O(1) lookups.

Properties the cache guarantees:

* **Exactness** — a hit returns the same score/CIGAR/stats a cold miss
  computes, down to the stats Counter (entries are immutable; callers get
  stat *copies*, so no consumer can corrupt a cached record).
* **Deterministic eviction** — strict LRU over an ``OrderedDict``: the
  least recently *used* (hit or stored) key is evicted first, so a replayed
  request sequence evicts in exactly the same order.
* **Thread safety** — one lock around every operation; the HTTP layer
  hits the cache from many handler threads.

Hit/miss/eviction counters feed the ``/metrics`` endpoint.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from ..align.base import AlignmentResult, KernelStats


class CacheError(ValueError):
    """Raised on cache API misuse (negative capacity, bad key material)."""


def pair_key(
    pattern: str,
    text: str,
    *,
    fingerprint: str,
    traceback: bool = True,
) -> str:
    """SHA-256 content address of one alignment request.

    The preimage concatenates the aligner fingerprint, the traceback
    mode, and both sequences with an unambiguous separator (``\\x1f``
    cannot occur in sequence alphabets), so distinct requests can never
    collide structurally — only cryptographically.
    """
    preimage = "\x1f".join(
        (fingerprint, "tb" if traceback else "dist", pattern, text)
    )
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CachedAlignment:
    """Immutable cached outcome of one alignment request.

    Holds exactly what the serving layer returns: the functional result
    (score, CIGAR, span) plus the kernel's dynamic stats.  The embedded
    :class:`KernelStats` must never be handed out mutable — use
    :meth:`stats_copy`.
    """

    score: int
    cigar: str
    exact: bool
    text_start: int
    text_end: Optional[int]
    stats: KernelStats

    @classmethod
    def from_result(cls, result: AlignmentResult) -> "CachedAlignment":
        return cls(
            score=result.score,
            cigar=result.cigar,
            exact=result.exact,
            text_start=result.text_start,
            text_end=result.text_end,
            stats=result.stats.copy(),
        )

    def stats_copy(self) -> KernelStats:
        """An independent copy of the cached stats (safe to merge/mutate)."""
        return self.stats.copy()


class AlignmentCache:
    """Bounded, thread-safe, content-addressed LRU of alignment results.

    ``capacity=0`` disables the cache entirely (every lookup misses and
    nothing is stored) — the configuration knob for cache-off serving.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise CacheError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedAlignment]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: str) -> Optional[CachedAlignment]:
        """The cached entry for ``key`` (marking it most-recently-used).

        Counts a hit or a miss; a disabled cache (capacity 0) always
        misses.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: str, entry: CachedAlignment) -> None:
        """Insert (or refresh) ``key``; evicts strict-LRU past capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def keys(self) -> List[str]:
        """Keys in LRU order (least recently used first) — test hook."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """JSON-ready gauge block for ``/metrics``."""
        with self._lock:
            size = len(self._entries)
        return {
            "capacity": self.capacity,
            "size": size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }
