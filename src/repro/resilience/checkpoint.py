"""Checkpoint journal: resumable progress for long batch-alignment runs.

The resilient engine periodically appends completed work items to a
JSON-lines journal.  A run that dies — the host, not just a worker — can
be restarted with the same inputs and the same journal path: every item
whose range and input checksum match the journal is replayed from disk
instead of re-aligned, and the final :class:`~repro.align.batch.BatchResult`
is identical to an uninterrupted run.

Journal layout (one JSON object per line)::

    {"kind": "repro-batch-journal", "version": 1, "aligner": ...,
     "plan": ..., "traceback": ..., **extra}              # header
    {"lo": 0, "hi": 4, "checksum": ..., "results": [...],
     "quarantined": [...]}                                # one per item

The header (:func:`journal_header`) names the run: the aligner's
:func:`~repro.align.base.aligner_fingerprint` (class *and*
configuration), the traceback flag, the fault plan's fingerprint, and
any caller provenance.  A resume whose header differs is refused.

Items are keyed by their absolute pair range ``[lo, hi)``; a stored
``checksum`` (CRC32 over the item's pristine pairs) guards against
resuming against a different dataset.  Serialised results carry the full
sequences, so alignments round-trip losslessly (``ops`` ↔ CIGAR is
reversible, and validation re-runs on load).
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..align.base import Aligner, AlignmentResult, KernelStats, aligner_fingerprint
from ..core.cigar import Alignment, cigar_to_ops

JOURNAL_KIND = "repro-batch-journal"
JOURNAL_VERSION = 1


class CheckpointError(RuntimeError):
    """The journal cannot be used (wrong kind/version, foreign dataset)."""


def journal_header(
    aligner: Aligner,
    *,
    traceback: bool,
    plan: Optional[str] = None,
    extra: Optional[dict] = None,
) -> dict:
    """The identity of a run, as its journal header records it.

    ``plan`` is the fault plan's fingerprint; ``extra`` is caller
    provenance (e.g. the stream pipeline's chunk geometry) and may not
    override the reserved keys ``aligner``, ``traceback`` and ``plan``.
    """
    meta = {
        "aligner": aligner_fingerprint(aligner),
        "traceback": traceback,
        "plan": plan,
    }
    overlap = sorted(set(meta) & set(extra or ()))
    if overlap:
        raise ValueError(
            f"journal_meta may not override reserved keys {overlap}"
        )
    meta.update(extra or {})
    return meta


def serialize_result(result: AlignmentResult) -> dict:
    """Serialise one :class:`AlignmentResult` to a JSON-safe dict."""
    stats = result.stats
    payload = {
        "score": result.score,
        "exact": result.exact,
        "text_start": result.text_start,
        "text_end": result.text_end,
        "stats": {
            "instructions": dict(stats.instructions),
            "dp_cells": stats.dp_cells,
            "dp_bytes_peak": stats.dp_bytes_peak,
            "dp_bytes_read": stats.dp_bytes_read,
            "dp_bytes_written": stats.dp_bytes_written,
            "hot_bytes": stats.hot_bytes,
            "tiles": stats.tiles,
        },
        "alignment": None,
    }
    if result.alignment is not None:
        payload["alignment"] = {
            "pattern": result.alignment.pattern,
            "text": result.alignment.text,
            "cigar": result.alignment.cigar,
            "score": result.alignment.score,
        }
    return payload


def deserialize_result(data: dict) -> AlignmentResult:
    """Rebuild an :class:`AlignmentResult` from its serialised form."""
    stats_data = data["stats"]
    stats = KernelStats(
        instructions=Counter(stats_data["instructions"]),
        dp_cells=stats_data["dp_cells"],
        dp_bytes_peak=stats_data["dp_bytes_peak"],
        dp_bytes_read=stats_data["dp_bytes_read"],
        dp_bytes_written=stats_data["dp_bytes_written"],
        hot_bytes=stats_data["hot_bytes"],
        tiles=stats_data["tiles"],
    )
    alignment = None
    if data["alignment"] is not None:
        entry = data["alignment"]
        alignment = Alignment(
            pattern=entry["pattern"],
            text=entry["text"],
            ops=tuple(cigar_to_ops(entry["cigar"])),
            score=entry["score"],
        )
    return AlignmentResult(
        score=data["score"],
        alignment=alignment,
        stats=stats,
        exact=data["exact"],
        text_start=data["text_start"],
        text_end=data["text_end"],
    )


class CheckpointJournal:
    """Append-only JSON-lines journal of completed work items.

    Args:
        path: journal file; created (with header) when absent.
        meta: header fields identifying the run (see
            :func:`journal_header`).  A pre-existing journal whose
            header disagrees raises :class:`CheckpointError` rather than
            silently mixing two runs.
    """

    def __init__(self, path: Union[str, Path], meta: dict):
        self.path = Path(path)
        self.meta = dict(meta)
        self.entries: Dict[Tuple[int, int], dict] = {}
        self.writes = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            self._load()
        else:
            header = {
                "kind": JOURNAL_KIND,
                "version": JOURNAL_VERSION,
                **self.meta,
            }
            with self.path.open("w") as handle:
                handle.write(json.dumps(header) + "\n")

    def _load(self) -> None:
        raw = self.path.read_bytes()
        lines: List[str] = []
        offsets: List[int] = []  # byte offset of each kept line
        position = 0
        for chunk in raw.splitlines(keepends=True):
            if chunk.strip():
                lines.append(chunk.decode("utf-8", "replace"))
                offsets.append(position)
            position += len(chunk)
        if not lines:
            raise CheckpointError(f"{self.path}: empty journal")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{self.path}: malformed journal header: {exc}"
            ) from exc
        if header.get("kind") != JOURNAL_KIND:
            raise CheckpointError(
                f"{self.path}: not a batch journal (kind "
                f"{header.get('kind')!r})"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                f"{self.path}: journal version {header.get('version')} "
                f"!= {JOURNAL_VERSION}"
            )
        for key, value in self.meta.items():
            if header.get(key) != value:
                raise CheckpointError(
                    f"{self.path}: journal belongs to a different run "
                    f"({key}: journal={header.get(key)!r}, run={value!r})"
                )
        body = lines[1:]
        for position_index, line in enumerate(body):
            index = position_index + 2
            try:
                entry = json.loads(line)
                lo, hi = entry["lo"], entry["hi"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                if position_index == len(body) - 1:
                    # A crash mid-append leaves exactly one torn record,
                    # and only at the tail.  Drop it — the work item it
                    # described was never acknowledged, so re-running it
                    # is safe — and truncate the file back to the last
                    # intact record so the next append starts cleanly.
                    warnings.warn(
                        f"{self.path}: dropping torn trailing journal "
                        f"entry at line {index} (crash mid-write?): {exc}",
                        stacklevel=2,
                    )
                    with self.path.open("r+b") as handle:
                        handle.truncate(offsets[1:][position_index])
                    break
                # Garbage *before* intact records is not a torn append —
                # the file was edited or corrupted; refuse to guess.
                raise CheckpointError(
                    f"{self.path}: line {index}: malformed journal entry "
                    f"(not a torn tail — followed by valid records): {exc}"
                ) from exc
            self.entries[(lo, hi)] = entry

    def lookup(
        self, lo: int, hi: int, checksum: int
    ) -> Optional[Tuple[List[AlignmentResult], List[dict]]]:
        """Completed results for [lo, hi), if journalled for the same data.

        Returns ``(results, quarantined)`` or ``None``.  A matching range
        with a different input checksum raises — resuming a journal
        against a different dataset is never silently accepted.
        """
        entry = self.entries.get((lo, hi))
        if entry is None:
            return None
        if entry["checksum"] != checksum:
            raise CheckpointError(
                f"{self.path}: item [{lo},{hi}) was journalled for "
                f"different input data (checksum mismatch)"
            )
        results = [deserialize_result(item) for item in entry["results"]]
        return results, list(entry.get("quarantined", ()))

    def has(self, lo: int, hi: int) -> bool:
        """True when item ``[lo, hi)`` is already journalled."""
        return (lo, hi) in self.entries

    def record(
        self,
        lo: int,
        hi: int,
        checksum: int,
        results: Sequence[AlignmentResult],
        quarantined: Sequence[dict] = (),
        *,
        epoch: Optional[int] = None,
        node: Optional[str] = None,
    ) -> None:
        """Append one completed item and flush it to disk.

        ``epoch`` and ``node`` are optional provenance fields written by
        the distributed coordinator: the lease epoch under which the
        shard completed and the node that executed it.  They do not
        participate in lookup keys — exactly-once accounting is keyed on
        the ``[lo, hi)`` range alone.
        """
        entry = {
            "lo": lo,
            "hi": hi,
            "checksum": checksum,
            "results": [serialize_result(result) for result in results],
            "quarantined": list(quarantined),
        }
        if epoch is not None:
            entry["epoch"] = epoch
        if node is not None:
            entry["node"] = node
        with self.path.open("a") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()
        self.entries[(lo, hi)] = entry
        self.writes += 1
