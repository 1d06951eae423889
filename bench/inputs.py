"""Seeded inputs of the four workloads.

Every input is a pure function of the seed (and, for the serving
schedule, the phase lengths), so the same seed gives byte-identical
inputs in every run.  Generation happens during set-up, never inside a
timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from repro.workloads.generator import generate_pair, generate_pair_set, mutate

Pair = Tuple[str, str]

#: The paper's short suite (§7.1): 150 bp reads at 5% error.
SHORT_LENGTH = 150
SHORT_ERROR = 0.05
#: Pairs per align_batch_sharded call on the short-read workload.
SHORT_BATCH = 64

#: The paper's long suite (§7.1): 10 kbp reads at 15% error.
LONG_LENGTH = 10_000
LONG_ERROR = 0.15
#: Distinct long pairs; each timed call aligns one of them.
LONG_PAIRS = 6

#: Served request i carries a batch of SERVE_BATCH_PAIRS pairs when
#: ``i % 10`` is in SERVE_BATCH_SLOTS, else one pair: 30% batches.  Fixing
#: the mix by position gives every seed the same shares; with 30% the
#: latency median falls among single-pair requests and p95 among batches,
#: not on the edge between them.
SERVE_BATCH_SLOTS = (2, 5, 8)
SERVE_BATCH_PAIRS = 8

#: Streamed reference and its planted query.
STREAM_REFERENCE = 2_000_000
STREAM_QUERY = 3_000
STREAM_ERROR = 0.015
#: Bases between the planted locus's end and the reference's end.
STREAM_TAIL = 40_000
FASTA_LINE = 80


def _pairs(pair_set) -> List[Pair]:
    return [(pair.pattern, pair.text) for pair in pair_set]


def short_pairs(seed: int) -> List[Pair]:
    """One short-read batch: 150 bp, 5% error."""
    return _pairs(generate_pair_set(
        "bench-short", SHORT_LENGTH, SHORT_ERROR, SHORT_BATCH, seed=seed
    ))


def long_pairs(seed: int) -> List[Pair]:
    """The long-read pair set: 10 kbp, 15% error."""
    return _pairs(generate_pair_set(
        "bench-long", LONG_LENGTH, LONG_ERROR, LONG_PAIRS, seed=seed
    ))


@dataclass(frozen=True)
class Request:
    """One scheduled HTTP request.

    ``due`` is seconds after its phase starts; a request with one pair is
    sent in the single-pair form, any other in the ``pairs`` form.
    """

    due: float
    pairs: Tuple[Pair, ...]


def serve_schedule(
    seed: int,
    phases: List[Tuple[float, float]],
) -> List[List[Request]]:
    """Open-loop schedules for consecutive phases of (rate/s, seconds).

    Requests are evenly spaced at each phase's rate.  Pairs are numbered
    in schedule order across phases: every odd-numbered pair repeats a
    uniformly chosen earlier pair, every even-numbered one is a fresh
    150 bp / 5% pair.
    """
    rng = random.Random(f"{seed}:bench-serve")
    fresh: List[Pair] = []
    numbered = 0
    schedules = []
    for rate, seconds in phases:
        requests = []
        for index in range(int(round(rate * seconds))):
            batch = index % 10 in SERVE_BATCH_SLOTS
            pairs = []
            for _ in range(SERVE_BATCH_PAIRS if batch else 1):
                if numbered % 2:
                    pairs.append(rng.choice(fresh))
                else:
                    made = generate_pair(SHORT_LENGTH, SHORT_ERROR, rng)
                    fresh.append((made.pattern, made.text))
                    pairs.append(fresh[-1])
                numbered += 1
            requests.append(Request(due=index / rate, pairs=tuple(pairs)))
        schedules.append(requests)
    return schedules


@dataclass(frozen=True)
class StreamInput:
    """A FASTA reference on disk and a query planted near its far end."""

    path: Path
    record: str
    reference: str
    query: str
    locus: int
    planted_edits: int


def stream_input(seed: int, directory: Path) -> StreamInput:
    """Generate the streamed reference and write it as FASTA in
    ``directory``."""
    rng = random.Random(f"{seed}:bench-stream")
    reference = "".join(rng.choices("ACGT", k=STREAM_REFERENCE))
    locus = STREAM_REFERENCE - STREAM_TAIL - STREAM_QUERY
    query = mutate(reference[locus:locus + STREAM_QUERY], STREAM_ERROR, rng)
    record = "chrBench"
    path = Path(directory) / "reference.fasta"
    with open(path, "w") as handle:
        handle.write(f">{record} seed={seed}\n")
        for start in range(0, len(reference), FASTA_LINE):
            handle.write(reference[start:start + FASTA_LINE])
            handle.write("\n")
    return StreamInput(
        path=path,
        record=record,
        reference=reference,
        query=query,
        locus=locus,
        planted_edits=round(STREAM_ERROR * STREAM_QUERY),
    )
