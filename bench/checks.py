"""Output checks: each returns ``None`` when an output is right, else why.

A benchmark run counts every output these reject in its ``failed``
total, and a run with any failure reports ``"correct": false``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.align.chunked import runs_to_ops
from repro.core.cigar import Alignment, AlignmentError


def check_score(score: int, expected: int) -> Optional[str]:
    if score != expected:
        return f"score {score} != oracle {expected}"
    return None


def check_alignment(
    pattern: str,
    text: str,
    score: int,
    ops: Optional[Sequence[str]],
    expected: int,
) -> Optional[str]:
    """Score equals the oracle and the CIGAR replays on the inputs."""
    problem = check_score(score, expected)
    if problem is not None:
        return problem
    if ops is None:
        return "no traceback returned"
    try:
        Alignment(pattern=pattern, text=text, ops=tuple(ops),
                  score=score).validate()
    except AlignmentError as exc:
        return f"CIGAR does not replay: {exc}"
    return None


def check_served(row: dict, expected) -> Optional[str]:
    """A served result row equals the serial ``AlignmentResult``."""
    want = {
        "score": expected.score,
        "cigar": expected.cigar,
        "text_start": expected.text_start,
        "text_end": expected.text_end,
    }
    got = {key: row.get(key) for key in want}
    if got != want:
        return f"served {got} != serial {want}"
    return None


def check_stream(stitched, reference: str, query: str,
                 planted_edits: int) -> Optional[str]:
    """The stitched alignment replays on the true reference span and its
    score is within the planted error bound."""
    span = reference[stitched.text_start:stitched.text_end]
    if stitched.text != span:
        return (f"stitched text differs from reference"
                f"[{stitched.text_start}:{stitched.text_end}]")
    try:
        Alignment(pattern=query, text=span,
                  ops=tuple(runs_to_ops(stitched.runs)),
                  score=stitched.score).validate()
    except AlignmentError as exc:
        return f"stitched alignment does not replay: {exc}"
    if stitched.score > planted_edits:
        return (f"score {stitched.score} exceeds the {planted_edits} "
                "planted edits")
    return None
