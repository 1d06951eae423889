"""The output checks reject corrupted scores and CIGARs."""

from types import SimpleNamespace

import pytest

from bench.checks import (
    check_alignment,
    check_score,
    check_served,
    check_stream,
)
from bench.inputs import short_pairs
from repro.align.chunked import ops_to_runs
from repro.align.full_gmx import FullGmxAligner
from repro.baselines.nw import NeedlemanWunschAligner


@pytest.fixture(scope="module")
def aligned():
    pattern, text = short_pairs(seed=3)[0]
    result = FullGmxAligner(backend="bitpar").align(pattern, text)
    oracle = NeedlemanWunschAligner().align(pattern, text).score
    return pattern, text, result, oracle


def test_correct_alignment_passes(aligned):
    pattern, text, result, oracle = aligned
    assert check_alignment(pattern, text, result.score,
                           result.alignment.ops, oracle) is None


def test_corrupted_score_fails(aligned):
    pattern, text, result, oracle = aligned
    problem = check_alignment(pattern, text, result.score + 1,
                              result.alignment.ops, oracle)
    assert problem is not None and "oracle" in problem
    assert check_score(result.score - 1, oracle) is not None


def test_corrupted_cigar_fails(aligned):
    pattern, text, result, oracle = aligned
    ops = list(result.alignment.ops)
    # Turn a match into a mismatch: same length, wrong label.
    index = ops.index("M")
    ops[index] = "X"
    assert check_alignment(pattern, text, result.score, ops, oracle)
    # Drop an op: the CIGAR no longer consumes both sequences.
    assert check_alignment(pattern, text, result.score,
                           result.alignment.ops[:-1], oracle)


def test_missing_traceback_fails(aligned):
    pattern, text, result, oracle = aligned
    assert check_alignment(pattern, text, result.score, None, oracle)


def test_served_row_must_equal_serial(aligned):
    _, _, result, _ = aligned
    row = {"score": result.score, "cigar": result.cigar,
           "text_start": result.text_start, "text_end": result.text_end}
    assert check_served(row, result) is None
    assert check_served(dict(row, score=result.score + 1), result)
    assert check_served(dict(row, cigar=row["cigar"][:-2]), result)


def _stitched(pattern, text, ops, score, reference, start):
    return SimpleNamespace(
        text_start=start, text_end=start + len(text), text=text,
        runs=ops_to_runs(ops), score=score, query=pattern,
    )


def test_stream_check(aligned):
    pattern, text, result, _ = aligned
    reference = "ACGT" * 10 + text + "TTGCA" * 10
    start = 40
    good = _stitched(pattern, text, result.alignment.ops, result.score,
                     reference, start)
    assert check_stream(good, reference, pattern, result.score) is None
    # Score beyond the planted bound.
    assert check_stream(good, reference, pattern, result.score - 1)
    # Corrupted score: the alignment no longer replays.
    bad_score = _stitched(pattern, text, result.alignment.ops,
                          result.score + 1, reference, start)
    assert check_stream(bad_score, reference, pattern, result.score + 5)
    # Shifted span: the stitched text is not the reference there.
    shifted = _stitched(pattern, text, result.alignment.ops, result.score,
                        reference, start + 1)
    assert check_stream(shifted, reference, pattern, result.score)
