"""One batch driver: every local executor runs the same shard body and loop.

Plain, pooled and resilient batches differ only in the pool they run on
and the policy the loop applies, so their results must be byte-identical
on any input shape, and a batch without a policy must fail the same way
whichever executor ran the failing shard.
"""

import pytest

from repro.align import AlignerError, FullGmxAligner, WorkerPool, align_batch
from repro.align.parallel import align_batch_sharded
from repro.resilience import align_batch_resilient
from repro.workloads import generate_pair_set

MARKED = "ACGTACGTACGTACGTTTTT"


class _FailsOnMarked(FullGmxAligner):
    """Raises on the marked pattern; module-level so it pickles."""

    def align(self, pattern, text, *, traceback=True):
        if pattern == MARKED:
            raise AlignerError(f"refusing marked pair {pattern}/{text}")
        return super().align(pattern, text, traceback=traceback)


def _pairs(count=20, seed=31):
    pair_set = generate_pair_set("driver", 48, 0.1, count, seed=seed)
    return [(p.pattern, p.text) for p in pair_set]


class TestFailFast:
    def _failure(self, aligner, **kwargs):
        pairs = _pairs(9)
        pairs[6] = (MARKED, "ACGTACGTACGTACGTTTTA")
        with pytest.raises(Exception) as info:
            align_batch(aligner, pairs, shard_size=2, **kwargs)
        return type(info.value), str(info.value)

    def test_same_exception_on_every_executor(self):
        serial = self._failure(_FailsOnMarked())
        pooled = self._failure(_FailsOnMarked(), workers=2)
        unpicklable = _FailsOnMarked()
        unpicklable.hook = lambda: None  # defeats pickling: inline fallback
        inline = self._failure(unpicklable, workers=2)
        clean = align_batch(unpicklable, _pairs(2), workers=2)
        assert clean.telemetry.executor == "inline"
        assert serial[0] is AlignerError
        assert "refusing marked pair" in serial[1]
        assert pooled == serial
        assert inline == serial


class TestEveryExecutorIdentical:
    @pytest.mark.parametrize("shard_size", [1, 3, 16])
    def test_generator_input(self, shard_size):
        pairs = _pairs()
        aligner = FullGmxAligner(tile_size=8)
        reference = align_batch(aligner, pairs, shard_size=len(pairs))

        def stream():
            return (pair for pair in pairs)

        runs = {
            "serial": align_batch(aligner, stream(), shard_size=shard_size),
            "pool": align_batch(
                aligner, stream(), workers=2, shard_size=shard_size
            ),
            "resilient": align_batch_resilient(
                aligner, stream(), shard_size=shard_size
            ),
            "resilient-pool": align_batch_resilient(
                aligner, stream(), workers=2, shard_size=shard_size,
                shard_timeout=60.0,
            ),
        }
        with WorkerPool(2) as pool:
            runs["warm-pool"] = align_batch_sharded(
                aligner, stream(), shard_size=shard_size, pool=pool
            )
        shards = -(-len(pairs) // shard_size)
        for name, batch in runs.items():
            assert batch.results == reference.results, name
            assert batch.stats == reference.stats, name
            assert batch.telemetry.shard_count == shards, name
            assert [s.index for s in batch.telemetry.shards] == list(
                range(shards)
            ), name
