"""On-demand edge images at the tile seams: every backend matches ``pure``.

``bitpar`` (and ``numpy``) keep only per-tile-column words during the
sweep and pack a tile's edge images when the traceback asks for them.
The cases here compare every tile's edge images with ``pure``'s and put
the traceback across the seams where that packing can go wrong: a partial
last tile row (its bottom row is the pattern's last row, not row
``i·T + T − 1``), a partial last tile column, a pattern of a single tile
row, and every anchoring mode, fused or not.  Stats are recipe-accounted,
so ``dp_bytes_written`` and ``dp_bytes_peak`` must not move either.
"""

import random

import pytest

from repro.align import AlignmentMode, FullGmxAligner
from repro.align.backends import (
    DEFAULT_BACKEND,
    FullMatrixRequest,
    backend_names,
    get_backend,
)
from repro.align.base import KernelStats
from repro.core.bitvec import plus_lanes
from repro.core.isa import GmxIsa

CHALLENGERS = tuple(name for name in backend_names() if name != DEFAULT_BACKEND)

MODES = (AlignmentMode.GLOBAL, AlignmentMode.PREFIX, AlignmentMode.INFIX)


def _mutate(rng, pattern, length):
    """A text of exactly ``length`` characters close to ``pattern``."""
    text = list(pattern)
    for _ in range(max(1, len(pattern) // 4)):
        pos = rng.randrange(len(text))
        op = rng.choice("mid")
        if op == "m":
            text[pos] = rng.choice("ACGT")
        elif op == "i":
            text.insert(pos, rng.choice("ACGT"))
        elif len(text) > 1:
            del text[pos]
    while len(text) < length:
        text.insert(rng.randrange(len(text) + 1), rng.choice("ACGT"))
    return "".join(text[:length])


def seam_pairs(tile, seed):
    """Pairs whose lengths leave partial last tile rows and columns."""
    rng = random.Random(seed)
    pairs = []
    # n, m not multiples of T, over one, two and five tile rows/columns.
    lengths = [
        (tiles - 1) * tile + extra for tiles in (1, 2, 5) for extra in range(1, tile)
    ]
    for n in lengths:
        pattern = "".join(rng.choice("ACGT") for _ in range(n))
        for m in lengths:
            pairs.append((pattern, _mutate(rng, pattern, m)))
    # A one-tile-row pattern against a long text (INFIX/PREFIX find it).
    pattern = "".join(rng.choice("ACGT") for _ in range(tile - 1))
    text = "".join(rng.choice("ACGT") for _ in range(4 * tile + 2))
    pairs.append((pattern, text[:tile] + pattern + text[tile:]))
    return pairs


def signature(result):
    return (
        result.score,
        result.alignment,
        result.text_start,
        result.text_end,
        result.stats,
        result.stats.dp_bytes_written,
        result.stats.dp_bytes_peak,
    )


pytestmark = pytest.mark.skipif(
    not CHALLENGERS, reason="only the pure backend is available"
)


@pytest.mark.parametrize("backend", CHALLENGERS)
@pytest.mark.parametrize("fused", (False, True), ids=("plain", "fused"))
@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.name)
@pytest.mark.parametrize("tile", (2, 3))
def test_partial_seams_match_pure(tile, mode, fused, backend):
    def aligner(name):
        return FullGmxAligner(tile_size=tile, mode=mode, fused=fused, backend=name)

    reference = aligner(DEFAULT_BACKEND)
    challenger = aligner(backend)
    for pattern, text in seam_pairs(tile, seed=tile):
        assert len(pattern) % tile and len(text) % tile
        expected = signature(reference.align(pattern, text))
        got = signature(challenger.align(pattern, text))
        assert got == expected, (backend, mode, fused, pattern, text)
        assert expected[1] is not None


def full_matrix(backend, pattern, text, tile, top_fill):
    """One stored-matrix phase of ``backend`` with Full(GMX)'s boundaries."""
    p_chunks = [pattern[k : k + tile] for k in range(0, len(pattern), tile)]
    t_chunks = [text[k : k + tile] for k in range(0, len(text), tile)]
    return get_backend(backend).full_matrix(
        FullMatrixRequest(
            isa=GmxIsa(tile_size=tile),
            stats=KernelStats(),
            pattern=pattern,
            p_chunks=p_chunks,
            t_chunks=t_chunks,
            tile_size=tile,
            top_fill=top_fill,
            fused=False,
            store_matrix=True,
            boundary_v=[plus_lanes(len(chunk)) for chunk in p_chunks],
            boundary_h=[plus_lanes(len(chunk)) * top_fill for chunk in t_chunks],
        )
    )


@pytest.mark.parametrize("backend", CHALLENGERS)
@pytest.mark.parametrize("top_fill", (1, 0))
@pytest.mark.parametrize("tile", (2, 3, 8))
def test_every_edge_image_matches_pure(tile, top_fill, backend):
    """The on-demand view equals pure's stored images on every tile,
    the partial last tile row and column included."""
    for pattern, text in seam_pairs(tile, seed=10 * tile + top_fill):
        expected = full_matrix(DEFAULT_BACKEND, pattern, text, tile, top_fill)
        got = full_matrix(backend, pattern, text, tile, top_fill)
        assert got.bottom_deltas == expected.bottom_deltas
        for i in range(-(-len(pattern) // tile)):
            for j in range(-(-len(text) // tile)):
                assert got.matrix.dv(i, j) == expected.matrix.dv(i, j), (i, j)
                assert got.matrix.dh(i, j) == expected.matrix.dh(i, j), (i, j)
