"""Tests for tile traceback / gmx.tb semantics (repro.core.traceback)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar_edit_matrix
from repro.core.bitvec import (
    pack_deltas,
    split_plus_minus,
    unpack_deltas,
    unpack_plus_minus,
)
from repro.core.cigar import Alignment, OP_DELETION, OP_INSERTION
from repro.core.delta import DeltaEncodingError
from repro.core.isa import GmxIsa, encode_pos
from repro.core.tile import boundary_deltas, compute_tile_interior
from repro.core.traceback import (
    NextTile,
    pack_tile_ops,
    tile_exit,
    traceback_tile,
    unpack_tile_ops,
    walk_tile,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=12)


def complete_single_tile_alignment(pattern, text, tile_size=16):
    """Run a single-tile traceback and complete it along the boundary."""
    n, m = len(pattern), len(text)
    result = traceback_tile(
        pattern,
        text,
        boundary_deltas(n),
        boundary_deltas(m),
        (n - 1, m - 1),
        tile_size=tile_size,
    )
    interior = compute_tile_interior(
        pattern, text, boundary_deltas(n), boundary_deltas(m), tile_size=tile_size
    )
    _, exit_row, exit_col = walk_tile(pattern, text, interior, (n - 1, m - 1))
    ops = list(result.ops)
    ops.extend([OP_DELETION] * (exit_row + 1))
    ops.extend([OP_INSERTION] * (exit_col + 1))
    ops.reverse()
    return ops, result


class TestWalk:
    @given(dna, dna)
    @settings(max_examples=150)
    def test_single_tile_walk_is_optimal(self, pattern, text):
        """The walked path's cost must equal the true edit distance."""
        distance = scalar_edit_matrix(pattern, text)[len(pattern)][len(text)]
        ops, _ = complete_single_tile_alignment(pattern, text)
        Alignment(
            pattern=pattern, text=text, ops=tuple(ops), score=distance
        ).validate()

    @given(dna, dna)
    @settings(max_examples=100)
    def test_path_descends_antidiagonals(self, pattern, text):
        """Each op lowers i+j by ≥1 — at most one cell per antidiagonal."""
        result = traceback_tile(
            pattern,
            text,
            boundary_deltas(len(pattern)),
            boundary_deltas(len(text)),
            (len(pattern) - 1, len(text) - 1),
            tile_size=16,
        )
        assert len(result.ops) <= len(pattern) + len(text) - 1

    def test_start_outside_tile_rejected(self):
        with pytest.raises(ValueError):
            traceback_tile("AC", "AC", [1, 1], [1, 1], (5, 0), tile_size=4)


class TestNextTileClassification:
    def test_pure_match_exits_diagonally(self):
        result = traceback_tile(
            "ACGT", "ACGT", boundary_deltas(4), boundary_deltas(4), (3, 3),
            tile_size=4,
        )
        assert result.next_tile is NextTile.DIAGONAL
        assert result.next_pos == (3, 3)

    def test_deletion_column_exits_up(self):
        # Pattern much "longer" in walk terms: all deletions from column 0.
        result = traceback_tile(
            "AAAA", "C", boundary_deltas(4), [1], (3, 0), tile_size=4
        )
        assert result.next_tile in (NextTile.UP, NextTile.DIAGONAL)

    def test_up_exit_preserves_column(self):
        # Start on the right edge of a tall tile: MMM... then exit up.
        result = traceback_tile(
            "AAAA", "AA", boundary_deltas(4), boundary_deltas(2), (3, 1),
            tile_size=4,
        )
        # Two matches consume both columns; exit depends on path, but the
        # reported next position must lie on a tile edge.
        row, col = result.next_pos
        assert row == 3 or col == 3


class TestPackUnpack:
    @given(dna, dna)
    @settings(max_examples=150)
    def test_roundtrip_through_registers(self, pattern, text):
        """gmx_lo/gmx_hi encode the walk losslessly given the start cell."""
        n, m = len(pattern), len(text)
        start = (n - 1, m - 1)
        result = traceback_tile(
            pattern, text, boundary_deltas(n), boundary_deltas(m), start,
            tile_size=16,
        )
        lo, hi = pack_tile_ops(result.ops, start, result.next_tile, tile_size=16)
        ops, next_tile = unpack_tile_ops(
            lo, hi, start, len(result.ops), tile_size=16
        )
        assert tuple(ops) == result.ops
        assert next_tile == result.next_tile

    def test_register_width_bounded(self):
        """gmx_lo and gmx_hi must fit 2T bits each."""
        tile_size = 8
        ops = ("M",) * 8
        lo, hi = pack_tile_ops(ops, (7, 7), NextTile.DIAGONAL, tile_size=tile_size)
        assert lo < (1 << (2 * tile_size))
        assert hi < (1 << (2 * tile_size))

    def test_next_tile_in_top_bits(self):
        lo, hi = pack_tile_ops((), (7, 7), NextTile.LEFT, tile_size=8)
        assert (hi >> 14) & 0b11 == NextTile.LEFT.code


# -- bit-parallel gmx.tb against the cell-by-cell reference -----------------


def reference_traceback(pattern, text, dv_in, dh_in, start, tile_size):
    """gmx.tb from the cell-by-cell interior and walk (the test oracle)."""
    interior = compute_tile_interior(
        pattern, text, dv_in, dh_in, tile_size=tile_size
    )
    ops, exit_row, exit_col = walk_tile(pattern, text, interior, start)
    next_tile, next_pos = tile_exit(exit_row, exit_col, tile_size)
    return tuple(ops), next_tile, next_pos


def edge_starts(rows, cols):
    """Every legal gmx.tb start cell: the bottom row, then the right column."""
    return [(rows - 1, col) for col in range(cols)] + [
        (row, cols - 1) for row in range(rows - 1)
    ]


def assert_matches_reference(pattern, text, dv_in, dh_in, start, tile_size):
    result = traceback_tile(
        pattern, text, dv_in, dh_in, start, tile_size=tile_size
    )
    expected = reference_traceback(
        pattern, text, dv_in, dh_in, start, tile_size
    )
    assert (result.ops, result.next_tile, result.next_pos) == expected, (
        pattern, text, dv_in, dh_in, start, tile_size,
    )


@st.composite
def tiles(draw):
    """A (possibly partial) tile with arbitrary Δ edges and an edge start."""
    tile_size = draw(st.integers(2, 32))
    rows = draw(st.integers(1, tile_size))
    cols = draw(st.integers(1, tile_size))
    bases = st.sampled_from("ACGT")
    deltas = st.sampled_from((-1, 0, 1))
    pattern = "".join(draw(st.lists(bases, min_size=rows, max_size=rows)))
    text = "".join(draw(st.lists(bases, min_size=cols, max_size=cols)))
    dv_in = draw(st.lists(deltas, min_size=rows, max_size=rows))
    dh_in = draw(st.lists(deltas, min_size=cols, max_size=cols))
    start = draw(st.sampled_from(edge_starts(rows, cols)))
    return pattern, text, dv_in, dh_in, start, tile_size


class TestBitParallelAgainstReference:
    @given(tiles())
    @settings(max_examples=400)
    def test_arbitrary_edges(self, tile):
        assert_matches_reference(*tile)

    @pytest.mark.parametrize("tile_size", range(2, 33))
    def test_every_start_cell(self, tile_size):
        """Full and partial tiles, arbitrary edges, every legal start."""
        rng = random.Random(tile_size)
        shapes = [(tile_size, tile_size), (1, tile_size), (tile_size, 1)]
        shapes += [
            (rng.randint(1, tile_size), rng.randint(1, tile_size))
            for _ in range(3)
        ]
        for rows, cols in shapes:
            pattern = "".join(rng.choice("ACGT") for _ in range(rows))
            text = "".join(rng.choice("ACGT") for _ in range(cols))
            dv_in = [rng.choice((-1, 0, 1)) for _ in range(rows)]
            dh_in = [rng.choice((-1, 0, 1)) for _ in range(cols)]
            for start in edge_starts(rows, cols):
                assert_matches_reference(
                    pattern, text, dv_in, dh_in, start, tile_size
                )

    @given(tiles(), st.integers(0, (1 << 40) - 1), st.integers(0, (1 << 40) - 1))
    @settings(max_examples=150)
    def test_isa_gmx_tb_ignores_junk_operand_bits(self, tile, junk_v, junk_h):
        """GmxIsa.gmx_tb decodes packed images whose upper bits are junk."""
        pattern, text, dv_in, dh_in, start, tile_size = tile
        rows, cols = len(pattern), len(text)
        isa = GmxIsa(tile_size=tile_size)
        isa.csrw("gmx_pattern", pattern)
        isa.csrw("gmx_text", text)
        # The full-tile edge cell that gmx.tb clamps onto ``start``.
        if start[0] == rows - 1:
            position = (tile_size - 1, start[1])
        else:
            position = (start[0], tile_size - 1)
        isa.csrw("gmx_pos", encode_pos(*position, tile_size))
        result = isa.gmx_tb(
            pack_deltas(dv_in) | junk_v << (2 * rows),
            pack_deltas(dh_in) | junk_h << (2 * cols),
        )
        expected = reference_traceback(
            pattern, text, dv_in, dh_in, start, tile_size
        )
        assert (result.ops, result.next_tile, result.next_pos) == expected


class TestOperandDecoder:
    @given(
        st.lists(st.sampled_from((-1, 0, 1)), max_size=40),
        st.integers(0, (1 << 64) - 1),
    )
    @settings(max_examples=300)
    def test_matches_list_decoder(self, deltas, junk):
        count = len(deltas)
        image = pack_deltas(deltas) | junk << (2 * count)
        assert unpack_plus_minus(image, count) == split_plus_minus(
            unpack_deltas(image, count)
        )

    @given(st.integers(1, 32), st.data())
    def test_illegal_field_raises(self, count, data):
        deltas = data.draw(
            st.lists(st.sampled_from((-1, 0, 1)), min_size=count, max_size=count)
        )
        field = data.draw(st.integers(0, count - 1))
        image = pack_deltas(deltas) | 0b11 << (2 * field)
        with pytest.raises(DeltaEncodingError):
            unpack_deltas(image, count)
        with pytest.raises(DeltaEncodingError):
            unpack_plus_minus(image, count)

    def test_illegal_field_above_count_is_junk(self):
        assert unpack_plus_minus(0b11 << 8 | 0b01, 4) == (0b0001, 0)

    def test_gmx_tb_rejects_illegal_operand(self):
        isa = GmxIsa(tile_size=4)
        isa.csrw("gmx_pattern", "ACGT")
        isa.csrw("gmx_text", "ACGT")
        isa.csrw("gmx_pos", encode_pos(3, 3, 4))
        with pytest.raises(DeltaEncodingError):
            isa.gmx_tb(pack_deltas([1] * 4) | 0b11 << 4, pack_deltas([1] * 4))
        with pytest.raises(DeltaEncodingError):
            isa.gmx_tb(pack_deltas([1] * 4), 0b11)
