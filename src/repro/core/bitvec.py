"""Fixed-width bit-vector helpers.

GMX packs vectors of 2-bit-encoded Δ values into general-purpose registers
(T = 32 values in a 64-bit register).  Python integers are arbitrary
precision, so these helpers impose explicit widths and provide the pack /
unpack conversions between Δ-value lists, (plus, minus) bitmask pairs and
register images.

Register layout (paper §5): a ΔV/ΔH register holds T two-bit fields; field
``i`` occupies bits ``[2i+1 : 2i]`` with bit ``2i`` = (Δ == +1) and bit
``2i+1`` = (Δ == -1), matching :mod:`repro.core.delta`'s encoding.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .delta import DeltaEncodingError, decode_delta, encode_delta


def mask(width: int) -> int:
    """Return a bit mask of ``width`` ones."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def get_bit(value: int, index: int) -> int:
    """Return bit ``index`` of ``value``."""
    return (value >> index) & 1


def set_bit(value: int, index: int, bit: int) -> int:
    """Return ``value`` with bit ``index`` set to ``bit``."""
    if bit:
        return value | (1 << index)
    return value & ~(1 << index)


def popcount(value: int) -> int:
    """Population count (number of set bits)."""
    return bin(value).count("1")


def bits_of(value: int, width: int) -> List[int]:
    """Return the ``width`` low bits of ``value``, LSB first."""
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits: Iterable[int]) -> int:
    """Inverse of :func:`bits_of` (LSB first)."""
    value = 0
    for i, bit in enumerate(bits):
        if bit:
            value |= 1 << i
    return value


def pack_deltas(deltas: Sequence[int]) -> int:
    """Pack a sequence of Δ values into a register image (2 bits per value)."""
    register = 0
    for i, delta in enumerate(deltas):
        bit0, bit1 = encode_delta(delta)
        register |= (bit0 | (bit1 << 1)) << (2 * i)
    return register


def unpack_deltas(register: int, count: int) -> List[int]:
    """Unpack ``count`` Δ values from a register image.

    Raises:
        DeltaEncodingError: if any 2-bit field holds the illegal pattern 0b11.
    """
    deltas = []
    for i in range(count):
        field = (register >> (2 * i)) & 0b11
        deltas.append(decode_delta(field & 1, (field >> 1) & 1))
    return deltas


def split_plus_minus(deltas: Sequence[int]) -> tuple[int, int]:
    """Split Δ values into (P, M) bitmasks: P bit i set iff Δ==+1, M iff Δ==-1.

    This is the representation the bit-parallel (Myers/Hyyrö) kernels use
    internally; element ``i`` of the vector maps to bit ``i``.
    """
    plus = 0
    minus = 0
    for i, delta in enumerate(deltas):
        if delta == 1:
            plus |= 1 << i
        elif delta == -1:
            minus |= 1 << i
        elif delta != 0:
            raise DeltaEncodingError(f"Δ value must be -1, 0 or +1, got {delta!r}")
    return plus, minus


def merge_plus_minus(plus: int, minus: int, count: int) -> List[int]:
    """Inverse of :func:`split_plus_minus`.

    Raises:
        DeltaEncodingError: if any position has both the plus and minus bit.
    """
    if plus & minus:
        raise DeltaEncodingError(
            f"plus and minus masks overlap at bits {bin(plus & minus)}"
        )
    return [((plus >> i) & 1) - ((minus >> i) & 1) for i in range(count)]


# -- packed images <-> (plus, minus) masks, without Δ lists -----------------

#: Byte -> bit-doubled byte: bit k of the input moves to bit 2k.
_SPREAD8 = [sum(((byte >> k) & 1) << (2 * k) for k in range(8))
            for byte in range(256)]
#: Byte -> its even bits gathered: bit 2k of the input moves to bit k.
_GATHER8 = [sum(((byte >> (2 * k)) & 1) << k for k in range(4))
            for byte in range(256)]


def plus_lanes(count: int) -> int:
    """Bit 2k set for every k < ``count``: the ΔV/ΔH register's plus lanes.

    This is also the packed image of ``count`` Δ = +1 values — the
    DP-matrix boundary edge.
    """
    return ((1 << (2 * count)) - 1) // 3


def spread_bits(value: int) -> int:
    """Move bit k of ``value`` to bit 2k (arbitrary width)."""
    out = 0
    shift = 0
    while value:
        out |= _SPREAD8[value & 0xFF] << shift
        value >>= 8
        shift += 16
    return out


def gather_bits(value: int) -> int:
    """Move bit 2k of ``value`` to bit k, dropping odd bits (arbitrary width).

    The inverse of :func:`spread_bits`.
    """
    out = 0
    shift = 0
    while value:
        out |= _GATHER8[value & 0xFF] << shift
        value >>= 8
        shift += 4
    return out


def pack_plus_minus(plus: int, minus: int) -> int:
    """Interleave (P, M) bitmasks into a packed 2-bit Δ register image.

    Equal to ``pack_deltas(merge_plus_minus(plus, minus, count))`` for
    non-overlapping masks, without the Δ list.
    """
    return spread_bits(plus) | (spread_bits(minus) << 1)


def unpack_plus_minus(register: int, count: int) -> Tuple[int, int]:
    """De-interleave ``count`` fields of a register image into (P, M) masks.

    Equal to ``split_plus_minus(unpack_deltas(register, count))``: bits
    above the ``count`` fields are ignored.

    Raises:
        DeltaEncodingError: if any of the fields holds the illegal 0b11.
    """
    lanes = plus_lanes(count)
    plus = register & lanes
    minus = (register >> 1) & lanes
    if plus & minus:
        raise DeltaEncodingError(f"illegal Δ bit pattern {(1, 1)!r}")
    return gather_bits(plus), gather_bits(minus)
