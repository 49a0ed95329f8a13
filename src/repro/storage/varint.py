"""Variable-length integer coding (LEB128-style) with zigzag for signed.

The compression layer for cuboid tid lists (Section 6 of the paper points
out that "a large portion of the space is used to store the cell
identifiers" and promises compression opportunities).  Unsigned varints
store 7 bits per byte with a continuation bit; zigzag maps signed deltas to
unsigned so small negative gaps stay short.
"""

from __future__ import annotations

from typing import Sequence

from .device import StorageError


class VarintError(StorageError):
    """Raised on malformed varint streams."""


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append the unsigned varint encoding of ``value`` to ``out``."""
    if value < 0:
        raise VarintError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one unsigned varint at ``offset``; return (value, new offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise VarintError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise VarintError("varint too long")


def zigzag_encode(value: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def delta_encode_sorted(values: Sequence[int]) -> bytes:
    """Gap-encode a non-decreasing unsigned sequence (count-prefixed)."""
    out = bytearray()
    encode_uvarint(len(values), out)
    previous = 0
    for value in values:
        gap = value - previous
        if gap < 0:
            raise VarintError("delta_encode_sorted requires a sorted sequence")
        encode_uvarint(gap, out)
        previous = value
    return bytes(out)


def delta_decode_sorted(data: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Inverse of :func:`delta_encode_sorted`."""
    count, offset = decode_uvarint(data, offset)
    values = []
    current = 0
    for _ in range(count):
        gap, offset = decode_uvarint(data, offset)
        current += gap
        values.append(current)
    return values, offset
