"""Bit-level primitives for unaligned PER.

:class:`BitWriter` and :class:`BitReader` move whole unsigned integers
of arbitrary bit width in and out of a byte buffer with no alignment,
which is all UPER requires.  The stream is one Python integer, not a
list of bits: the writer shifts each field in (``acc << width | value``)
and makes octets once; the reader makes one integer of the buffer and
takes each field out with a shift and a mask.  Length determinants
follow X.691 10.9:

* constrained lengths within a range are encoded like a constrained
  integer;
* unconstrained lengths use the general form (single byte < 128,
  two bytes with the top bits ``10`` up to 16K; fragmentation beyond
  16K is not needed for ITS messages and raises).
"""

from __future__ import annotations


class Asn1Error(ValueError):
    """Raised on malformed values or truncated encodings."""


class BitWriter:
    """Accumulates an unaligned bit stream, MSB first."""

    __slots__ = ("_acc", "_len")

    def __init__(self) -> None:
        self._acc = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._acc = (self._acc << 1) | (1 if bit else 0)
        self._len += 1

    def write_uint(self, value: int, width: int) -> None:
        """Append *value* as an unsigned integer of *width* bits."""
        if width < 0:
            raise Asn1Error(f"negative width {width}")
        if value < 0 or value >> width:
            raise Asn1Error(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._len += width

    def write_bytes(self, data: bytes) -> None:
        """Append raw octets, unaligned."""
        width = 8 * len(data)
        self._acc = (self._acc << width) | int.from_bytes(data, "big")
        self._len += width

    def write_length(self, length: int) -> None:
        """Append an unconstrained length determinant (X.691 10.9.3)."""
        if length < 0:
            raise Asn1Error(f"negative length {length}")
        if length < 128:
            self.write_uint(length, 8)
        elif length < 16384:
            self.write_uint(0x8000 | length, 16)
        else:
            raise Asn1Error(
                f"length {length} requires fragmentation (unsupported)"
            )

    def to_bytes(self) -> bytes:
        """The stream padded with zero bits to a whole number of octets."""
        count = (self._len + 7) >> 3
        return (self._acc << (8 * count - self._len)).to_bytes(count, "big")

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._len


class BitReader:
    """Consumes an unaligned bit stream produced by :class:`BitWriter`."""

    __slots__ = ("_value", "_pos", "_limit")

    def __init__(self, data: bytes):
        self._value = int.from_bytes(data, "big")
        self._pos = 0
        self._limit = len(data) * 8

    @property
    def position(self) -> int:
        """Current bit offset."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Bits left in the buffer (including any final padding)."""
        return self._limit - self._pos

    def read_bit(self) -> int:
        """Read one bit."""
        pos = self._pos + 1
        if pos > self._limit:
            raise Asn1Error("bit stream exhausted")
        self._pos = pos
        return (self._value >> (self._limit - pos)) & 1

    def read_uint(self, width: int) -> int:
        """Read an unsigned integer of *width* bits."""
        if width < 0:
            raise Asn1Error(f"negative width {width}")
        end = self._pos + width
        if end > self._limit:
            raise Asn1Error(
                f"need {width} bits at offset {self._pos}, "
                f"only {self.remaining} remain"
            )
        self._pos = end
        return (self._value >> (self._limit - end)) & ((1 << width) - 1)

    def read_bytes(self, count: int) -> bytes:
        """Read *count* raw octets, unaligned."""
        if self._pos + 8 * count > self._limit:  # fail at the first short octet
            for _ in range(count):
                self.read_uint(8)
        return self.read_uint(8 * count).to_bytes(count, "big")

    def read_length(self) -> int:
        """Read an unconstrained length determinant (X.691 10.9.3)."""
        first = self.read_uint(8)
        if first < 128:
            return first
        if (first >> 6) == 0b10:
            return ((first & 0x3F) << 8) | self.read_uint(8)
        raise Asn1Error("fragmented lengths unsupported")
