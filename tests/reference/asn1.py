"""Reference oracle for the UPER codec.

A verbatim copy of :mod:`repro.asn1.per` and :mod:`repro.asn1.types`
as they were before the codec held its bit stream in one integer and
fixed its widths and field plans at construction: :class:`BitWriter`
keeps one list entry per bit and packs them one by one,
:meth:`BitReader.read_uint` loops one :meth:`~BitReader.read_bit` per
bit, and every type re-derives its widths, presence bits and
unknown-field set on every value.  The only departure: both modules
are in this one file, and :class:`~repro.asn1.per.Asn1Error` is
imported rather than redefined, so the two codecs raise the same
exception type.

One check differs from the fast codec on purpose: this
:meth:`BitWriter.write_uint` skips its overflow check for widths of 64
bits and more, where the fast one checks every width.

Used only by the differential test ``tests/test_asn1_reference.py``.
Do not optimise this file: its value is being the old,
obviously-correct code.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence as Seq, Tuple

from repro.asn1.per import Asn1Error


class BitWriter:
    """Accumulates an unaligned bit stream, MSB first."""

    def __init__(self) -> None:
        self._bits: List[int] = []

    def __len__(self) -> int:
        return len(self._bits)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._bits.append(1 if bit else 0)

    def write_uint(self, value: int, width: int) -> None:
        """Append *value* as an unsigned integer of *width* bits."""
        if width < 0:
            raise Asn1Error(f"negative width {width}")
        if value < 0 or (width < 64 and value >> width):
            raise Asn1Error(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def write_bytes(self, data: bytes) -> None:
        """Append raw octets, unaligned."""
        for byte in data:
            self.write_uint(byte, 8)

    def write_length(self, length: int) -> None:
        """Append an unconstrained length determinant (X.691 10.9.3)."""
        if length < 0:
            raise Asn1Error(f"negative length {length}")
        if length < 128:
            self.write_uint(length, 8)
        elif length < 16384:
            self.write_uint(0b10, 2)
            self.write_uint(length, 14)
        else:
            raise Asn1Error(
                f"length {length} requires fragmentation (unsupported)"
            )

    def to_bytes(self) -> bytes:
        """The stream padded with zero bits to a whole number of octets."""
        out = bytearray()
        acc = 0
        count = 0
        for bit in self._bits:
            acc = (acc << 1) | bit
            count += 1
            if count == 8:
                out.append(acc)
                acc = 0
                count = 0
        if count:
            out.append(acc << (8 - count))
        return bytes(out)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return len(self._bits)


class BitReader:
    """Consumes an unaligned bit stream produced by :class:`BitWriter`."""

    def __init__(self, data: bytes):
        self._data = data
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
        if self._pos >= self._limit:
            raise Asn1Error("bit stream exhausted")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_uint(self, width: int) -> int:
        """Read an unsigned integer of *width* bits."""
        if width < 0:
            raise Asn1Error(f"negative width {width}")
        if self._pos + width > self._limit:
            raise Asn1Error(
                f"need {width} bits at offset {self._pos}, "
                f"only {self.remaining} remain"
            )
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_bytes(self, count: int) -> bytes:
        """Read *count* raw octets, unaligned."""
        return bytes(self.read_uint(8) for _ in range(count))

    def read_length(self) -> int:
        """Read an unconstrained length determinant (X.691 10.9.3)."""
        first = self.read_uint(8)
        if first < 128:
            return first
        if (first >> 6) == 0b10:
            return ((first & 0x3F) << 8) | self.read_uint(8)
        raise Asn1Error("fragmented lengths unsupported")


def _bits_for_range(span: int) -> int:
    """Minimum bits to represent ``span`` distinct values (span >= 1)."""
    if span <= 1:
        return 0
    return (span - 1).bit_length()


class Asn1Type:
    """Base class for all type objects."""

    def encode(self, writer: BitWriter, value: Any) -> None:
        """Append *value*'s UPER encoding to *writer*."""
        raise NotImplementedError

    def decode(self, reader: BitReader) -> Any:
        """Read one value of this type from *reader*."""
        raise NotImplementedError

    def validate(self, value: Any) -> None:
        """Raise :class:`Asn1Error` if *value* is not encodable."""
        writer = BitWriter()
        self.encode(writer, value)

    def to_bytes(self, value: Any) -> bytes:
        """Encode *value* as a padded octet string (a whole PDU)."""
        writer = BitWriter()
        self.encode(writer, value)
        return writer.to_bytes()

    def from_bytes(self, data: bytes) -> Any:
        """Decode a whole PDU from *data* (trailing pad bits ignored)."""
        reader = BitReader(data)
        return self.decode(reader)


class Boolean(Asn1Type):
    """ASN.1 BOOLEAN: one bit."""

    def encode(self, writer: BitWriter, value: Any) -> None:
        if not isinstance(value, bool):
            raise Asn1Error(f"BOOLEAN requires bool, got {value!r}")
        writer.write_bit(1 if value else 0)

    def decode(self, reader: BitReader) -> bool:
        return bool(reader.read_bit())


class Null(Asn1Type):
    """ASN.1 NULL: zero bits."""

    def encode(self, writer: BitWriter, value: Any) -> None:
        if value is not None:
            raise Asn1Error(f"NULL requires None, got {value!r}")

    def decode(self, reader: BitReader) -> None:
        return None


class Integer(Asn1Type):
    """ASN.1 INTEGER, constrained / semi-constrained / unconstrained.

    * both bounds given -> constrained whole number (fixed bit width);
    * only ``lo`` given -> semi-constrained (length + offset octets);
    * no bounds -> unconstrained (length + two's-complement octets).
    """

    def __init__(self, lo: Optional[int] = None, hi: Optional[int] = None,
                 name: str = "INTEGER"):
        if lo is not None and hi is not None and hi < lo:
            raise Asn1Error(f"{name}: empty range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.name = name

    def __repr__(self) -> str:
        return f"Integer({self.lo}, {self.hi})"

    def encode(self, writer: BitWriter, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise Asn1Error(f"{self.name} requires int, got {value!r}")
        if self.lo is not None and value < self.lo:
            raise Asn1Error(f"{self.name}: {value} < lower bound {self.lo}")
        if self.hi is not None and value > self.hi:
            raise Asn1Error(f"{self.name}: {value} > upper bound {self.hi}")
        if self.lo is not None and self.hi is not None:
            width = _bits_for_range(self.hi - self.lo + 1)
            writer.write_uint(value - self.lo, width)
        elif self.lo is not None:
            offset = value - self.lo
            octets = _uint_octets(offset)
            writer.write_length(len(octets))
            writer.write_bytes(octets)
        else:
            octets = _int_octets(value)
            writer.write_length(len(octets))
            writer.write_bytes(octets)

    def decode(self, reader: BitReader) -> int:
        if self.lo is not None and self.hi is not None:
            width = _bits_for_range(self.hi - self.lo + 1)
            return self.lo + reader.read_uint(width)
        if self.lo is not None:
            count = reader.read_length()
            data = reader.read_bytes(count)
            return self.lo + int.from_bytes(data, "big")
        count = reader.read_length()
        data = reader.read_bytes(count)
        return int.from_bytes(data, "big", signed=True)


def _uint_octets(value: int) -> bytes:
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def _int_octets(value: int) -> bytes:
    length = max(1, (value.bit_length() + 8) // 8)
    return value.to_bytes(length, "big", signed=True)


class Enumerated(Asn1Type):
    """ASN.1 ENUMERATED over a fixed tuple of names.

    Values are the *names* (strings); the wire form is the index.
    """

    def __init__(self, names: Seq[str], name: str = "ENUMERATED"):
        if not names:
            raise Asn1Error("ENUMERATED requires at least one name")
        self.names = tuple(names)
        self.name = name
        self._index = {n: i for i, n in enumerate(self.names)}
        self._width = _bits_for_range(len(self.names))

    def encode(self, writer: BitWriter, value: Any) -> None:
        if value not in self._index:
            raise Asn1Error(f"{self.name}: unknown alternative {value!r}")
        writer.write_uint(self._index[value], self._width)

    def decode(self, reader: BitReader) -> str:
        index = reader.read_uint(self._width)
        if index >= len(self.names):
            raise Asn1Error(f"{self.name}: index {index} out of range")
        return self.names[index]


class BitString(Asn1Type):
    """ASN.1 BIT STRING with a fixed or bounded size.

    Values are tuples/lists of 0/1 ints.
    """

    def __init__(self, lo: int, hi: Optional[int] = None,
                 name: str = "BIT STRING"):
        self.lo = lo
        self.hi = hi if hi is not None else lo
        if self.hi < self.lo or self.lo < 0:
            raise Asn1Error(f"{name}: bad size range [{lo}, {hi}]")
        self.name = name

    def encode(self, writer: BitWriter, value: Any) -> None:
        bits = list(value)
        if not self.lo <= len(bits) <= self.hi:
            raise Asn1Error(
                f"{self.name}: size {len(bits)} outside "
                f"[{self.lo}, {self.hi}]"
            )
        if self.hi != self.lo:
            width = _bits_for_range(self.hi - self.lo + 1)
            writer.write_uint(len(bits) - self.lo, width)
        for bit in bits:
            if bit not in (0, 1):
                raise Asn1Error(f"{self.name}: bit value {bit!r}")
            writer.write_bit(bit)

    def decode(self, reader: BitReader) -> Tuple[int, ...]:
        size = self.lo
        if self.hi != self.lo:
            width = _bits_for_range(self.hi - self.lo + 1)
            size = self.lo + reader.read_uint(width)
        return tuple(reader.read_bit() for _ in range(size))


class OctetString(Asn1Type):
    """ASN.1 OCTET STRING, fixed / bounded / unbounded size.  Values: bytes."""

    def __init__(self, lo: int = 0, hi: Optional[int] = None,
                 name: str = "OCTET STRING"):
        self.lo = lo
        self.hi = hi
        self.name = name

    def encode(self, writer: BitWriter, value: Any) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise Asn1Error(f"{self.name} requires bytes, got {value!r}")
        data = bytes(value)
        if len(data) < self.lo or (self.hi is not None and len(data) > self.hi):
            raise Asn1Error(
                f"{self.name}: size {len(data)} outside "
                f"[{self.lo}, {self.hi}]"
            )
        if self.hi is None:
            writer.write_length(len(data))
        elif self.hi != self.lo:
            width = _bits_for_range(self.hi - self.lo + 1)
            writer.write_uint(len(data) - self.lo, width)
        writer.write_bytes(data)

    def decode(self, reader: BitReader) -> bytes:
        if self.hi is None:
            size = reader.read_length()
        elif self.hi != self.lo:
            width = _bits_for_range(self.hi - self.lo + 1)
            size = self.lo + reader.read_uint(width)
        else:
            size = self.lo
        return reader.read_bytes(size)


class IA5String(Asn1Type):
    """ASN.1 IA5String (7-bit characters), bounded or unbounded length."""

    def __init__(self, lo: int = 0, hi: Optional[int] = None,
                 name: str = "IA5String"):
        self.lo = lo
        self.hi = hi
        self.name = name

    def encode(self, writer: BitWriter, value: Any) -> None:
        if not isinstance(value, str):
            raise Asn1Error(f"{self.name} requires str, got {value!r}")
        if len(value) < self.lo or (self.hi is not None and len(value) > self.hi):
            raise Asn1Error(
                f"{self.name}: length {len(value)} outside "
                f"[{self.lo}, {self.hi}]"
            )
        if self.hi is None:
            writer.write_length(len(value))
        elif self.hi != self.lo:
            width = _bits_for_range(self.hi - self.lo + 1)
            writer.write_uint(len(value) - self.lo, width)
        for char in value:
            code = ord(char)
            if code > 127:
                raise Asn1Error(f"{self.name}: non-IA5 character {char!r}")
            writer.write_uint(code, 7)

    def decode(self, reader: BitReader) -> str:
        if self.hi is None:
            size = reader.read_length()
        elif self.hi != self.lo:
            width = _bits_for_range(self.hi - self.lo + 1)
            size = self.lo + reader.read_uint(width)
        else:
            size = self.lo
        return "".join(chr(reader.read_uint(7)) for _ in range(size))


class Field:
    """One SEQUENCE component.

    Args:
        name: component name (dict key in values).
        type_: the component's :class:`Asn1Type`.
        optional: True for OPTIONAL components.
        default: DEFAULT value (implies optional presence bit).
    """

    __slots__ = ("name", "type_", "optional", "default", "has_default")

    _MISSING = object()

    def __init__(self, name: str, type_: Asn1Type, optional: bool = False,
                 default: Any = _MISSING):
        self.name = name
        self.type_ = type_
        self.has_default = default is not Field._MISSING
        self.default = None if not self.has_default else default
        self.optional = optional or self.has_default


class Sequence(Asn1Type):
    """ASN.1 SEQUENCE with an optional-presence preamble.

    Values are dicts; absent OPTIONAL components are simply missing
    keys (or explicitly ``None`` is *not* allowed -- omit the key).
    An extension marker adds the leading extension bit; decoding an
    extended value with unknown extensions is rejected (ITS PDUs in
    this testbed never use extension additions).
    """

    def __init__(self, name: str, fields: Seq[Field],
                 extensible: bool = False):
        self.name = name
        self.fields = tuple(fields)
        self.extensible = extensible
        seen = set()
        for field in self.fields:
            if field.name in seen:
                raise Asn1Error(f"{name}: duplicate field {field.name!r}")
            seen.add(field.name)

    def encode(self, writer: BitWriter, value: Any) -> None:
        if not isinstance(value, dict):
            raise Asn1Error(f"{self.name} requires dict, got {value!r}")
        unknown = set(value) - {f.name for f in self.fields}
        if unknown:
            raise Asn1Error(f"{self.name}: unknown fields {sorted(unknown)}")
        if self.extensible:
            writer.write_bit(0)  # no extension additions
        for field in self.fields:
            if field.optional:
                writer.write_bit(1 if field.name in value else 0)
            elif field.name not in value:
                raise Asn1Error(
                    f"{self.name}: missing mandatory field {field.name!r}"
                )
        for field in self.fields:
            if field.name in value:
                try:
                    field.type_.encode(writer, value[field.name])
                except Asn1Error as err:
                    raise Asn1Error(
                        f"{self.name}.{field.name}: {err}"
                    ) from err

    def decode(self, reader: BitReader) -> Dict[str, Any]:
        if self.extensible:
            if reader.read_bit():
                raise Asn1Error(
                    f"{self.name}: extension additions unsupported"
                )
        present = {}
        for field in self.fields:
            present[field.name] = (
                bool(reader.read_bit()) if field.optional else True
            )
        out: Dict[str, Any] = {}
        for field in self.fields:
            if present[field.name]:
                out[field.name] = field.type_.decode(reader)
        return out


class SequenceOf(Asn1Type):
    """ASN.1 SEQUENCE OF with bounded or unbounded count.  Values: lists."""

    def __init__(self, element: Asn1Type, lo: int = 0,
                 hi: Optional[int] = None, name: str = "SEQUENCE OF"):
        self.element = element
        self.lo = lo
        self.hi = hi
        self.name = name

    def encode(self, writer: BitWriter, value: Any) -> None:
        if not isinstance(value, (list, tuple)):
            raise Asn1Error(f"{self.name} requires list, got {value!r}")
        count = len(value)
        if count < self.lo or (self.hi is not None and count > self.hi):
            raise Asn1Error(
                f"{self.name}: count {count} outside [{self.lo}, {self.hi}]"
            )
        if self.hi is None:
            writer.write_length(count)
        elif self.hi != self.lo:
            width = _bits_for_range(self.hi - self.lo + 1)
            writer.write_uint(count - self.lo, width)
        for item in value:
            self.element.encode(writer, item)

    def decode(self, reader: BitReader) -> List[Any]:
        if self.hi is None:
            count = reader.read_length()
        elif self.hi != self.lo:
            width = _bits_for_range(self.hi - self.lo + 1)
            count = self.lo + reader.read_uint(width)
        else:
            count = self.lo
        return [self.element.decode(reader) for _ in range(count)]


class Choice(Asn1Type):
    """ASN.1 CHOICE.  Values: ``(alternative_name, value)`` tuples."""

    def __init__(self, name: str, alternatives: Seq[Tuple[str, Asn1Type]],
                 extensible: bool = False):
        if not alternatives:
            raise Asn1Error(f"{name}: CHOICE needs alternatives")
        self.name = name
        self.alternatives = tuple(alternatives)
        self.extensible = extensible
        self._index = {alt: i for i, (alt, _) in enumerate(self.alternatives)}
        self._width = _bits_for_range(len(self.alternatives))

    def encode(self, writer: BitWriter, value: Any) -> None:
        if (not isinstance(value, tuple)) or len(value) != 2:
            raise Asn1Error(
                f"{self.name} requires (alternative, value), got {value!r}"
            )
        alt, inner = value
        if alt not in self._index:
            raise Asn1Error(f"{self.name}: unknown alternative {alt!r}")
        if self.extensible:
            writer.write_bit(0)
        writer.write_uint(self._index[alt], self._width)
        self.alternatives[self._index[alt]][1].encode(writer, inner)

    def decode(self, reader: BitReader) -> Tuple[str, Any]:
        if self.extensible:
            if reader.read_bit():
                raise Asn1Error(f"{self.name}: extension alternative")
        index = reader.read_uint(self._width)
        if index >= len(self.alternatives):
            raise Asn1Error(f"{self.name}: index {index} out of range")
        alt, type_ = self.alternatives[index]
        return (alt, type_.decode(reader))
