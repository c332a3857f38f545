"""Unit and property-based tests for the ASN.1 UPER codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import (
    Asn1Error,
    BitReader,
    BitWriter,
    Boolean,
    BitString,
    Choice,
    Enumerated,
    Field,
    IA5String,
    Integer,
    Null,
    OctetString,
    Sequence,
    SequenceOf,
)


# ---------------------------------------------------------------------------
# Bit-level primitives
# ---------------------------------------------------------------------------


class TestBitPrimitives:
    def test_single_bits_round_trip(self):
        writer = BitWriter()
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        for bit in pattern:
            writer.write_bit(bit)
        reader = BitReader(writer.to_bytes())
        assert [reader.read_bit() for _ in range(9)] == pattern

    def test_uint_round_trip(self):
        writer = BitWriter()
        writer.write_uint(5, 3)
        writer.write_uint(1000, 10)
        writer.write_uint(0, 0)
        writer.write_uint(1, 1)
        reader = BitReader(writer.to_bytes())
        assert reader.read_uint(3) == 5
        assert reader.read_uint(10) == 1000
        assert reader.read_uint(0) == 0
        assert reader.read_uint(1) == 1

    def test_uint_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(Asn1Error):
            writer.write_uint(8, 3)

    def test_wide_uint_overflow_rejected(self):
        # The check holds at every width: a value wider than 64 bits is
        # rejected, not cut to its low 64 bits, and nothing is written.
        for value in (1 << 64, (1 << 70) | 5):
            writer = BitWriter()
            writer.write_uint(1, 1)
            with pytest.raises(Asn1Error, match="does not fit in 64 bits"):
                writer.write_uint(value, 64)
            assert writer.to_bytes() == b"\x80"

    def test_negative_uint_rejected(self):
        writer = BitWriter()
        with pytest.raises(Asn1Error):
            writer.write_uint(-1, 4)

    def test_read_past_end_raises(self):
        reader = BitReader(b"\xff")
        reader.read_uint(8)
        with pytest.raises(Asn1Error):
            reader.read_bit()

    def test_padding_to_octet(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.to_bytes() == b"\x80"

    def test_bytes_unaligned(self):
        writer = BitWriter()
        writer.write_bit(1)
        writer.write_bytes(b"\xab")
        reader = BitReader(writer.to_bytes())
        assert reader.read_bit() == 1
        assert reader.read_bytes(1) == b"\xab"

    @given(st.integers(0, 2**32 - 1), st.integers(32, 48))
    def test_uint_round_trip_property(self, value, width):
        writer = BitWriter()
        writer.write_uint(value, width)
        assert BitReader(writer.to_bytes()).read_uint(width) == value

    @given(st.integers(0, 16383))
    def test_length_determinant_round_trip(self, length):
        writer = BitWriter()
        writer.write_length(length)
        assert BitReader(writer.to_bytes()).read_length() == length

    def test_length_fragmentation_unsupported(self):
        writer = BitWriter()
        with pytest.raises(Asn1Error):
            writer.write_length(16384)


# ---------------------------------------------------------------------------
# Scalar types
# ---------------------------------------------------------------------------


class TestInteger:
    def test_constrained_width(self):
        # Range of 8 values -> 3 bits.
        t = Integer(0, 7)
        writer = BitWriter()
        t.encode(writer, 5)
        assert writer.bit_length == 3

    def test_single_value_range_is_zero_bits(self):
        t = Integer(4, 4)
        writer = BitWriter()
        t.encode(writer, 4)
        assert writer.bit_length == 0
        assert t.from_bytes(b"") == 4

    def test_out_of_range_rejected(self):
        t = Integer(0, 10)
        with pytest.raises(Asn1Error):
            t.to_bytes(11)
        with pytest.raises(Asn1Error):
            t.to_bytes(-1)

    def test_bool_rejected(self):
        with pytest.raises(Asn1Error):
            Integer(0, 1).to_bytes(True)

    def test_empty_range_rejected(self):
        with pytest.raises(Asn1Error):
            Integer(5, 4)

    @given(st.integers(-900000000, 900000001))
    def test_latitude_range_round_trip(self, value):
        t = Integer(-900000000, 900000001)
        assert t.from_bytes(t.to_bytes(value)) == value

    @given(st.integers(0, 10**12))
    def test_semi_constrained_round_trip(self, value):
        t = Integer(lo=0)
        assert t.from_bytes(t.to_bytes(value)) == value

    @given(st.integers(-10**12, 10**12))
    def test_unconstrained_round_trip(self, value):
        t = Integer()
        assert t.from_bytes(t.to_bytes(value)) == value


class TestBooleanNull:
    def test_boolean_round_trip(self):
        t = Boolean()
        assert t.from_bytes(t.to_bytes(True)) is True
        assert t.from_bytes(t.to_bytes(False)) is False

    def test_boolean_is_one_bit(self):
        writer = BitWriter()
        Boolean().encode(writer, True)
        assert writer.bit_length == 1

    def test_boolean_rejects_non_bool(self):
        with pytest.raises(Asn1Error):
            Boolean().to_bytes(1)

    def test_null_encodes_nothing(self):
        assert Null().to_bytes(None) == b""
        assert Null().from_bytes(b"") is None

    def test_null_rejects_values(self):
        with pytest.raises(Asn1Error):
            Null().to_bytes(0)


class TestEnumerated:
    def test_round_trip(self):
        t = Enumerated(["red", "green", "blue"])
        for name in ("red", "green", "blue"):
            assert t.from_bytes(t.to_bytes(name)) == name

    def test_width(self):
        writer = BitWriter()
        Enumerated(["a", "b", "c"]).encode(writer, "c")
        assert writer.bit_length == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(Asn1Error):
            Enumerated(["a"]).to_bytes("b")

    def test_empty_enum_rejected(self):
        with pytest.raises(Asn1Error):
            Enumerated([])


class TestSizeRanges:
    """An empty or negative size range fails where the type is built."""

    @pytest.mark.parametrize("cls, args, shown", [
        (OctetString, (5, 3), "OCTET STRING: bad size range [5, 3]"),
        (OctetString, (-1, 2), "OCTET STRING: bad size range [-1, 2]"),
        (OctetString, (-1,), "OCTET STRING: bad size range [-1, None]"),
        (IA5String, (4, 2), "IA5String: bad size range [4, 2]"),
        (IA5String, (-2, None, "Tag"), "Tag: bad size range [-2, None]"),
        (SequenceOf, (Boolean(), 3, 1), "SEQUENCE OF: bad size range [3, 1]"),
        (SequenceOf, (Boolean(), -1), "SEQUENCE OF: bad size range [-1, None]"),
        (BitString, (3, 2), "BIT STRING: bad size range [3, 2]"),
        (BitString, (-1,), "BIT STRING: bad size range [-1, None]"),
    ], ids=lambda arg: arg.__name__ if isinstance(arg, type) else None)
    def test_bad_range_rejected_at_construction(self, cls, args, shown):
        with pytest.raises(Asn1Error) as err:
            cls(*args)
        assert str(err.value) == shown

    @pytest.mark.parametrize("cls, args", [
        (OctetString, (3, 3)), (OctetString, (0,)), (IA5String, (0, 0)),
        (SequenceOf, (Boolean(), 2, 2)), (SequenceOf, (Boolean(), 4)),
        (BitString, (0,)),
    ], ids=lambda arg: arg.__name__ if isinstance(arg, type) else None)
    def test_single_and_unbounded_ranges_accepted(self, cls, args):
        cls(*args)


class TestStringsAndBits:
    def test_fixed_bit_string(self):
        t = BitString(4)
        data = t.to_bytes((1, 0, 1, 1))
        assert t.from_bytes(data) == (1, 0, 1, 1)

    def test_variable_bit_string(self):
        t = BitString(0, 8)
        assert t.from_bytes(t.to_bytes(())) == ()
        assert t.from_bytes(t.to_bytes((1, 1, 1))) == (1, 1, 1)

    def test_bit_string_size_enforced(self):
        with pytest.raises(Asn1Error):
            BitString(2, 4).to_bytes((1,))

    def test_bad_bit_value_rejected(self):
        with pytest.raises(Asn1Error):
            BitString(2).to_bytes((1, 2))

    @given(st.binary(max_size=64))
    def test_unbounded_octet_string_round_trip(self, data):
        t = OctetString()
        assert t.from_bytes(t.to_bytes(data)) == data

    def test_fixed_octet_string(self):
        t = OctetString(3, 3)
        assert t.from_bytes(t.to_bytes(b"abc")) == b"abc"
        with pytest.raises(Asn1Error):
            t.to_bytes(b"ab")

    @given(st.text(alphabet=st.characters(min_codepoint=32,
                                          max_codepoint=126), max_size=30))
    def test_ia5_round_trip(self, text):
        t = IA5String()
        assert t.from_bytes(t.to_bytes(text)) == text

    def test_ia5_rejects_non_ascii(self):
        with pytest.raises(Asn1Error):
            IA5String().to_bytes("café")

    def test_ia5_is_seven_bits_per_char(self):
        writer = BitWriter()
        IA5String(2, 2).encode(writer, "ab")
        assert writer.bit_length == 14


# ---------------------------------------------------------------------------
# Constructed types
# ---------------------------------------------------------------------------

POINT = Sequence("Point", [
    Field("x", Integer(0, 100)),
    Field("y", Integer(0, 100)),
    Field("label", IA5String(0, 10), optional=True),
])


class TestSequence:
    def test_round_trip_mandatory(self):
        value = {"x": 3, "y": 99}
        assert POINT.from_bytes(POINT.to_bytes(value)) == value

    def test_round_trip_with_optional(self):
        value = {"x": 1, "y": 2, "label": "home"}
        assert POINT.from_bytes(POINT.to_bytes(value)) == value

    def test_missing_mandatory_rejected(self):
        with pytest.raises(Asn1Error, match="missing mandatory"):
            POINT.to_bytes({"x": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(Asn1Error, match="unknown fields"):
            POINT.to_bytes({"x": 1, "y": 2, "z": 3})

    def test_error_names_the_field(self):
        with pytest.raises(Asn1Error, match="Point.x"):
            POINT.to_bytes({"x": 999, "y": 2})

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(Asn1Error):
            Sequence("Bad", [Field("a", Boolean()), Field("a", Boolean())])

    def test_extensible_sequence_round_trip(self):
        t = Sequence("Ext", [Field("a", Integer(0, 3))], extensible=True)
        assert t.from_bytes(t.to_bytes({"a": 2})) == {"a": 2}

    def test_empty_extensible_sequence(self):
        t = Sequence("Empty", [], extensible=True)
        assert t.from_bytes(t.to_bytes({})) == {}


class TestSequenceOf:
    def test_bounded_round_trip(self):
        t = SequenceOf(Integer(0, 255), 0, 5)
        for value in ([], [1], [1, 2, 3, 4, 5]):
            assert t.from_bytes(t.to_bytes(value)) == value

    def test_unbounded_round_trip(self):
        t = SequenceOf(Integer(0, 255))
        value = list(range(200))
        assert t.from_bytes(t.to_bytes(value)) == value

    def test_count_bounds_enforced(self):
        t = SequenceOf(Integer(0, 255), 1, 3)
        with pytest.raises(Asn1Error):
            t.to_bytes([])
        with pytest.raises(Asn1Error):
            t.to_bytes([1, 2, 3, 4])

    def test_nested_sequence_of(self):
        t = SequenceOf(SequenceOf(Integer(0, 7), 0, 3), 0, 3)
        value = [[1, 2], [], [7]]
        assert t.from_bytes(t.to_bytes(value)) == value


class TestChoice:
    SHAPE = Choice("Shape", [
        ("circle", Integer(0, 1000)),
        ("rect", Sequence("Rect", [
            Field("w", Integer(0, 100)),
            Field("h", Integer(0, 100)),
        ])),
    ])

    def test_round_trip_each_alternative(self):
        for value in (("circle", 42), ("rect", {"w": 3, "h": 4})):
            assert self.SHAPE.from_bytes(self.SHAPE.to_bytes(value)) == value

    def test_unknown_alternative_rejected(self):
        with pytest.raises(Asn1Error):
            self.SHAPE.to_bytes(("triangle", 1))

    def test_malformed_value_rejected(self):
        with pytest.raises(Asn1Error):
            self.SHAPE.to_bytes("circle")

    def test_extensible_choice(self):
        t = Choice("E", [("a", Boolean())], extensible=True)
        assert t.from_bytes(t.to_bytes(("a", True))) == ("a", True)


# ---------------------------------------------------------------------------
# Property-based: composite round-trip
# ---------------------------------------------------------------------------

COMPOSITE = Sequence("Composite", [
    Field("id", Integer(0, 2**32 - 1)),
    Field("kind", Enumerated(["alpha", "beta", "gamma"])),
    Field("flags", BitString(0, 8)),
    Field("payload", OctetString(0, 32), optional=True),
    Field("tags", SequenceOf(IA5String(0, 8), 0, 4)),
])

composite_values = st.fixed_dictionaries(
    {
        "id": st.integers(0, 2**32 - 1),
        "kind": st.sampled_from(["alpha", "beta", "gamma"]),
        "flags": st.lists(st.sampled_from([0, 1]), max_size=8).map(tuple),
        "tags": st.lists(
            st.text(alphabet="abcdefgh", max_size=8), max_size=4),
    },
).flatmap(
    lambda base: st.one_of(
        st.just(base),
        st.binary(max_size=32).map(
            lambda payload: {**base, "payload": payload}),
    )
)


@settings(max_examples=200)
@given(composite_values)
def test_composite_round_trip_property(value):
    assert COMPOSITE.from_bytes(COMPOSITE.to_bytes(value)) == value


@given(composite_values, composite_values)
def test_distinct_values_encode_distinctly(a, b):
    # UPER is a canonical encoding: equal bytes iff equal values.
    assert (COMPOSITE.to_bytes(a) == COMPOSITE.to_bytes(b)) == (a == b)


# ---------------------------------------------------------------------------
# Decode robustness: arbitrary bytes must fail cleanly
# ---------------------------------------------------------------------------


class TestDecodeRobustness:
    """Feeding arbitrary bytes into any decoder must either produce a
    value or raise Asn1Error -- never an unrelated exception."""

    @given(st.binary(max_size=64))
    @settings(max_examples=300)
    def test_composite_decode_never_crashes(self, data):
        try:
            COMPOSITE.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(max_size=128))
    @settings(max_examples=200)
    def test_cam_decode_never_crashes(self, data):
        from repro.messages.cam import CAM_PDU

        try:
            CAM_PDU.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(max_size=128))
    @settings(max_examples=200)
    def test_denm_decode_never_crashes(self, data):
        from repro.messages.denm import DENM_PDU

        try:
            DENM_PDU.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(max_size=96))
    @settings(max_examples=150)
    def test_spatem_decode_never_crashes(self, data):
        from repro.messages.spat import SPATEM_PDU

        try:
            SPATEM_PDU.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(max_size=96))
    @settings(max_examples=150)
    def test_cpm_decode_never_crashes(self, data):
        from repro.messages.cpm import CPM_PDU

        try:
            CPM_PDU.from_bytes(data)
        except Asn1Error:
            pass

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 7))
    @settings(max_examples=100)
    def test_bitflip_of_valid_cam_fails_cleanly(self, noise, bit):
        from repro.messages import Cam, ReferencePosition, StationType
        from repro.messages.cam import CAM_PDU

        cam = Cam(station_id=1, station_type=StationType.PASSENGER_CAR,
                  generation_delta_time=0,
                  position=ReferencePosition(41.0, -8.0))
        data = bytearray(cam.encode())
        index = noise[0] % len(data)
        data[index] ^= 1 << bit
        try:
            CAM_PDU.from_bytes(bytes(data))
        except Asn1Error:
            pass


# ---------------------------------------------------------------------------
# The benchmark's hook: ASN.1 is timed on the base class only
# ---------------------------------------------------------------------------


class TestBenchHookContract:
    """The benchmark attributes ASN.1 time by wrapping
    ``Asn1Type.to_bytes`` / ``from_bytes`` on the base class; an
    override in a subclass, or a message that bypassed them, would
    silently drop out of that attribution."""

    def test_no_type_overrides_the_pdu_helpers(self):
        import repro.asn1.types as types

        subclasses = [obj for obj in vars(types).values()
                      if isinstance(obj, type) and issubclass(obj, types.Asn1Type)
                      and obj is not types.Asn1Type]
        assert len(subclasses) >= 10
        for cls in subclasses:
            assert "to_bytes" not in vars(cls), cls
            assert "from_bytes" not in vars(cls), cls

    def test_messages_encode_and_decode_through_their_pdu(self, monkeypatch):
        from repro.asn1 import Asn1Type
        from repro.messages import (
            CAM_PDU, DENM_PDU, MAPEM_PDU, SPATEM_PDU, ActionId, Cam, Denm,
            Lane, Mapem, MovementState, ReferencePosition, Spatem,
            StationType,
        )
        from repro.messages.cam import _decode_cam_cached
        from repro.messages.cpm import CPM_PDU, Cpm, PerceivedObject
        from repro.messages.denm import _decode_denm_cached

        # CAM and DENM decodes are memoised by payload.
        _decode_cam_cached.cache_clear()
        _decode_denm_cached.cache_clear()
        calls = []

        def recorded(name):
            original = getattr(Asn1Type, name)

            def wrapper(self, arg):
                calls.append((name, self))
                return original(self, arg)
            return wrapper

        for name in ("to_bytes", "from_bytes"):
            monkeypatch.setattr(Asn1Type, name, recorded(name))

        here = ReferencePosition(41.25, -8.75)
        messages = [
            (Cam(station_id=9, station_type=StationType.PASSENGER_CAR,
                 generation_delta_time=17, position=here), CAM_PDU),
            (Denm(action_id=ActionId(9, 4321), detection_time=123456,
                  reference_time=123457, event_position=here,
                  station_type=StationType.PASSENGER_CAR), DENM_PDU),
            (Cpm(station_id=9, station_type=StationType.PASSENGER_CAR,
                 generation_delta_time=17, reference_position=here,
                 perceived_objects=(PerceivedObject(1, 2.0, 3.0),)), CPM_PDU),
            (Spatem(station_id=9, intersection_id=3, revision=1,
                    movements=(MovementState(1, "stop-And-Remain", 4.0),)),
             SPATEM_PDU),
            (Mapem(station_id=9, intersection_id=3, revision=1,
                   reference_position=here,
                   lanes=(Lane(1, "ingress", 90.0, 1),)), MAPEM_PDU),
        ]
        for message, pdu in messages:
            calls.clear()
            data = message.encode()
            assert calls == [("to_bytes", pdu)], type(message).__name__
            calls.clear()
            type(message).decode(data)
            assert calls == [("from_bytes", pdu)], type(message).__name__
