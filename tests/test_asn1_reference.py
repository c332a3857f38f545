"""Differential test: the UPER codec against its predecessor in
:mod:`tests.reference.asn1`.

Every message schema (CAM, DENM, CPM, SPATEM, MAPEM), the composite of
``tests/test_asn1.py`` and a schema that uses every type kind are
mirrored, node by node, into a reference type tree.  Values drawn from
each schema must give the same bytes and decode to the same value in
both codecs; broken values (out of range, wrong type, missing mandatory
or unknown fields, deep inside the tree), arbitrary bytes and every
truncation of a valid encoding must give the same result or the same
exception type and message.

The reference :meth:`BitWriter.write_uint` skips its overflow check
for widths of 64 bits and more; the fast one does not.  No value here
reaches that difference: the widest constrained width is 42 bits
(``TimestampIts``), and an ``Integer`` rejects an out-of-range value
before anything is written.
"""

import functools
from typing import Any, Callable, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.reference.asn1 as ref
from repro.asn1 import (
    Asn1Type,
    BitReader,
    BitString,
    BitWriter,
    Boolean,
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
from repro.messages import CAM_PDU, DENM_PDU, MAPEM_PDU, SPATEM_PDU
from repro.messages.cpm import CPM_PDU
from tests.test_asn1 import COMPOSITE

#: Every type kind and constraint shape the codec supports.
EVERY_KIND = Sequence("EveryKind", [
    Field("semi", Integer(lo=-5)),
    Field("free", Integer(), optional=True),
    Field("upper", Integer(hi=9, name="UpperOnly"), optional=True),
    Field("nothing", Null()),
    Field("flag", Boolean(), default=False),
    Field("fixedBits", BitString(3)),
    Field("bits", BitString(2, 11), optional=True),
    Field("fixedOctets", OctetString(2, 2)),
    Field("octets", OctetString(1), optional=True),
    Field("text", IA5String(0, 5)),
    Field("word", IA5String(3, 3), optional=True),
    Field("longText", IA5String(), optional=True),
    Field("many", SequenceOf(Integer(0, 3), 2, 2), optional=True),
    Field("pick", Choice("Pick", [
        ("none", Null()),
        ("inner", Sequence("Inner", [
            Field("a", Integer(0, 1), optional=True),
        ], extensible=True)),
        ("list", SequenceOf(Boolean())),
    ], extensible=True)),
], extensible=True)

SCHEMAS: Dict[str, Asn1Type] = {
    "CAM": CAM_PDU,
    "DENM": DENM_PDU,
    "CPM": CPM_PDU,
    "SPATEM": SPATEM_PDU,
    "MAPEM": MAPEM_PDU,
    "COMPOSITE": COMPOSITE,
    "EVERY_KIND": EVERY_KIND,
}


# ---------------------------------------------------------------------------
# The reference tree
# ---------------------------------------------------------------------------


def _convert(type_: Asn1Type, memo: Dict[int, Any]) -> Any:
    """The reference twin of *type_* (shared nodes stay shared)."""
    if id(type_) in memo:
        return memo[id(type_)]
    if isinstance(type_, Boolean):
        twin = ref.Boolean()
    elif isinstance(type_, Null):
        twin = ref.Null()
    elif isinstance(type_, Integer):
        twin = ref.Integer(type_.lo, type_.hi, type_.name)
    elif isinstance(type_, Enumerated):
        twin = ref.Enumerated(type_.names, type_.name)
    elif isinstance(type_, BitString):
        twin = ref.BitString(type_.lo, type_.hi, type_.name)
    elif isinstance(type_, OctetString):
        twin = ref.OctetString(type_.lo, type_.hi, type_.name)
    elif isinstance(type_, IA5String):
        twin = ref.IA5String(type_.lo, type_.hi, type_.name)
    elif isinstance(type_, SequenceOf):
        twin = ref.SequenceOf(_convert(type_.element, memo),
                              type_.lo, type_.hi, type_.name)
    elif isinstance(type_, Choice):
        twin = ref.Choice(
            type_.name,
            [(alt, _convert(inner, memo))
             for alt, inner in type_.alternatives],
            type_.extensible)
    elif isinstance(type_, Sequence):
        fields = []
        for field in type_.fields:
            inner = _convert(field.type_, memo)
            if field.has_default:
                fields.append(ref.Field(field.name, inner,
                                        default=field.default))
            else:
                fields.append(ref.Field(field.name, inner, field.optional))
        twin = ref.Sequence(type_.name, fields, type_.extensible)
    else:  # pragma: no cover - a new type kind needs a twin here
        raise TypeError(f"no reference twin for {type_!r}")
    memo[id(type_)] = twin
    return twin


REFERENCE = {name: _convert(schema, {}) for name, schema in SCHEMAS.items()}


def outcome(fn: Callable[..., Any], *args: Any) -> Tuple[Any, Any]:
    """``("ok", result)``, or the exception's type and message."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # any type: the two codecs' are compared
        return (type(exc), str(exc))


# ---------------------------------------------------------------------------
# Schema-driven values
# ---------------------------------------------------------------------------

#: Extra elements drawn above a SEQUENCE OF's lower bound.
LIST_SLACK = 2

def _list_bounds(lo: int, hi: Any) -> Tuple[int, int]:
    top = lo + LIST_SLACK
    return lo, top if hi is None else min(hi, top)


@functools.lru_cache(maxsize=None)
def values(type_: Asn1Type) -> st.SearchStrategy:
    """Valid values of *type_* (one strategy per type node)."""
    if isinstance(type_, Boolean):
        return st.booleans()
    if isinstance(type_, Null):
        return st.none()
    if isinstance(type_, Integer):
        lo = -2**70 if type_.lo is None else type_.lo
        hi = lo + 2**70 if type_.hi is None else type_.hi
        return st.integers(lo, hi)
    if isinstance(type_, Enumerated):
        return st.sampled_from(type_.names)
    if isinstance(type_, BitString):
        return st.lists(st.sampled_from((0, 1)), min_size=type_.lo,
                        max_size=type_.hi).map(tuple)
    if isinstance(type_, OctetString):
        lo, hi = _list_bounds(type_.lo, type_.hi)
        return st.binary(min_size=lo, max_size=hi)
    if isinstance(type_, IA5String):
        lo, hi = _list_bounds(type_.lo, type_.hi)
        return st.text(st.characters(max_codepoint=127), min_size=lo,
                       max_size=hi)
    if isinstance(type_, SequenceOf):
        lo, hi = _list_bounds(type_.lo, type_.hi)
        return st.lists(values(type_.element), min_size=lo, max_size=hi)
    if isinstance(type_, Choice):
        return st.one_of([st.tuples(st.just(alt), values(inner))
                          for alt, inner in type_.alternatives])
    assert isinstance(type_, Sequence)
    return st.fixed_dictionaries(
        {f.name: values(f.type_) for f in type_.fields if not f.optional},
        optional={f.name: values(f.type_)
                  for f in type_.fields if f.optional})


# ---------------------------------------------------------------------------
# Broken values
# ---------------------------------------------------------------------------

WRONG_TYPES = st.sampled_from(
    [None, 7, -1, 2.5, True, "x", b"\x01", (), [], {"k": 1}, ("a", 1, 2)])


def broken(draw: Callable, type_: Asn1Type, value: Any) -> Any:
    """*value* with one fault planted at a drawn depth."""
    if draw(st.integers(0, 9)) == 0:
        return draw(WRONG_TYPES)
    if isinstance(type_, Integer):
        below = [] if type_.lo is None else [
            st.integers(type_.lo - 2**40, type_.lo - 1)]
        above = [] if type_.hi is None else [
            st.integers(type_.hi + 1, type_.hi + 2**40)]
        return draw(st.one_of(*below, *above, WRONG_TYPES))
    if isinstance(type_, Enumerated):
        return draw(st.sampled_from(["noSuchName", 0, ["list"]]))
    if isinstance(type_, BitString):
        bad_bit = list(value) + [draw(st.sampled_from([2, -1, "1", None]))]
        wrong_size = [0] * draw(st.sampled_from(
            [n for n in (type_.lo - 1, type_.hi + 1) if n >= 0]))
        return draw(st.sampled_from([bad_bit, wrong_size, 5]))
    if isinstance(type_, (OctetString, IA5String)):
        if type_.hi is not None:
            size = type_.hi + 1
        elif type_.lo:
            size = type_.lo - 1
        else:
            size = None
        chars = [] if size is None else [
            bytes(size) if isinstance(type_, OctetString) else "a" * size]
        return draw(st.sampled_from(chars + ["café", bytearray(b"z")]))
    if isinstance(type_, SequenceOf):
        if value and draw(st.booleans()):
            index = draw(st.integers(0, len(value) - 1))
            inner = broken(draw, type_.element, value[index])
            return value[:index] + [inner] + value[index + 1:]
        if type_.hi is not None:
            return draw(values(type_.element).map(lambda e: [e] * (type_.hi + 1)))
        return draw(WRONG_TYPES)
    if isinstance(type_, Choice):
        alt, inner = value
        return draw(st.sampled_from([
            (alt, broken(draw, dict(type_.alternatives)[alt], inner)),
            ("noSuchAlternative", inner),
            [alt, inner],
        ]))
    if isinstance(type_, Sequence):
        mandatory = [f.name for f in type_.fields if not f.optional]
        present = [f for f in type_.fields if f.name in value]
        faults = ["unknown"] + (["missing"] if mandatory else [])
        faults += ["inner"] * 3 if present else []
        fault = draw(st.sampled_from(faults))
        if fault == "unknown":
            extra = draw(st.lists(st.sampled_from(["zz-1", "aa-2", "mm-3"]),
                                  min_size=1, unique=True))
            return {**value, **{name: 0 for name in extra}}
        if fault == "missing":
            gone = draw(st.lists(st.sampled_from(mandatory), min_size=1,
                                 unique=True))
            return {k: v for k, v in value.items() if k not in gone}
        field = draw(st.sampled_from(present))
        return {**value, field.name: broken(draw, field.type_,
                                            value[field.name])}
    return draw(WRONG_TYPES)  # Boolean, Null


@st.composite
def broken_values(draw: Callable, type_: Asn1Type) -> Any:
    return broken(draw, type_, draw(values(type_)))


# ---------------------------------------------------------------------------
# The differential tests
# ---------------------------------------------------------------------------

schema_names = pytest.mark.parametrize("name", sorted(SCHEMAS))


@schema_names
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_valid_values_encode_and_decode_alike(name, data):
    fast, slow = SCHEMAS[name], REFERENCE[name]
    value = data.draw(values(fast), label="value")
    encoded = fast.to_bytes(value)
    assert encoded == slow.to_bytes(value)
    assert fast.from_bytes(encoded) == slow.from_bytes(encoded) == value


@schema_names
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_broken_values_fail_alike(name, data):
    fast, slow = SCHEMAS[name], REFERENCE[name]
    value = data.draw(broken_values(fast), label="value")
    assert outcome(fast.to_bytes, value) == outcome(slow.to_bytes, value)


@schema_names
@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=96))
def test_arbitrary_bytes_decode_alike(name, data):
    assert (outcome(SCHEMAS[name].from_bytes, data)
            == outcome(REFERENCE[name].from_bytes, data))


@schema_names
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_truncation_decodes_alike(name, data):
    fast, slow = SCHEMAS[name], REFERENCE[name]
    encoded = fast.to_bytes(data.draw(values(fast), label="value"))
    for end in range(len(encoded)):
        prefix = encoded[:end]
        assert outcome(fast.from_bytes, prefix) == \
            outcome(slow.from_bytes, prefix)


# ---------------------------------------------------------------------------
# Bit primitives: one random program run on both writers and readers
# ---------------------------------------------------------------------------

write_ops = st.one_of(
    st.tuples(st.just("write_bit"), st.integers(0, 1)),
    st.integers(0, 63).flatmap(lambda width: st.tuples(
        st.just("write_uint"), st.integers(0, 2**width - 1),
        st.just(width))),
    # Out of range below 64 bits, where both writers check.
    st.tuples(st.just("write_uint"), st.integers(-2, 2**12),
              st.integers(-1, 10)),
    st.tuples(st.just("write_bytes"), st.binary(max_size=6)),
    st.tuples(st.just("write_length"), st.integers(0, 16383)),
)

read_ops = st.one_of(
    st.tuples(st.just("read_bit")),
    st.tuples(st.just("read_uint"), st.integers(0, 70)),
    st.tuples(st.just("read_bytes"), st.integers(0, 6)),
    st.tuples(st.just("read_length")),
)


def _run(target: Any, program: List[Tuple[Any, ...]]) -> List[Any]:
    trace = []
    for op, *args in program:
        trace.append(outcome(getattr(target, op), *args))
        trace.append((len(target), target.bit_length)
                     if hasattr(target, "bit_length")
                     else (target.position, target.remaining))
    return trace


@settings(max_examples=100, deadline=None)
@given(st.lists(write_ops, max_size=12), st.lists(read_ops, max_size=12))
def test_bit_primitives_agree(writes, reads):
    fast_writer, slow_writer = BitWriter(), ref.BitWriter()
    assert _run(fast_writer, writes) == _run(slow_writer, writes)
    encoded = fast_writer.to_bytes()
    assert encoded == slow_writer.to_bytes()
    assert _run(BitReader(encoded), reads) == \
        _run(ref.BitReader(encoded), reads)
