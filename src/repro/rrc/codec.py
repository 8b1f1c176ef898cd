"""Binary codec for signaling messages.

Real LTE RRC messages are ASN.1 PER; MobileInsight's core job is
decoding them out of the modem's diag stream.  We reproduce that code
path with a compact self-describing TLV encoding: one tag byte per
value, varint-encoded integers and lengths, IEEE-754 doubles, UTF-8
strings, and nested lists/dicts.  A message wire unit is::

    [type_code: varint][payload: value]

where the payload value is the message's ``to_payload()`` dict.  The
decoder is strict — unknown tags, truncated buffers and trailing bytes
all raise :class:`CodecError` — because the crawler must notice a
corrupt log rather than silently mis-parse configurations.
"""

from __future__ import annotations

import struct

from repro.rrc import messages as msg


class CodecError(ValueError):
    """Raised when a buffer cannot be decoded as a signaling message."""


_TAG_NONE = 0
_TAG_INT = 1
_TAG_NEG_INT = 2
_TAG_FLOAT = 3
_TAG_STR = 4
_TAG_LIST = 5
_TAG_DICT = 6
_TAG_TRUE = 7
_TAG_FALSE = 8


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CodecError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise CodecError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


#: Wire form of a float value after its tag: little-endian IEEE 754.
PACK_DOUBLE = struct.Struct("<d").pack


def _encode_value(out: bytearray, value) -> None:
    # Exact-type dispatch: payloads are plain python scalars and
    # containers (flat dicts of str/int/float for the hot per-tick
    # messages), so ``type(value) is X`` resolves nearly every value in
    # one check with lengths/small ints appended inline.  Subclasses —
    # IntEnum fields, str subclasses — fall through to the reference
    # isinstance ladder at the bottom, which produces the identical
    # wire form.
    t = type(value)
    if t is str:
        encoded = value.encode("utf-8")
        out.append(_TAG_STR)
        n = len(encoded)
        if n < 0x80:
            out.append(n)
        else:
            _write_varint(out, n)
        out.extend(encoded)
    elif t is int:
        if value >= 0:
            out.append(_TAG_INT)
        else:
            out.append(_TAG_NEG_INT)
            value = -value
        if value < 0x80:
            out.append(value)
        else:
            _write_varint(out, value)
    elif t is float:
        out.append(_TAG_FLOAT)
        out.extend(PACK_DOUBLE(value))
    elif t is dict:
        out.append(_TAG_DICT)
        n = len(value)
        if n < 0x80:
            out.append(n)
        else:
            _write_varint(out, n)
        for key in value:  # Insertion order: payloads are built deterministically.
            if type(key) is str:
                encoded = key.encode("utf-8")
                out.append(_TAG_STR)
                n = len(encoded)
                if n < 0x80:
                    out.append(n)
                else:
                    _write_varint(out, n)
                out.extend(encoded)
            elif isinstance(key, str):
                _encode_value(out, key)
            else:
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            _encode_value(out, value[key])
    elif t is list or t is tuple:
        out.append(_TAG_LIST)
        n = len(value)
        if n < 0x80:
            out.append(n)
        else:
            _write_varint(out, n)
        for item in value:
            _encode_value(out, item)
    elif value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        if value >= 0:
            out.append(_TAG_INT)
            _write_varint(out, value)
        else:
            out.append(_TAG_NEG_INT)
            _write_varint(out, -value)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack("<d", value))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(encoded))
        out.extend(encoded)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        _write_varint(out, len(value))
        for key in value:
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            _encode_value(out, key)
            _encode_value(out, value[key])
    else:
        raise CodecError(f"cannot encode {type(value).__name__}")


def _decode_value(buf: bytes, pos: int):
    if pos >= len(buf):
        raise CodecError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        return _read_varint(buf, pos)
    if tag == _TAG_NEG_INT:
        value, pos = _read_varint(buf, pos)
        return -value, pos
    if tag == _TAG_FLOAT:
        if pos + 8 > len(buf):
            raise CodecError("truncated float")
        return struct.unpack_from("<d", buf, pos)[0], pos + 8
    if tag == _TAG_STR:
        length, pos = _read_varint(buf, pos)
        if pos + length > len(buf):
            raise CodecError("truncated string")
        return buf[pos : pos + length].decode("utf-8"), pos + length
    if tag == _TAG_LIST:
        count, pos = _read_varint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(buf, pos)
            items.append(item)
        return items, pos
    if tag == _TAG_DICT:
        count, pos = _read_varint(buf, pos)
        result = {}
        for _ in range(count):
            key, pos = _decode_value(buf, pos)
            if not isinstance(key, str):
                raise CodecError("dict key is not a string")
            value, pos = _decode_value(buf, pos)
            result[key] = value
        return result, pos
    raise CodecError(f"unknown tag {tag}")


#: Broadcast-class messages are frozen dataclasses rebuilt with
#: identical field values on every camp, so their wire form is memoized
#: by equality: re-camping on a cell (every handover re-reads the full
#: SIB set) costs one dict hit instead of a payload build plus a TLV
#: encode.  Per-emission messages (PhyServingMeas, MeasurementReport)
#: are excluded — every instance is unique, so caching them would only
#: grow the dict without ever hitting.
_CACHEABLE_TYPES = frozenset(
    {
        msg.Sib1,
        msg.Sib3,
        msg.Sib4,
        msg.Sib5,
        msg.Sib6,
        msg.Sib7,
        msg.Sib8,
        msg.MobilityControlInfo,
        msg.RrcConnectionReconfiguration,
    }
)
_encode_cache: dict[msg.Message, bytes] = {}
#: Entries each codec memo holds before it is cleared.  One
#: d2-crowdsource body broadcasts about 5,200 distinct cacheable
#: payloads and a default D2 build about 14,100, so a default build is
#: encoded and decoded once per payload.
_ENCODE_CACHE_MAX = 16384
#: The decode-side mirror: a cacheable type's message decoded once per
#: distinct payload.  Decoding is a pure function of the bytes and these
#: types decode to frozen, hashable trees, so every record of one
#: payload may share one message, which no reader may mutate.
#: LegacySystemInfo (a mutable ``fields`` dict) and the per-emission
#: messages are decoded fresh every time.
_decode_cache: dict[bytes, msg.Message] = {}


def _encode_uncached(message: msg.Message) -> bytes:
    out = bytearray()
    _write_varint(out, message.TYPE_CODE)
    _encode_value(out, message.to_payload())
    return bytes(out)


#: The one high-rate per-emission message is PhyServingMeas (one per UE
#: every 500 ms).  Its payload shape is fixed and only the two metric
#: floats change between emissions from the same serving cell, so the
#: wire form around them is templated per (cell identity, state) and the
#: floats are spliced in — byte-identical to the generic encoder, which
#: remains the reference (and the template builder).
_phy_templates: dict[tuple, tuple[bytes, bytes, bytes]] = {}


def phy_serving_template(
    carrier: str, gci: int, channel: int, rat: str, sinr_db: float, rrc_connected: bool
) -> tuple[bytes, bytes, bytes]:
    """``(head, mid, tail)`` of a PhyServingMeas around its two metrics.

    ``head + pack(rsrp_dbm) + mid + pack(rsrq_db) + tail`` is the
    message's wire form, where ``pack`` is :data:`PACK_DOUBLE`.
    """
    key = (carrier, gci, channel, rat, sinr_db, rrc_connected)
    parts = _phy_templates.get(key)
    if parts is None:
        head = bytearray()
        _write_varint(head, msg.PhyServingMeas.TYPE_CODE)
        head.append(_TAG_DICT)
        head.append(8)  # to_payload() field count
        for field, value in (
            ("carrier", carrier),
            ("gci", gci),
            ("channel", channel),
            ("rat", rat),
        ):
            _encode_value(head, field)
            _encode_value(head, value)
        _encode_value(head, "rsrp_dbm")
        head.append(_TAG_FLOAT)
        mid = bytearray()
        _encode_value(mid, "rsrq_db")
        mid.append(_TAG_FLOAT)
        tail = bytearray()
        _encode_value(tail, "sinr_db")
        _encode_value(tail, sinr_db)
        _encode_value(tail, "rrc_connected")
        _encode_value(tail, rrc_connected)
        if len(_phy_templates) >= _ENCODE_CACHE_MAX:
            _phy_templates.clear()
        parts = (bytes(head), bytes(mid), bytes(tail))
        _phy_templates[key] = parts
    return parts


def _encode_phy_serving(message) -> bytes:
    head, mid, tail = phy_serving_template(
        message.carrier,
        message.gci,
        message.channel,
        message.rat,
        message.sinr_db,
        message.rrc_connected,
    )
    return b"".join(
        (head, PACK_DOUBLE(message.rsrp_dbm), mid, PACK_DOUBLE(message.rsrq_db), tail)
    )


def encode_message(message: msg.Message) -> bytes:
    """Serialize a message to its binary wire form."""
    if type(message) is msg.PhyServingMeas:
        return _encode_phy_serving(message)
    if type(message) in _CACHEABLE_TYPES:
        try:
            cached = _encode_cache.get(message)
        except TypeError:  # unhashable field value: encode directly
            return _encode_uncached(message)
        if cached is None:
            cached = _encode_uncached(message)
            if len(_encode_cache) >= _ENCODE_CACHE_MAX:
                _encode_cache.clear()
            _encode_cache[message] = cached
        return cached
    return _encode_uncached(message)


def decode_message(buf: bytes) -> msg.Message:
    """Parse a binary wire form back into a typed message.

    A message of a cacheable type is memoized by its payload bytes
    (``_decode_cache``), so equal payloads decode to one shared object.

    Raises:
        CodecError: On unknown type codes, malformed or trailing bytes.
    """
    if type(buf) is bytes:
        cached = _decode_cache.get(buf)
        if cached is not None:
            return cached
    type_code, pos = _read_varint(buf, 0)
    message_type = msg.MESSAGE_TYPES.get(type_code)
    if message_type is None:
        raise CodecError(f"unknown message type code {type_code:#x}")
    payload, pos = _decode_value(buf, pos)
    if pos != len(buf):
        raise CodecError(f"{len(buf) - pos} trailing bytes after message")
    if not isinstance(payload, dict):
        raise CodecError("message payload is not a dict")
    message = message_type.from_payload(payload)
    if message_type in _CACHEABLE_TYPES and type(buf) is bytes:
        if len(_decode_cache) >= _ENCODE_CACHE_MAX:
            _decode_cache.clear()
        _decode_cache[buf] = message
    return message
