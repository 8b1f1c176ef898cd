"""Tests for the binary message codec."""

import numpy as np
import pytest

from repro.cellnet.rat import RAT
from repro.rrc import codec
from repro.rrc.broadcast import ConfigServer
from repro.rrc.codec import CodecError, decode_message, encode_message
from repro.rrc.messages import (
    LegacySystemInfo,
    MeasResult,
    MeasurementReport,
    PhyServingMeas,
    RrcConnectionReconfiguration,
    Sib1,
    Sib3,
    Sib4,
    Sib5,
)


def test_roundtrip_simple_message():
    sib1 = Sib1(carrier="A", gci=42, pci=17, channel=850, rat="LTE",
                q_rx_lev_min=-122.0, city="Chicago")
    decoded = decode_message(encode_message(sib1))
    assert decoded == sib1


def test_roundtrip_nested_message():
    report = MeasurementReport(
        event="A3",
        metric="rsrp",
        serving=MeasResult(carrier="A", gci=1, rsrp_dbm=-101.5),
        neighbors=(
            MeasResult(carrier="A", gci=2, rsrp_dbm=-96.0),
            MeasResult(carrier="A", gci=3, rsrp_dbm=-99.25),
        ),
    )
    decoded = decode_message(encode_message(report))
    assert decoded.to_payload() == report.to_payload()


def test_unknown_type_code_raises():
    with pytest.raises(CodecError, match="unknown message type"):
        decode_message(bytes([0x7F]) + encode_message(Sib1())[1:])


def test_trailing_bytes_raise():
    buf = encode_message(Sib1()) + b"\x00"
    with pytest.raises(CodecError, match="trailing"):
        decode_message(buf)


def test_truncated_buffer_raises():
    buf = encode_message(Sib1(city="Chicago"))
    with pytest.raises(CodecError):
        decode_message(buf[: len(buf) // 2])


def test_unknown_tag_raises():
    with pytest.raises(CodecError, match="unknown tag"):
        decode_message(bytes([0x01, 0xFE]))


def test_empty_buffer_raises():
    with pytest.raises(CodecError):
        decode_message(b"")


def test_negative_integers_roundtrip():
    sib1 = Sib1(gci=5, q_rx_lev_min=-122.0)
    assert decode_message(encode_message(sib1)).q_rx_lev_min == -122.0


def test_unicode_strings_roundtrip():
    sib1 = Sib1(carrier="A", city="Zürich—東京")
    assert decode_message(encode_message(sib1)).city == "Zürich—東京"


def test_encoding_is_deterministic():
    sib1 = Sib1(carrier="A", gci=9, city="LA")
    assert encode_message(sib1) == encode_message(sib1)


# -- the decode memo ------------------------------------------------------------

def _fresh(buf: bytes) -> bytes:
    """An equal payload in a distinct bytes object."""
    return bytes(bytearray(buf))


@pytest.fixture
def decode_memo(monkeypatch):
    """An empty decode memo, so no earlier decode can fill it to its cap."""
    memo: dict = {}
    monkeypatch.setattr(codec, "_decode_cache", memo)
    return memo


def test_equal_broadcast_payloads_decode_to_one_object(decode_memo):
    buf = encode_message(Sib1(carrier="A", gci=42, channel=850, city="Chicago"))
    first = decode_message(_fresh(buf))
    assert decode_message(_fresh(buf)) is first
    # Same type, same length, other content: its own message.
    other = Sib1(carrier="A", gci=43, channel=850, city="Chicago")
    other_buf = encode_message(other)
    assert len(other_buf) == len(buf)
    assert decode_message(_fresh(other_buf)) == other
    assert decode_message(_fresh(buf)) is first


def test_decode_memo_holds_a_d2_bodys_distinct_payloads(decode_memo, monkeypatch):
    # One d2-crowdsource body decodes about 5,200 distinct cacheable
    # payloads; a memo cleared below that decodes some of them twice.
    bufs = [
        encode_message(Sib1(carrier="A", gci=gci, channel=850, city="Chicago"))
        for gci in range(5000)
    ]
    calls = 0
    from_payload = Sib1.from_payload.__func__

    def counting(cls, payload):
        nonlocal calls
        calls += 1
        return from_payload(cls, payload)

    monkeypatch.setattr(Sib1, "from_payload", classmethod(counting))
    first = [decode_message(_fresh(buf)) for buf in bufs]
    assert calls == len(bufs)
    second = [decode_message(_fresh(buf)) for buf in bufs]
    assert calls == len(bufs)
    assert all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("message", [
    PhyServingMeas(carrier="A", gci=1, channel=850, rsrp_dbm=-101.5, rsrq_db=-11.0),
    MeasurementReport(serving=MeasResult(carrier="A", gci=1, rsrp_dbm=-101.5)),
    LegacySystemInfo(carrier="A", gci=7, channel=4385, city="X", fields={"q_hyst": 4}),
], ids=lambda m: type(m).__name__)
def test_per_emission_and_legacy_payloads_decode_fresh(decode_memo, message):
    buf = encode_message(message)
    first, second = decode_message(_fresh(buf)), decode_message(_fresh(buf))
    assert first == second == message
    assert first is not second
    assert not decode_memo


def test_rejected_payload_leaves_the_memo_as_it_was(decode_memo):
    valid = encode_message(Sib1(carrier="A", gci=44, channel=850, city="Chicago"))
    message = decode_message(_fresh(valid))
    # Type code, dict tag, member count, then the first key's tag:
    # replacing it keeps the type code and the length.
    bad_tag = bytearray(valid)
    bad_tag[3] = 0xFE
    for bad, error in ((valid + b"\x00", "trailing"), (bytes(bad_tag), "unknown tag")):
        for _ in range(2):
            with pytest.raises(CodecError, match=error):
                decode_message(_fresh(bad))
            assert list(decode_memo) == [valid]
            assert decode_memo[valid] is message
    assert decode_message(_fresh(valid)) is message


@pytest.fixture(scope="module")
def d2_broadcasts():
    """Every message the D2 world's server broadcasts at 60 cells per
    carrier: base SIBs and reconfigurations, then observed ones."""
    from repro.datasets.d2 import d2_world

    env = d2_world().env
    server = ConfigServer(env)
    by_carrier: dict = {}
    for cell in env.registry:
        by_carrier.setdefault(cell.carrier, []).append(cell)
    messages = []
    for carrier in sorted(by_carrier):
        for cell in sorted(by_carrier[carrier], key=lambda c: c.cell_id)[:60]:
            rng = np.random.default_rng(cell.cell_id.gci)
            messages.extend(server.sib_messages(cell))
            for day in (0.0, 200.0, 400.0):
                messages.extend(server.sib_messages(cell, obs_rng=rng, days_since_first=day))
            if cell.rat is RAT.LTE:
                messages.append(server.connection_reconfiguration(cell))
                for _ in range(3):
                    messages.append(server.connection_reconfiguration(cell, rng))
    return messages


def test_every_cacheable_broadcast_decodes_to_a_hashable_message(d2_broadcasts):
    kinds = set()
    for message in d2_broadcasts:
        decoded = decode_message(encode_message(message))
        assert decoded == message
        if type(decoded) in codec._CACHEABLE_TYPES:
            hash(decoded)
            kinds.add(type(decoded))
    assert {Sib1, Sib3, Sib4, Sib5, RrcConnectionReconfiguration} <= kinds
    assert LegacySystemInfo in {type(m) for m in d2_broadcasts}
