"""Property-based tests for the binary codec and diag format."""

from hypothesis import given, strategies as st

from repro.rrc.codec import CodecError, decode_message, encode_message
from repro.rrc.diag import DiagError, DiagReader, DiagWriter
from repro.rrc.messages import LegacySystemInfo, MeasResult, MeasurementReport, Sib1

# Finite doubles: the codec carries radio values, never NaN/inf.
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_names = st.text(min_size=0, max_size=24)


@given(
    carrier=_names,
    gci=st.integers(min_value=0, max_value=2**40),
    pci=st.integers(min_value=0, max_value=503),
    channel=st.integers(min_value=0, max_value=70_000),
    q=_floats,
    city=_names,
)
def test_sib1_roundtrip(carrier, gci, pci, channel, q, city):
    message = Sib1(carrier=carrier, gci=gci, pci=pci, channel=channel,
                   rat="LTE", q_rx_lev_min=q, city=city)
    decoded = decode_message(encode_message(message))
    assert decoded == message


@given(
    values=st.dictionaries(
        st.text(min_size=1, max_size=12),
        st.one_of(
            st.integers(min_value=-2**40, max_value=2**40),
            _floats,
            st.booleans(),
            st.none(),
            st.lists(st.integers(min_value=-1000, max_value=1000), max_size=6),
        ),
        max_size=8,
    )
)
def test_arbitrary_payload_roundtrip(values):
    message = LegacySystemInfo(carrier="A", gci=1, channel=128, rat="GSM",
                               fields=values)
    decoded = decode_message(encode_message(message))
    assert decoded.fields == values


@given(st.binary(max_size=200))
def test_decoder_never_crashes_unexpectedly(buf):
    """Garbage input either decodes or raises CodecError — nothing else."""
    try:
        decode_message(buf)
    except CodecError:
        pass
    except (UnicodeDecodeError, TypeError):
        # Decoded strings/payloads may be structurally wrong in ways the
        # message constructors reject; that also surfaces as an error,
        # never silent misparsing.
        pass


@given(
    timestamps=st.lists(st.integers(min_value=0, max_value=2**40),
                        min_size=1, max_size=10),
)
def test_diag_roundtrip_preserves_order_and_count(timestamps):
    writer = DiagWriter.in_memory()
    for i, t in enumerate(timestamps):
        writer.write(t, Sib1(carrier="A", gci=i))
    records = DiagReader(writer.getvalue()).records()
    assert [r.timestamp_ms for r in records] == timestamps
    assert [r.message.gci for r in records] == list(range(len(timestamps)))


@given(st.binary(max_size=100))
def test_diag_reader_rejects_garbage(junk):
    writer = DiagWriter.in_memory()
    writer.write(0, Sib1())
    data = writer.getvalue() + junk
    try:
        DiagReader(data).records()
    except (DiagError, CodecError):
        pass


@given(
    rsrps=st.lists(st.floats(min_value=-140, max_value=-44), min_size=1, max_size=8)
)
def test_measurement_report_roundtrip(rsrps):
    report = MeasurementReport(
        event="A3",
        serving=MeasResult(carrier="A", gci=0, rsrp_dbm=rsrps[0]),
        neighbors=tuple(
            MeasResult(carrier="A", gci=i + 1, rsrp_dbm=v)
            for i, v in enumerate(rsrps[1:])
        ),
    )
    decoded = decode_message(encode_message(report))
    assert decoded.serving.rsrp_dbm == rsrps[0]
    assert [n.rsrp_dbm for n in decoded.neighbors] == rsrps[1:]
