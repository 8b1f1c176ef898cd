"""Every signaling message round-trips through the binary codec.

A message's dataclass is the one statement of its fields: flat
messages use ``Message``'s default codecs (the payload is the fields in
field order, rebuilt by the constructor), and the others walk their
configs' fields.  For every class in ``MESSAGE_TYPES``, messages drawn
field by field from the class's own type hints must decode equal to
what was encoded, and a flat message's payload keys must be its field
names in order.
"""

import dataclasses
import types
import typing

import pytest
from hypothesis import given, strategies as st

from repro.config.events import EventConfig, EventType
from repro.config.units import REPORT_AMOUNT, REPORT_INTERVAL_MS, TIME_TO_TRIGGER_MS
from repro.rrc.codec import decode_message, encode_message
from repro.rrc.messages import (
    MESSAGE_TYPES,
    LegacySystemInfo,
    MeasResult,
    MobilityControlInfo,
    PhyServingMeas,
    Sib1,
)

_text = st.text(max_size=8)
_ints = st.integers(min_value=-(2**62), max_value=2**62)
# NaN never equals itself, so no message holding one compares equal.
_floats = st.floats(allow_nan=False)
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _text)

#: Field values ``EventConfig`` validates, drawn from the valid sets.
_events = st.builds(
    EventConfig,
    event=st.sampled_from(EventType),
    metric=st.sampled_from(["rsrp", "rsrq"]),
    threshold1=_floats,
    threshold2=_floats,
    offset=_floats,
    hysteresis=st.floats(min_value=0.0, allow_infinity=False),
    time_to_trigger_ms=st.sampled_from(TIME_TO_TRIGGER_MS),
    report_interval_ms=st.sampled_from(REPORT_INTERVAL_MS),
    report_amount=st.sampled_from(REPORT_AMOUNT),
)

#: The messages that use the default codecs: every field is a scalar or
#: a plain container, so the payload is the fields themselves.
_FLAT = (Sib1, MobilityControlInfo, MeasResult, LegacySystemInfo, PhyServingMeas)


def _values(annotation) -> st.SearchStrategy:
    """Values of one resolved field annotation."""
    if annotation is EventConfig:
        return _events
    if dataclasses.is_dataclass(annotation):
        return _instances(annotation)
    simple = {
        str: _text, int: _ints, float: _floats, bool: st.booleans(),
        type(None): st.none(),
        # Legacy system information: registry names to scalar or list values.
        dict: st.dictionaries(
            _text, st.one_of(_scalars, st.lists(_scalars, max_size=3)), max_size=4
        ),
    }
    if annotation in simple:
        return simple[annotation]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is tuple:
        return st.lists(_values(args[0]), max_size=3).map(tuple)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*map(_values, args))
    raise TypeError(f"no strategy for {annotation!r}")


def _instances(cls) -> st.SearchStrategy:
    """Instances of a dataclass, each field drawn from its type hint."""
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls, **{f.name: _values(hints[f.name]) for f in dataclasses.fields(cls)}
    )


@pytest.mark.parametrize(
    "cls", MESSAGE_TYPES.values(), ids=lambda cls: cls.__name__
)
@given(data=st.data())
def test_messages_round_trip_through_the_codec(cls, data):
    message = data.draw(_instances(cls))
    decoded = decode_message(encode_message(message))
    assert type(decoded) is cls
    assert decoded == message


@pytest.mark.parametrize("cls", _FLAT, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_flat_payload_keys_are_the_field_names_in_order(cls, data):
    message = data.draw(_instances(cls))
    payload = message.to_payload()
    assert list(payload) == [f.name for f in dataclasses.fields(cls)]
    assert list(payload.values()) == [
        getattr(message, f.name) for f in dataclasses.fields(cls)
    ]
