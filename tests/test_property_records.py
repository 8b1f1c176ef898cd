"""Property tests: the direct row encoders equal their ``asdict`` reference.

``ConfigSample.to_json``, ``HandoffInstance.to_json`` and
``Finding.to_dict`` build their dicts field by field instead of through
``dataclasses.asdict``.  These properties pin them to the generic
conversion over awkward values: huge and negative ints, bools, NaN and
infinities, -0.0, escapes, non-ASCII text, nested lists and tuples, and
dicts.  Key order is part of the check.
"""

import json
import math
from dataclasses import asdict

from hypothesis import given, strategies as st

from repro.datasets.records import ConfigSample, HandoffInstance
from repro.lint.findings import SEVERITIES, Finding

_ints = st.one_of(
    st.integers(),
    st.integers(max_value=-1),
    st.integers(min_value=2**63, max_value=2**80),
    st.booleans(),
)
_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
)
_awkward_chars = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "日",
                  " ", "\ud800", "\U0001f4e1", "a"]
_text = st.one_of(
    st.text(max_size=12),
    st.lists(st.sampled_from(_awkward_chars), max_size=8).map("".join),
)
_scalars = st.one_of(st.none(), _ints, _floats, _text)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=3),
    ),
    max_leaves=12,
)
_optional_floats = st.one_of(st.none(), _floats)
_optional_text = st.one_of(st.none(), _text)


def _reference_json(record) -> str:
    return json.dumps(asdict(record), separators=(",", ":"))


@given(
    carrier=_text, gci=_ints, rat=_text, channel=_ints, city=_text,
    parameter=_text, value=_values, observed_day=_floats, round_index=_ints,
)
def test_config_sample_to_json_matches_asdict(
    carrier, gci, rat, channel, city, parameter, value, observed_day, round_index
):
    sample = ConfigSample(
        carrier=carrier, gci=gci, rat=rat, channel=channel, city=city,
        parameter=parameter, value=value, observed_day=observed_day,
        round_index=round_index,
    )
    assert sample.to_json() == _reference_json(sample)


@given(
    kind=_text, carrier=_text, time_ms=_ints, source_gci=_ints,
    target_gci=_ints, source_channel=_ints, target_channel=_ints,
    intra_freq=st.booleans(), decisive_event=_optional_text,
    decisive_metric=_optional_text,
    decisive_config=st.dictionaries(_text, _values, max_size=4),
    priority_class=_optional_text, rsrp_before=_optional_floats,
    rsrp_after=_optional_floats, rsrq_before=_optional_floats,
    rsrq_after=_optional_floats, min_throughput_before_bps=_optional_floats,
    report_to_handover_ms=st.one_of(st.none(), _ints),
)
def test_handoff_instance_to_json_matches_asdict(**fields):
    instance = HandoffInstance(**fields)
    assert instance.to_json() == _reference_json(instance)


@given(
    code=_text, severity=st.sampled_from(SEVERITIES), carrier=_text,
    gci=_ints, message=_text, name=_text, channel=_ints, subject=_text,
)
def test_finding_to_dict_matches_asdict(**fields):
    finding = Finding(**fields)
    reference = {**asdict(finding), "fingerprint": finding.fingerprint}
    assert list(finding.to_dict().items()) == list(reference.items())
