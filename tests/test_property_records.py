"""Property tests of the dataset records and the D2 store's loader.

``ConfigSample.to_json``, ``HandoffInstance.to_json`` and
``Finding.to_dict`` build their dicts without ``dataclasses.asdict``.  These properties pin them to the generic
conversion over awkward values: huge and negative ints, bools, NaN and
infinities, -0.0, escapes, non-ASCII text, nested lists and tuples, and
dicts.  Key order is part of the check.

``ConfigSampleStore.load`` shares equal field values between samples
and accepts only the lines ``to_json`` writes.  Its properties: a
reloaded store equals the saved one field by field, exact types
included, re-saves byte for byte, and shares every equal non-NaN value
but never a NaN; malformed lines raise ``ValueError`` naming the line.

``HandoffInstanceStore.load`` is as strict: a D1 line must hold exactly
``HandoffInstance``'s keys, in field order, each with a type ``to_json``
writes for it.
"""

import json
import math
import pickle
import re
import struct
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from repro.cellnet.cell import CellId
from repro.datasets import store as store_module
from repro.datasets.records import ConfigSample, HandoffInstance, sample_fields
from repro.datasets.store import ConfigSampleStore, HandoffInstanceStore
from repro.lint.findings import SEVERITIES, Finding
from repro.simulate.runner import TickSample

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


# -- the D2 store's loader -----------------------------------------------------

#: Loaded-sample fields the loader passes through its sharing table.
_SHARED_FIELDS = ("gci", "channel", "value", "observed_day", "round_index")
_CATEGORY_FIELDS = ("carrier", "rat", "city", "parameter")

#: Values equal across types (``0 == 0.0 == -0.0 == False``, also inside
#: tuples), which the loader must keep apart, and NaNs, which it must
#: never share.
_SCALAR_LOOKALIKES = [0, 0.0, -0.0, False, 1, 1.0, True, math.nan]
_LOOKALIKES = _SCALAR_LOOKALIKES + [
    (0,), (0.0,), (-0.0,), (False,), ((1,),), ((1.0,),), ((True,),),
    (math.nan,), ((1, math.nan),),
]
#: One store holding every lookalike twice as a value, every scalar one
#: as an observed_day, and 0/1 as gci, channel and round_index.
_LOOKALIKE_STORE = [
    ConfigSample(
        carrier="A", gci=i % 2, rat="LTE", channel=1 - i % 2, city="X",
        parameter="p", value=value,
        observed_day=_SCALAR_LOOKALIKES[(i + 1) % len(_SCALAR_LOOKALIKES)],
        round_index=i % 2,
    )
    for i, value in enumerate(_LOOKALIKES * 2)
]
_scalar_lookalikes = st.sampled_from(_SCALAR_LOOKALIKES)
_lookalikes = st.sampled_from(_LOOKALIKES)
_exact_ints = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=2**40, max_value=2**40 + 3),
    st.integers(min_value=2**63, max_value=2**80),
)
_store_scalars = st.one_of(st.none(), _ints, _floats, _text)
_store_values = st.one_of(
    _lookalikes,
    st.recursive(
        _store_scalars,
        lambda children: st.lists(children, max_size=4).map(tuple),
        max_leaves=8,
    ),
)


@st.composite
def _stores(
    draw, texts=_text, ints=_exact_ints, values=_store_values
) -> list[ConfigSample]:
    """Samples whose fields repeat, drawn from small per-field pools."""
    def pool(values, size=4):
        return draw(st.lists(values, min_size=1, max_size=size))

    categories = pool(texts, 3)
    ints = pool(ints)
    values = pool(values, 6)
    days = pool(st.one_of(_scalar_lookalikes, _floats, _ints))
    pick = st.sampled_from
    return [
        ConfigSample(
            carrier=draw(pick(categories)), gci=draw(pick(ints)),
            rat=draw(pick(categories)), channel=draw(pick(ints)),
            city=draw(pick(categories)), parameter=draw(pick(categories)),
            value=draw(pick(values)), observed_day=draw(pick(days)),
            round_index=draw(pick(ints)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]


def _canon(value) -> object:
    """Exact type and value; floats by their bits, every NaN alike."""
    kind = type(value)
    if kind is tuple or kind is list:
        return (kind.__name__, tuple(map(_canon, value)))
    if kind is dict:
        return ("dict", tuple((key, _canon(item)) for key, item in value.items()))
    if kind is float:
        return ("float", "nan" if math.isnan(value) else struct.pack("<d", value))
    return (kind.__name__, value)


def _canon_fields(record) -> list:
    return [_canon(getattr(record, f.name)) for f in fields(record)]


def _nans(value) -> list[float]:
    """Every NaN float in ``value``, inside tuples too."""
    if type(value) is tuple:
        return [nan for item in value for nan in _nans(item)]
    return [value] if type(value) is float and math.isnan(value) else []


def _reload(samples: list[ConfigSample]) -> tuple[bytes, ConfigSampleStore, bytes]:
    """Save, load and re-save; the saved and re-saved bytes and the load."""
    with tempfile.TemporaryDirectory() as tmp:
        saved, resaved = Path(tmp) / "saved.jsonl", Path(tmp) / "resaved.jsonl"
        ConfigSampleStore(samples).save(saved)
        loaded = ConfigSampleStore.load(saved)
        loaded.save(resaved)
        return saved.read_bytes(), loaded, resaved.read_bytes()


@example(samples=_LOOKALIKE_STORE)
@given(samples=_stores())
def test_store_reload_is_exact_and_resaves_byte_identically(samples):
    saved, loaded, resaved = _reload(samples)
    assert resaved == saved
    assert list(map(_canon_fields, loaded)) == list(map(_canon_fields, samples))


@example(samples=_LOOKALIKE_STORE)
@given(samples=_stores())
def test_store_reload_shares_equal_values_but_never_nan(samples):
    _, loaded, _ = _reload(samples)
    first: dict = {}
    nan_ids: list[int] = []
    for sample in loaded:
        for name in _CATEGORY_FIELDS:
            text = getattr(sample, name)
            assert text is sys.intern(text)
        for name in _SHARED_FIELDS:
            value = getattr(sample, name)
            nans = _nans(value)
            if nans:
                nan_ids.extend(map(id, nans))
                continue
            assert first.setdefault(_canon(value), value) is value
    assert len(set(nan_ids)) == len(nan_ids)


@given(
    record=st.one_of(
        _stores().map(lambda samples: samples[0]),
        st.builds(
            HandoffInstance, kind=_text, carrier=_text, time_ms=_ints,
            source_gci=_ints, target_gci=_ints, source_channel=_ints,
            target_channel=_ints, intra_freq=st.booleans(),
            rsrp_before=st.one_of(st.none(), _floats),
            decisive_config=st.dictionaries(_text, _scalars, max_size=3),
        ),
        st.builds(
            TickSample, t_ms=_ints, serving=st.builds(CellId, _text, _ints),
            rsrp_dbm=_floats, sinr_db=_floats, capacity_bps=_floats,
            delivered_bps=_floats, interrupted=st.booleans(),
        ),
    )
)
def test_records_are_slotted_and_pickle_back_equal(record):
    assert not hasattr(record, "__dict__")
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record)
    assert _canon_fields(restored) == _canon_fields(record)


_GOOD = json.loads(ConfigSample(
    carrier="A", gci=18, rat="LTE", channel=6225, city="Paris",
    parameter="q_hyst", value=4.0, observed_day=429.5, round_index=0,
).to_json())


def _line(data) -> str:
    return json.dumps(data, separators=(",", ":"))


@pytest.mark.parametrize(
    "line",
    [
        pytest.param(_line({k: v for k, v in _GOOD.items() if k != "round_index"}),
                     id="missing-key"),
        pytest.param(_line({**_GOOD, "extra": 1}), id="extra-key"),
        pytest.param(_line({"gci": 18, **_GOOD}), id="reordered-keys"),
        pytest.param(_line(list(_GOOD.values())), id="array"),
        pytest.param(_line({**_GOOD, "gci": "18"}), id="gci-string"),
        pytest.param(_line({**_GOOD, "gci": True}), id="gci-bool"),
    ],
)
def test_malformed_store_lines_raise_value_error_naming_the_line(tmp_path, line):
    good = _line(_GOOD)
    assert ConfigSample.from_json(good).to_json() == good
    with pytest.raises(ValueError):
        ConfigSample.from_json(line)
    path = tmp_path / "d2.jsonl"
    path.write_text(f"{good}\n\n{line}\n{good}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
        ConfigSampleStore.load(path)


# -- the D2 store's fragment writer and reader -----------------------------------
#
# ``save`` builds each line from memoized head, mid and tail fragments and
# ``load`` decodes each distinct fragment once; ``to_json`` and
# ``sample_fields`` stay the definitions these properties hold them to.

#: Texts that spell the loader's split markers; inside a JSON string the
#: encoder escapes their quotes, so they must never split a line.
_MARKER_TEXTS = [
    ',"parameter":', ',"observed_day":', '","parameter":"x',
    '\\",\\"observed_day\\":1,\\"round_index\\":0}',
]
_marker_texts = st.one_of(_text, st.sampled_from(_MARKER_TEXTS))
#: Ints and their lookalikes: the writer must not reuse ``1``'s text for
#: ``True`` or ``1.0``.
_loose_ints = st.one_of(_exact_ints, st.sampled_from([True, False, 1, 1.0, 0, 0.0, -0.0]))
#: Dict values, whose keys may spell a member of the line; ``observed_day``
#: is left out, since a dict holding it ends the mid early and sends
#: the line to ``sample_fields``.
_dict_values = st.dictionaries(
    st.one_of(_marker_texts, st.sampled_from(["parameter", "value", "round_index"])),
    st.one_of(_store_scalars, st.lists(_store_scalars, max_size=2)),
    max_size=3,
)
_marker_values = st.one_of(_store_values, _marker_texts, _dict_values)
_awkward_stores = st.one_of(
    _stores(texts=_marker_texts, ints=_loose_ints, values=_marker_values),
    _stores(ints=_loose_ints, values=st.one_of(_store_values, st.dictionaries(
        _text, _store_scalars, max_size=3))),
)
#: gci, channel and round_index each ``1``, ``True`` and ``1.0`` over
#: otherwise equal samples, with NaN days and a dict value among them.
_INT_LOOKALIKE_STORE = [
    ConfigSample(
        carrier="A", gci=gci, rat="LTE", channel=channel, city="X", parameter="p",
        value=value, observed_day=day, round_index=round_index,
    )
    for value, day in ((4.0, 0.5), ({"a": 1}, math.nan), (math.nan, -0.0))
    for gci, channel, round_index in (
        (1, 1, 1), (True, 1, 1), (1.0, 1, 1), (1, True, 1), (1, 1.0, 1),
        (1, 1, True), (1, 1, 1.0),
    )
]


#: Markers spelled inside strings and as keys of a dict value: only the
#: first structural marker of each kind splits these lines.
_MARKER_STORE = [
    ConfigSample(
        carrier="A", gci=1, rat="LTE", channel=5, city=city, parameter="p",
        value=value, observed_day=1.5, round_index=0,
    )
    for city in _MARKER_TEXTS
    for value in ({"a": 1, "parameter": 2}, {"value": {"x": 1, "parameter": 3}}, city)
]


def _saved(samples: list[ConfigSample]) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d2.jsonl"
        ConfigSampleStore(samples).save(path)
        return path.read_bytes()


@example(samples=_LOOKALIKE_STORE)
@example(samples=_INT_LOOKALIKE_STORE)
@example(samples=_MARKER_STORE)
@given(samples=st.one_of(_stores(), _awkward_stores))
def test_store_save_writes_each_samples_to_json_line(samples):
    assert _saved(samples) == "".join(s.to_json() + "\n" for s in samples).encode()


@example(samples=_LOOKALIKE_STORE)
@example(samples=_MARKER_STORE)
@given(samples=_stores(texts=_marker_texts, values=_marker_values))
def test_canonical_lines_load_through_fragments(samples):
    # Every line ``to_json`` writes splits at its first markers, so
    # nothing reaches ``sample_fields``; and the load is exact.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d2.jsonl"
        ConfigSampleStore(samples).save(path)
        with mock.patch.object(store_module, "sample_fields", wraps=sample_fields) as calls:
            loaded = ConfigSampleStore.load(path)
    assert calls.call_count == 0
    assert list(map(_canon_fields, loaded)) == list(map(_canon_fields, samples))


_MUTATIONS = ("move", "duplicate", "escape", "constant")


@st.composite
def _mutated_line(draw) -> tuple[str, str]:
    """A sample's line and a mutant of it.

    Members are moved, duplicated (in the head, mid or tail, with the
    same or another value), have their key spelled with an escape or
    their value replaced by a ``NaN``/``Infinity`` token; then the line
    may gain whitespace after a ``:`` or ``,`` and be truncated.
    """
    sample = draw(st.one_of(
        _stores(texts=_marker_texts, values=_marker_values), _awkward_stores,
    ))[0]
    members = [
        [json.dumps(f.name), json.dumps(getattr(sample, f.name), separators=(",", ":"))]
        for f in fields(sample)
    ]
    original = "{" + ",".join(":".join(m) for m in members) + "}"
    assert original == sample.to_json()
    index = st.integers(min_value=0, max_value=len(members) - 1)
    for mutation in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
        if mutation == "constant":
            member = draw(st.sampled_from(
                [m for m in members if m[0] in ('"value"', '"observed_day"')] or members
            ))
            member[1] = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
            continue
        member = members[draw(index)]
        if mutation == "move":
            members.remove(member)
            members.insert(draw(index), member)
        elif mutation == "duplicate":
            twin = draw(st.one_of(st.just(member[1]), _scalars.map(json.dumps)))
            members.insert(draw(index), [member[0], twin])
        else:
            member[0] = '"\\u%04x%s' % (ord(member[0][1]), member[0][2:])
    line = "{" + ",".join(":".join(m) for m in members) + "}"
    if draw(st.booleans()):
        at = draw(st.sampled_from([at for at, char in enumerate(line) if char in ",:"])) + 1
        line = line[:at] + draw(st.sampled_from([" ", "\t", "  "])) + line[at:]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        line = line[: draw(st.integers(min_value=1, max_value=len(line) - 1))]
    return original, line


def _reference_fields(line: str) -> tuple[list | None, str | None]:
    """``sample_fields`` on one line, or its error message."""
    try:
        return list(map(_canon, sample_fields(line.strip()))), None
    except ValueError as error:
        return None, str(error)


@given(pair=_mutated_line())
def test_mutated_lines_load_as_sample_fields_reads_them(pair):
    original, mutant = pair
    lines = [original, mutant, original, mutant]
    references = [_reference_fields(line) for line in lines]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d2.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        errors = [(n, e) for n, (_, e) in enumerate(references, 1) if e is not None]
        if errors:
            lineno, error = errors[0]
            with pytest.raises(ValueError) as raised:
                ConfigSampleStore.load(path)
            assert str(raised.value) == f"{path}:{lineno}: {error}"
            return
        loaded = ConfigSampleStore.load(path)
    assert list(map(_canon_fields, loaded)) == [canon for canon, _ in references]
    nans = [nan for s in loaded for nan in _nans(s.value) + _nans(s.observed_day)]
    assert len(set(map(id, nans))) == len(nans)


# -- the D1 line format ------------------------------------------------------------

_NONE = type(None)
#: The JSON types ``HandoffInstance.to_json`` writes for each field, in
#: field order: the only types a D1 line may hold.
_D1_TYPES = {
    "kind": (str,), "carrier": (str,), "time_ms": (int,),
    "source_gci": (int,), "target_gci": (int,),
    "source_channel": (int,), "target_channel": (int,),
    "intra_freq": (bool,),
    "decisive_event": (str, _NONE), "decisive_metric": (str, _NONE),
    "decisive_config": (dict,), "priority_class": (str, _NONE),
    "rsrp_before": (int, float, _NONE), "rsrp_after": (int, float, _NONE),
    "rsrq_before": (int, float, _NONE), "rsrq_after": (int, float, _NONE),
    "min_throughput_before_bps": (int, float, _NONE),
    "report_to_handover_ms": (int, _NONE),
}
#: Values of every JSON type, by exact type.
_JSON_VALUES = {
    str: _text, int: _exact_ints, float: _floats, bool: st.booleans(),
    _NONE: st.none(), dict: st.dictionaries(_text, _store_scalars, max_size=3),
    list: st.lists(_store_scalars, max_size=3),
}
#: Instances holding every type each field may hold.
_d1_instances = st.builds(HandoffInstance, **{
    name: st.one_of(*(_JSON_VALUES[kind] for kind in kinds))
    for name, kinds in _D1_TYPES.items()
})


def _d1_line(members) -> str:
    return json.dumps(dict(members), separators=(",", ":"))


@st.composite
def _mutated_d1_line(draw) -> tuple[HandoffInstance, str]:
    """An instance and its line with one key dropped, added or moved, or
    one value replaced by one of a type the field never holds."""
    instance = draw(_d1_instances)
    members = [[name, getattr(instance, name)] for name in _D1_TYPES]
    index = st.integers(min_value=0, max_value=len(members) - 1)
    mutation = draw(st.sampled_from(["missing", "extra", "move", "type"]))
    if mutation == "missing":
        del members[draw(index)]
    elif mutation == "extra":
        key = draw(_text.filter(lambda key: key not in _D1_TYPES))
        members.insert(draw(index), [key, draw(_store_scalars)])
    elif mutation == "move":
        at = draw(index)
        members.insert(draw(index.filter(lambda to: to != at)), members.pop(at))
    else:
        member = members[draw(index)]
        member[1] = draw(st.one_of(*(
            values for kind, values in _JSON_VALUES.items()
            if kind not in _D1_TYPES[member[0]]
        )))
    return instance, _d1_line(members)


def _load_d1(text: str, path: Path) -> HandoffInstanceStore:
    path.write_text(text, encoding="utf-8")
    return HandoffInstanceStore.load(path)


@given(pair=_mutated_d1_line())
def test_d1_loads_exactly_the_lines_to_json_writes(pair):
    instance, mutant = pair
    good = instance.to_json()
    assert _canon_fields(HandoffInstance.from_json(good)) == _canon_fields(instance)
    with pytest.raises(ValueError):
        HandoffInstance.from_json(mutant)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d1.jsonl"
        loaded = _load_d1(f"{good}\n", path)
        assert list(map(_canon_fields, loaded)) == [_canon_fields(instance)]
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            _load_d1(f"{good}\n{mutant}\n", path)


_D1_GOOD = json.loads(HandoffInstance(
    kind="active", carrier="A", time_ms=1000, source_gci=1, target_gci=2,
    source_channel=850, target_channel=850, intra_freq=True,
    rsrp_before=-101.5, rsrp_after=-97,
).to_json())


@pytest.mark.parametrize(
    "line",
    [
        pytest.param(_d1_line((k, v) for k, v in _D1_GOOD.items() if k != "rsrp_before"),
                     id="missing-default-key"),
        pytest.param(_d1_line({**_D1_GOOD, "time_ms": "x"}.items()), id="time-string"),
        pytest.param(_d1_line({**_D1_GOOD, "intra_freq": 1}.items()), id="intra-freq-int"),
        pytest.param(_d1_line(reversed(_D1_GOOD.items())), id="reversed-keys"),
    ],
)
def test_malformed_d1_lines_raise_value_error_naming_the_line(tmp_path, line):
    good = _d1_line(_D1_GOOD.items())
    assert HandoffInstance.from_json(good).to_json() == good
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'd1.jsonl'))}:3: "):
        _load_d1(f"{good}\n\n{line}\n", tmp_path / "d1.jsonl")
