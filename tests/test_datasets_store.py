"""Tests for the dataset stores."""

import json
import random
import re

import pytest

from repro.datasets.records import ConfigSample, HandoffInstance
from repro.datasets.store import ConfigSampleStore, HandoffInstanceStore


def _sample(carrier="A", gci=1, parameter="q_hyst", value=4.0, city="X",
            rat="LTE", day=0.0, round_index=0):
    return ConfigSample(
        carrier=carrier, gci=gci, rat=rat, channel=850, city=city,
        parameter=parameter, value=value, observed_day=day,
        round_index=round_index,
    )


def test_filters_chain():
    store = ConfigSampleStore([
        _sample(carrier="A", gci=1),
        _sample(carrier="A", gci=2, parameter="p_max", value=23),
        _sample(carrier="T", gci=1),
    ])
    assert len(store.for_carrier("A")) == 2
    assert len(store.for_carrier("A").for_parameter("q_hyst")) == 1
    assert len(store.for_rat("LTE")) == 3
    assert len(store.for_city("X")) == 3


def test_unique_cells():
    store = ConfigSampleStore([
        _sample(carrier="A", gci=1), _sample(carrier="A", gci=1),
        _sample(carrier="T", gci=1),
    ])
    assert store.unique_cells() == {("A", 1), ("T", 1)}


def test_unique_values_deduplicates_per_cell():
    """The paper's unique-sample convention (Section 5.1)."""
    store = ConfigSampleStore([
        _sample(gci=1, value=4.0, day=0.0),
        _sample(gci=1, value=4.0, day=100.0),  # same cell, same value
        _sample(gci=1, value=2.0, day=200.0),  # same cell, new value
        _sample(gci=2, value=4.0),
    ])
    values = store.unique_values("q_hyst")
    assert sorted(values) == [2.0, 4.0, 4.0]
    raw = store.unique_values("q_hyst", deduplicate_cells=False)
    assert len(raw) == 4


def test_group_by():
    store = ConfigSampleStore([
        _sample(city="X"), _sample(city="Y", gci=2), _sample(city="X", gci=3),
    ])
    groups = store.group_by(lambda s: s.city)
    assert set(groups) == {"X", "Y"}
    assert len(groups["X"]) == 2


def test_samples_per_cell():
    store = ConfigSampleStore([
        _sample(gci=1), _sample(gci=1, day=10.0), _sample(gci=2),
    ])
    assert store.samples_per_cell("q_hyst") == {("A", 1): 2, ("A", 2): 1}


def test_config_store_save_load(tmp_path):
    store = ConfigSampleStore([_sample(), _sample(gci=2, value=[1, 2], parameter="x")])
    path = tmp_path / "d2.jsonl"
    store.save(path)
    loaded = ConfigSampleStore.load(path)
    assert len(loaded) == 2
    assert loaded.unique_cells() == store.unique_cells()


def _instance(kind="active", carrier="A", event="A3", t=0):
    return HandoffInstance(
        kind=kind, carrier=carrier, time_ms=t, source_gci=1, target_gci=2,
        source_channel=850, target_channel=850, intra_freq=True,
        decisive_event=event if kind == "active" else None,
    )


def test_handoff_store_filters():
    store = HandoffInstanceStore([
        _instance(), _instance(kind="idle"), _instance(carrier="T", event="A5"),
    ])
    assert len(store.active()) == 2
    assert len(store.idle()) == 1
    assert len(store.for_carrier("A").active()) == 1
    assert len(store.for_event("A5")) == 1


def test_handoff_store_save_load(tmp_path):
    store = HandoffInstanceStore([_instance(), _instance(kind="idle", t=5)])
    path = tmp_path / "d1.jsonl"
    store.save(path)
    loaded = HandoffInstanceStore.load(path)
    assert len(loaded) == 2
    assert len(loaded.idle()) == 1


_D1_GOOD = json.loads(HandoffInstance(
    kind="active", carrier="A", time_ms=1000, source_gci=1, target_gci=2,
    source_channel=850, target_channel=850, intra_freq=True,
).to_json())


@pytest.mark.parametrize("line", [
    pytest.param(json.dumps({k: v for k, v in _D1_GOOD.items() if k != "kind"}),
                 id="missing-key"),
    pytest.param(json.dumps({**_D1_GOOD, "extra": 1}), id="extra-key"),
    pytest.param(json.dumps(list(_D1_GOOD.values())), id="array"),
    pytest.param('{"kind": "active", "carrier"', id="not-json"),
])
def test_handoff_store_load_names_the_bad_line(tmp_path, line):
    good = json.dumps(_D1_GOOD, separators=(",", ":"))
    path = tmp_path / "d1.jsonl"
    path.write_text(f"{good}\n\n{line}\n{good}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
        HandoffInstanceStore.load(path)


# -- atomic persistence -------------------------------------------------------

@pytest.mark.parametrize("store_cls,record", [
    (ConfigSampleStore, _sample()),
    (HandoffInstanceStore, _instance()),
])
def test_save_load_roundtrip_including_empty(tmp_path, store_cls, record):
    empty_path = tmp_path / "empty.jsonl"
    store_cls().save(empty_path)
    assert empty_path.exists()
    assert len(store_cls.load(empty_path)) == 0
    full_path = tmp_path / "full.jsonl"
    store = store_cls([record])
    store.save(full_path)
    loaded = store_cls.load(full_path)
    assert [r.to_json() for r in loaded] == [r.to_json() for r in store]


def test_save_replaces_atomically_and_leaves_no_temp_files(tmp_path):
    path = tmp_path / "d2.jsonl"
    path.write_text("corrupt half-written garbage\n")
    store = ConfigSampleStore([_sample(), _sample(gci=2)])
    store.save(path)
    assert len(ConfigSampleStore.load(path)) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["d2.jsonl"]


def test_failed_save_preserves_existing_file(tmp_path):
    path = tmp_path / "d2.jsonl"
    ConfigSampleStore([_sample()]).save(path)
    before = path.read_bytes()

    # The second sample's value is not JSON: the writer fails mid-file,
    # after the first line went to the temp file.
    with pytest.raises(TypeError):
        ConfigSampleStore([_sample(gci=2), _sample(value=object())]).save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["d2.jsonl"]


# -- per-parameter index ------------------------------------------------------

def _naive_store_views(store):
    """Recompute the per-parameter reads by scanning, index-free."""
    samples = list(store)
    parameters = sorted({s.parameter for s in samples})
    unique = {
        p: list({
            (s.carrier, s.gci, s.value_key): s.value_key
            for s in samples if s.parameter == p
        }.values())
        for p in parameters
    }
    per_cell = {}
    for p in parameters:
        counts = {}
        for s in samples:
            if s.parameter == p:
                counts[(s.carrier, s.gci)] = counts.get((s.carrier, s.gci), 0) + 1
        per_cell[p] = counts
    return parameters, unique, per_cell


def test_parameter_index_matches_naive_scan():
    store = ConfigSampleStore([
        _sample(gci=1, value=4.0),
        _sample(gci=1, value=4.0, day=9.0),
        _sample(gci=1, value=2.0, day=20.0),
        _sample(gci=2, value=4.0),
        _sample(gci=2, parameter="p_max", value=23),
        _sample(carrier="T", gci=1, parameter="p_max", value=21),
    ])
    parameters, unique, per_cell = _naive_store_views(store)
    assert store.parameters() == parameters
    for p in parameters:
        assert sorted(map(str, store.unique_values(p))) == sorted(map(str, unique[p]))
        assert store.samples_per_cell(p) == per_cell[p]
        assert len(store.for_parameter(p)) == sum(per_cell[p].values())
    for carrier in ("A", "T"):
        assert list(store.for_carrier(carrier)) == [
            s for s in store if s.carrier == carrier
        ]


def test_parameter_index_invalidated_on_mutation():
    store = ConfigSampleStore([_sample(gci=1)])
    assert store.parameters() == ["q_hyst"]  # builds the index
    assert len(store.for_carrier("T")) == 0  # builds the carrier index
    store.add(_sample(carrier="T", gci=2, parameter="p_max", value=23))
    assert store.parameters() == ["p_max", "q_hyst"]
    assert store.samples_per_cell("p_max") == {("T", 2): 1}
    assert [s.gci for s in store.for_carrier("T")] == [2]
    store.extend([_sample(carrier="T", gci=3, parameter="p_max", value=20)])
    assert store.samples_per_cell("p_max") == {("T", 2): 1, ("T", 3): 1}
    assert [s.gci for s in store.for_carrier("T")] == [2, 3]
    assert [s.gci for s in store.for_carrier("A")] == [1]


def test_parameter_index_invalidated_when_mutation_raises():
    """A generator that dies mid-extend still mutates the list
    (``list.extend`` keeps consumed elements), so the lazy index must be
    invalidated even on the exception path."""

    def exploding_samples():
        yield _sample(carrier="T", gci=2, parameter="p_max", value=23)
        raise RuntimeError("source died")

    store = ConfigSampleStore([_sample(gci=1)])
    assert store.parameters() == ["q_hyst"]  # builds the index
    assert len(store.for_carrier("T")) == 0  # builds the carrier index
    with pytest.raises(RuntimeError):
        store.extend(exploding_samples())
    assert len(store) == 2  # the consumed sample did land
    assert store.parameters() == ["p_max", "q_hyst"]
    assert store.samples_per_cell("p_max") == {("T", 2): 1}
    assert [s.gci for s in store.for_carrier("T")] == [2]


# -- field index --------------------------------------------------------------

_FILTERS = {
    "carrier": ConfigSampleStore.for_carrier,
    "rat": ConfigSampleStore.for_rat,
    "city": ConfigSampleStore.for_city,
    "parameter": ConfigSampleStore.for_parameter,
}


def _random_store(seed=2018, n=400):
    rng = random.Random(seed)
    return ConfigSampleStore(
        _sample(
            carrier=rng.choice("ATVS"),
            gci=rng.randrange(30),
            parameter=rng.choice(["q_hyst", "p_max", "a3_offset", "eutra_freq_list"]),
            value=rng.choice([4.0, 2.0, 23, (1, 2), [3]]),
            city=rng.choice(["X", "Y", "Z"]),
            rat=rng.choice(["LTE", "UMTS", "GSM"]),
            day=float(i),
        )
        for i in range(n)
    )


@pytest.mark.parametrize("field", sorted(_FILTERS))
def test_field_index_equals_ordered_scan(field):
    store = _random_store()
    values = {getattr(s, field) for s in store}
    assert len(values) > 1
    for value in sorted(values):
        expected = [s for s in store if getattr(s, field) == value]
        assert list(_FILTERS[field](store, value)) == expected
    assert len(_FILTERS[field](store, "absent")) == 0


def test_mutating_a_sub_store_leaves_parent_partitions():
    store = _random_store()
    before = {
        field: {v: list(_FILTERS[field](store, v)) for v in {getattr(s, field) for s in store}}
        for field in _FILTERS
    }
    sub = store.for_carrier("A")
    sub.add(_sample(carrier="A", gci=99))
    sub.extend([_sample(carrier="A", gci=98, city="W")])
    assert len(sub) == len(before["carrier"]["A"]) + 2
    assert len(store) == 400
    for field, partitions in before.items():
        for value, samples in partitions.items():
            assert list(_FILTERS[field](store, value)) == samples
    assert len(store.for_city("W")) == 0
