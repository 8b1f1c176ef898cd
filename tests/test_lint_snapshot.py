"""Tests for the versioned configuration-snapshot model."""

import json
import os
from dataclasses import dataclass, fields, is_dataclass, replace

import pytest

from repro.config.events import EventConfig, EventType
from repro.datasets.d2 import d2_world
from repro.lint import ConfigSnapshot, snapshot_digest, world_snapshots
from repro.lint.fixtures import loop_fixture
from repro.lint.snapshot import (
    _CONFIG_TYPES,
    SNAPSHOT_VERSION,
    decode_value,
    encode_value,
)


def _fixture_snapshot(misconfigured=True, label="cap"):
    scenario = loop_fixture(misconfigured=misconfigured)
    return ConfigSnapshot.capture_world(
        scenario.env, scenario.server, label=label
    )


def test_codec_roundtrips_event_enum_and_tuples():
    event = EventConfig(
        event=EventType.A5, threshold1=-100.0, threshold2=-90.0,
        hysteresis=1.0, time_to_trigger_ms=640,
    )
    encoded = encode_value(event)
    assert encoded["__type__"] == "EventConfig"
    assert encoded["event"] == {"__enum__": "EventType", "value": "A5"}
    assert decode_value(encoded) == event


def test_codec_rejects_unknown_types():
    class NotAConfig:
        pass

    with pytest.raises(TypeError):
        encode_value(NotAConfig())
    with pytest.raises(ValueError):
        decode_value({"__type__": "NotAConfig"})


def _fields_encode(value, seen):
    """The codec as a ``dataclasses.fields`` walk at every node."""
    if is_dataclass(value) and not isinstance(value, type):
        if type(value).__name__ not in _CONFIG_TYPES:
            raise TypeError(f"unregistered config type {type(value).__name__}")
        seen.add(type(value))
        payload = {"__type__": type(value).__name__}
        for f in fields(value):
            if f.repr:
                payload[f.name] = _fields_encode(getattr(value, f.name), seen)
        return payload
    if isinstance(value, EventType):
        return {"__enum__": "EventType", "value": value.value}
    if isinstance(value, tuple):
        return {"__tuple__": [_fields_encode(v, seen) for v in value]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} value {value!r}")


def test_codec_field_tables_match_a_fields_walk_on_every_config_type():
    world = d2_world()
    cells = world_snapshots(world.env, world.server, max_cells_per_carrier=60)
    seen = set()
    for cell in cells:
        # json.dumps tells key order and int/float/bool apart.
        assert json.dumps(encode_value(cell)) == json.dumps(_fields_encode(cell, seen))
    assert seen == set(_CONFIG_TYPES.values())
    buffered = replace(cells[0], _sibs=["sib1", "sib3"])
    assert "_sibs" not in encode_value(buffered)
    assert encode_value(buffered) == encode_value(cells[0])


@dataclass(frozen=True)
class _Unregistered:
    x: int = 1


@pytest.mark.parametrize(
    "value",
    [_Unregistered(), (1, _Unregistered()), [1, 2], {"a": 1}, {1}, b"x", 1j,
     (1.5, [2])],
    ids=["dataclass", "nested-dataclass", "list", "dict", "set", "bytes",
         "complex", "nested-list"],
)
def test_codec_type_errors_match_the_fields_walk(value):
    with pytest.raises(TypeError) as reference:
        _fields_encode(value, set())
    with pytest.raises(TypeError) as ours:
        encode_value(value)
    assert str(ours.value) == str(reference.value)


def test_decode_revalidates_through_constructors():
    event = EventConfig(event=EventType.A1, threshold1=-100.0)
    encoded = encode_value(event)
    encoded["hysteresis"] = -3.0  # invalid: constructor must reject
    with pytest.raises(ValueError):
        decode_value(encoded)


def test_capture_save_load_roundtrip(tmp_path):
    snapshot = _fixture_snapshot(label="round-000")
    path = tmp_path / "cap.json"
    snapshot.save(path)
    loaded = ConfigSnapshot.load(path)
    assert loaded.label == "round-000"
    assert len(loaded) == len(snapshot) == 3
    assert loaded.cells == snapshot.cells
    assert loaded.fleet_digest == snapshot.fleet_digest


def test_cell_digests_match_graph_verifier_digests():
    snapshot = _fixture_snapshot()
    digests = snapshot.cell_digests()
    assert set(digests) == {(c.carrier, c.gci) for c in snapshot.cells}
    for cell in snapshot.cells:
        assert digests[(cell.carrier, cell.gci)] == snapshot_digest(cell)


def test_fleet_digest_tracks_content_not_label():
    a = _fixture_snapshot(misconfigured=True, label="x")
    b = _fixture_snapshot(misconfigured=True, label="y")
    c = _fixture_snapshot(misconfigured=False, label="x")
    assert a.fleet_digest == b.fleet_digest
    assert a.fleet_digest != c.fleet_digest


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"version": SNAPSHOT_VERSION + 1, "cells": []}))
    with pytest.raises(ValueError, match="unsupported snapshot version"):
        ConfigSnapshot.load(path)


def test_save_is_atomic(tmp_path):
    snapshot = _fixture_snapshot()
    path = tmp_path / "cap.json"
    path.write_text("previous contents")
    snapshot.save(path)
    assert ConfigSnapshot.load(path).cells == snapshot.cells
    assert [p.name for p in tmp_path.iterdir()] == ["cap.json"]


def test_failed_save_preserves_target_and_reports_tmp(tmp_path, monkeypatch):
    """Simulated crash at the final rename: target intact, tmp visible.

    ``os.replace`` explodes and the cleanup ``os.unlink`` fails too (as
    it would if the process died); the half-written temp file must stay
    in the directory while the target keeps its old bytes.
    """
    snapshot = _fixture_snapshot()
    path = tmp_path / "cap.json"
    path.write_text("previous contents")

    def exploding_replace(src, dst):
        raise RuntimeError("simulated crash")

    def failing_unlink(name):
        raise OSError("simulated crash during cleanup")

    monkeypatch.setattr(os, "replace", exploding_replace)
    monkeypatch.setattr(os, "unlink", failing_unlink)
    with pytest.raises(RuntimeError, match="simulated crash"):
        snapshot.save(path)
    assert path.read_text() == "previous contents"
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "cap.json"]
    assert len(leftovers) == 1 and leftovers[0].endswith(".tmp")


def test_failed_save_cleans_tmp_when_unlink_works(tmp_path, monkeypatch):
    snapshot = _fixture_snapshot()
    path = tmp_path / "cap.json"
    path.write_text("previous contents")
    monkeypatch.setattr(
        os, "replace",
        lambda src, dst: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    with pytest.raises(RuntimeError):
        snapshot.save(path)
    assert path.read_text() == "previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["cap.json"]
