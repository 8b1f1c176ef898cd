"""The indented-JSON writer against its oracle, ``json.dumps(obj, indent=2)``.

``repro.lint.jsontext`` renders every lint report (``dumps_indented``)
and writes every baseline and configuration snapshot (``write_json``,
item by item).  Both must give the stdlib's text byte for byte: key
order, string escapes (``encode_basestring_ascii`` for keys too),
``int``/``float`` reprs with ``IntEnum`` members written as numbers,
``NaN``/``Infinity``, empty containers, the coercion of non-string keys
and the same ``TypeError`` messages.  The properties draw awkward
trees; the call-site tests hold the five writers of ``repro.lint`` to
the stdlib on real reports, and the saves to an atomic replace.
"""

import errno
import json
import math
import os
import stat
import tempfile
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datasets.d2 import d2_world
from repro.datasets.evolve import EvolveOptions, evolve_timeline
from repro.lint import Baseline, ConfigSnapshot, diff_lint
from repro.lint import baseline as baseline_module
from repro.lint import report as report_module
from repro.lint import snapshot as snapshot_module
from repro.lint.engine import lint_world
from repro.lint.fixtures import dead_zone_fixture, loop_fixture
from repro.lint.jsontext import dumps_indented, write_json
from repro.lint.snapshot import SNAPSHOT_TOOL, SNAPSHOT_VERSION, encode_value
from repro.rrc.broadcast import ConfigServer

_BASELINE = Path(__file__).resolve().parents[1] / "lint-baseline.json"


def _stdlib(obj):
    return json.dumps(obj, indent=2)


class Level(IntEnum):
    LOW = -3
    ZERO = 0
    HIGH = 2**70


#: Characters every escape path must get right: quotes, backslashes,
#: control characters, DEL, the JS line separators, non-ASCII text,
#: astral code points and lone surrogates.
_SPECIAL = ['"', "\\", "/", "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f",
            "\x7f", "\u2028", "\u2029", "\u00e9", "\u65e5", "\U0001f600", "\ud800",
            "\udfff"]
_text = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from(_SPECIAL)),
    max_size=12,
)
_ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(max_value=-(2**63)),
    st.sampled_from(list(Level)),
)
_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e300, 1e16, 0.1,
                     math.nan, math.inf, -math.inf]),
)
_scalars = st.one_of(_text, _ints, _floats, st.booleans(), st.none())
_keys = st.one_of(_text, _ints, _floats, st.booleans(), st.none())
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(_trees)
@example({"ké\"\\\n": ["a\ud800", Level.HIGH, {Level.LOW: Level.ZERO}]})
@example([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, Level.LOW])
@example({1.5: 1, math.inf: 2, -0.0: 3, True: 4, False: 5, None: 6, 7: {}, "": []})
@example(((), [], {}, [[]], {"a": {}}))
@example("top-level   string")
@example(Level.HIGH)
def test_writer_matches_stdlib_on_random_trees(tree):
    text = _stdlib(tree)
    assert dumps_indented(tree) == text
    assert _saved(tree) == text + "\n"


def _saved(obj):
    """What ``write_json`` puts in a file (it writes item by item)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "saved.json"
        try:
            write_json(path, obj)
        finally:
            assert [p.name for p in Path(tmp).iterdir()] in ([], ["saved.json"])
        return path.read_text(encoding="utf-8")


class _Opaque:
    pass


_BAD = st.sampled_from([{1, 2}, frozenset(), b"raw", bytearray(b"x"), _Opaque(),
                        object(), 1j, Path("p")])


def _outcome(render, obj):
    try:
        return "ok", render(obj)
    except TypeError as exc:
        return "TypeError", str(exc)


@settings(max_examples=50, deadline=None)
@given(
    st.recursive(
        st.one_of(_scalars, _BAD),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.one_of(_keys, st.tuples(st.integers())), children,
                            max_size=4),
        ),
        max_leaves=15,
    )
)
def test_writer_raises_the_stdlib_type_errors(tree):
    """Unencodable values and keys fail first at the same place."""
    expected = _outcome(_stdlib, tree)
    assert _outcome(dumps_indented, tree) == expected
    status, text = _outcome(_saved, tree)
    assert (status, text.removesuffix("\n")) == expected


@pytest.mark.parametrize(
    "obj",
    [{1, 2}, b"x", _Opaque(), [1, {"a": {3}}], {(1, 2): "tuple key"},
     {"ok": {frozenset(): 1}}],
    ids=["set", "bytes", "object", "nested-set", "tuple-key", "nested-key"],
)
def test_writer_type_errors_match_stdlib_messages(obj):
    with pytest.raises(TypeError) as stdlib_error:
        _stdlib(obj)
    with pytest.raises(TypeError) as ours:
        dumps_indented(obj)
    assert str(ours.value) == str(stdlib_error.value)


# ---------------------------------------------------------------------------
# The five writers of repro.lint, on real reports and saves


@pytest.fixture
def checked(monkeypatch):
    """Route the report writers through a check against the stdlib text."""
    rendered = []

    def check(obj):
        text = dumps_indented(obj)
        assert text == _stdlib(obj)
        rendered.append(text)
        return text

    monkeypatch.setattr(report_module, "dumps_indented", check)
    return rendered


def _world_report(name):
    if name == "d2-world-60":
        env = d2_world().env
        return lint_world(
            env, ConfigServer(env, seed=2018), max_cells_per_carrier=60,
            graph=True, coverage=True,
        )
    make = {"loop-fixture": loop_fixture, "dead-zone-fixture": dead_zone_fixture}[name]
    scenario = make(misconfigured=True)
    return lint_world(scenario.env, scenario.server, graph=True, coverage=True)


@pytest.mark.parametrize("name", ["loop-fixture", "dead-zone-fixture", "d2-world-60"])
def test_report_writers_match_stdlib(name, checked):
    report = _world_report(name)
    if name != "loop-fixture":
        assert report.witnesses
    assert report_module.render_json(report) == checked[-1]
    assert report_module.render_sarif(report) == checked[-1]
    assert len(checked) == 2


def test_drift_report_writers_match_stdlib(checked):
    timeline = evolve_timeline(EvolveOptions(scenario="loop-regression", steps=2))
    report = diff_lint(timeline.snapshots[0], timeline.snapshots[1])
    assert report.findings
    assert report_module.render_diff_json(report) == checked[-1]
    assert report_module.render_diff_sarif(report) == checked[-1]
    assert len(checked) == 2


def test_saves_match_stdlib(tmp_path, monkeypatch):
    saved = []

    def recording(path, obj):
        saved.append((path, obj))
        write_json(path, obj)

    monkeypatch.setattr(snapshot_module, "write_json", recording)
    monkeypatch.setattr(baseline_module, "write_json", recording)
    scenario = dead_zone_fixture(misconfigured=True)
    capture = ConfigSnapshot.capture_world(scenario.env, scenario.server, label="cap")
    capture.save(tmp_path / "cap.json")
    Baseline.load(_BASELINE).save(tmp_path / "baseline.json")
    assert [path for path, _ in saved] == [tmp_path / "cap.json", tmp_path / "baseline.json"]
    for path, payload in saved:
        assert path.read_text() == _stdlib(payload) + "\n"


# ---------------------------------------------------------------------------
# Saves: the same bytes as before, written atomically


def test_baseline_save_reproduces_the_committed_file(tmp_path):
    target = tmp_path / "lint-baseline.json"
    Baseline.load(_BASELINE).save(target)
    assert target.read_bytes() == _BASELINE.read_bytes()


def test_snapshot_save_writes_the_stdlib_bytes(tmp_path):
    scenario = loop_fixture(misconfigured=True)
    capture = ConfigSnapshot.capture_world(scenario.env, scenario.server, label="r0")
    capture.save(tmp_path / "cap.json")
    payload = {
        "version": SNAPSHOT_VERSION,
        "tool": SNAPSHOT_TOOL,
        "label": capture.label,
        "captured_day": capture.captured_day,
        "fleet_digest": capture.fleet_digest,
        "cells": [encode_value(cell) for cell in capture.cells],
    }
    assert (tmp_path / "cap.json").read_text() == json.dumps(payload, indent=2) + "\n"


def _fail_halfway(monkeypatch):
    """Make the next save's write put half its text down, then fail."""
    real_fdopen = os.fdopen

    class HalfWriter:
        def __init__(self, handle):
            self._handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._handle.close()
            return False

        def write(self, text):
            self._handle.write(text[: len(text) // 2])
            self._handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(
        os, "fdopen", lambda *a, **k: HalfWriter(real_fdopen(*a, **k))
    )


@pytest.mark.parametrize("kind", ["baseline", "snapshot"])
def test_failed_save_leaves_the_old_file(kind, tmp_path, monkeypatch):
    target = tmp_path / "saved.json"
    if kind == "baseline":
        saved = Baseline.load(_BASELINE)
    else:
        scenario = loop_fixture(misconfigured=True)
        saved = ConfigSnapshot.capture_world(scenario.env, scenario.server, label="r0")
    old = b'{"version": 1, "previous": true}\n'
    target.write_bytes(old)
    _fail_halfway(monkeypatch)
    with pytest.raises(OSError):
        saved.save(target)
    assert target.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["saved.json"]


def test_write_json_keeps_an_existing_files_mode(tmp_path):
    target = tmp_path / "kept.json"
    target.write_text("{}\n")
    os.chmod(target, 0o640)
    write_json(target, {"a": [1, 2.5, None]})
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o640
    assert target.read_text() == json.dumps({"a": [1, 2.5, None]}, indent=2) + "\n"
