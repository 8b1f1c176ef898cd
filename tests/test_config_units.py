"""Tests for configuration value domains and quantization."""

import dataclasses
import math

from repro.config.parameters import REGISTRY
from repro.config.units import (
    DBM_THRESHOLD,
    DOMAIN_MEMO_CAP,
    Domain,
    HYSTERESIS_DB,
    OFFSET_DB,
    PRIORITY,
    TIME_TO_TRIGGER_MS,
    TTT_MS,
    nearest_time_to_trigger,
    quantize_half_db,
)


def test_quantize_half_db():
    assert quantize_half_db(1.26) == 1.5
    assert quantize_half_db(1.24) == 1.0
    assert quantize_half_db(-2.75) in (-2.5, -3.0)


def test_nearest_ttt():
    assert nearest_time_to_trigger(300) == 320
    assert nearest_time_to_trigger(0) == 0
    assert nearest_time_to_trigger(9999) == 5120
    assert nearest_time_to_trigger(50) == 40


def test_ttt_values_are_standard():
    assert 320 in TIME_TO_TRIGGER_MS
    assert 1280 in TIME_TO_TRIGGER_MS
    assert 100 in TIME_TO_TRIGGER_MS
    assert len(TIME_TO_TRIGGER_MS) == 16


def test_int_domain():
    assert PRIORITY.contains(0)
    assert PRIORITY.contains(7)
    assert not PRIORITY.contains(8)
    assert not PRIORITY.contains(-1)
    assert not PRIORITY.contains(3.5)


def test_float_domain_with_step():
    assert HYSTERESIS_DB.contains(1.5)
    assert not HYSTERESIS_DB.contains(1.3)
    assert not HYSTERESIS_DB.contains(-0.5)


def test_enum_domain():
    assert TTT_MS.contains(320)
    assert not TTT_MS.contains(321)


def test_dbm_domain_range():
    assert DBM_THRESHOLD.contains(-122)
    assert DBM_THRESHOLD.contains(-44)
    assert not DBM_THRESHOLD.contains(-141)
    assert not DBM_THRESHOLD.contains(-43)


def test_offset_domain_negative_values():
    """Negative A3 offsets are rare but valid (paper observes -1 dB)."""
    assert OFFSET_DB.contains(-1.0)
    assert OFFSET_DB.contains(15.0)


def test_list_domain():
    domain = Domain("list")
    assert domain.contains([1, 2])
    assert domain.contains(())
    assert not domain.contains(3)


def test_bool_is_not_numeric():
    assert not PRIORITY.contains(True)


# -- the per-domain memo of membership answers ---------------------------------

_PROBES = (
    float("nan"), -0.0, 0.0, True, False, 1, 1.0, 0, [1, 2], [], (1,), None,
    0.25, 0.5, 1.3, 3.5, -97.0, -97.3, -44, -44.0, 7, 8, 62.0, 63.0, 320, 321.0,
    "rscp", "ecno", "",
)


def _outcome(check, value):
    try:
        return check(value)
    except (TypeError, ValueError) as exc:  # NaN on a stepped domain
        return type(exc)


def _domains():
    seen = {}
    for specs in REGISTRY.values():
        for spec in specs:
            seen.setdefault(id(spec.domain), spec.domain)
    return [*seen.values(), Domain("enum", choices=(0, 1)), Domain("list"),
            Domain("float", low=-1.0, high=1.0)]


def test_memoized_answers_equal_the_unmemoized_ones_in_any_order():
    for domain in _domains():
        expected = [_outcome(domain._evaluate, v) for v in _PROBES]
        for order in (_PROBES, _PROBES[::-1]):
            fresh = dataclasses.replace(domain)
            for _ in range(2):  # the second pass reads the memo
                got = {repr(v): _outcome(fresh.contains, v) for v in order}
                assert [got[repr(v)] for v in _PROBES] == expected, domain


def test_memo_keys_by_exact_type_and_zero_sign():
    domain = Domain("int", low=0, high=7, step=1)
    assert domain.contains(1) and domain.contains(1.0) and not domain.contains(True)
    assert domain.contains(0.0) and domain.contains(-0.0)
    assert len(domain._memo) == 5  # 1, 1.0, True, 0.0 and -0.0 apart
    for value in (float("nan"), [1], (1,), None):
        _outcome(domain.contains, value)
    assert len(domain._memo) == 5  # NaN, lists and other types are never stored


def test_memo_stops_growing_at_its_cap():
    domain = Domain("int", low=0, high=10 * DOMAIN_MEMO_CAP, step=1)
    for value in range(DOMAIN_MEMO_CAP + 10):
        assert domain.contains(value)
    assert len(domain._memo) == DOMAIN_MEMO_CAP
    assert domain.contains(DOMAIN_MEMO_CAP + 5) and not domain.contains(-1)


def test_d2_audit_evaluates_each_distinct_value_once(monkeypatch):
    from repro.datasets.d2 import d2_world
    from repro.lint.engine import lint_snapshots, world_snapshots

    world = d2_world()
    snapshots = world_snapshots(world.env, world.server, max_cells_per_carrier=60)
    for domain in _domains():
        domain._memo.clear()
    evaluated = []
    original = Domain._evaluate

    def counting(domain, value):
        evaluated.append((domain, value))
        return original(domain, value)

    monkeypatch.setattr(Domain, "_evaluate", counting)
    lint_snapshots(snapshots, codes=["HC001"])
    keys = []
    lists = 0
    for domain, value in evaluated:
        if isinstance(value, list):
            lists += 1
            continue
        assert type(value) in (int, float, str, bool) and value == value
        keys.append((id(domain), type(value), value, math.copysign(1.0, value)
                     if type(value) is float else 0))
    assert lists > 0 and len(keys) > 100
    assert len(keys) == len(set(keys))  # each distinct key evaluated once
