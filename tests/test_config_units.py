"""Tests for configuration value domains and quantization."""

from repro.config.units import (
    DBM_THRESHOLD,
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
