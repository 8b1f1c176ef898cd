"""Tests for reporting-event semantics (TS 36.331 5.5.4 / paper Eq. 2)."""

import pytest

from repro.config.events import (
    EventConfig,
    EventTable,
    EventType,
    PeriodicConfig,
    evaluate_entry,
    evaluate_leave,
)
from repro.config.lte import MeasurementConfig


def _a3(offset=3.0, hysteresis=1.0):
    return EventConfig(event=EventType.A3, offset=offset, hysteresis=hysteresis)


def test_a3_entry_requires_offset_plus_hysteresis():
    config = _a3(offset=3.0, hysteresis=1.0)
    serving = -100.0
    assert not evaluate_entry(config, serving, -97.0)   # +3: not enough
    assert not evaluate_entry(config, serving, -96.0)   # +4: boundary
    assert evaluate_entry(config, serving, -95.9)       # +4.1: enter


def test_a3_leave_mirrors_with_hysteresis():
    config = _a3(offset=3.0, hysteresis=1.0)
    serving = -100.0
    assert evaluate_leave(config, serving, -98.5)       # +1.5 < offset-hys
    assert not evaluate_leave(config, serving, -97.5)   # +2.5 > offset-hys


def test_a3_hysteresis_gap():
    """Between entry and leave there is a no-mans-land of 2*hys."""
    config = _a3(offset=3.0, hysteresis=1.0)
    serving = -100.0
    neighbor = -96.5  # serving + 3.5: neither enter (needs +4) nor leave (needs < +2)
    assert not evaluate_entry(config, serving, neighbor)
    assert not evaluate_leave(config, serving, neighbor)


def test_negative_a3_offset_enters_on_weaker_neighbor():
    """The paper's questionable T-Mobile configuration."""
    config = _a3(offset=-1.0, hysteresis=0.0)
    assert evaluate_entry(config, -100.0, -100.5)


def test_a1_and_a2_are_serving_only():
    a1 = EventConfig(event=EventType.A1, threshold1=-100.0, hysteresis=1.0)
    a2 = EventConfig(event=EventType.A2, threshold1=-110.0, hysteresis=1.0)
    assert evaluate_entry(a1, -95.0, None)
    assert not evaluate_entry(a1, -100.0, None)
    assert evaluate_entry(a2, -112.0, None)
    assert not evaluate_entry(a2, -110.0, None)
    assert not EventType.A1.needs_neighbor
    assert not EventType.A2.needs_neighbor


def test_a4_neighbor_threshold():
    a4 = EventConfig(event=EventType.A4, threshold1=-105.0, hysteresis=1.0)
    assert evaluate_entry(a4, None, -103.0)
    assert not evaluate_entry(a4, None, -104.5)


def test_a5_dual_condition():
    a5 = EventConfig(
        event=EventType.A5, threshold1=-110.0, threshold2=-105.0, hysteresis=1.0
    )
    assert evaluate_entry(a5, -112.0, -103.0)
    assert not evaluate_entry(a5, -108.0, -103.0)  # serving too strong
    assert not evaluate_entry(a5, -112.0, -104.5)  # candidate too weak


def test_a5_no_serving_requirement_at_minus_44():
    """Theta_S = -44 dBm accepts any serving level (paper Section 4.1)."""
    a5 = EventConfig(
        event=EventType.A5, threshold1=-44.0, threshold2=-114.0, hysteresis=1.0
    )
    assert evaluate_entry(a5, -60.0, -110.0)
    assert evaluate_entry(a5, -120.0, -110.0)


def test_a5_leave_when_either_condition_fails():
    a5 = EventConfig(
        event=EventType.A5, threshold1=-110.0, threshold2=-105.0, hysteresis=1.0
    )
    assert evaluate_leave(a5, -108.0, -103.0)
    assert evaluate_leave(a5, -113.0, -107.0)
    assert not evaluate_leave(a5, -113.0, -103.0)


def test_b_events_inter_rat():
    b1 = EventConfig(event=EventType.B1, threshold1=-100.0, hysteresis=0.5)
    b2 = EventConfig(
        event=EventType.B2, threshold1=-115.0, threshold2=-100.0, hysteresis=0.5
    )
    assert EventType.B1.is_inter_rat and EventType.B2.is_inter_rat
    assert evaluate_entry(b1, None, -98.0)
    assert evaluate_entry(b2, -117.0, -98.0)
    assert not evaluate_entry(b2, -113.0, -98.0)


def test_neighbor_offset_applied():
    config = _a3(offset=3.0, hysteresis=0.0)
    assert not evaluate_entry(config, -100.0, -98.0)
    assert evaluate_entry(config, -100.0, -98.0, neighbor_offset=2.0)


def test_periodic_always_enters():
    periodic = PeriodicConfig().as_event_config()
    assert evaluate_entry(periodic, None, None)
    assert not evaluate_leave(periodic, None, None)


def test_event_table_rejects_events_without_entry_mask():
    # Periodic reporting lives in MeasurementConfig.periodic; an event
    # list that carries it has no entry condition to lay out.
    periodic = MeasurementConfig(events=(PeriodicConfig().as_event_config(),))
    table = EventTable(1)
    with pytest.raises(NotImplementedError, match="no entry mask"):
        table.set_row(0, periodic)


def test_missing_measurements_fail_entry():
    config = _a3()
    assert not evaluate_entry(config, None, -90.0)
    assert not evaluate_entry(config, -90.0, None)


# -- validation ------------------------------------------------------------

def test_threshold_required():
    with pytest.raises(ValueError, match="requires threshold1"):
        EventConfig(event=EventType.A2)
    with pytest.raises(ValueError, match="requires threshold2"):
        EventConfig(event=EventType.A5, threshold1=-110.0)


def test_bad_metric_rejected():
    with pytest.raises(ValueError, match="metric"):
        EventConfig(event=EventType.A3, metric="sinr")


def test_nonstandard_ttt_rejected():
    with pytest.raises(ValueError, match="time-to-trigger"):
        EventConfig(event=EventType.A3, time_to_trigger_ms=300)


def test_negative_hysteresis_rejected():
    with pytest.raises(ValueError, match="hysteresis"):
        EventConfig(event=EventType.A3, hysteresis=-1.0)


def test_parameter_samples_names_resolve():
    """Every sample name must exist in the LTE registry."""
    from repro.cellnet.rat import RAT
    from repro.config.parameters import spec_by_name

    configs = [
        EventConfig(event=EventType.A1, threshold1=-100.0),
        EventConfig(event=EventType.A2, threshold1=-110.0),
        _a3(),
        EventConfig(event=EventType.A4, threshold1=-105.0),
        EventConfig(event=EventType.A5, threshold1=-110.0, threshold2=-105.0),
        EventConfig(event=EventType.B1, threshold1=-100.0),
        EventConfig(event=EventType.B2, threshold1=-115.0, threshold2=-100.0),
        PeriodicConfig().as_event_config(),
    ]
    for config in configs:
        for name, value in config.parameter_samples():
            spec = spec_by_name(RAT.LTE, name)
            assert spec.domain.contains(value), (name, value)
