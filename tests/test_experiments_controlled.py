"""Tests for the controlled-experiment helpers."""

import pytest

from repro.config.events import EventConfig, EventType
from repro.experiments.controlled import (
    DriveMetrics,
    FixedEventConfigServer,
    run_controlled_drive,
)
from repro.simulate.runner import DriveResult
from repro.ue.device import HandoffEvent
from repro.cellnet.cell import CellId


def test_fixed_server_pins_every_cell(scenario):
    events = (EventConfig(event=EventType.A3, offset=5.0, hysteresis=1.0),)
    server = FixedEventConfigServer(scenario.env, events)
    cells = list(scenario.plan.registry.by_carrier("A"))[:5]
    configs = {server.connection_reconfiguration(c).meas_config for c in cells}
    assert len(configs) == 1
    config = configs.pop()
    assert config.events == events
    assert config.periodic is None


def test_fixed_server_still_serves_sibs(scenario, lte_cell):
    events = (EventConfig(event=EventType.A3, offset=5.0, hysteresis=1.0),)
    server = FixedEventConfigServer(scenario.env, events)
    sibs = server.sib_messages(lte_cell)
    assert sibs  # idle-state broadcast unchanged


def _handoff(t, source, target):
    return HandoffEvent(
        time_ms=t, kind="active", source=CellId("A", source),
        target=CellId("A", target), decisive_event="A3",
        old_rsrp_dbm=-105.0, new_rsrp_dbm=-100.0, intra_freq=True,
    )


def test_drive_metrics_ping_pong_rate():
    result = DriveResult(carrier="A", tick_ms=200)
    result.handoffs = [
        _handoff(1000, 1, 2),
        _handoff(3000, 2, 1),   # back within 10 s: ping-pong
        _handoff(60_000, 1, 3),  # much later: not a ping-pong
        _handoff(70_000, 3, 1),  # back after exactly 10 s: ping-pong
    ]
    metrics = DriveMetrics.from_result(result)
    assert metrics.n_handoffs == 4
    assert metrics.ping_pong_rate == pytest.approx(2 / 3)


def test_drive_metrics_empty_result():
    metrics = DriveMetrics.from_result(DriveResult(carrier="A", tick_ms=200))
    assert metrics.n_handoffs == 0
    assert metrics.mean_throughput_bps == 0.0


def test_run_controlled_drive_end_to_end(scenario):
    events = (EventConfig(event=EventType.A3, offset=3.0, hysteresis=1.0,
                          time_to_trigger_ms=320),)
    metrics = run_controlled_drive(events, scenario=scenario, duration_s=180.0)
    assert metrics.mean_throughput_bps > 0


def test_controlled_drive_offset_effect(scenario):
    """The fig07 mechanism at small scale: bigger offsets, fewer handoffs."""
    small = run_controlled_drive(
        (EventConfig(event=EventType.A3, offset=1.0, hysteresis=0.5,
                     time_to_trigger_ms=40),),
        scenario=scenario, duration_s=240.0,
    )
    large = run_controlled_drive(
        (EventConfig(event=EventType.A3, offset=12.0, hysteresis=2.0,
                     time_to_trigger_ms=640),),
        scenario=scenario, duration_s=240.0,
    )
    assert large.n_handoffs <= small.n_handoffs
