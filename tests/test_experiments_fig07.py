"""Tests for the Fig. 7 controlled-experiment machinery."""

import numpy as np
import pytest

from repro.experiments.controlled import FixedEventConfigServer
from repro.experiments.fig07_throughput_timeline import (
    a3_event,
    min_throughput_before,
    timeline_around_first_handoff,
)
from repro.simulate.runner import DriveResult, DriveSimulator, TickSample
from repro.simulate.traffic import Speedtest
from repro.ue.device import HandoffEvent
from repro.cellnet.cell import CellId


def test_fixed_a3_server_overrides_offset(scenario, lte_cell):
    server = FixedEventConfigServer(scenario.env, (a3_event(12.0),))
    meas = server.connection_reconfiguration(lte_cell).meas_config
    assert len(meas.events) == 1
    assert meas.events[0].offset == 12.0
    assert meas.s_measure == -44.0


def _result_with_handoff(t_handoff=10_000):
    result = DriveResult(carrier="A", tick_ms=1000)
    for t in range(0, 30_000, 1000):
        result.samples.append(TickSample(
            t_ms=t, serving=CellId("A", 1), rsrp_dbm=-100.0, sinr_db=5.0,
            capacity_bps=5e6,
            delivered_bps=1e6 if t < t_handoff else 4e6,
            interrupted=False,
        ))
    result.handoffs = [HandoffEvent(
        time_ms=t_handoff, kind="active", source=CellId("A", 1),
        target=CellId("A", 2), decisive_event="A3",
        old_rsrp_dbm=-110.0, new_rsrp_dbm=-95.0, intra_freq=True,
    )]
    return result


def test_timeline_is_centered_on_handoff():
    result = _result_with_handoff()
    timeline = timeline_around_first_handoff(result, window_s=5.0)
    offsets = [offset for offset, _ in timeline]
    assert min(offsets) >= -5.0 and max(offsets) <= 5.0
    before = [mbps for offset, mbps in timeline if offset < 0]
    after = [mbps for offset, mbps in timeline if offset >= 0]
    assert max(before) < min(after)  # throughput jumps at the handoff


def test_timeline_empty_without_handoffs():
    result = DriveResult(carrier="A", tick_ms=1000)
    assert timeline_around_first_handoff(result) == []


def test_min_throughput_before():
    result = _result_with_handoff()
    assert min_throughput_before(result) == pytest.approx(1e6)


def test_larger_offset_defers_handoff(scenario):
    """The Fig. 7 mechanism on the session world."""
    trajectory = scenario.urban_trajectory(np.random.default_rng(5), duration_s=300.0)
    counts = {}
    for offset in (3.0, 12.0):
        server = FixedEventConfigServer(scenario.env, (a3_event(offset),))
        sim = DriveSimulator(scenario.env, server, "A", seed=9)
        result = sim.run(trajectory, Speedtest(), run_index=int(offset))
        counts[offset] = len([h for h in result.handoffs if h.kind == "active"])
    assert counts[12.0] <= counts[3.0]
