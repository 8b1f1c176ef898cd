"""Fig. 7: throughput timelines of two handoffs with Delta_A3 = 5 vs 12 dB.

A controlled Type-II experiment: the same drive is run twice against a
configuration server that pins every cell's measConfig to a single A3
event with the requested offset, and the throughput around the first
handoff is binned at 1 s and 100 ms as in the paper.  The larger offset
defers the handoff until the serving link has already collapsed, so the
minimum pre-handoff throughput drops by a large factor (the paper
measures 2.2 Mbps vs 437 kbps, an ~80% decline).
"""

from __future__ import annotations

import numpy as np

from repro.config.events import EventConfig, EventType
from repro.experiments.common import ExperimentResult, default_scenario
from repro.experiments.controlled import FixedEventConfigServer
from repro.simulate.runner import DriveResult, DriveSimulator
from repro.simulate.traffic import Speedtest


def a3_event(offset_db: float, time_to_trigger_ms: int = 320) -> EventConfig:
    """The one A3 event Fig. 7 pins every measConfig to (with
    :class:`FixedEventConfigServer`'s default s-Measure of -44 dBm, the
    gate is disabled: neighbors are always measured)."""
    return EventConfig(
        event=EventType.A3,
        metric="rsrp",
        offset=offset_db,
        hysteresis=1.0,
        time_to_trigger_ms=time_to_trigger_ms,
    )


def _drive_with_offset(offset_db: float, carrier: str = "T", seed: int = 7) -> DriveResult:
    scenario = default_scenario()
    server = FixedEventConfigServer(scenario.env, (a3_event(offset_db),), seed=2018)
    sim = DriveSimulator(scenario.env, server, carrier, seed=seed)
    trajectory = scenario.urban_trajectory(
        np.random.default_rng((seed, 0xF7)), duration_s=420.0, speed_kmh=45.0
    )
    return sim.run(trajectory, Speedtest(), run_index=int(offset_db))


def timeline_around_first_handoff(
    result: DriveResult, window_s: float = 20.0, bin_ms: int = 1000
) -> list[tuple[float, float]]:
    """(seconds relative to handoff, Mbps) series around the first handoff."""
    active = [h for h in result.handoffs if h.kind == "active"]
    if not active:
        return []
    t0 = active[len(active) // 2].time_ms  # a mid-drive handoff
    series = []
    for start, bps in result.throughput_series(bin_ms=bin_ms):
        offset_s = (start - t0) / 1000.0
        if -window_s <= offset_s <= window_s:
            series.append((offset_s, bps / 1e6))
    return series


def min_throughput_before(result: DriveResult, window_ms: int = 10_000) -> float:
    """Mean over handoffs of the minimum 1 s throughput before each."""
    series = result.throughput_series(bin_ms=1000)
    minima = []
    for handoff in result.handoffs:
        if handoff.kind != "active":
            continue
        window = [
            bps for start, bps in series
            if handoff.time_ms - window_ms <= start < handoff.time_ms
        ]
        if window:
            minima.append(min(window))
    return float(np.mean(minima)) if minima else 0.0


def run(offsets: tuple[float, float] = (5.0, 12.0)) -> ExperimentResult:
    """Regenerate Fig. 7: the small- vs large-offset handoff timelines."""
    result = ExperimentResult(
        exp_id="fig07",
        title="Throughput of handoffs using distinct A3 offsets",
    )
    minima = {}
    for offset in offsets:
        drive = _drive_with_offset(offset)
        minimum = min_throughput_before(drive)
        minima[offset] = minimum
        result.add(f"Delta_A3={offset:g}dB", "min-thpt-before(Mbps)", minimum / 1e6)
        for offset_s, mbps in timeline_around_first_handoff(drive)[:41]:
            result.add(f"  t{offset_s:+.0f}s", mbps)
    small, large = offsets
    if minima[small] > 0:
        decline = 1.0 - minima[large] / minima[small]
        result.note(
            f"min pre-handoff throughput declines {100 * decline:.0f}% from "
            f"{small:g} dB to {large:g} dB offset (paper: ~80%, 5x gap)"
        )
    return result
