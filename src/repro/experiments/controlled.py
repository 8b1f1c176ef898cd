"""Controlled (Type-II style) experiment helpers.

The paper validates configuration effects by running guided tests with
configurations of interest (Section 3.2).  These helpers pin the whole
network to one measurement configuration and expose the drive metrics
the ablation benchmarks compare: handoff count, ping-pong rate, mean
throughput and minimum pre-handoff throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.events import EventConfig
from repro.config.lte import MeasurementConfig
from repro.experiments.common import default_scenario
from repro.rrc.broadcast import ConfigServer
from repro.rrc.messages import RrcConnectionReconfiguration
from repro.simulate.fleet import count_ping_pongs
from repro.simulate.runner import DriveResult, DriveSimulator
from repro.simulate.traffic import Speedtest


class FixedEventConfigServer(ConfigServer):
    """A config server that pins every cell's measConfig."""

    def __init__(self, env, events: tuple[EventConfig, ...], seed: int = 2018,
                 s_measure: float = -44.0):
        super().__init__(env, seed=seed)
        self._fixed = MeasurementConfig(events=events, periodic=None,
                                        s_measure=s_measure)

    def connection_reconfiguration(self, cell, obs_rng=None):
        return RrcConnectionReconfiguration(meas_config=self._fixed)


@dataclass(frozen=True)
class DriveMetrics:
    """Comparable outcomes of one controlled drive."""

    n_handoffs: int
    ping_pong_rate: float
    mean_throughput_bps: float
    mean_min_throughput_before_bps: float

    @classmethod
    def from_result(cls, result: DriveResult) -> "DriveMetrics":
        handoffs = [h for h in result.handoffs if h.kind == "active"]
        ping_pongs = count_ping_pongs((h.source, h.target, h.time_ms) for h in handoffs)
        series = result.throughput_series(bin_ms=1000)
        minima = []
        last_t = 0
        for handoff in handoffs:
            window = [
                bps for start, bps in series
                if max(handoff.time_ms - 10_000, last_t + 2_000) <= start < handoff.time_ms
            ]
            if window:
                minima.append(min(window))
            last_t = handoff.time_ms
        throughputs = [sample.delivered_bps for sample in result.samples]
        return cls(
            n_handoffs=len(handoffs),
            ping_pong_rate=(ping_pongs / max(len(handoffs) - 1, 1)),
            mean_throughput_bps=float(np.mean(throughputs)) if throughputs else 0.0,
            mean_min_throughput_before_bps=float(np.mean(minima)) if minima else 0.0,
        )


def run_controlled_drive(
    events: tuple[EventConfig, ...],
    carrier: str = "A",
    seed: int = 7,
    duration_s: float = 480.0,
    scenario=None,
    radio_model=None,
) -> DriveMetrics:
    """One drive with a pinned measConfig; returns its metrics."""
    scenario = scenario or default_scenario()
    env = scenario.env
    if radio_model is not None:
        from repro.cellnet.world import RadioEnvironment

        env = RadioEnvironment(scenario.plan, radio=radio_model)
    server = FixedEventConfigServer(env, events, seed=2018)
    sim = DriveSimulator(env, server, carrier, seed=seed)
    trajectory = scenario.urban_trajectory(
        np.random.default_rng((seed, 0xAB)), duration_s=duration_s, speed_kmh=42.0
    )
    result = sim.run(trajectory, Speedtest(), run_index=seed)
    return DriveMetrics.from_result(result)
