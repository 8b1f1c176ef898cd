"""Random-world drive parity: scalar oracle, vectorized drive, fleet member.

Hypothesis draws small LTE worlds (2-6 cells on 1-3 EARFCNs, per-cell
A2-A5 event sets with hysteresis, TTT, s-Measure, reselection
priorities and thresholds, shadowing on or off), a parked UE or a path
at 1.4-30 m/s, and a traffic service.  Each world is driven three ways:
the scalar reference drive, the vectorized solo drive and a member of a
:class:`FleetSimulator` over the world.  All three must give the same
samples, handoffs, diag bytes and ping RTTs, or raise the same
``RuntimeError`` (a UE left without coverage raises today).

A failure shrinks to a minimal world: keep it as an ``@example`` and
fix the fast path, never the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from hypothesis import event, given, settings, strategies as st

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.deployment import DeploymentPlan
from repro.cellnet.geo import Point
from repro.cellnet.radio import RadioModel
from repro.cellnet.rat import RAT
from repro.cellnet.world import RadioEnvironment
from repro.config.events import EventConfig, EventType
from repro.config.lte import (
    InterFreqLayerConfig,
    LteCellConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.config.units import TIME_TO_TRIGGER_MS
from repro.lint.fixtures import StaticConfigServer
from repro.simulate.fleet import FleetOptions, FleetSimulator, make_traffic, ue_specs
from repro.simulate.mobility import Trajectory, parked_position
from repro.simulate.runner import DriveSimulator
from repro.simulate.scenarios import DriveScenario

CARRIER = "A"
#: Three of carrier A's LTE holdings, so band lookups resolve normally.
CHANNELS = (850, 1975, 2000)
#: World plane origin, far from every catalogued city.
ORIGIN = Point(6_500_000.0, 6_500_000.0)


@dataclass(frozen=True)
class World:
    """A drawn world and drive, as plain values (readable when shrunk)."""

    #: (channel, x offset m, y offset m) per cell.
    cells: tuple[tuple[int, int, int], ...]
    configs: tuple[LteCellConfig, ...]
    shadowing: bool
    radio_seed: int
    #: Start offset (m); a parked UE stays there.
    start: tuple[int, int]
    #: (heading degrees, speed m/s) of a moving UE; None when parked.
    motion: tuple[int, float] | None
    duration_s: int
    traffic: str
    fleet_seed: int


_relative_db = st.integers(0, 31).map(lambda v: 2.0 * v)
_rsrp = st.integers(-140, -44).map(float)
_half_db = st.integers(0, 10).map(lambda v: v / 2.0)
_priority = st.integers(0, 7)


@st.composite
def _event(draw, kind: EventType) -> EventConfig:
    common = dict(
        event=kind,
        hysteresis=draw(_half_db),
        time_to_trigger_ms=draw(st.sampled_from(TIME_TO_TRIGGER_MS)),
    )
    if kind is EventType.A3:
        return EventConfig(offset=draw(st.integers(-4, 20).map(lambda v: v / 2.0)), **common)
    if kind is EventType.A5:
        return EventConfig(threshold1=draw(_rsrp), threshold2=draw(_rsrp), **common)
    return EventConfig(threshold1=draw(_rsrp), **common)


@st.composite
def _config(draw, channel: int, channels: list[int]) -> LteCellConfig:
    serving = ServingCellConfig(
        q_hyst=draw(_half_db),
        s_intra_search_p=draw(_relative_db),
        s_non_intra_search_p=draw(_relative_db),
        thresh_serving_low_p=draw(_relative_db),
        cell_reselection_priority=draw(_priority),
    )
    layers = tuple(
        InterFreqLayerConfig(
            dl_carrier_freq=other,
            cell_reselection_priority=draw(_priority),
            thresh_x_high_p=draw(_relative_db),
            thresh_x_low_p=draw(_relative_db),
        )
        for other in channels
        if other != channel
    )
    kinds = draw(st.lists(
        st.sampled_from((EventType.A2, EventType.A3, EventType.A4, EventType.A5)),
        max_size=3, unique=True,
    ))
    measurement = MeasurementConfig(
        events=tuple(draw(_event(kind)) for kind in kinds),
        # -44 dBm keeps neighbour measurement on at every serving level.
        s_measure=draw(st.one_of(st.just(-44.0), _rsrp)),
    )
    return LteCellConfig(serving=serving, inter_freq_layers=layers, measurement=measurement)


@st.composite
def worlds(draw) -> World:
    channels = draw(st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=3, unique=True))
    offset = st.integers(-80, 80).map(lambda v: 10 * v)
    cells = tuple(
        (draw(st.sampled_from(channels)), draw(offset), draw(offset))
        for _ in range(draw(st.integers(2, 6)))
    )
    configs = tuple(draw(_config(channel, channels)) for channel, _, _ in cells)
    moving = draw(st.booleans())
    return World(
        cells=cells,
        configs=configs,
        shadowing=draw(st.booleans()),
        radio_seed=draw(st.integers(0, 2**16)),
        start=(draw(offset), draw(offset)),
        motion=(
            (draw(st.integers(0, 359)), draw(st.integers(14, 300)) / 10.0)
            if moving else None
        ),
        duration_s=draw(st.integers(10, 120)),
        traffic=draw(st.sampled_from(("speedtest", "ping", "idle"))),
        fleet_seed=draw(st.integers(0, 2**16)),
    )


def _build(world: World) -> tuple[DriveScenario, Trajectory]:
    plan = DeploymentPlan()
    configs = {}
    for pci, ((channel, dx, dy), config) in enumerate(zip(world.cells, world.configs)):
        cell = Cell(
            cell_id=CellId(CARRIER, plan.next_gci(CARRIER)), rat=RAT.LTE,
            channel=channel, pci=100 + pci, location=ORIGIN.offset(dx, dy), city="Drawn",
        )
        plan.registry.add(cell)
        configs[cell.cell_id] = config
    radio = RadioModel(
        seed=world.radio_seed, shadowing_sigma_db=4.5 if world.shadowing else 0.0
    )
    env = RadioEnvironment(plan, radio=radio)
    server = StaticConfigServer(env, configs)
    scenario = DriveScenario(name="drawn", cities=[], plan=plan, env=env, server=server)
    start = ORIGIN.offset(*world.start)
    if world.motion is None:
        return scenario, parked_position(start, duration_s=world.duration_s)
    heading, speed = world.motion
    reach = speed * world.duration_s
    end = start.offset(
        reach * math.cos(math.radians(heading)), reach * math.sin(math.radians(heading))
    )
    return scenario, Trajectory(waypoints=(start, end), times_ms=(0, world.duration_s * 1000))


class _WorldFleet(FleetSimulator):
    """A fleet whose every member drives the drawn trajectory."""

    def __init__(self, scenario: DriveScenario, options: FleetOptions, path: Trajectory):
        super().__init__(scenario, options)
        self._path = path

    def _trajectory(self, spec):
        return self._path


def _outcome(run) -> tuple:
    try:
        result = run()
    except RuntimeError as error:
        return ("raised", str(error))
    return (result.samples, result.handoffs, result.diag_log, result.ping_rtts_ms)


@settings(max_examples=40, deadline=None)
@given(world=worlds())
def test_scalar_vectorized_and_fleet_drives_agree(world):
    scenario, path = _build(world)
    options = FleetOptions(
        n_ues=1,
        duration_s=path.duration_ms / 1000.0,
        carriers=(CARRIER,),
        mix=(("vehicle" if world.motion else "parked", 1.0),),
        traffic=world.traffic,
        keep_samples=True,
        fleet_seed=world.fleet_seed,
    )
    seed = ue_specs(options)[0].seed

    def solo(vectorized: bool):
        return DriveSimulator(
            scenario.env, scenario.server, CARRIER, seed=seed,
            config_lint=False, vectorized=vectorized,
        ).run(path, make_traffic(world.traffic))

    scalar = _outcome(lambda: solo(False))
    vector = _outcome(lambda: solo(True))
    member = _outcome(lambda: _WorldFleet(scenario, options, path).simulate()[0])
    event("raised" if scalar[0] == "raised" else "handoffs" if scalar[1] else "no handoff")
    assert vector == scalar
    assert member == scalar
