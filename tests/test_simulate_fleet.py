"""Tests for the fleet simulator (batched multi-UE lockstep runs).

The load-bearing guarantee is bit-parity: a fleet member's outputs
must equal a solo :class:`DriveSimulator` run with the same seed, no
matter the fleet size or the worker count, and whether that solo drive
takes the vectorized path or the scalar reference oracle.
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.deployment import DeploymentPlan
from repro.cellnet.geo import Point
from repro.cellnet.radio import RadioModel
from repro.cellnet.rat import RAT
from repro.cellnet.world import RadioEnvironment
from repro.cli import main
from repro.config.events import EventConfig, EventType
from repro.config.lte import LteCellConfig, MeasurementConfig, ServingCellConfig
from repro.core.analysis.instability import detect_instability
from repro.datasets.records import HandoffInstance
from repro.lint.fixtures import StaticConfigServer
from repro.rrc.diag import DiagWriter
from repro.rrc.messages import PhyServingMeas
from repro.simulate.fleet import (
    DEFAULT_MIX,
    FleetOptions,
    FleetSimulator,
    UEResult,
    aggregate,
    count_ping_pongs,
    make_traffic,
    mix_pattern,
    run_fleet,
    trajectory_for,
    ue_specs,
)
from repro.simulate import fleet as fleet_module
from repro.simulate.mobility import Trajectory
from repro.simulate.runner import DriveSimulator
from repro.simulate.scenarios import DriveScenario, ScenarioSpec, drive_scenario
from repro.ue.device import HandoffEvent
from repro.ue.measurement import BatchMeasurementState, MeasurementEngine

#: Small-world spec matching the session ``scenario`` fixture; the
#: process-level cache makes repeated ``build()`` calls free.
_SPEC = ScenarioSpec(name="lafayette", seed=7, config_seed=2018)


def _options(**overrides) -> FleetOptions:
    defaults = dict(
        scenario=_SPEC, n_ues=8, duration_s=40.0, keep_samples=True
    )
    defaults.update(overrides)
    return FleetOptions(**defaults)


@pytest.fixture(scope="module")
def fleet_results():
    options = _options()
    return options, FleetSimulator(options.scenario.build(), options).simulate()


# -- option validation ----------------------------------------------------


@pytest.mark.parametrize(
    "name,value,argv",
    [
        ("tick_ms", -200, ["--tick-ms", "-200"]),
        ("tick_ms", 0, ["--tick-ms", "0"]),
        ("duration_s", 0.0, ["--duration", "0"]),
        ("duration_s", math.inf, ["--duration", "inf"]),
        ("duration_s", math.nan, ["--duration", "nan"]),
        ("n_ues", -3, ["--ues", "-3"]),
        # Options without a CLI flag (argv None) are checked in the
        # library only; each used to fail mid-run inside a shard.
        ("transit_lines", 0, None),
        ("carriers", (), None),
        ("carriers", ("Z",), ["--carriers", "Z"]),
        ("mix", (("parked", 0.5), ("flying", 0.5)), None),
        ("mix", (("parked", -1.0), ("vehicle", 2.0)), None),
        ("traffic", "video", None),
        ("scenario", ScenarioSpec(name="nowhere"), ["--scenario", "nowhere"]),
    ],
)
def test_out_of_range_options_are_usage_errors(name, value, argv, tmp_path, capsys):
    with pytest.raises(ValueError, match=name):
        _options(**{name: value})
    if argv is None:
        return
    out = tmp_path / "fleet.json"
    assert main(["fleet", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_empty_fleet_is_valid():
    assert _options(n_ues=0).n_ues == 0


# -- population assignment ------------------------------------------------


def test_mix_pattern_apportionment():
    pattern = mix_pattern(DEFAULT_MIX)
    assert len(pattern) == 20
    counts = {name: pattern.count(name) for name, _ in DEFAULT_MIX}
    # Largest-remainder over 20 slots: 55/25/10/10 % -> 11/5/2/2.
    assert counts == {"parked": 11, "transit": 5, "pedestrian": 2, "vehicle": 2}


def test_ue_specs_depend_only_on_index():
    options = _options()
    full = ue_specs(options)
    assert [s.index for s in full] == list(range(options.n_ues))
    assert ue_specs(options, start=3, count=2) == full[3:5]
    # Seeds are a pure function of (fleet_seed, index): a bigger fleet
    # keeps every earlier UE's seed and profile.
    bigger = ue_specs(_options(n_ues=16))
    assert bigger[: options.n_ues] == full


def test_parked_trajectory_holds_position():
    options = _options()
    scenario = options.scenario.build()
    spec = next(s for s in ue_specs(options) if s.profile == "parked")
    trajectory = trajectory_for(scenario, options, spec)
    p0 = trajectory.position(0)
    for t_ms in (0, 1000, int(options.duration_s * 1000)):
        p = trajectory.position(t_ms)
        assert (p.x, p.y) == (p0.x, p0.y)


# -- bit-parity guarantees ------------------------------------------------


@pytest.fixture(scope="module")
def fleet_by_traffic(fleet_results):
    """The module's fleet, re-run per traffic service on demand."""
    options, results = fleet_results
    runs = {options.traffic: fleet_results}

    def run(traffic: str):
        if traffic not in runs:
            other = _options(traffic=traffic)
            runs[traffic] = (other, FleetSimulator(other.scenario.build(), other).simulate())
        return runs[traffic]

    return run


@pytest.mark.parametrize(
    "traffic, vectorized",
    [
        pytest.param(traffic, vectorized, id=traffic if vectorized else f"{traffic}-scalar")
        for vectorized in (True, False)
        for traffic in ("speedtest", "iperf", "ping", "idle")
    ],
)
def test_fleet_ue_matches_solo_drive(fleet_by_traffic, traffic, vectorized):
    # Ping lanes draw RTTs from the throughput RNG on quiet ticks,
    # iperf lanes carry a backlog, and idle lanes never batch.  The
    # scalar solo drive is the oracle of every batched stage.
    options, results = fleet_by_traffic(traffic)
    scenario = options.scenario.build()
    for spec in ue_specs(options):
        if spec.profile == "parked" and spec.index > 0:
            continue  # one parked probe is enough; movers are the hard case
        solo = DriveSimulator(
            scenario.env,
            scenario.server,
            spec.carrier,
            seed=spec.seed,
            config_lint=False,
            vectorized=vectorized,
        ).run(trajectory_for(scenario, options, spec), make_traffic(options.traffic))
        ue = results[spec.index]
        assert solo.samples == ue.samples, f"UE {spec.index} ({spec.profile})"
        assert solo.handoffs == ue.handoffs
        assert solo.diag_log == ue.diag_log
        assert solo.ping_rtts_ms == ue.ping_rtts_ms


def test_mover_losing_its_serving_cell_matches_solo(monkeypatch):
    # A mover drives out of its serving cell's prepared neighbourhood
    # under an A5 that can never enter, so it stays quiet (steady) all
    # the way out: the loss must still end in the solo drive's RLF.
    origin = Point(6_000_000.0, 6_000_000.0)
    plan = DeploymentPlan()
    cells = []
    for pci, (dx, channel) in enumerate([(0.0, 1975), (5_000.0, 850)]):
        cell = Cell(
            cell_id=CellId("A", plan.next_gci("A")), rat=RAT.LTE, channel=channel,
            pci=200 + pci, location=origin.offset(dx, 0.0), city="Road",
        )
        plan.registry.add(cell)
        cells.append(cell)
    env = RadioEnvironment(plan, radio=RadioModel(seed=5, shadowing_sigma_db=0.0))
    never = LteCellConfig(
        serving=ServingCellConfig(),
        measurement=MeasurementConfig(events=(EventConfig(
            event=EventType.A5, threshold1=-140.0, threshold2=-44.0,
            hysteresis=1.0, time_to_trigger_ms=1024,
        ),)),
    )
    server = StaticConfigServer(env, {cell.cell_id: never for cell in cells})
    # 4.2 km outward at 25 m/s.
    road = Trajectory(
        waypoints=(origin.offset(300.0, 0.0), origin.offset(4_500.0, 0.0)),
        times_ms=(0, 168_000),
    )
    scenario = DriveScenario(name="road", cities=[], plan=plan, env=env, server=server)
    options = _options(
        n_ues=2, duration_s=road.duration_ms / 1000.0, mix=(("vehicle", 1.0),)
    )
    monkeypatch.setattr(FleetSimulator, "_trajectory", lambda self, spec: road)
    results = FleetSimulator(scenario, options).simulate()
    for spec in ue_specs(options):
        solo = DriveSimulator(env, server, "A", seed=spec.seed, config_lint=False).run(
            road, make_traffic(options.traffic)
        )
        # The solo drive re-camps on the far cell with no handoff: an RLF.
        assert solo.handoffs == []
        assert {s.serving for s in solo.samples} == {cell.cell_id for cell in cells}
        ue = results[spec.index]
        assert solo.samples == ue.samples
        assert solo.handoffs == ue.handoffs
        assert solo.diag_log == ue.diag_log


def test_fleet_size_does_not_change_members(fleet_results):
    options, results = fleet_results
    small = _options(n_ues=4)
    small_results = FleetSimulator(small.scenario.build(), small).simulate()
    for k, ue in enumerate(small_results):
        assert ue.samples == results[k].samples
        assert ue.handoffs == results[k].handoffs
        assert ue.diag_sha256 == results[k].diag_sha256


_COLD_FLEET = """
import json, sys
from repro.simulate.fleet import FleetOptions, run_fleet
from repro.simulate.scenarios import ScenarioSpec
options = FleetOptions(scenario=ScenarioSpec(name="lafayette", seed=7, config_seed=2018),
                       n_ues=24, shard_size=8, duration_s=30.0)
result = run_fleet(options, workers=int(sys.argv[1]))
print(json.dumps(result.aggregates.to_dict(), sort_keys=True))
for ue in result.ues:
    print(json.dumps(ue.summary_row(), sort_keys=True))
"""


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a UE's output depends on which earlier shards warmed its "
    "process's prepared-cell LRU (ROADMAP open item)",
)
def test_cold_processes_match_across_worker_counts(run_cold):
    serial = run_cold(_COLD_FLEET, "1").splitlines()
    sharded = run_cold(_COLD_FLEET, "2").splitlines()
    assert len(serial) == len(sharded) == 25
    assert sharded == serial


def test_worker_count_does_not_change_output():
    options = _options(n_ues=6, duration_s=30.0, keep_samples=False, shard_size=2)
    serial = run_fleet(options, workers=1)
    sharded = run_fleet(options, workers=2)
    assert [u.summary_row() for u in serial.ues] == [
        u.summary_row() for u in sharded.ues
    ]
    assert serial.aggregates.to_dict() == sharded.aggregates.to_dict()


# -- aggregates -----------------------------------------------------------


def _ue(index: int, n_ticks: int, handoffs, delivered=0.0, interrupted=0, occ=None):
    return UEResult(
        index=index,
        profile="vehicle",
        carrier="A",
        seed=index,
        tick_ms=200,
        n_ticks=n_ticks,
        handoffs=handoffs,
        ping_rtts_ms=[],
        diag_sha256="",
        diag_len=0,
        delivered_bits=delivered,
        interrupted_ticks=interrupted,
        occupancy=occ or {},
        intra_freq_rounds=n_ticks,
        non_intra_freq_rounds=n_ticks,
    )


def _handoff(t_ms: int, source: str, target: str) -> HandoffEvent:
    from repro.cellnet.cell import CellId

    return HandoffEvent(
        time_ms=t_ms,
        kind="active",
        source=CellId("A", int(source)),
        target=CellId("A", int(target)),
        decisive_event="A3",
        old_rsrp_dbm=-100.0,
        new_rsrp_dbm=-90.0,
        intra_freq=True,
    )


def test_count_ping_pongs_window():
    events = [
        _handoff(0, "1", "2"),
        _handoff(5_000, "2", "1"),  # A->B->A within 10 s: counts
        _handoff(40_000, "1", "3"),
        _handoff(55_000, "3", "1"),  # 15 s apart: outside the window
        _handoff(70_000, "1", "4"),
        _handoff(80_000, "4", "1"),  # exactly 10 s apart: the window is inclusive
    ]
    assert count_ping_pongs((h.source, h.target, h.time_ms) for h in events) == 2
    # Both consumers count through it: the fleet's per-UE row and the
    # trace-level instability analysis of the same sequence.
    instances = [
        HandoffInstance(
            kind="active", carrier="A", time_ms=h.time_ms, source_gci=h.source.gci,
            target_gci=h.target.gci, source_channel=850, target_channel=850,
            intra_freq=True, decisive_event="A3",
        )
        for h in events
    ]
    assert _ue(0, 400, events).summary_row()["ping_pongs"] == 2
    assert detect_instability(instances).n_ping_pongs == 2


def test_aggregate_rates():
    results = [
        _ue(0, 18_000, [_handoff(0, "1", "2"), _handoff(4_000, "2", "1")],
            delivered=3.6e9, occ={"A/1": 18_000}),
        _ue(1, 18_000, [], interrupted=90, occ={"A/2": 18_000}),
    ]
    agg = aggregate(results, tick_ms=200)
    # 36k ticks x 200 ms = 2 UE-hours; 2 handoffs -> 1.0 per UE-hour.
    assert agg.handoffs_per_ue_hour == pytest.approx(1.0)
    assert agg.ping_pong_count == 1
    assert agg.ping_pong_rate == pytest.approx(0.5)
    # 3.6e9 bits over 7200 s of UE time -> 0.5 Mbit/s mean.
    assert agg.mean_delivered_mbps == pytest.approx(0.5)
    assert agg.interrupted_tick_fraction == pytest.approx(90 / 36_000)
    assert agg.occupancy == {"A/1": 18_000, "A/2": 18_000}
    assert agg.storm_peak == 1


def test_run_aggregates_are_consistent(fleet_results):
    options, results = fleet_results
    agg = aggregate(results, options.tick_ms)
    assert agg.n_ues == options.n_ues
    assert agg.total_ticks == sum(r.n_ticks for r in results)
    # Every tick is served by exactly one cell.
    assert sum(agg.occupancy.values()) == agg.total_ticks
    assert agg.total_handoffs == sum(len(r.handoffs) for r in results)


def test_ue_result_to_drive_result(fleet_results):
    options, results = fleet_results
    ue = results[0]
    drive = ue.to_drive_result()
    assert drive.samples == ue.samples
    assert drive.handoffs == ue.handoffs
    assert drive.diag_log == ue.diag_log


# -- internals the fleet leans on ----------------------------------------


def test_noise_tap_partition_invariance(env):
    # standard_normal hands out elements sequentially from the bit
    # stream, so the buffered tap must serve the exact sequence an
    # unbuffered engine would draw, for any partition into requests.
    engine = MeasurementEngine(env, np.random.default_rng(77))
    unbuffered = np.random.default_rng(77).standard_normal(5000)
    served = [engine._noise(m).copy() for m in (3, 4096, 1, 800, 100)]
    tapped = np.concatenate(served)
    assert tapped.tolist() == unbuffered[: len(tapped)].tolist()


@pytest.mark.parametrize("floor_dbm", [-126.0, -44.0], ids=["default-floor", "serving-only"])
def test_batch_row_serves_the_tap_sequence(floor_dbm):
    # A batched row reads its noise from its engine's tap every step;
    # across a cell-count change, a detach (the engine steps on its own)
    # and a re-attach, every round must equal an unbatched twin's, and
    # the two taps end at the same place.  A -44 dBm floor leaves only
    # the forced-eligible serving cell.
    world = drive_scenario("lafayette", seed=7, config_seed=2018)
    origin = world.cities[0].origin
    snap_a = world.env.snapshot(origin, "A")
    snap_b = world.env.snapshot(origin.offset(150.0, 0.0), "A")
    assert len(snap_a.cells) != len(snap_b.cells)
    serving = snap_a.strongest(rat=RAT.LTE)
    assert serving in snap_b
    # (snapshot, batched) per tick: attach on A, move to B, detach for
    # four ticks, re-attach on B.
    schedule = (
        [(snap_a, True)] * 3
        + [(snap_b, True)] * 5
        + [(snap_a, False)] * 4
        + [(snap_b, True)] * 4
    )
    solo, batched = (
        MeasurementEngine(world.env, np.random.default_rng(41), detection_floor_dbm=floor_dbm)
        for _ in range(2)
    )
    state = BatchMeasurementState(1)
    # The row's prepared cell list while attached (None: detached).  A
    # new one takes the full check, as the fleet does for its movers.
    attached = None
    for snap, in_batch in schedule:
        for engine in (solo, batched):
            engine.adopt_snapshot(snap.location, "A", snap)
        expected = solo.step(snap.location, "A", serving)
        if in_batch:
            if snap.prepared is attached:
                state.step([], [], [], [], movers=[0])
            else:
                state.step([0], [batched], [snap], [serving])
                attached = snap.prepared
            got = state.round_at(0)
        else:
            if attached is not None:
                state.detach(0)
                attached = None
            got = batched.step(snap.location, "A", serving)
        assert got.rsrp.tolist() == expected.rsrp.tolist()
        assert got.rsrq.tolist() == expected.rsrq.tolist()
        assert got.mask.tolist() == expected.mask.tolist()
    state.detach(0)
    assert batched._noise(500).tolist() == solo._noise(500).tolist()


def test_batch_state_is_freed_when_simulate_returns(monkeypatch):
    # Engines never refer back to the batch state, so every state a run
    # creates (compaction retires some mid-run) dies by reference
    # counting alone, without the cyclic collector.
    states = []

    class Recorded(BatchMeasurementState):
        def __init__(self, n_rows):
            super().__init__(n_rows)
            states.append(weakref.ref(self))

    monkeypatch.setattr(fleet_module, "BatchMeasurementState", Recorded)
    options = _options(n_ues=6, duration_s=20.0, keep_samples=False)
    simulator = FleetSimulator(options.scenario.build(), options)
    gc.disable()
    try:
        simulator.simulate()
        assert len(states) >= 2
        assert all(ref() is None for ref in states)
    finally:
        gc.enable()


def test_phy_template_matches_codec(scenario):
    # The writer's template splice must equal the generic write path
    # byte for byte, header and checksum included, across serving-cell
    # changes that invalidate its one-cell template memo.
    cells = [c for c in scenario.plan.registry.by_carrier("A") if c.rat.value == "LTE"][:2]
    emissions = [
        (0, cells[0], -97.25, -11.5),
        (500, cells[0], -140.0, -3.0),
        (1000, cells[1], -101.125, -19.5),
        (1500, cells[0], -44.0, -7.75),
    ]
    spliced = DiagWriter.in_memory()
    reference = DiagWriter.in_memory()
    for t_ms, cell, rsrp, rsrq in emissions:
        spliced.write_phy_serving(t_ms, cell, rsrp, rsrq)
        reference.write(
            t_ms,
            PhyServingMeas(
                carrier=cell.carrier,
                gci=cell.cell_id.gci,
                channel=cell.channel,
                rat=cell.rat.value,
                rsrp_dbm=rsrp,
                rsrq_db=rsrq,
                sinr_db=0.0,
                rrc_connected=True,
            ),
        )
    assert spliced.getvalue() == reference.getvalue()
    assert spliced.records_written == reference.records_written == len(emissions)


def test_snapshot_cache_reserve_never_shrinks(env):
    before = env.snapshot_cache_size
    env.reserve_snapshot_capacity(10_000)
    grown = env.snapshot_cache_size
    assert grown >= before
    assert grown >= 2 * 10_000 + 64
    env.reserve_snapshot_capacity(1)
    assert env.snapshot_cache_size == grown


# -- CLI ------------------------------------------------------------------


def test_cli_fleet_reports_deterministically(tmp_path, capsys):
    from repro.cli import main

    args = [
        "fleet", "--ues", "4", "--duration", "20", "--scenario", "lafayette",
        "--seed", "7", "--config-seed", "2018",
    ]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--workers", "2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = json.loads(out_a.read_text())
    assert len(report["ues"]) == 4
    assert report["aggregates"]["n_ues"] == 4
    assert report["aggregates"]["total_ticks"] == sum(
        row["n_ticks"] for row in report["ues"]
    )
