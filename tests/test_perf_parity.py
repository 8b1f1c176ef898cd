"""Vectorized-vs-scalar parity and the perf plumbing around it.

The vectorized UE tick loop is only acceptable if it is *bit-identical*
to the scalar reference: same tick samples, same handoffs, same diag
log bytes.  These tests drive both paths over multi-handoff drives and
compare the full result bundles, plus the supporting machinery (snapshot
reuse across the runner tick, the look-ahead feed, the ground-truth
memos).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cellnet.world import RadioEnvironment
from repro.simulate.fleet import FleetOptions, FleetSimulator
from repro.simulate.mobility import parked_position
from repro.simulate.runner import DriveSimulator, TickSample
from repro.simulate.scenarios import ScenarioSpec, drive_scenario
from repro.simulate.throughput import ThroughputModel
from repro.simulate.traffic import NoTraffic, Speedtest
from repro.ue.measurement import MeasurementEngine


def _drive(scenario, vectorized, traffic, duration_s=240.0, seed=3):
    sim = DriveSimulator(
        scenario.env, scenario.server, "A", seed=seed,
        vectorized=vectorized, config_lint=False,
    )
    trajectory = scenario.urban_trajectory(
        np.random.default_rng(99), duration_s=duration_s
    )
    return sim.run(trajectory, traffic)


@pytest.mark.parametrize("traffic_cls", [Speedtest, NoTraffic], ids=["active", "idle"])
def test_vectorized_drive_bit_identical(scenario, traffic_cls):
    scalar = _drive(scenario, False, traffic_cls())
    vector = _drive(scenario, True, traffic_cls())
    # The drives must cross cells, or parity is vacuous.
    assert len(scalar.handoffs) >= 2
    assert vector.samples == scalar.samples
    assert vector.handoffs == scalar.handoffs
    assert vector.diag_log == scalar.diag_log
    assert vector.ping_rtts_ms == scalar.ping_rtts_ms


def test_runner_reuses_ue_snapshot(scenario, monkeypatch):
    """Ground-truth sampling shares the tick's snapshot: one physics
    pass per tick, not two.  A pass is one ``snapshot`` call or one spot
    handed to ``snapshot_batch`` (the look-ahead feed)."""
    calls = {"n": 0}
    orig = RadioEnvironment.snapshot
    orig_batch = RadioEnvironment.snapshot_batch

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return orig(self, *args, **kwargs)

    def counting_batch(self, spots, *args, **kwargs):
        calls["n"] += len(spots)
        return orig_batch(self, spots, *args, **kwargs)

    monkeypatch.setattr(RadioEnvironment, "snapshot", counting)
    monkeypatch.setattr(RadioEnvironment, "snapshot_batch", counting_batch)
    result = _drive(scenario, True, Speedtest(), duration_s=60.0)
    assert calls["n"] == len(result.samples)


@pytest.mark.parametrize("parked", [False, True], ids=["moving", "parked"])
def test_lane_memos_match_unmemoized_recomputation(scenario, parked):
    """The lane's ground-truth and capacity memos change no sample: every
    tick recomputed from scratch at the trajectory position, for the
    sample's serving cell, gives the same sample bit for bit."""
    seed, tick_ms = 3, 200
    if parked:
        trajectory = parked_position(scenario.cities[0].origin, duration_s=120.0)
    else:
        trajectory = scenario.urban_trajectory(np.random.default_rng(99), duration_s=240.0)
    result = DriveSimulator(
        scenario.env, scenario.server, "A", seed=seed, tick_ms=tick_ms, config_lint=False,
    ).run(trajectory, Speedtest())
    throughput = ThroughputModel(rng=np.random.default_rng((seed, 0, 0x7A)))
    radius_m = MeasurementEngine(scenario.env, np.random.default_rng(0)).radius_m
    recomputed = []
    for sample in result.samples:
        cell = scenario.env.get_cell(sample.serving)
        snap = scenario.env.snapshot(trajectory.position(sample.t_ms), "A", radius_m=radius_m)
        if cell in snap:
            measurement = snap.measure(cell)
            rsrp, sinr = measurement.rsrp_dbm, measurement.sinr_db
        else:
            rsrp, sinr = -140.0, -20.0
        capacity = 0.0 if sample.interrupted else throughput.capacity_bps(cell, sinr, sample.t_ms)
        delivered = Speedtest().delivered_bits(capacity, tick_ms, sample.t_ms)
        recomputed.append(TickSample(
            t_ms=sample.t_ms, serving=sample.serving, rsrp_dbm=rsrp, sinr_db=sinr,
            capacity_bps=capacity, delivered_bps=delivered * 1000.0 / tick_ms,
            interrupted=sample.interrupted,
        ))
    assert len(result.handoffs) >= (0 if parked else 2)
    assert result.samples == recomputed


@pytest.mark.parametrize("kind", ["active", "idle", "parked"])
def test_feed_leaves_prepared_cache_as_per_tick_snapshots(kind):
    """The look-ahead feed queries its spots in tick order, so the
    prepared-cell LRU ends up exactly as the scalar drive's per-tick
    snapshots leave it: same grid keys in the same order, each built
    from the same first query point (same cell set)."""
    caches = []
    for vectorized in (True, False):
        # A fresh world per drive: the LRU starts empty.
        world = drive_scenario("lafayette", seed=7, config_seed=2018)
        if kind == "parked":
            trajectory = parked_position(world.cities[0].origin, duration_s=60.0)
        else:
            trajectory = world.urban_trajectory(np.random.default_rng(99), duration_s=240.0)
        traffic = NoTraffic() if kind == "idle" else Speedtest()
        DriveSimulator(
            world.env, world.server, "A", seed=3, vectorized=vectorized, config_lint=False,
        ).run(trajectory, traffic)
        caches.append(
            [(key, prepared.cell_ids) for key, prepared in world.env._snapshot_cache.items()]
        )
    vector, scalar = caches
    assert len(scalar) >= (1 if kind == "parked" else 10)
    assert vector == scalar


def test_fleet_occupancy_counts_sample_serving_cells():
    """The lanes' occupancy run-lengths equal a plain count of samples."""
    options = FleetOptions(
        scenario=ScenarioSpec(name="lafayette", seed=7, config_seed=2018),
        n_ues=8, duration_s=60.0, keep_samples=True,
    )
    for ue in FleetSimulator(options.scenario.build(), options).simulate():
        counts: dict[str, int] = {}
        for sample in ue.samples:
            counts[str(sample.serving)] = counts.get(str(sample.serving), 0) + 1
        assert ue.occupancy == dict(sorted(counts.items()))


def test_engine_snapshot_memoized(scenario):
    origin = scenario.cities[0].origin
    engine = MeasurementEngine(scenario.env, np.random.default_rng(5))
    first = engine.snapshot(origin, "A")
    assert engine.snapshot(origin, "A") is first
    moved = engine.snapshot(origin.offset(40.0, 0.0), "A")
    assert moved is not first
