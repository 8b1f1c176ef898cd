"""Tests for the UE measurement engine."""

import warnings

import numpy as np
import pytest

from repro.cellnet.rat import RAT
from repro.ue.measurement import BatchMeasurementState, MeasurementEngine


@pytest.fixture(params=[True, False], ids=["vectorized", "scalar"])
def engine(request, env):
    return MeasurementEngine(env, np.random.default_rng(5), vectorized=request.param)


@pytest.fixture
def serving(env, scenario):
    origin = scenario.cities[0].origin
    return env.strongest_cell(origin, "A", rat=RAT.LTE)


def test_step_measures_serving(engine, serving, scenario):
    origin = scenario.cities[0].origin
    measured = engine.step(origin, "A", serving)
    assert serving.cell_id in measured
    assert measured[serving.cell_id].cell is serving


def test_filter_converges_to_mean(env, serving, scenario):
    """The L3 filter should average out measurement noise over steps."""
    origin = scenario.cities[0].origin
    engine = MeasurementEngine(env, np.random.default_rng(5), noise_std_db=3.0)
    truth = env.snapshot(origin, "A").rsrp(serving)
    for _ in range(30):
        measured = engine.step(origin, "A", serving)
    filtered = measured[serving.cell_id].rsrp_dbm
    assert abs(filtered - truth) < 2.5


def test_gating_skips_neighbors(engine, serving, scenario):
    origin = scenario.cities[0].origin
    measured = engine.step(
        origin, "A", serving, measure_intra=False, measure_non_intra=False
    )
    assert list(measured) == [serving.cell_id]


def test_gating_intra_only(engine, serving, scenario):
    origin = scenario.cities[0].origin
    measured = engine.step(
        origin, "A", serving, measure_intra=True, measure_non_intra=False
    )
    for cid, fm in measured.items():
        if cid == serving.cell_id:
            continue
        assert fm.cell.rat is serving.rat
        assert fm.cell.channel == serving.channel


def test_round_counters(engine, serving, scenario):
    origin = scenario.cities[0].origin
    engine.step(origin, "A", serving)
    engine.step(origin, "A", serving, measure_non_intra=False)
    assert engine.intra_freq_rounds == 2
    assert engine.non_intra_freq_rounds == 1


def test_detection_floor_excludes_weak_neighbors(env, serving, scenario):
    origin = scenario.cities[0].origin
    engine = MeasurementEngine(
        env, np.random.default_rng(5), detection_floor_dbm=-90.0
    )
    measured = engine.step(origin, "A", serving)
    snap = env.snapshot(origin, "A")
    for cid, fm in measured.items():
        if cid != serving.cell_id:
            assert snap.rsrp(fm.cell) >= -90.0


def test_reset_clears_filter_state(engine, serving, scenario):
    origin = scenario.cities[0].origin
    engine.step(origin, "A", serving)
    engine.reset()
    if engine.vectorized:
        assert not engine._has_filt.any()
    else:
        assert engine._filtered == {}


def test_split_neighbors(engine, serving, scenario):
    origin = scenario.cities[0].origin
    measured = engine.step(origin, "A", serving)
    intra_rat, inter_rat = engine.split_neighbors(measured, serving)
    assert all(m.cell.rat is RAT.LTE for m in intra_rat)
    assert all(m.cell.rat is not RAT.LTE for m in inter_rat)
    assert serving.cell_id not in {m.cell.cell_id for m in intra_rat}
    rsrps = [m.rsrp_dbm for m in intra_rat]
    assert rsrps == sorted(rsrps, reverse=True)


def test_metric_accessor(engine, serving, scenario):
    origin = scenario.cities[0].origin
    fm = engine.step(origin, "A", serving)[serving.cell_id]
    assert fm.metric("rsrp") == fm.rsrp_dbm
    assert fm.metric("rsrq") == fm.rsrq_db
    with pytest.raises(ValueError):
        fm.metric("bogus")


def test_batch_row_left_out_keeps_its_noise_bounded(env, serving, scenario):
    """A row left out of a step keeps its unit noise draws.

    Scaled in place instead, a skipped row would compound its std
    (1.8 dB) every step and overflow to inf within ~1,200 steps.
    """
    origin = scenario.cities[0].origin
    engines = [
        MeasurementEngine(env, np.random.default_rng(seed), vectorized=True)
        for seed in (1, 2)
    ]
    snaps = [engine.snapshot(origin, "A") for engine in engines]
    state = BatchMeasurementState(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        state.step([0, 1], engines, snaps, [serving, serving])
        state.detach(1)
        for _ in range(1300):
            state.step([0], engines[:1], snaps[:1], [serving])
    # (metric, row, cell) unit draws.
    noise = state._noise
    assert np.isfinite(noise).all()
    assert np.abs(noise[:, 1]).max() < 10.0
