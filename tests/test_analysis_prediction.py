"""Tests for device-side handoff prediction."""

import numpy as np

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT
from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.lte import MeasurementConfig
from repro.core.analysis.prediction import (
    HandoffPredictor,
    evaluate_predictor,
)
from repro.ue.measurement import FilteredMeasurement


def _cell(gci, rat=RAT.LTE, channel=850):
    return Cell(cell_id=CellId("A", gci), rat=rat, channel=channel, pci=0,
                location=Point(0, 0))


def _fm(cell, rsrp):
    return FilteredMeasurement(cell=cell, rsrp_dbm=rsrp, rsrq_db=-11.0)


SERVING = _cell(1)
NEIGHBOR = _cell(2)

A3_CONFIG = MeasurementConfig(
    events=(EventConfig(event=EventType.A3, offset=3.0, hysteresis=1.0,
                        time_to_trigger_ms=320),),
    s_measure=-44.0,
)


def test_prediction_when_entry_condition_holds():
    predictor = HandoffPredictor(A3_CONFIG)
    predictions = predictor.step(0, _fm(SERVING, -100.0), [_fm(NEIGHBOR, -90.0)], [])
    assert predictions
    assert predictions[0].target == NEIGHBOR.cell_id
    assert predictions[0].eta_ms == 320


def test_eta_counts_down():
    predictor = HandoffPredictor(A3_CONFIG)
    predictor.step(0, _fm(SERVING, -100.0), [_fm(NEIGHBOR, -90.0)], [])
    predictions = predictor.step(200, _fm(SERVING, -100.0), [_fm(NEIGHBOR, -90.0)], [])
    assert predictions[0].eta_ms == 120


def test_no_prediction_when_condition_fails():
    predictor = HandoffPredictor(A3_CONFIG)
    assert predictor.step(0, _fm(SERVING, -100.0), [_fm(NEIGHBOR, -99.0)], []) == []


def test_s_measure_gate_blocks_prediction():
    config = MeasurementConfig(events=A3_CONFIG.events, s_measure=-110.0)
    predictor = HandoffPredictor(config)
    assert predictor.step(0, _fm(SERVING, -100.0), [_fm(NEIGHBOR, -80.0)], []) == []


def test_periodic_prediction_needs_strong_neighbor():
    config = MeasurementConfig(events=(), periodic=PeriodicConfig(), s_measure=-44.0)
    predictor = HandoffPredictor(config)
    assert predictor.step(0, _fm(SERVING, -100.0), [_fm(NEIGHBOR, -97.0)], []) == []
    predictions = predictor.step(0, _fm(SERVING, -100.0), [_fm(NEIGHBOR, -92.0)], [])
    assert predictions and predictions[0].event is EventType.PERIODIC


def test_predictions_sorted_by_eta():
    config = MeasurementConfig(
        events=(
            EventConfig(event=EventType.A3, offset=3.0, hysteresis=1.0,
                        time_to_trigger_ms=320),
            EventConfig(event=EventType.A4, threshold1=-95.0, hysteresis=1.0,
                        time_to_trigger_ms=0),
        ),
        s_measure=-44.0,
    )
    predictor = HandoffPredictor(config)
    predictions = predictor.step(0, _fm(SERVING, -100.0), [_fm(NEIGHBOR, -90.0)], [])
    assert [p.eta_ms for p in predictions] == sorted(p.eta_ms for p in predictions)


def test_evaluate_predictor_on_drive(scenario):
    """Prediction should be highly accurate, as the paper argues."""
    rng = np.random.default_rng(17)
    trajectory = scenario.urban_trajectory(rng, duration_s=420.0)
    score = evaluate_predictor(
        scenario.env, scenario.server, "A", trajectory, seed=13
    )
    assert score.n_handoffs > 0
    assert score.recall >= 0.7
    assert score.target_accuracy >= 0.7
    assert score.mean_lead_time_ms >= 0.0
