"""Tests for idle-mode reselection (paper Eq. 1 and Eq. 3)."""

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT
from repro.config.lte import (
    InterFreqLayerConfig,
    InterRatUtraConfig,
    LteCellConfig,
    ServingCellConfig,
)
from repro.ue.measurement import FilteredMeasurement
from repro.ue.reselection import ReselectionEngine, measurement_gates, rank_candidates


def _cell(gci, rat=RAT.LTE, channel=850):
    return Cell(cell_id=CellId("A", gci), rat=rat, channel=channel, pci=0,
                location=Point(0, 0))


def _fm(cell, rsrp):
    return FilteredMeasurement(cell=cell, rsrp_dbm=rsrp, rsrq_db=-11.0)


SERVING_CELL = _cell(1, channel=850)

CONFIG = LteCellConfig(
    serving=ServingCellConfig(
        q_hyst=4.0,
        s_intra_search_p=62.0,
        s_non_intra_search_p=8.0,
        thresh_serving_low_p=6.0,
        cell_reselection_priority=4,
        q_rx_lev_min=-122.0,
        t_reselection_eutra=1,
    ),
    inter_freq_layers=(
        InterFreqLayerConfig(dl_carrier_freq=9820, cell_reselection_priority=5,
                             thresh_x_high_p=20.0, thresh_x_low_p=10.0),
        InterFreqLayerConfig(dl_carrier_freq=5110, cell_reselection_priority=2,
                             thresh_x_high_p=20.0, thresh_x_low_p=10.0),
        InterFreqLayerConfig(dl_carrier_freq=1975, cell_reselection_priority=4,
                             thresh_x_high_p=20.0, thresh_x_low_p=10.0,
                             q_offset_freq=0.0),
    ),
    utra_layers=(InterRatUtraConfig(carrier_freq=4385, cell_reselection_priority=1,
                                    thresh_x_high=20.0, thresh_x_low=10.0),),
)


# -- Eq. 1 gating -----------------------------------------------------------

def test_gates_follow_s_criteria():
    # Level = rsrp - (-122); intra gate 62 -> always open here.
    intra, non_intra = measurement_gates(CONFIG, -100.0)
    assert intra          # level 22 <= 62
    assert not non_intra  # level 22 > 8
    intra, non_intra = measurement_gates(CONFIG, -115.0)
    assert intra and non_intra  # level 7 <= both


def test_gate_closed_when_serving_very_strong():
    config = LteCellConfig(
        serving=ServingCellConfig(s_intra_search_p=10.0, q_rx_lev_min=-122.0)
    )
    intra, _ = measurement_gates(config, -100.0)
    assert not intra  # level 22 > 10


# -- Eq. 3 ranking -----------------------------------------------------------

def test_equal_priority_needs_q_hyst_margin():
    same = _cell(2, channel=850)
    assert rank_candidates(CONFIG, _fm(SERVING_CELL, -100.0), [_fm(same, -97.0)]) == []
    ranked = rank_candidates(CONFIG, _fm(SERVING_CELL, -100.0), [_fm(same, -95.0)])
    assert [r.cell.cell_id.gci for r in ranked] == [2]
    assert ranked[0].priority_class == "equal"


def test_higher_priority_ignores_serving_strength():
    """The Fig. 10 mechanism: a strong serving cell does not protect
    against reselection to a (possibly weaker) higher-priority layer."""
    high = _cell(3, channel=9820)
    ranked = rank_candidates(CONFIG, _fm(SERVING_CELL, -80.0), [_fm(high, -95.0)])
    assert ranked and ranked[0].priority_class == "higher"


def test_higher_priority_needs_thresh_x_high():
    high = _cell(3, channel=9820)
    # Level = rsrp + 122 must exceed 20 -> rsrp > -102.
    assert rank_candidates(CONFIG, _fm(SERVING_CELL, -80.0), [_fm(high, -105.0)]) == []


def test_lower_priority_needs_weak_serving():
    low = _cell(4, channel=5110)
    strong_serving = _fm(SERVING_CELL, -100.0)  # level 22 > thresh 6
    weak_serving = _fm(SERVING_CELL, -117.0)    # level 5 < thresh 6
    candidate = _fm(low, -105.0)                # level 17 > thresh_x_low 10
    assert rank_candidates(CONFIG, strong_serving, [candidate]) == []
    ranked = rank_candidates(CONFIG, weak_serving, [candidate])
    assert ranked and ranked[0].priority_class == "lower"


def test_unknown_layer_ignored():
    stranger = _cell(5, channel=2600)  # not in SIB5
    assert rank_candidates(CONFIG, _fm(SERVING_CELL, -117.0), [_fm(stranger, -80.0)]) == []


def test_inter_rat_lower_priority():
    umts = _cell(6, rat=RAT.UMTS, channel=4385)
    ranked = rank_candidates(CONFIG, _fm(SERVING_CELL, -117.0), [_fm(umts, -100.0)])
    assert ranked and ranked[0].priority_class == "lower"


def test_ranking_order_priority_then_rsrp():
    high = _cell(3, channel=9820)
    equal = _cell(2, channel=850)
    ranked = rank_candidates(
        CONFIG, _fm(SERVING_CELL, -110.0),
        [_fm(equal, -90.0), _fm(high, -95.0)],
    )
    assert [r.priority_class for r in ranked] == ["higher", "equal"]


# -- Treselection ------------------------------------------------------------

def _step(engine, now_ms, serving, neighbors):
    return engine.step(now_ms, CONFIG, rank_candidates(CONFIG, serving, neighbors))


def test_treselection_persistence():
    engine = ReselectionEngine()
    serving = _fm(SERVING_CELL, -100.0)
    winner = [_fm(_cell(2, channel=850), -94.0)]
    assert _step(engine, 0, serving, winner) is None
    assert _step(engine, 500, serving, winner) is None
    chosen = _step(engine, 1000, serving, winner)
    assert chosen is not None and chosen.cell.cell_id.gci == 2


def test_treselection_resets_when_candidate_drops():
    engine = ReselectionEngine()
    serving = _fm(SERVING_CELL, -100.0)
    winner = [_fm(_cell(2, channel=850), -94.0)]
    loser = [_fm(_cell(2, channel=850), -99.0)]
    _step(engine, 0, serving, winner)
    _step(engine, 500, serving, loser)   # no longer ranked: reset
    assert _step(engine, 1000, serving, winner) is None
    assert _step(engine, 2000, serving, winner) is not None


def test_engine_reset():
    engine = ReselectionEngine()
    serving = _fm(SERVING_CELL, -100.0)
    winner = [_fm(_cell(2, channel=850), -94.0)]
    _step(engine, 0, serving, winner)
    engine.reset()
    assert _step(engine, 900, serving, winner) is None
