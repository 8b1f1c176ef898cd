"""Property-based tests for the Eq. 3 reselection ranking."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.geo import Point
from repro.cellnet.radio import PreparedCells
from repro.cellnet.rat import RAT
from repro.config.lte import (
    InterFreqLayerConfig,
    InterRatGeranConfig,
    InterRatUtraConfig,
    IntraFreqNeighborConfig,
    LteCellConfig,
    ServingCellConfig,
)
from repro.ue.measurement import FilteredMeasurement, MeasurementRound
from repro.ue.reselection import ReselectionColumns, ReselectionEngine, rank_candidates


def _cell(gci, channel):
    return Cell(cell_id=CellId("A", gci), rat=RAT.LTE, channel=channel, pci=0,
                location=Point(0, 0))


def _fm(cell, rsrp):
    return FilteredMeasurement(cell=cell, rsrp_dbm=rsrp, rsrq_db=-11.0)


def _config(serving_priority, layer_priority, thresh_high=20.0, thresh_low=10.0,
            serving_low=6.0, q_hyst=4.0):
    return LteCellConfig(
        serving=ServingCellConfig(
            q_hyst=q_hyst, thresh_serving_low_p=serving_low,
            cell_reselection_priority=serving_priority, q_rx_lev_min=-122.0,
        ),
        inter_freq_layers=(
            InterFreqLayerConfig(
                dl_carrier_freq=1975, cell_reselection_priority=layer_priority,
                thresh_x_high_p=thresh_high, thresh_x_low_p=thresh_low,
            ),
        ),
    )


_rsrp = st.floats(min_value=-138.0, max_value=-50.0)
_priority = st.integers(min_value=0, max_value=7)


@given(serving_rsrp=_rsrp, neighbor_rsrp=_rsrp,
       sp=_priority, lp=_priority)
def test_ranked_candidates_have_consistent_class(serving_rsrp, neighbor_rsrp, sp, lp):
    config = _config(sp, lp)
    serving = _fm(_cell(1, 850), serving_rsrp)
    neighbor = _fm(_cell(2, 1975), neighbor_rsrp)
    ranked = rank_candidates(config, serving, [neighbor])
    for candidate in ranked:
        if lp > sp:
            assert candidate.priority_class == "higher"
        elif lp == sp:
            assert candidate.priority_class == "equal"
        else:
            assert candidate.priority_class == "lower"


@given(serving_rsrp=_rsrp, neighbor_rsrp=_rsrp, sp=_priority, lp=_priority)
def test_lower_priority_requires_weak_serving(serving_rsrp, neighbor_rsrp, sp, lp):
    """Eq. 3 rule 3: a lower-priority candidate never wins while the
    serving level is above thresh_serving_low."""
    config = _config(sp, lp, serving_low=6.0)
    serving = _fm(_cell(1, 850), serving_rsrp)
    neighbor = _fm(_cell(2, 1975), neighbor_rsrp)
    ranked = rank_candidates(config, serving, [neighbor])
    serving_level = serving_rsrp - (-122.0)
    if lp < sp and serving_level >= 6.0:
        assert ranked == []


@given(serving_rsrp=_rsrp, neighbor_rsrp=_rsrp, sp=_priority)
def test_equal_priority_winner_is_strictly_stronger(serving_rsrp, neighbor_rsrp, sp):
    """Eq. 3 rule 2 with q_hyst > 0: the chosen equal-priority cell is
    always strictly stronger — the Fig. 10 'equal always improves'."""
    config = _config(sp, sp, q_hyst=4.0)
    serving = _fm(_cell(1, 850), serving_rsrp)
    neighbor = _fm(_cell(2, 1975), neighbor_rsrp)
    for candidate in rank_candidates(config, serving, [neighbor]):
        if candidate.priority_class == "equal":
            assert candidate.measurement.rsrp_dbm > serving.rsrp_dbm


@given(serving_rsrp=_rsrp, rsrps=st.lists(_rsrp, min_size=2, max_size=6))
def test_ranking_order_is_priority_then_strength(serving_rsrp, rsrps):
    config = LteCellConfig(
        serving=ServingCellConfig(cell_reselection_priority=3, q_rx_lev_min=-122.0,
                                  thresh_serving_low_p=62.0),
        inter_freq_layers=(
            InterFreqLayerConfig(dl_carrier_freq=1975, cell_reselection_priority=5,
                                 thresh_x_high_p=0.0, thresh_x_low_p=0.0),
            InterFreqLayerConfig(dl_carrier_freq=5110, cell_reselection_priority=2,
                                 thresh_x_high_p=0.0, thresh_x_low_p=0.0),
        ),
    )
    serving = _fm(_cell(1, 850), serving_rsrp)
    neighbors = [
        _fm(_cell(10 + i, 1975 if i % 2 else 5110), rsrp)
        for i, rsrp in enumerate(rsrps)
    ]
    ranked = rank_candidates(config, serving, neighbors)
    priorities = [r.priority for r in ranked]
    assert priorities == sorted(priorities, reverse=True)
    for a, b in zip(ranked, ranked[1:]):
        if a.priority == b.priority:
            assert a.measurement.rsrp_dbm >= b.measurement.rsrp_dbm


# -- array ranking of a MeasurementRound vs the scalar oracle ----------------

_SERVING_CHANNEL = 850
#: LTE channels: the serving one, configured ones and one no layer lists.
_LTE_CHANNELS = (850, 1975, 5110, 9820, 2600)
_UTRA_CHANNELS = (4385, 4360, 4410)
_GERAN_CHANNELS = (128, 512, 600)
#: RSRPs, thresholds and offsets all sit on a 0.5 dB grid, so the sums
#: Eq. 3 compares are exact and its strict ``>``/``<`` boundaries can be
#: hit exactly (see ``_boundaries``).
_half_db = st.integers(min_value=-280, max_value=-88).map(lambda v: v / 2.0)
_grid = st.integers(min_value=0, max_value=40).map(lambda v: v / 2.0)
_offset = st.integers(min_value=-12, max_value=12).map(lambda v: v / 2.0)
_maybe_thresh = st.one_of(_grid, _grid, st.none())

_inter_freq = st.builds(
    InterFreqLayerConfig,
    dl_carrier_freq=st.sampled_from(_LTE_CHANNELS),
    cell_reselection_priority=_priority,
    thresh_x_high_p=_maybe_thresh,
    thresh_x_low_p=_maybe_thresh,
    q_offset_freq=_offset,
)
_utra = st.builds(
    InterRatUtraConfig,
    carrier_freq=st.sampled_from(_UTRA_CHANNELS[:2]),
    cell_reselection_priority=_priority,
    thresh_x_high=_maybe_thresh,
    thresh_x_low=_maybe_thresh,
)
_geran = st.builds(
    InterRatGeranConfig,
    carrier_freqs=st.lists(st.sampled_from(_GERAN_CHANNELS[:2]), min_size=1, max_size=2).map(tuple),
    cell_reselection_priority=_priority,
    thresh_x_high=_maybe_thresh,
    thresh_x_low=_maybe_thresh,
)
_lte_config = st.builds(
    LteCellConfig,
    serving=st.builds(
        ServingCellConfig,
        q_hyst=_grid,
        thresh_serving_low_p=_grid,
        cell_reselection_priority=_priority,
        q_rx_lev_min=st.sampled_from((-124.0, -122.0, -120.0)),
        t_reselection_eutra=st.integers(min_value=0, max_value=2),
    ),
    intra_neighbors=st.builds(IntraFreqNeighborConfig, q_offset_cell=_offset),
    inter_freq_layers=st.lists(_inter_freq, max_size=4).map(tuple),
    utra_layers=st.lists(_utra, max_size=2).map(tuple),
    geran_layers=st.lists(_geran, max_size=2).map(tuple),
)
_neighbor_layer = st.one_of(
    st.tuples(st.just(RAT.LTE), st.sampled_from(_LTE_CHANNELS)),
    st.tuples(st.just(RAT.UMTS), st.sampled_from(_UTRA_CHANNELS)),
    st.tuples(st.just(RAT.GSM), st.sampled_from(_GERAN_CHANNELS)),
)


def _boundaries(config, serving_rsrp, rat, channel):
    """RSRPs on and next to the Eq. 3 boundaries of a (rat, channel)
    neighbour: its layers' threshX-high/low levels and the equal-priority
    margin with each offset it may get."""
    sc = config.serving
    if rat is RAT.LTE:
        layers = [(layer.thresh_x_high_p, layer.thresh_x_low_p, layer.q_offset_freq)
                  for layer in config.inter_freq_layers if layer.dl_carrier_freq == channel]
        if channel == _SERVING_CHANNEL:
            layers.append((None, None, config.intra_neighbors.q_offset_cell))
    elif rat is RAT.UMTS:
        layers = [(layer.thresh_x_high, layer.thresh_x_low, 0.0)
                  for layer in config.utra_layers if layer.carrier_freq == channel]
    else:
        layers = [(layer.thresh_x_high, layer.thresh_x_low, 0.0)
                  for layer in config.geran_layers if channel in layer.carrier_freqs]
    edges = {serving_rsrp + sc.q_hyst + 0.0}
    for high, low, offset in layers:
        edges |= {sc.q_rx_lev_min + t for t in (high, low) if t is not None}
        edges.add(serving_rsrp + sc.q_hyst + offset)
    return sorted(e + d for e in edges for d in (-0.5, 0.0, 0.5))


def _round(layers, rsrps, measured):
    """A MeasurementRound over serving gci 1 plus neighbours 10.. ."""
    cells = [_cell(1, _SERVING_CHANNEL)] + [
        Cell(cell_id=CellId("A", 10 + i), rat=rat, channel=channel, pci=0,
             location=Point(0, 0))
        for i, (rat, channel) in enumerate(layers)
    ]
    n = len(cells)
    zeros = np.zeros(n)
    prepared = PreparedCells(
        cells=cells, xs=zeros, ys=zeros, tx=zeros, freq_term=zeros,
        kx=np.zeros((n, 1)), ky=np.zeros((n, 1)), phase=np.zeros((n, 1)),
    )
    return MeasurementRound(
        prepared, np.array(rsrps, dtype=float), np.full(n, -11.0),
        np.array([True] + list(measured), dtype=bool),
    )


def _draw_round(data, config, layers):
    """Serving and neighbour RSRPs drawn mostly on Eq. 3's boundaries."""
    sc = config.serving
    serving_rsrp = data.draw(st.one_of(
        _half_db, st.sampled_from([sc.q_rx_lev_min + sc.thresh_serving_low_p + d
                                   for d in (-0.5, 0.0, 0.5)]),
    ))
    rsrps = []
    for rat, channel in layers:
        edges = st.sampled_from(_boundaries(config, serving_rsrp, rat, channel))
        rsrps.append(data.draw(st.one_of(_half_db, edges, edges)))
    measured = [data.draw(st.sampled_from((True, True, True, False))) for _ in layers]
    return _round(layers, [serving_rsrp] + rsrps, measured)


def _scalar_ranking(config, round_):
    serving = round_.measurement_at(0)
    neighbors = [round_.measurement_at(i) for i in round_.order.tolist() if i != 0]
    return rank_candidates(config, serving, neighbors)


def _array_ranking(config, round_):
    columns = ReselectionColumns(config, round_.prepared, round_.prepared.cells[0])
    return columns.rank(round_.measurement_at(0), round_)


@settings(max_examples=300)
@given(config=_lte_config, layers=st.lists(_neighbor_layer, max_size=10), data=st.data())
def test_array_ranking_matches_rank_candidates(config, layers, data):
    round_ = _draw_round(data, config, layers)
    ranked = _array_ranking(config, round_)
    expected = _scalar_ranking(config, round_)
    assert ranked == expected
    assert [type(r.priority) for r in ranked] == [type(r.priority) for r in expected]
    assert [r.priority_class for r in ranked] == [r.priority_class for r in expected]


@settings(max_examples=100)
@given(
    config=_lte_config,
    layers=st.lists(_neighbor_layer, min_size=1, max_size=6),
    n_rounds=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_engine_rounds_agree_under_either_ranking(config, layers, n_rounds, data):
    """ReselectionEngine.step fed the array ranking or the scalar one
    picks the same winners and keeps the same persistence state."""
    array_engine, scalar_engine = ReselectionEngine(), ReselectionEngine()
    for k in range(n_rounds):
        round_ = _draw_round(data, config, layers)
        now_ms = k * 500
        winner = array_engine.step(now_ms, config, _array_ranking(config, round_))
        assert winner == scalar_engine.step(now_ms, config, _scalar_ranking(config, round_))
        assert array_engine._winning_since == scalar_engine._winning_since
