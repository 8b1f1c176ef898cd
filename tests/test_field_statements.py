"""Copies and transforms keep every field their dataclass states.

A configuration observed with one part churned, a crawled configuration
completed by its measConfig, and a carrier style collapsed or trimmed
all copy a record with a few fields changed.  The copies go through
``dataclasses.replace`` or a walk of the class's fields, so a field
added to a class survives them.  The configurations below hold every
field off its default, so a copy that restated the field list and
missed one would reset it.
"""

from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT
from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.lte import (
    InterFreqLayerConfig,
    InterRatCdmaConfig,
    InterRatGeranConfig,
    InterRatUtraConfig,
    IntraFreqNeighborConfig,
    LteCellConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.config.profiles import (
    CARRIER_STYLES,
    CarrierStyle,
    _BASE_STYLE,
    _reduced,
    _single_valued,
    profile_for_carrier,
)
from repro.core.crawler import ConfigCrawler
from repro.rrc.diag import DiagWriter
from repro.rrc.messages import (
    RrcConnectionReconfiguration,
    Sib1,
    Sib3,
    Sib4,
    Sib5,
    Sib6,
    Sib7,
    Sib8,
)


def _off_default(cls):
    """``cls`` with every field moved off its default."""
    values = {}
    for f in fields(cls):
        if isinstance(f.default, tuple):
            values[f.name] = f.default + (7,)
        else:
            values[f.name] = f.default + 1
    return cls(**values)


_BASE = LteCellConfig(
    serving=_off_default(ServingCellConfig),
    intra_neighbors=_off_default(IntraFreqNeighborConfig),
    inter_freq_layers=(_off_default(InterFreqLayerConfig),),
    utra_layers=(_off_default(InterRatUtraConfig),),
    geran_layers=(_off_default(InterRatGeranConfig),),
    cdma_layers=(_off_default(InterRatCdmaConfig),),
    measurement=MeasurementConfig(
        events=(EventConfig(event=EventType.A3, offset=4.0, hysteresis=1.5,
                            time_to_trigger_ms=640),),
        periodic=PeriodicConfig(report_interval_ms=2048),
        s_measure=-95.0,
    ),
)


def test_base_config_holds_every_field_off_its_default():
    for f in fields(LteCellConfig):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        assert getattr(_BASE, f.name) != default, f.name
    for f in fields(ServingCellConfig):
        assert getattr(_BASE.serving, f.name) != f.default, f.name


def _cell(gci: int) -> Cell:
    return Cell(
        cell_id=CellId("A", gci), rat=RAT.LTE, channel=850, pci=gci % 504,
        location=Point(gci * 37.0, gci * 11.0), city="Indianapolis",
    )


def test_churned_observation_differs_from_its_base_only_where_it_churns():
    profile = profile_for_carrier("A")
    days = 90.0 * 40  # forty idle-churn epochs
    for gci in range(1, 400):
        observed = profile.observed_lte_config(
            _cell(gci), _BASE, np.random.default_rng(gci), days_since_first=days
        )
        if observed.serving != _BASE.serving:
            break
    else:
        pytest.fail("no cell churned its idle configuration")
    assert replace(
        observed.serving, thresh_serving_low_p=_BASE.serving.thresh_serving_low_p
    ) == _BASE.serving
    assert replace(observed, serving=_BASE.serving, measurement=_BASE.measurement) == _BASE


def test_crawled_snapshot_keeps_every_field_besides_the_measconfig():
    meas = MeasurementConfig(
        events=(EventConfig(event=EventType.A5, threshold1=-110.0, threshold2=-100.0,
                            hysteresis=1.0, time_to_trigger_ms=320),),
        s_measure=-90.0,
    )
    writer = DiagWriter.in_memory()
    for t, message in enumerate([
        Sib1(carrier="A", gci=5, pci=5, channel=850, city="X"),
        Sib3(config=_BASE.serving),
        Sib4(config=_BASE.intra_neighbors),
        Sib5(layers=_BASE.inter_freq_layers),
        Sib6(layers=_BASE.utra_layers),
        Sib7(layers=_BASE.geran_layers),
        Sib8(layers=_BASE.cdma_layers),
        RrcConnectionReconfiguration(meas_config=meas),
    ]):
        writer.write(100 * t, message)
    (snapshot,) = ConfigCrawler.crawl(writer.getvalue())
    assert snapshot.meas_config == meas
    assert snapshot.lte_config == replace(_BASE, measurement=meas)


# -- carrier styles ------------------------------------------------------------
#
# Field-by-field copies of the style transforms as they were written before
# they walked the style's fields: the oracles the transforms must equal.


def _reference_single_valued(style: CarrierStyle) -> CarrierStyle:
    def dominant(table: dict) -> dict:
        best = max(table, key=table.get)
        return {best: 1.0}

    return CarrierStyle(
        event_policy={"A3": 1.0},
        a3_offsets=dominant(style.a3_offsets),
        a3_hysteresis=dominant(style.a3_hysteresis),
        a5_rsrq_share=0.0,
        a5_serving_rsrp=dominant(style.a5_serving_rsrp),
        a5_candidate_rsrp=dominant(style.a5_candidate_rsrp),
        a5_serving_rsrq=dominant(style.a5_serving_rsrq),
        a5_candidate_rsrq=dominant(style.a5_candidate_rsrq),
        time_to_trigger=dominant(style.time_to_trigger),
        q_hyst=dominant(style.q_hyst),
        q_rx_lev_min=dominant(style.q_rx_lev_min),
        s_intra_search=dominant(style.s_intra_search),
        s_non_intra_search=dominant(style.s_non_intra_search),
        thresh_serving_low=dominant(style.thresh_serving_low),
        thresh_x_high=dominant(style.thresh_x_high),
        thresh_x_low=dominant(style.thresh_x_low),
        q_offset_freq=dominant(style.q_offset_freq),
        diversity="none",
        spatial_mode="grid",
        active_churn=0.0,
        idle_churn_180d=0.0,
        priority_conflict_rate=0.0,
    )


def _reference_reduced(style: CarrierStyle, keep: int) -> CarrierStyle:
    def trim(table: dict) -> dict:
        top = sorted(table, key=table.get, reverse=True)[:keep]
        return {v: table[v] for v in top}

    return CarrierStyle(
        event_policy=trim(style.event_policy),
        a3_offsets=trim(style.a3_offsets),
        a3_hysteresis=trim(style.a3_hysteresis),
        a5_rsrq_share=style.a5_rsrq_share,
        a5_serving_rsrp=trim(style.a5_serving_rsrp),
        a5_candidate_rsrp=trim(style.a5_candidate_rsrp),
        a5_serving_rsrq=trim(style.a5_serving_rsrq),
        a5_candidate_rsrq=trim(style.a5_candidate_rsrq),
        time_to_trigger=trim(style.time_to_trigger),
        q_hyst=trim(style.q_hyst),
        q_rx_lev_min=trim(style.q_rx_lev_min),
        s_intra_search=trim(style.s_intra_search),
        s_non_intra_search=trim(style.s_non_intra_search),
        thresh_serving_low=trim(style.thresh_serving_low),
        thresh_x_high=trim(style.thresh_x_high),
        thresh_x_low=trim(style.thresh_x_low),
        q_offset_freq=trim(style.q_offset_freq),
        diversity="low",
        spatial_mode="grid",
        active_churn=0.05,
        idle_churn_180d=0.004,
        priority_conflict_rate=0.01,
    )


def _exact(style: CarrierStyle) -> list:
    """Every field with its type; a table as its items in order, typed."""
    out = []
    for f in fields(style):
        value = getattr(style, f.name)
        if isinstance(value, dict):
            value = [(type(k), k, type(w), w) for k, w in value.items()]
        out.append((f.name, type(value), value))
    return out


_STYLES = {"base": _BASE_STYLE, "A": CARRIER_STYLES["A"], "T": CARRIER_STYLES["T"]}


@pytest.mark.parametrize("style", _STYLES.values(), ids=_STYLES)
def test_single_valued_equals_the_field_by_field_version(style):
    assert _exact(_single_valued(style)) == _exact(_reference_single_valued(style))


@pytest.mark.parametrize("keep", [2, 3, 4])
@pytest.mark.parametrize("style", _STYLES.values(), ids=_STYLES)
def test_reduced_equals_the_field_by_field_version(style, keep):
    assert _exact(_reduced(style, keep=keep)) == _exact(_reference_reduced(style, keep))
