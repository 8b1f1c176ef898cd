"""RRC payloads equal the ``asdict``-built payloads they replace.

The SIB3-8 and reconfiguration builders walk their configs' fields
shallowly instead of deep-copying them through ``dataclasses.asdict``.
The wire bytes depend on the payload's key order and container types
(a tuple and a list encode alike, but ``(1, 2) != [1, 2]`` here), so the
comparison below keeps both.
"""

import dataclasses
import typing
from dataclasses import asdict

import numpy as np
import pytest

from repro.cellnet.rat import RAT
from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.lte import (
    InterFreqLayerConfig,
    InterRatCdmaConfig,
    InterRatGeranConfig,
    InterRatUtraConfig,
    IntraFreqNeighborConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.datasets.d2 import d2_world
from repro.rrc.broadcast import ConfigServer
from repro.rrc.messages import (
    LegacySystemInfo,
    MeasResult,
    MobilityControlInfo,
    PhyServingMeas,
    RrcConnectionReconfiguration,
    Sib1,
    Sib3,
    Sib4,
    Sib5,
    Sib6,
    Sib7,
    Sib8,
)

def _asdict_payload(message) -> dict:
    """The payload as the ``asdict``-based builders produced it."""
    if isinstance(message, Sib3):
        return asdict(message.config)
    if isinstance(message, Sib4):
        payload = asdict(message.config)
        payload["black_cell_list"] = list(payload["black_cell_list"])
        return payload
    if isinstance(message, (Sib5, Sib6, Sib8)):
        return {"layers": [asdict(layer) for layer in message.layers]}
    if isinstance(message, Sib7):
        layers = []
        for layer in message.layers:
            d = asdict(layer)
            d["carrier_freqs"] = list(d["carrier_freqs"])
            layers.append(d)
        return {"layers": layers}
    if isinstance(message, RrcConnectionReconfiguration):
        payload: dict = {}
        meas = message.meas_config
        if meas is not None:
            payload["meas_config"] = {
                "events": [{**asdict(e), "event": e.event.value} for e in meas.events],
                "periodic": asdict(meas.periodic) if meas.periodic else None,
                "s_measure": meas.s_measure,
            }
        if message.mobility is not None:
            payload["mobility"] = asdict(message.mobility)
        return payload
    assert isinstance(message, Sib1)
    return asdict(message)


def _exact(value):
    """``value`` with key order, container types and scalar types made
    part of its equality (``1 == 1.0 == True`` otherwise)."""
    if isinstance(value, dict):
        return ("dict", [(key, _exact(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return type(value)(_exact(item) for item in value)
    return (type(value), value)


def _broadcasts(server: ConfigServer, cells) -> list:
    out = []
    for cell in cells:
        rng = np.random.default_rng(cell.cell_id.gci)
        out.extend(server.sib_messages(cell))
        out.append(server.connection_reconfiguration(cell))
        # Observed (churned) configurations, as D2 sessions log them.
        out.extend(server.sib_messages(cell, obs_rng=rng, days_since_first=400.0))
        out.append(server.connection_reconfiguration(cell, obs_rng=rng))
    return out


def _lte_cells(plan, per_carrier: int = 30) -> list:
    cells = []
    for carrier in ("A", "T", "V", "S"):
        lte = [c for c in plan.registry.by_carrier(carrier) if c.rat is RAT.LTE]
        step = max(1, len(lte) // per_carrier)
        cells.extend(lte[::step][:per_carrier])
    return cells


def test_broadcast_payloads_equal_asdict_reference():
    world = d2_world()
    cells = _lte_cells(world.plan)
    assert len(cells) >= 100
    assert len({c.carrier for c in cells}) == 4
    sent = _broadcasts(ConfigServer(world.env, seed=2018), cells)
    periodic = PeriodicConfig(metric="rsrq", report_interval_ms=1024, report_amount=8)
    mobility = MobilityControlInfo(
        target_carrier="A", target_gci=17, target_channel=5110, target_pci=301
    )
    a3 = EventConfig(event=EventType.A3, offset=-1.5, hysteresis=1.0,
                     time_to_trigger_ms=320)
    sent.append(RrcConnectionReconfiguration(
        meas_config=MeasurementConfig(events=(a3,), periodic=periodic, s_measure=20.0)
    ))
    sent.append(RrcConnectionReconfiguration(mobility=mobility))
    sent.append(RrcConnectionReconfiguration(
        meas_config=MeasurementConfig(events=(a3,), periodic=periodic), mobility=mobility
    ))

    kinds = {type(m) for m in sent}
    assert {Sib1, Sib3, Sib4, Sib5, Sib6, RrcConnectionReconfiguration} <= kinds
    assert any(isinstance(m, (Sib7, Sib8)) for m in sent)
    for message in sent:
        assert _exact(message.to_payload()) == _exact(_asdict_payload(message)), message


def _types_in(annotation):
    yield annotation
    for arg in typing.get_args(annotation):
        yield from _types_in(arg)


#: Every dataclass a payload flattens field by field: the configs the
#: SIB3-8 and reconfiguration codecs walk, and the messages that use the
#: default codecs.
_FLATTENED = (
    ServingCellConfig, IntraFreqNeighborConfig, InterFreqLayerConfig,
    InterRatUtraConfig, InterRatGeranConfig, InterRatCdmaConfig,
    EventConfig, PeriodicConfig,
    Sib1, MobilityControlInfo, MeasResult, LegacySystemInfo, PhyServingMeas,
)


@pytest.mark.parametrize("cls", _FLATTENED, ids=lambda cls: cls.__name__)
def test_flattened_configs_hold_no_dataclass_fields(cls):
    """A nested config field would need a deep walk; the shallow one
    would put the dataclass itself into the payload."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        for t in _types_in(hints[f.name]):
            assert not dataclasses.is_dataclass(t), f"{cls.__name__}.{f.name}"
