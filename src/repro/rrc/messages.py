"""Signaling message classes.

Each message knows how to flatten itself into a plain payload dict
(``to_payload``) and rebuild from one (``from_payload``); the binary
codec works on those dicts, so messages stay codec-agnostic.  The
message set covers what MMLab needs (Table 2's rightmost column): SIB1
and SIB3-8 for idle-state configuration, RRC Connection Reconfiguration
(measConfig / mobilityControlInfo) and Measurement Report for the
active-state machinery, and a generic system-information wrapper for
the legacy RATs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cellnet.cell import CellId
from repro.cellnet.rat import RAT
from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.legacy import LEGACY_CONFIG_TYPES, LegacyCellConfig
from repro.config.lte import (
    InterFreqLayerConfig,
    InterRatCdmaConfig,
    InterRatGeranConfig,
    InterRatUtraConfig,
    IntraFreqNeighborConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.util import field_names


def _fields_dict(config) -> dict:
    """A dataclass's fields as a dict, in field order.

    The walk is shallow: messages and the configs they carry hold only
    scalars, enums, tuples of ints and (legacy system information) a
    dict of scalars and lists, so this equals the generic
    dataclass-to-dict conversion, containers included, without its
    deepcopy of every value.
    """
    return {name: getattr(config, name) for name in field_names(type(config))}


class Message:
    """Base class: every message has a TYPE_CODE and payload codecs.

    The default codecs fit a flat message (every field a scalar or a
    plain container): the payload is its fields in field order, and
    ``from_payload`` passes them back to the constructor.  Messages that
    wrap configs or transform a field override both.
    """

    TYPE_CODE: int = 0x00

    def to_payload(self) -> dict:
        return _fields_dict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "Message":
        return cls(**payload)


class _LayerList(Message):
    """A SIB whose one field, ``layers``, is a tuple of flat layer configs
    of class ``LAYER``."""

    LAYER: type
    layers: tuple

    def to_payload(self) -> dict:
        return {"layers": [_fields_dict(layer) for layer in self.layers]}

    @classmethod
    def from_payload(cls, payload: dict) -> "Message":
        return cls(layers=tuple(cls.LAYER(**d) for d in payload["layers"]))


@dataclass(frozen=True)
class Sib1(Message):
    """SIB1: cell identity and access baseline.

    The first thing a camped device decodes; it carries the identity
    MMLab keys configuration snapshots on.
    """

    TYPE_CODE = 0x01

    carrier: str = ""
    gci: int = 0
    pci: int = 0
    channel: int = 0
    rat: str = "LTE"
    q_rx_lev_min: float = -122.0
    city: str = ""

    @property
    def cell_id(self) -> CellId:
        return CellId(self.carrier, self.gci)


@dataclass(frozen=True)
class Sib3(Message):
    """SIB3: serving-cell reselection configuration."""

    TYPE_CODE = 0x03

    config: ServingCellConfig = field(default_factory=ServingCellConfig)

    def to_payload(self) -> dict:
        return _fields_dict(self.config)

    @classmethod
    def from_payload(cls, payload: dict) -> "Sib3":
        return cls(config=ServingCellConfig(**payload))


@dataclass(frozen=True)
class Sib4(Message):
    """SIB4: intra-frequency neighbor configuration."""

    TYPE_CODE = 0x04

    config: IntraFreqNeighborConfig = field(default_factory=IntraFreqNeighborConfig)

    def to_payload(self) -> dict:
        payload = _fields_dict(self.config)
        payload["black_cell_list"] = list(payload["black_cell_list"])
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Sib4":
        payload = dict(payload)
        payload["black_cell_list"] = tuple(payload.get("black_cell_list", ()))
        return cls(config=IntraFreqNeighborConfig(**payload))


@dataclass(frozen=True)
class Sib5(_LayerList):
    """SIB5: inter-frequency carrier layers."""

    TYPE_CODE = 0x05
    LAYER = InterFreqLayerConfig

    layers: tuple[InterFreqLayerConfig, ...] = ()


@dataclass(frozen=True)
class Sib6(_LayerList):
    """SIB6: inter-RAT UTRA layers."""

    TYPE_CODE = 0x06
    LAYER = InterRatUtraConfig

    layers: tuple[InterRatUtraConfig, ...] = ()


@dataclass(frozen=True)
class Sib7(Message):
    """SIB7: inter-RAT GERAN frequency groups."""

    TYPE_CODE = 0x07

    layers: tuple[InterRatGeranConfig, ...] = ()

    def to_payload(self) -> dict:
        payloads = []
        for layer in self.layers:
            d = _fields_dict(layer)
            d["carrier_freqs"] = list(d["carrier_freqs"])
            payloads.append(d)
        return {"layers": payloads}

    @classmethod
    def from_payload(cls, payload: dict) -> "Sib7":
        layers = []
        for d in payload["layers"]:
            d = dict(d)
            d["carrier_freqs"] = tuple(d["carrier_freqs"])
            layers.append(InterRatGeranConfig(**d))
        return cls(layers=tuple(layers))


@dataclass(frozen=True)
class Sib8(_LayerList):
    """SIB8: inter-RAT CDMA2000 band classes."""

    TYPE_CODE = 0x08
    LAYER = InterRatCdmaConfig

    layers: tuple[InterRatCdmaConfig, ...] = ()


def _event_to_payload(event: EventConfig) -> dict:
    d = _fields_dict(event)
    d["event"] = event.event.value
    return d


def _event_from_payload(d: dict) -> EventConfig:
    d = dict(d)
    d["event"] = EventType(d["event"])
    return EventConfig(**d)


@dataclass(frozen=True)
class MobilityControlInfo(Message):
    """Handover command content inside an RRC reconfiguration."""

    TYPE_CODE = 0x12

    target_carrier: str = ""
    target_gci: int = 0
    target_channel: int = 0
    target_pci: int = 0
    target_rat: str = "LTE"

    @property
    def target_cell_id(self) -> CellId:
        return CellId(self.target_carrier, self.target_gci)


@dataclass(frozen=True)
class RrcConnectionReconfiguration(Message):
    """RRC Connection Reconfiguration.

    Without ``mobility`` it (re)configures measurements; with it, it is
    the handover command ("within 80-230 ms once the last measurement
    report is sent", Section 4.1).
    """

    TYPE_CODE = 0x10

    meas_config: MeasurementConfig | None = None
    mobility: MobilityControlInfo | None = None

    def to_payload(self) -> dict:
        payload: dict = {}
        if self.meas_config is not None:
            payload["meas_config"] = {
                "events": [_event_to_payload(e) for e in self.meas_config.events],
                "periodic": _fields_dict(self.meas_config.periodic) if self.meas_config.periodic else None,
                "s_measure": self.meas_config.s_measure,
            }
        if self.mobility is not None:
            payload["mobility"] = self.mobility.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RrcConnectionReconfiguration":
        meas = None
        if payload.get("meas_config") is not None:
            m = payload["meas_config"]
            periodic = PeriodicConfig(**m["periodic"]) if m.get("periodic") else None
            meas = MeasurementConfig(
                events=tuple(_event_from_payload(d) for d in m["events"]),
                periodic=periodic,
                s_measure=m["s_measure"],
            )
        mobility = None
        if payload.get("mobility") is not None:
            mobility = MobilityControlInfo.from_payload(payload["mobility"])
        return cls(meas_config=meas, mobility=mobility)


@dataclass(frozen=True)
class MeasResult(Message):
    """One measured cell inside a measurement report."""

    TYPE_CODE = 0x13

    carrier: str = ""
    gci: int = 0
    pci: int = 0
    channel: int = 0
    rat: str = "LTE"
    rsrp_dbm: float = -140.0
    rsrq_db: float = -19.5

    @property
    def cell_id(self) -> CellId:
        return CellId(self.carrier, self.gci)


@dataclass(frozen=True)
class MeasurementReport(Message):
    """Measurement Report: the uplink message that precedes a handoff.

    The paper gauges "the last event is decisive because all the
    handoffs happen immediately (within 80-230 ms) once the last
    measurement report is sent" — handoff-instance extraction keys on
    exactly this message.
    """

    TYPE_CODE = 0x11

    event: str = "A3"
    metric: str = "rsrp"
    serving: MeasResult = field(default_factory=MeasResult)
    neighbors: tuple[MeasResult, ...] = ()

    def to_payload(self) -> dict:
        return {
            "event": self.event,
            "metric": self.metric,
            "serving": self.serving.to_payload(),
            "neighbors": [n.to_payload() for n in self.neighbors],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MeasurementReport":
        return cls(
            event=payload["event"],
            metric=payload["metric"],
            serving=MeasResult.from_payload(payload["serving"]),
            neighbors=tuple(MeasResult.from_payload(d) for d in payload["neighbors"]),
        )


@dataclass(frozen=True)
class LegacySystemInfo(Message):
    """System information of a legacy (non-LTE) serving cell."""

    TYPE_CODE = 0x20

    carrier: str = ""
    gci: int = 0
    channel: int = 0
    rat: str = "UMTS"
    city: str = ""
    fields: dict = field(default_factory=dict)

    @classmethod
    def from_config(
        cls, carrier: str, gci: int, channel: int, rat: RAT, config: LegacyCellConfig, city: str = ""
    ) -> "LegacySystemInfo":
        """Wrap a legacy config object into a broadcastable message."""
        values = {}
        for name, value in config.parameter_samples():
            values[name] = value
        return cls(carrier=carrier, gci=gci, channel=channel, rat=rat.value, city=city, fields=values)

    def to_config(self) -> LegacyCellConfig:
        """Rebuild the typed config object from the broadcast fields."""
        config_type = LEGACY_CONFIG_TYPES[RAT(self.rat)]
        kwargs = dict(self.fields)
        for key, value in kwargs.items():
            if isinstance(value, list):
                kwargs[key] = tuple(value)
        return config_type(**kwargs)

    @property
    def cell_id(self) -> CellId:
        return CellId(self.carrier, self.gci)


@dataclass(frozen=True)
class PhyServingMeas(Message):
    """Periodic PHY-layer serving-cell measurement record.

    MobileInsight exposes the modem's connected/idle-mode measurement
    logs alongside RRC messages; MMLab uses them to know the serving
    cell's radio quality before and after each handoff (Fig. 6/10).
    The simulated modem emits one of these on a fixed cadence.
    """

    TYPE_CODE = 0x21

    carrier: str = ""
    gci: int = 0
    channel: int = 0
    rat: str = "LTE"
    rsrp_dbm: float = -140.0
    rsrq_db: float = -19.5
    sinr_db: float = -10.0
    rrc_connected: bool = False

    @property
    def cell_id(self) -> CellId:
        return CellId(self.carrier, self.gci)


#: Registry used by the codec: type code -> message class.
MESSAGE_TYPES: dict[int, type[Message]] = {
    cls.TYPE_CODE: cls
    for cls in (
        Sib1, Sib3, Sib4, Sib5, Sib6, Sib7, Sib8,
        RrcConnectionReconfiguration, MeasurementReport, MeasResult,
        MobilityControlInfo, LegacySystemInfo, PhyServingMeas,
    )
}
