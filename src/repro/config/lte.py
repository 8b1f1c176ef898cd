"""Per-cell LTE handoff configuration structures.

These dataclasses mirror how the configuration actually reaches a phone:
idle-state parameters ride the System Information Blocks the serving
cell broadcasts (SIB3 serving/common, SIB4 intra-freq neighbors, SIB5
inter-freq layers, SIB6/7/8 inter-RAT layers), and active-state
parameters ride the measConfig of an RRC Connection Reconfiguration.

``LteCellConfig`` bundles everything a single cell is configured with
and knows how to flatten itself into (parameter name, value) samples —
the unit dataset D2 counts ("we treat each parameter observed as one
sample", Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.events import EventConfig, PeriodicConfig
from repro.config.parameters import domain_violations, samples_from_fields
from repro.cellnet.rat import RAT


@dataclass(frozen=True)
class ServingCellConfig:
    """SIB3 content: serving-cell reselection configuration.

    Thresholds here are *relative* levels in dB against the calibrated
    floor (paper Eq. 1: measurement triggers when rS - Delta_min <=
    Theta), matching the spec's S-criterion encoding.
    """

    q_hyst: float = 4.0
    s_intra_search_p: float = 62.0
    s_intra_search_q: float = 8.0
    s_non_intra_search_p: float = 8.0
    s_non_intra_search_q: float = 4.0
    thresh_serving_low_p: float = 6.0
    thresh_serving_low_q: float = 4.0
    cell_reselection_priority: int = 4
    q_rx_lev_min: float = -122.0
    q_qual_min: float = -18.0
    p_max: int = 23
    t_reselection_eutra: int = 1

    def parameter_samples(self) -> list[tuple[str, object]]:
        """(name, value) pairs for every SIB3 parameter: the field names
        are the registry names."""
        return samples_from_fields(self)


@dataclass(frozen=True)
class IntraFreqNeighborConfig:
    """SIB4 content: intra-frequency neighbor tuning."""

    q_offset_cell: float = 0.0
    black_cell_list: tuple[int, ...] = ()

    def parameter_samples(self) -> list[tuple[str, object]]:
        return [
            ("q_offset_cell", self.q_offset_cell),
            ("intra_freq_black_cell_list", list(self.black_cell_list)),
        ]


@dataclass(frozen=True)
class InterFreqLayerConfig:
    """SIB5 content for one inter-frequency carrier layer."""

    dl_carrier_freq: int = 5110
    q_offset_freq: float = 0.0
    cell_reselection_priority: int = 4
    thresh_x_high_p: float = 12.0
    thresh_x_low_p: float = 0.0
    q_rx_lev_min: float = -122.0
    p_max: int = 23
    t_reselection_eutra: int = 1
    allowed_meas_bandwidth: int = 50

    def parameter_samples(self) -> list[tuple[str, object]]:
        return [
            ("dl_carrier_freq", self.dl_carrier_freq),
            ("q_offset_freq", self.q_offset_freq),
            ("cell_reselection_priority_inter", self.cell_reselection_priority),
            ("thresh_x_high_p", self.thresh_x_high_p),
            ("thresh_x_low_p", self.thresh_x_low_p),
            ("q_rx_lev_min_inter", self.q_rx_lev_min),
            ("p_max_inter", self.p_max),
            ("t_reselection_eutra_inter", self.t_reselection_eutra),
            ("allowed_meas_bandwidth", self.allowed_meas_bandwidth),
        ]


@dataclass(frozen=True)
class InterRatUtraConfig:
    """SIB6 content for one UTRA (3G UMTS) carrier layer."""

    carrier_freq: int = 4385
    cell_reselection_priority: int = 2
    thresh_x_high: float = 8.0
    thresh_x_low: float = 2.0
    q_rx_lev_min: float = -115.0
    t_reselection: int = 2

    def parameter_samples(self) -> list[tuple[str, object]]:
        return [
            ("carrier_freq_utra", self.carrier_freq),
            ("cell_reselection_priority_utra", self.cell_reselection_priority),
            ("thresh_x_high_utra", self.thresh_x_high),
            ("thresh_x_low_utra", self.thresh_x_low),
            ("q_rx_lev_min_utra", self.q_rx_lev_min),
            ("t_reselection_utra", self.t_reselection),
        ]


@dataclass(frozen=True)
class InterRatGeranConfig:
    """SIB7 content for one GERAN (2G GSM) frequency group."""

    carrier_freqs: tuple[int, ...] = (128,)
    cell_reselection_priority: int = 0
    thresh_x_high: float = 6.0
    thresh_x_low: float = 2.0
    q_rx_lev_min: float = -110.0
    t_reselection: int = 2

    def parameter_samples(self) -> list[tuple[str, object]]:
        return [
            ("carrier_freqs_geran", list(self.carrier_freqs)),
            ("cell_reselection_priority_geran", self.cell_reselection_priority),
            ("thresh_x_high_geran", self.thresh_x_high),
            ("thresh_x_low_geran", self.thresh_x_low),
            ("q_rx_lev_min_geran", self.q_rx_lev_min),
            ("t_reselection_geran", self.t_reselection),
        ]


@dataclass(frozen=True)
class InterRatCdmaConfig:
    """SIB8 content for one CDMA2000 band class."""

    band_class: int = 1
    cell_reselection_priority: int = 1
    thresh_x_high: float = 8.0
    thresh_x_low: float = 2.0
    t_reselection: int = 2

    def parameter_samples(self) -> list[tuple[str, object]]:
        return [
            ("band_class_cdma", self.band_class),
            ("cell_reselection_priority_cdma", self.cell_reselection_priority),
            ("thresh_x_high_cdma", self.thresh_x_high),
            ("thresh_x_low_cdma", self.thresh_x_low),
            ("t_reselection_cdma", self.t_reselection),
        ]


@dataclass(frozen=True)
class MeasurementConfig:
    """measConfig content: armed events and measurement gating.

    ``s_measure`` gates neighbor measurement in connected mode: when the
    serving RSRP exceeds it, the UE may skip neighbor measurements.
    """

    events: tuple[EventConfig, ...] = ()
    periodic: PeriodicConfig | None = None
    s_measure: float = -97.0

    def parameter_samples(self) -> list[tuple[str, object]]:
        samples: list[tuple[str, object]] = [("s_measure", self.s_measure)]
        for event in self.events:
            samples.extend(event.parameter_samples())
        if self.periodic is not None:
            samples.extend(self.periodic.as_event_config().parameter_samples())
        return samples


@dataclass(frozen=True)
class LteCellConfig:
    """Complete handoff configuration of one LTE cell."""

    serving: ServingCellConfig = field(default_factory=ServingCellConfig)
    intra_neighbors: IntraFreqNeighborConfig = field(default_factory=IntraFreqNeighborConfig)
    inter_freq_layers: tuple[InterFreqLayerConfig, ...] = ()
    utra_layers: tuple[InterRatUtraConfig, ...] = ()
    geran_layers: tuple[InterRatGeranConfig, ...] = ()
    cdma_layers: tuple[InterRatCdmaConfig, ...] = ()
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)

    def idle_parameter_samples(self) -> list[tuple[str, object]]:
        """(name, value) samples of the SIB-borne (idle-state) part only.

        The crawler uses this when an episode observed the SIBs but no
        dedicated measConfig — a default measConfig must not leak
        phantom active-state samples into dataset D2.
        """
        samples = list(self.serving.parameter_samples())
        samples.extend(self.intra_neighbors.parameter_samples())
        for layer in self.inter_freq_layers:
            samples.extend(layer.parameter_samples())
        for layer in self.utra_layers:
            samples.extend(layer.parameter_samples())
        for layer in self.geran_layers:
            samples.extend(layer.parameter_samples())
        for layer in self.cdma_layers:
            samples.extend(layer.parameter_samples())
        return samples

    def parameter_samples(self) -> list[tuple[str, object]]:
        """All (name, value) samples this cell's configuration yields.

        Every name resolves in the LTE registry; this invariant is
        enforced in tests and relied on by the dataset builders.
        """
        return self.idle_parameter_samples() + self.measurement.parameter_samples()

    def validate(self) -> list[str]:
        """Domain-check every sample; returns violation descriptions."""
        return domain_violations(RAT.LTE, self.parameter_samples())

    def priority_of_layer(self, rat: RAT, channel: int, serving_channel: int) -> int | None:
        """Reselection priority this cell assigns to a (rat, channel) layer.

        Returns the serving priority for the serving channel, the SIB5/6/
        7/8 priority for configured layers, and None for unknown layers
        (which idle reselection then ignores, as a real UE does).
        """
        if rat is RAT.LTE:
            if channel == serving_channel:
                return self.serving.cell_reselection_priority
            for layer in self.inter_freq_layers:
                if layer.dl_carrier_freq == channel:
                    return layer.cell_reselection_priority
            return None
        if rat is RAT.UMTS:
            for layer in self.utra_layers:
                if layer.carrier_freq == channel:
                    return layer.cell_reselection_priority
            return None
        if rat is RAT.GSM:
            for layer in self.geran_layers:
                if channel in layer.carrier_freqs:
                    return layer.cell_reselection_priority
            return None
        for layer in self.cdma_layers:
            return layer.cell_reselection_priority
        return None
