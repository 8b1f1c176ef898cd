"""Reference oracle for the whole configuration-generation path.

``ConfigServer`` and ``CarrierProfile`` generate every configuration
from per-site layer contexts (``RadioEnvironment.layer_channels``),
weight tables built once and per-cell streams read in blocks, and build
observations on the server's cached base measConfig and the profile's
memo of idle-churn flips.  This module keeps the mechanisms those
replaced, as the oracle they are held to:

* each cell's context from a 4 km ``cells_near`` scan plus one set
  comprehension per layer kind;
* a real ``Generator`` per cell, one ``random()`` call per double, and
  ``values[rng.choice(n, p=weights)]`` per draw from the literal
  {value: weight} tables;
* a cold profile for every call: no table, measConfig or epoch memo.

The tests compare every base configuration, every broadcast (with and
without an observation generator, across idle-churn epochs), the
connected-mode measConfig until its active churn has been drawn, and the
observation generator's state after each call.  ``compare_world`` also
runs over the whole default world (every cell, config seeds 2018 and
2019) in CI; it returns the number of cells compared.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cellnet.bands import earfcn_to_band
from repro.cellnet.cell import Cell, CellId
from repro.cellnet.rat import RAT
from repro.cellnet.world import RadioEnvironment
from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.legacy import (
    Cdma1xCellConfig,
    EvdoCellConfig,
    GsmCellConfig,
    UmtsCellConfig,
)
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
from repro.config.profiles import ConfigContext, _style_for
from repro.config.units import nearest_time_to_trigger
from repro.rrc.broadcast import ConfigServer
from repro.rrc.messages import (
    LegacySystemInfo,
    Message,
    RrcConnectionReconfiguration,
    Sib1,
    Sib3,
    Sib4,
    Sib5,
    Sib6,
    Sib7,
    Sib8,
)
from repro.util import stable_hash

#: Observation days of the broadcast checks: epochs 0, 1, 2 and 4 of the
#: 90-day idle-churn timeline.
OBSERVATION_DAYS = (0.0, 95.0, 200.0, 400.0)
#: Cap on the measConfig observations per cell while waiting for the
#: active-churn branch (at a churn of 0.05, 1.4 % of cells reach it).
MAX_CHURN_TRIES = 80


def _draw(rng: np.random.Generator, table: dict) -> object:
    """The draw as ``Generator.choice`` makes it."""
    values = list(table)
    weights = np.array([table[v] for v in values], dtype=float)
    weights /= weights.sum()
    return values[int(rng.choice(len(values), p=weights))]


class ReferenceProfile:
    """One carrier's configuration generator, memo-free, drawing each
    value with ``Generator.choice`` from a literal table."""

    def __init__(self, acronym: str, seed: int):
        self.acronym = acronym
        self.seed = seed
        self.style = _style_for(acronym)

    def _cell_rng(self, cell: Cell, salt: int = 0, force_cell: bool = False) -> np.random.Generator:
        if self.style.spatial_mode == "grid" and not force_cell:
            key = (stable_hash(cell.city) & 0xFFFFFF, cell.channel)
        else:
            key = (cell.cell_id.gci, cell.channel)
        return np.random.default_rng(
            (self.seed, stable_hash(self.acronym) & 0xFFFF, key[0], key[1], salt)
        )

    def priority_for_channel(self, channel: int, city: str, rng: np.random.Generator) -> int:
        if self.style.diversity == "none":
            return 5
        if self.style.spatial_mode == "grid":
            city_rng = np.random.default_rng(
                (self.seed, stable_hash(self.acronym) & 0xFFFF, stable_hash(city) & 0xFFFF, 0xC17)
            )
            return int(city_rng.integers(3, 6))
        base_rng = np.random.default_rng(
            (self.seed, stable_hash(self.acronym) & 0xFFFF, channel, 0xBEEF)
        )
        try:
            band = earfcn_to_band(channel).number
        except ValueError:
            band = 0
        if band == 30:
            base = 5
        elif band in (12, 17, 29):
            base = 2
        elif band in (2, 25):
            base = 3
        elif band == 4:
            base = int(base_rng.integers(3, 5))
        else:
            base = int(base_rng.integers(2, 6))
        city_sensitive = base_rng.random() < 0.1
        if city == "Chicago" and self.style.diversity == "high" and city_sensitive:
            base = min(7, base + 1)
        if rng.random() < self.style.priority_conflict_rate:
            return base - 1 if base >= 3 else base + 1
        return base

    def _event_suite(self, rng: np.random.Generator) -> tuple[tuple[EventConfig, ...], PeriodicConfig | None]:
        style = self.style
        ttt = int(_draw(rng, style.time_to_trigger))
        policy = str(_draw(rng, style.event_policy))
        events = [
            EventConfig(
                event=EventType.A2,
                metric="rsrp",
                threshold1=float(_draw(rng, {-114.0: 4, -112.0: 2, -116.0: 2, -118.0: 1})),
                hysteresis=1.0,
                time_to_trigger_ms=nearest_time_to_trigger(640),
                report_amount=1,
            )
        ]
        periodic = None
        if policy == "A3":
            events.append(
                EventConfig(
                    event=EventType.A3,
                    metric="rsrp",
                    offset=float(_draw(rng, style.a3_offsets)),
                    hysteresis=float(_draw(rng, style.a3_hysteresis)),
                    time_to_trigger_ms=ttt,
                    report_amount=1,
                )
            )
        elif policy == "A5":
            ttt = int(_draw(rng, {640: 2, 1280: 4, 2560: 2}))
            if rng.random() < style.a5_rsrq_share:
                metric, serving, candidate = "rsrq", style.a5_serving_rsrq, style.a5_candidate_rsrq
            else:
                metric, serving, candidate = "rsrp", style.a5_serving_rsrp, style.a5_candidate_rsrp
            events.append(
                EventConfig(
                    event=EventType.A5,
                    metric=metric,
                    threshold1=float(_draw(rng, serving)),
                    threshold2=float(_draw(rng, candidate)),
                    hysteresis=1.0,
                    time_to_trigger_ms=ttt,
                    report_amount=1,
                )
            )
        elif policy == "P":
            periodic = PeriodicConfig(report_interval_ms=int(_draw(rng, {2048: 3, 5120: 4, 10240: 1})))
        elif policy == "A1":
            events.append(
                EventConfig(
                    event=EventType.A1, metric="rsrp", threshold1=-100.0,
                    hysteresis=1.0, time_to_trigger_ms=ttt,
                )
            )
        elif policy == "A4":
            events.append(
                EventConfig(
                    event=EventType.A4,
                    metric="rsrp",
                    threshold1=float(_draw(rng, {-104.0: 2, -108.0: 1})),
                    hysteresis=1.0,
                    time_to_trigger_ms=ttt,
                )
            )
        return tuple(events), periodic

    def measurement_config(self, cell: Cell, obs_rng: np.random.Generator | None = None) -> MeasurementConfig:
        rng = self._cell_rng(cell, salt=1, force_cell=True)
        events, periodic = self._event_suite(rng)
        if obs_rng is not None and obs_rng.random() < self.style.active_churn:
            alt_rng = np.random.default_rng(
                (self.seed, cell.cell_id.gci, int(obs_rng.integers(1 << 30)), 2)
            )
            events, periodic = self._event_suite(alt_rng)
        s_measure = float(_draw(rng, {-97.0: 5, -95.0: 2, -103.0: 1, -44.0: 1}))
        return MeasurementConfig(events=events, periodic=periodic, s_measure=s_measure)

    def serving_config(self, cell: Cell, context: ConfigContext) -> ServingCellConfig:
        rng = self._cell_rng(cell, salt=3)
        style = self.style
        s_intra = float(_draw(rng, style.s_intra_search))
        if rng.random() < 0.05:
            s_non_intra = s_intra
        else:
            s_non_intra = min(float(_draw(rng, style.s_non_intra_search)), s_intra)
        return ServingCellConfig(
            q_hyst=float(_draw(rng, style.q_hyst)),
            s_intra_search_p=s_intra,
            s_intra_search_q=float(_draw(rng, {8.0: 5, 6.0: 2, 10.0: 1})),
            s_non_intra_search_p=s_non_intra,
            s_non_intra_search_q=float(_draw(rng, {4.0: 5, 6.0: 2, 2.0: 1})),
            thresh_serving_low_p=float(_draw(rng, style.thresh_serving_low)),
            thresh_serving_low_q=float(_draw(rng, {4.0: 5, 2.0: 2, 6.0: 1})),
            cell_reselection_priority=self.priority_for_channel(cell.channel, context.city, rng),
            q_rx_lev_min=float(_draw(rng, style.q_rx_lev_min)),
            q_qual_min=float(_draw(rng, {-18.0: 6, -19.5: 2, -16.0: 1})),
            p_max=23,
            t_reselection_eutra=int(_draw(rng, {1: 5, 2: 3, 0: 1})),
        )

    def lte_config(self, cell: Cell, context: ConfigContext) -> LteCellConfig:
        rng = self._cell_rng(cell, salt=4)
        style = self.style
        serving = self.serving_config(cell, context)
        base_low = serving.thresh_serving_low_p
        inter_layers = []
        for channel in context.lte_channels:
            if channel == cell.channel:
                continue
            inter_layers.append(
                InterFreqLayerConfig(
                    dl_carrier_freq=channel,
                    q_offset_freq=float(_draw(rng, style.q_offset_freq)),
                    cell_reselection_priority=self.priority_for_channel(channel, context.city, rng),
                    thresh_x_high_p=float(_draw(rng, style.thresh_x_high)),
                    thresh_x_low_p=min(base_low + float(_draw(rng, style.thresh_x_low)) + 2.0, 62.0),
                    q_rx_lev_min=float(_draw(rng, style.q_rx_lev_min)),
                    p_max=23,
                    t_reselection_eutra=int(_draw(rng, {1: 5, 2: 3})),
                    allowed_meas_bandwidth=int(_draw(rng, {50: 5, 100: 3, 25: 1})),
                )
            )
        utra_layers = tuple(
            InterRatUtraConfig(
                carrier_freq=channel,
                cell_reselection_priority=int(_draw(rng, {1: 6, 0: 2})),
                thresh_x_high=float(_draw(rng, style.thresh_x_high)),
                thresh_x_low=min(base_low + float(_draw(rng, style.thresh_x_low)) + 4.0, 62.0),
                q_rx_lev_min=-115.0,
                t_reselection=2,
            )
            for channel in context.utra_channels
        )
        geran_layers = tuple(
            InterRatGeranConfig(
                carrier_freqs=(channel,),
                cell_reselection_priority=0,
                thresh_x_high=float(_draw(rng, style.thresh_x_high)),
                thresh_x_low=min(base_low + float(_draw(rng, style.thresh_x_low)) + 6.0, 62.0),
                q_rx_lev_min=-110.0,
                t_reselection=2,
            )
            for channel in context.geran_channels
        )
        cdma_layers = tuple(
            InterRatCdmaConfig(
                band_class=band,
                cell_reselection_priority=int(_draw(rng, {1: 5, 0: 2})),
                thresh_x_high=float(_draw(rng, style.thresh_x_high)),
                thresh_x_low=min(base_low + float(_draw(rng, style.thresh_x_low)) + 4.0, 62.0),
                t_reselection=2,
            )
            for band in context.cdma_bands
        )
        return LteCellConfig(
            serving=serving,
            intra_neighbors=IntraFreqNeighborConfig(
                q_offset_cell=float(_draw(rng, {0.0: 8, 1.0: 1, -1.0: 1})),
            ),
            inter_freq_layers=tuple(inter_layers),
            utra_layers=utra_layers,
            geran_layers=geran_layers,
            cdma_layers=cdma_layers,
            measurement=self.measurement_config(cell),
        )

    def observed_lte_config(
        self, cell: Cell, base: LteCellConfig, obs_rng: np.random.Generator, days_since_first: float
    ) -> LteCellConfig:
        serving = base.serving
        epoch = int(days_since_first // 90)
        changed_epoch = 0
        for e in range(1, epoch + 1):
            flip_rng = np.random.default_rng((self.seed, cell.cell_id.gci, 0xE0, e))
            if flip_rng.random() < self.style.idle_churn_180d / 2.0:
                changed_epoch = e
        if changed_epoch:
            alt_rng = np.random.default_rng((self.seed, cell.cell_id.gci, changed_epoch + 11, 5))
            serving = ServingCellConfig(
                **{
                    **{f: getattr(base.serving, f) for f in (
                        "q_hyst", "s_intra_search_p", "s_intra_search_q",
                        "s_non_intra_search_p", "s_non_intra_search_q",
                        "thresh_serving_low_q", "cell_reselection_priority",
                        "q_rx_lev_min", "q_qual_min", "p_max",
                        "t_reselection_eutra",
                    )},
                    "thresh_serving_low_p": float(_draw(alt_rng, self.style.thresh_serving_low)),
                }
            )
        return LteCellConfig(
            serving=serving,
            intra_neighbors=base.intra_neighbors,
            inter_freq_layers=base.inter_freq_layers,
            utra_layers=base.utra_layers,
            geran_layers=base.geran_layers,
            cdma_layers=base.cdma_layers,
            measurement=self.measurement_config(cell, obs_rng=obs_rng),
        )

    def legacy_config(self, cell: Cell):
        if cell.rat is RAT.UMTS:
            return self._umts_config(cell)
        if cell.rat is RAT.GSM:
            rng = self._cell_rng(cell, salt=7)
            if self.style.diversity == "none" or rng.random() < 0.9:
                return GsmCellConfig()
            return GsmCellConfig(
                cell_reselect_hysteresis=float(_draw(rng, {4.0: 4, 6.0: 2, 2.0: 1})),
                cell_reselect_offset=float(_draw(rng, {0.0: 5, 2.0: 1})),
            )
        if cell.rat is RAT.EVDO:
            rng = self._cell_rng(cell, salt=8)
            if self.style.diversity == "none" or rng.random() < 0.85:
                return EvdoCellConfig()
            return EvdoCellConfig(
                pilot_add=float(_draw(rng, {-7.0: 5, -6.5: 1, -7.5: 1})),
                pilot_drop=float(_draw(rng, {-9.0: 5, -8.5: 1})),
            )
        assert cell.rat is RAT.CDMA1X
        rng = self._cell_rng(cell, salt=9)
        if self.style.diversity == "none" or rng.random() < 0.92:
            return Cdma1xCellConfig()
        return Cdma1xCellConfig(t_add=float(_draw(rng, {-7.0: 5, -6.5: 1})))

    def _umts_config(self, cell: Cell) -> UmtsCellConfig:
        rng = self._cell_rng(cell, salt=6)
        if self.style.diversity == "none":
            return UmtsCellConfig()
        ttt = {320: 4, 640: 2, 100: 1, 1280: 1}
        hys = {1.0: 4, 0.5: 2, 1.5: 2, 2.0: 1}
        return UmtsCellConfig(
            q_hyst_1s=float(_draw(rng, {4.0: 4, 2.0: 2, 6.0: 1})),
            q_hyst_2s=float(_draw(rng, {4.0: 4, 2.0: 2, 6.0: 1})),
            s_intrasearch=float(_draw(rng, {10.0: 4, 8.0: 2, 12.0: 2, 14.0: 1})),
            s_intersearch=float(_draw(rng, {10.0: 4, 6.0: 2, 12.0: 1})),
            s_search_rat=float(_draw(rng, {4.0: 4, 2.0: 2, 6.0: 1})),
            s_limit_search_rat=float(_draw(rng, {4.0: 4, 6.0: 2, 2.0: 1})),
            q_rxlevmin=float(_draw(rng, {-115.0: 6, -113.0: 2, -111.0: 1})),
            t_reselection_s=int(_draw(rng, {1: 5, 2: 3, 0: 1})),
            q_offset_s_n_1=float(_draw(rng, {0.0: 6, 2.0: 2, -2.0: 1})),
            q_offset_s_n_2=float(_draw(rng, {0.0: 6, 2.0: 2})),
            penalty_time=int(_draw(rng, {0: 5, 2: 2, 4: 1})),
            temporary_offset=float(_draw(rng, {0.0: 6, 3.0: 2})),
            priority_eutra=int(_draw(rng, {5: 5, 6: 2, 4: 2})),
            thresh_high_eutra=float(_draw(rng, {8.0: 4, 12.0: 2, 6.0: 1})),
            thresh_low_eutra=float(_draw(rng, {4.0: 4, 2.0: 2, 0.0: 1})),
            priority_serving=int(_draw(rng, {2: 6, 1: 2, 3: 1})),
            thresh_serving_low=float(_draw(rng, {4.0: 4, 2.0: 2, 6.0: 2, 8.0: 1})),
            t_reselection_eutra=int(_draw(rng, {2: 5, 1: 3})),
            e1a_reporting_range=float(_draw(rng, {4.0: 4, 3.0: 2, 5.0: 2, 6.0: 1})),
            e1a_hysteresis=float(_draw(rng, hys)),
            e1a_time_to_trigger=int(_draw(rng, ttt)),
            e1b_reporting_range=float(_draw(rng, {6.0: 4, 5.0: 2, 8.0: 1})),
            e1b_hysteresis=float(_draw(rng, hys)),
            e1b_time_to_trigger=int(_draw(rng, ttt)),
            e1c_replacement_threshold=float(_draw(rng, {-95.0: 4, -93.0: 2, -97.0: 1})),
            e1c_time_to_trigger=int(_draw(rng, ttt)),
            e1d_time_to_trigger=int(_draw(rng, ttt)),
            e1e_threshold=float(_draw(rng, {-100.0: 4, -98.0: 2, -102.0: 1})),
            e1f_threshold=float(_draw(rng, {-105.0: 4, -103.0: 2, -107.0: 1})),
            intra_freq_filter_coefficient=int(_draw(rng, {3: 4, 4: 2, 2: 1})),
            e2b_threshold_used=float(_draw(rng, {-100.0: 4, -98.0: 2, -102.0: 1})),
            e2b_threshold_non_used=float(_draw(rng, {-95.0: 4, -93.0: 2})),
            e2b_time_to_trigger=int(_draw(rng, ttt)),
            e2d_threshold_used=float(_draw(rng, {-103.0: 4, -101.0: 2, -105.0: 1})),
            e2d_time_to_trigger=int(_draw(rng, ttt)),
            e2f_threshold_used=float(_draw(rng, {-98.0: 4, -96.0: 2})),
            e2f_time_to_trigger=int(_draw(rng, ttt)),
            e3a_threshold_own=float(_draw(rng, {-102.0: 4, -100.0: 2, -104.0: 1})),
            e3a_threshold_other=float(_draw(rng, {-98.0: 4, -96.0: 2})),
            e3a_time_to_trigger=int(_draw(rng, ttt)),
        )


def reference_context(env: RadioEnvironment, cell: Cell) -> ConfigContext:
    """A cell's context from a 4 km neighbour scan."""
    nearby = env.cells_near(cell.location, carrier=cell.carrier, radius_m=4000.0)
    return ConfigContext(
        city=cell.city,
        lte_channels=tuple(sorted({c.channel for c in nearby if c.rat is RAT.LTE})),
        utra_channels=tuple(sorted({c.channel for c in nearby if c.rat is RAT.UMTS})),
        geran_channels=tuple(sorted({c.channel for c in nearby if c.rat is RAT.GSM})),
        cdma_bands=tuple(sorted({
            c.band_number for c in nearby if c.rat in (RAT.EVDO, RAT.CDMA1X)
        })),
    )


class ReferenceServer:
    """The configuration server's answers, each from a cold profile.

    Like the server, it generates each cell's base configuration once
    and builds observations on it.
    """

    def __init__(self, env: RadioEnvironment, seed: int):
        self.env = env
        self.seed = seed
        self._base_configs: dict[CellId, LteCellConfig] = {}

    def _profile(self, cell: Cell) -> ReferenceProfile:
        return ReferenceProfile(cell.carrier, self.seed)

    def lte_config(self, cell: Cell) -> LteCellConfig:
        if cell.cell_id not in self._base_configs:
            self._base_configs[cell.cell_id] = self._profile(cell).lte_config(
                cell, reference_context(self.env, cell)
            )
        return self._base_configs[cell.cell_id]

    def sib_messages(
        self, cell: Cell, obs_rng: np.random.Generator | None = None, days_since_first: float = 0.0
    ) -> list[Message]:
        if cell.rat is not RAT.LTE:
            config = self._profile(cell).legacy_config(cell)
            return [
                LegacySystemInfo.from_config(
                    cell.carrier, cell.cell_id.gci, cell.channel, cell.rat, config, city=cell.city
                )
            ]
        config = self.lte_config(cell)
        if obs_rng is not None:
            config = self._profile(cell).observed_lte_config(cell, config, obs_rng, days_since_first)
        sibs: list[Message] = [
            Sib1(
                carrier=cell.carrier,
                gci=cell.cell_id.gci,
                pci=cell.pci,
                channel=cell.channel,
                rat=cell.rat.value,
                q_rx_lev_min=config.serving.q_rx_lev_min,
                city=cell.city,
            ),
            Sib3(config=config.serving),
            Sib4(config=config.intra_neighbors),
        ]
        if config.inter_freq_layers:
            sibs.append(Sib5(layers=config.inter_freq_layers))
        if config.utra_layers:
            sibs.append(Sib6(layers=config.utra_layers))
        if config.geran_layers:
            sibs.append(Sib7(layers=config.geran_layers))
        if config.cdma_layers:
            sibs.append(Sib8(layers=config.cdma_layers))
        return sibs

    def connection_reconfiguration(
        self, cell: Cell, obs_rng: np.random.Generator | None = None
    ) -> RrcConnectionReconfiguration:
        return RrcConnectionReconfiguration(
            meas_config=self._profile(cell).measurement_config(cell, obs_rng=obs_rng)
        )


def _peek(rng: np.random.Generator) -> float:
    """``rng``'s next double, leaving ``rng`` where it was."""
    state = rng.bit_generator.state
    value = rng.random()
    rng.bit_generator.state = state
    return value


def _compare_cell(server: ConfigServer, reference: ReferenceServer, cell: Cell) -> None:
    where = f"{cell.cell_id} ({cell.rat.value}, seed {server.seed})"
    gci = cell.cell_id.gci
    if cell.rat is RAT.LTE:
        # Observations first, while the server may hold no base for the
        # cell yet: repeat until the active-churn branch has been taken,
        # then twice more, which must not see the churned suite as base.
        ours, theirs = np.random.default_rng(gci), np.random.default_rng(gci)
        churn = reference._profile(cell).style.active_churn

        def observe() -> None:
            got = server.connection_reconfiguration(cell, ours)
            assert got == reference.connection_reconfiguration(cell, theirs), where
            assert ours.bit_generator.state == theirs.bit_generator.state, where

        for _ in range(MAX_CHURN_TRIES if churn > 0.0 else 0):
            churned = _peek(theirs) < churn
            observe()
            if churned:
                break
        observe()
        observe()
        assert server.context_for(cell) == reference_context(server.env, cell), where
        assert server.lte_config(cell) == reference.lte_config(cell), where
        assert server.connection_reconfiguration(cell) == reference.connection_reconfiguration(cell), where
    assert server.sib_messages(cell) == reference.sib_messages(cell), where
    ours, theirs = np.random.default_rng(gci + 1), np.random.default_rng(gci + 1)
    for day in OBSERVATION_DAYS:
        got = server.sib_messages(cell, obs_rng=ours, days_since_first=day)
        assert got == reference.sib_messages(cell, obs_rng=theirs, days_since_first=day), (where, day)
        assert ours.bit_generator.state == theirs.bit_generator.state, (where, day)


def compare_world(env: RadioEnvironment, seed: int, max_cells_per_carrier: int = 0) -> int:
    """Hold a fresh ``ConfigServer`` to the reference on ``env``'s cells.

    Takes the first ``max_cells_per_carrier`` cells of each carrier in
    cell-id order (0 = all), as ``repro lint`` samples them; the server
    stays warm across cells, as in an audit or a crawl.  Raises
    ``AssertionError`` at the first difference; returns the number of
    cells compared.
    """
    server = ConfigServer(env, seed=seed)
    reference = ReferenceServer(env, seed)
    by_carrier: dict[str, list[Cell]] = {}
    for cell in env.registry:
        by_carrier.setdefault(cell.carrier, []).append(cell)
    compared = 0
    for carrier in sorted(by_carrier):
        cells = sorted(by_carrier[carrier], key=lambda c: c.cell_id)
        if max_cells_per_carrier > 0:
            cells = cells[:max_cells_per_carrier]
        for cell in cells:
            _compare_cell(server, reference, cell)
            compared += 1
    return compared


@pytest.fixture(scope="module")
def d2_env():
    from repro.datasets.d2 import d2_world

    return d2_world().env


@pytest.mark.parametrize("seed", [2018, 2019])
def test_generation_equals_reference_on_d2_world(d2_env, seed):
    """60 cells per carrier: every carrier, grid and cell modes, every
    RAT."""
    carriers = {c.carrier for c in d2_env.registry}
    assert len(carriers) == 30
    assert {_style_for(c).spatial_mode for c in carriers} == {"cell", "grid"}
    assert {c.rat for c in d2_env.registry} == set(RAT)
    assert compare_world(d2_env, seed, max_cells_per_carrier=60) == 1142
