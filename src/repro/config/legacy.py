"""Handoff configuration structures for the legacy RATs.

The paper's Table 4 covers 3G UMTS (64 parameters), 2G GSM (9), 3G EVDO
(14) and 2G CDMA1x (4).  Section 5.5 finds the legacy configurations far
less diverse than LTE's — most parameters carry a single dominant value —
which the per-carrier profiles reproduce.

Each config class yields (name, value) samples whose names resolve in
``repro.config.parameters``, exactly like the LTE structures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cellnet.rat import RAT
from repro.config.parameters import domain_violations, samples_from_fields


@dataclass(frozen=True)
class UmtsCellConfig:
    """3G UMTS cell configuration (SIB3/SIB11/SIB19 + meas control).

    Field names match the UMTS registry one-to-one.  A real SIB19 also
    carries EUTRA layer lists; we keep one aggregated entry per cell,
    which matches how the paper counts samples.
    """

    # SIB3 idle reselection.
    q_hyst_1s: float = 4.0
    q_hyst_2s: float = 4.0
    s_intrasearch: float = 10.0
    s_intersearch: float = 10.0
    s_search_hcs: float = 0.0
    s_search_rat: float = 4.0
    s_hcs_rat: float = 0.0
    s_limit_search_rat: float = 4.0
    q_rxlevmin: float = -115.0
    q_qualmin: float = -18.0
    t_reselection_s: int = 1
    max_allowed_ul_tx_power: int = 24
    # SIB11 neighbor tuning.
    q_offset_s_n_1: float = 0.0
    q_offset_s_n_2: float = 0.0
    inter_freq_carrier_list: tuple[int, ...] = ()
    inter_rat_cell_list: tuple[int, ...] = ()
    hcs_prio: int = 0
    q_hcs: float = 0.0
    penalty_time: int = 0
    temporary_offset: float = 0.0
    # SIB19 EUTRA reselection.
    priority_eutra: int = 5
    thresh_high_eutra: float = 8.0
    thresh_low_eutra: float = 4.0
    priority_serving: int = 2
    thresh_serving_low: float = 4.0
    t_reselection_eutra: int = 2
    eutra_freq_list: tuple[int, ...] = ()
    q_rxlevmin_eutra: float = -122.0
    # Connected-mode measurement control (events 1a-1f, 2b/2d/2f, 3a).
    e1a_reporting_range: float = 4.0
    e1a_hysteresis: float = 1.0
    e1a_time_to_trigger: int = 320
    e1a_weighting: float = 0.0
    e1b_reporting_range: float = 6.0
    e1b_hysteresis: float = 1.0
    e1b_time_to_trigger: int = 640
    e1b_weighting: float = 0.0
    e1c_replacement_threshold: float = -95.0
    e1c_hysteresis: float = 1.0
    e1c_time_to_trigger: int = 320
    e1d_hysteresis: float = 1.0
    e1d_time_to_trigger: int = 320
    e1e_threshold: float = -100.0
    e1e_hysteresis: float = 1.0
    e1e_time_to_trigger: int = 320
    e1f_threshold: float = -105.0
    e1f_hysteresis: float = 1.0
    e1f_time_to_trigger: int = 320
    intra_freq_filter_coefficient: int = 3
    e2b_threshold_used: float = -100.0
    e2b_threshold_non_used: float = -95.0
    e2b_hysteresis: float = 1.0
    e2b_time_to_trigger: int = 320
    e2d_threshold_used: float = -103.0
    e2d_hysteresis: float = 1.0
    e2d_time_to_trigger: int = 320
    e2f_threshold_used: float = -98.0
    e2f_hysteresis: float = 1.0
    e2f_time_to_trigger: int = 320
    e3a_threshold_own: float = -102.0
    e3a_threshold_other: float = -98.0
    e3a_hysteresis: float = 1.0
    e3a_time_to_trigger: int = 320
    measurement_quantity: str = "rscp"
    inter_rat_filter_coefficient: int = 3

    def parameter_samples(self) -> list[tuple[str, object]]:
        return samples_from_fields(self)


@dataclass(frozen=True)
class GsmCellConfig:
    """2G GSM cell reselection configuration (SI3/SI4, C1/C2 criteria)."""

    cell_reselect_hysteresis: float = 4.0
    rxlev_access_min: float = -104.0
    ms_txpwr_max_cch: int = 33
    cell_reselect_offset: float = 0.0
    temporary_offset: float = 0.0
    penalty_time: int = 0
    cell_bar_qualify: int = 0
    c2_enabled: int = 1
    multiband_reporting: int = 1

    def parameter_samples(self) -> list[tuple[str, object]]:
        return samples_from_fields(self)


@dataclass(frozen=True)
class EvdoCellConfig:
    """3G EVDO sector parameters (pilot-set management)."""

    pilot_add: float = -7.0
    pilot_drop: float = -9.0
    pilot_drop_timer: int = 2
    pilot_compare: float = 2.5
    active_set_max: int = 6
    neighbor_max_age: int = 2
    search_window_active: int = 8
    search_window_neighbor: int = 10
    search_window_remaining: int = 10
    soft_slope: float = 0.0
    add_intercept: float = 0.0
    drop_intercept: float = 0.0
    idle_handoff_threshold: float = -8.0
    route_update_radius: int = 0

    def parameter_samples(self) -> list[tuple[str, object]]:
        return samples_from_fields(self)


@dataclass(frozen=True)
class Cdma1xCellConfig:
    """2G CDMA1x system parameters (classic pilot thresholds)."""

    t_add: float = -7.0
    t_drop: float = -9.0
    t_comp: float = 2.5
    t_tdrop: int = 2

    def parameter_samples(self) -> list[tuple[str, object]]:
        return samples_from_fields(self)


#: Config class per legacy RAT, for generic code paths.
LEGACY_CONFIG_TYPES = {
    RAT.UMTS: UmtsCellConfig,
    RAT.GSM: GsmCellConfig,
    RAT.EVDO: EvdoCellConfig,
    RAT.CDMA1X: Cdma1xCellConfig,
}

#: Union alias used in type hints.
LegacyCellConfig = UmtsCellConfig | GsmCellConfig | EvdoCellConfig | Cdma1xCellConfig


def validate_legacy(config: LegacyCellConfig, rat: RAT) -> list[str]:
    """Domain-check a legacy config against its RAT's registry."""
    return domain_violations(rat, config.parameter_samples())
