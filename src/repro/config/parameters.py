"""Registry of standardized handoff configuration parameters.

The paper's measurement space covers "66 parameters for a single 4G LTE
cell and 91 parameters for four 3G/2G RATs" (Section 1, Table 4; the 91
split as 64 UMTS + 9 GSM + 14 EVDO + 4 CDMA1x).  This module enumerates
all of them with the metadata Table 2 reports per parameter: the
category, what procedure it is used for, and which message carries it.

The registry is the single source of truth shared by the configuration
structures (``repro.config.lte`` / ``legacy``), the message codec, the
profile generators and the analysis code — so a parameter name appearing
in a dataset sample is guaranteed to resolve to a spec here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cellnet.rat import RAT
from repro.config import units
from repro.config.units import Domain
from repro.util import field_names


@dataclass(frozen=True)
class ParameterSpec:
    """Metadata of one standardized configuration parameter.

    Attributes:
        name: Canonical snake_case parameter name (unique per RAT).
        rat: RAT whose cells carry the parameter.
        category: Table 2 grouping: "cell_priority", "radio_signal",
            "timer" or "misc".
        used_for: Procedure(s) the parameter drives: subset of
            {"measurement", "reporting", "decision", "calibration"}.
        message: Signaling message that carries it ("SIB3", "SIB5",
            "meas_config", ...).
        domain: Value domain for validation and quantization.
        paper_symbol: Symbol used in the paper's tables, if any.
    """

    name: str
    rat: RAT
    category: str
    used_for: tuple[str, ...]
    message: str
    domain: Domain
    paper_symbol: str = ""


def samples_from_fields(config) -> list[tuple[str, object]]:
    """A flat config dataclass as (field name, value) samples, in field
    order: the configs whose field names are their registry names.
    Tuple values become lists."""
    samples: list[tuple[str, object]] = []
    for name in field_names(type(config)):
        value = getattr(config, name)
        samples.append((name, list(value) if isinstance(value, tuple) else value))
    return samples


def _lte(name, category, used_for, message, domain, symbol=""):
    return ParameterSpec(name, RAT.LTE, category, tuple(used_for), message, domain, symbol)


# --------------------------------------------------------------------------
# 4G LTE: 40 idle-state (SIB) + 26 active-state (measConfig) = 66.
# --------------------------------------------------------------------------

_LTE_IDLE = [
    # SIB3 — serving cell / common reselection (12).
    _lte("q_hyst", "radio_signal", ["decision"], "SIB3", units.HYSTERESIS_DB, "Hs"),
    _lte("s_intra_search_p", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB, "Theta_intra_rsrp"),
    _lte("s_intra_search_q", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB, "Theta_intra_rsrq"),
    _lte("s_non_intra_search_p", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB, "Theta_nonintra_rsrp"),
    _lte("s_non_intra_search_q", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB, "Theta_nonintra_rsrq"),
    _lte("thresh_serving_low_p", "radio_signal", ["decision"], "SIB3", units.RELATIVE_DB, "Theta_s_lower_rsrp"),
    _lte("thresh_serving_low_q", "radio_signal", ["decision"], "SIB3", units.RELATIVE_DB, "Theta_s_lower_rsrq"),
    _lte("cell_reselection_priority", "cell_priority", ["measurement", "decision"], "SIB3", units.PRIORITY, "Ps"),
    _lte("q_rx_lev_min", "radio_signal", ["calibration"], "SIB3", units.DBM_THRESHOLD, "Delta_min_rsrp"),
    _lte("q_qual_min", "radio_signal", ["calibration"], "SIB3", units.DB_QUALITY_THRESHOLD, "Delta_min_rsrq"),
    _lte("p_max", "misc", ["calibration"], "SIB3", units.POWER_DBM),
    _lte("t_reselection_eutra", "timer", ["decision"], "SIB3", units.T_RESELECTION_S, "T_reselect"),
    # SIB4 — intra-frequency neighbors (2).
    _lte("q_offset_cell", "radio_signal", ["decision"], "SIB4", units.OFFSET_DB, "Delta_cell"),
    _lte("intra_freq_black_cell_list", "misc", ["measurement"], "SIB4", units.CELL_LIST, "List_forbid"),
    # SIB5 — inter-frequency layers (9).
    _lte("dl_carrier_freq", "misc", ["measurement"], "SIB5", units.CHANNEL_NUMBER, "Freq_interest"),
    _lte("q_offset_freq", "radio_signal", ["decision"], "SIB5", units.OFFSET_DB, "Delta_freq"),
    _lte("cell_reselection_priority_inter", "cell_priority", ["measurement", "decision"], "SIB5", units.PRIORITY, "Pc"),
    _lte("thresh_x_high_p", "radio_signal", ["decision"], "SIB5", units.RELATIVE_DB, "Theta_c_higher"),
    _lte("thresh_x_low_p", "radio_signal", ["decision"], "SIB5", units.RELATIVE_DB, "Theta_c_lower"),
    _lte("q_rx_lev_min_inter", "radio_signal", ["calibration"], "SIB5", units.DBM_THRESHOLD),
    _lte("p_max_inter", "misc", ["calibration"], "SIB5", units.POWER_DBM),
    _lte("t_reselection_eutra_inter", "timer", ["decision"], "SIB5", units.T_RESELECTION_S),
    _lte("allowed_meas_bandwidth", "misc", ["measurement"], "SIB5", units.BANDWIDTH_PRB, "meas_bandwidth"),
    # SIB6 — inter-RAT UTRA (6).
    _lte("carrier_freq_utra", "misc", ["measurement"], "SIB6", units.CHANNEL_NUMBER),
    _lte("cell_reselection_priority_utra", "cell_priority", ["measurement", "decision"], "SIB6", units.PRIORITY),
    _lte("thresh_x_high_utra", "radio_signal", ["decision"], "SIB6", units.RELATIVE_DB),
    _lte("thresh_x_low_utra", "radio_signal", ["decision"], "SIB6", units.RELATIVE_DB),
    _lte("q_rx_lev_min_utra", "radio_signal", ["calibration"], "SIB6", units.DBM_THRESHOLD),
    _lte("t_reselection_utra", "timer", ["decision"], "SIB6", units.T_RESELECTION_S),
    # SIB7 — inter-RAT GERAN (6).
    _lte("carrier_freqs_geran", "misc", ["measurement"], "SIB7", units.CELL_LIST),
    _lte("cell_reselection_priority_geran", "cell_priority", ["measurement", "decision"], "SIB7", units.PRIORITY),
    _lte("thresh_x_high_geran", "radio_signal", ["decision"], "SIB7", units.RELATIVE_DB),
    _lte("thresh_x_low_geran", "radio_signal", ["decision"], "SIB7", units.RELATIVE_DB),
    _lte("q_rx_lev_min_geran", "radio_signal", ["calibration"], "SIB7", units.DBM_THRESHOLD),
    _lte("t_reselection_geran", "timer", ["decision"], "SIB7", units.T_RESELECTION_S),
    # SIB8 — inter-RAT CDMA2000 (5).
    _lte("band_class_cdma", "misc", ["measurement"], "SIB8", units.CHANNEL_NUMBER),
    _lte("cell_reselection_priority_cdma", "cell_priority", ["measurement", "decision"], "SIB8", units.PRIORITY),
    _lte("thresh_x_high_cdma", "radio_signal", ["decision"], "SIB8", units.RELATIVE_DB),
    _lte("thresh_x_low_cdma", "radio_signal", ["decision"], "SIB8", units.RELATIVE_DB),
    _lte("t_reselection_cdma", "timer", ["decision"], "SIB8", units.T_RESELECTION_S),
]

_LTE_CONNECTED = [
    # Event A1 (3): serving becomes better than threshold.
    _lte("a1_threshold", "radio_signal", ["reporting"], "meas_config", units.METRIC_THRESHOLD, "Theta_A1"),
    _lte("a1_hysteresis", "radio_signal", ["reporting"], "meas_config", units.HYSTERESIS_DB, "H_A1"),
    _lte("a1_time_to_trigger", "timer", ["reporting"], "meas_config", units.TTT_MS),
    # Event A2 (3): serving becomes worse than threshold.
    _lte("a2_threshold", "radio_signal", ["reporting"], "meas_config", units.METRIC_THRESHOLD, "Theta_A2"),
    _lte("a2_hysteresis", "radio_signal", ["reporting"], "meas_config", units.HYSTERESIS_DB, "H_A2"),
    _lte("a2_time_to_trigger", "timer", ["reporting"], "meas_config", units.TTT_MS),
    # Event A3 (3): neighbor becomes offset better than serving.
    _lte("a3_offset", "radio_signal", ["reporting"], "meas_config", units.OFFSET_DB, "Delta_A3"),
    _lte("a3_hysteresis", "radio_signal", ["reporting"], "meas_config", units.HYSTERESIS_DB, "H_A3"),
    _lte("a3_time_to_trigger", "timer", ["reporting"], "meas_config", units.TTT_MS, "T_reportTrigger"),
    # Event A4 (3): neighbor becomes better than threshold.
    _lte("a4_threshold", "radio_signal", ["reporting"], "meas_config", units.METRIC_THRESHOLD, "Theta_A4"),
    _lte("a4_hysteresis", "radio_signal", ["reporting"], "meas_config", units.HYSTERESIS_DB, "H_A4"),
    _lte("a4_time_to_trigger", "timer", ["reporting"], "meas_config", units.TTT_MS),
    # Event A5 (4): serving worse than t1 and neighbor better than t2.
    _lte("a5_threshold1", "radio_signal", ["reporting"], "meas_config", units.METRIC_THRESHOLD, "Theta_A5_S"),
    _lte("a5_threshold2", "radio_signal", ["reporting"], "meas_config", units.METRIC_THRESHOLD, "Theta_A5_C"),
    _lte("a5_hysteresis", "radio_signal", ["reporting"], "meas_config", units.HYSTERESIS_DB, "H_A5"),
    _lte("a5_time_to_trigger", "timer", ["reporting"], "meas_config", units.TTT_MS),
    # Event B1 (3): inter-RAT neighbor better than threshold.
    _lte("b1_threshold", "radio_signal", ["reporting"], "meas_config", units.METRIC_THRESHOLD, "Theta_B1"),
    _lte("b1_hysteresis", "radio_signal", ["reporting"], "meas_config", units.HYSTERESIS_DB, "H_B1"),
    _lte("b1_time_to_trigger", "timer", ["reporting"], "meas_config", units.TTT_MS),
    # Event B2 (4): serving worse than t1 and inter-RAT neighbor better than t2.
    _lte("b2_threshold1", "radio_signal", ["reporting"], "meas_config", units.METRIC_THRESHOLD, "Theta_B2_S"),
    _lte("b2_threshold2", "radio_signal", ["reporting"], "meas_config", units.METRIC_THRESHOLD, "Theta_B2_C"),
    _lte("b2_hysteresis", "radio_signal", ["reporting"], "meas_config", units.HYSTERESIS_DB, "H_B2"),
    _lte("b2_time_to_trigger", "timer", ["reporting"], "meas_config", units.TTT_MS),
    # Common reporting configuration (3).
    _lte("report_interval", "timer", ["reporting"], "meas_config", units.REPORT_INTERVAL, "T_reportInterval"),
    _lte("report_amount", "misc", ["reporting"], "meas_config", units.REPORT_AMOUNT_DOMAIN),
    _lte("s_measure", "radio_signal", ["measurement"], "meas_config", units.DBM_THRESHOLD),
]


def _umts(name, category, used_for, message, domain, symbol=""):
    return ParameterSpec(name, RAT.UMTS, category, tuple(used_for), message, domain, symbol)


# --------------------------------------------------------------------------
# 3G UMTS: 28 idle + 36 connected = 64.
# --------------------------------------------------------------------------

_UMTS_IDLE = [
    _umts("q_hyst_1s", "radio_signal", ["decision"], "SIB3", units.HYSTERESIS_DB),
    _umts("q_hyst_2s", "radio_signal", ["decision"], "SIB3", units.HYSTERESIS_DB),
    _umts("s_intrasearch", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB),
    _umts("s_intersearch", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB),
    _umts("s_search_hcs", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB),
    _umts("s_search_rat", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB),
    _umts("s_hcs_rat", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB),
    _umts("s_limit_search_rat", "radio_signal", ["measurement"], "SIB3", units.RELATIVE_DB),
    _umts("q_rxlevmin", "radio_signal", ["calibration"], "SIB3", units.DBM_THRESHOLD),
    _umts("q_qualmin", "radio_signal", ["calibration"], "SIB3", units.DB_QUALITY_THRESHOLD),
    _umts("t_reselection_s", "timer", ["decision"], "SIB3", units.T_RESELECTION_S),
    _umts("max_allowed_ul_tx_power", "misc", ["calibration"], "SIB3", units.POWER_DBM),
    _umts("q_offset_s_n_1", "radio_signal", ["decision"], "SIB11", units.OFFSET_DB),
    _umts("q_offset_s_n_2", "radio_signal", ["decision"], "SIB11", units.OFFSET_DB),
    _umts("inter_freq_carrier_list", "misc", ["measurement"], "SIB11", units.CELL_LIST),
    _umts("inter_rat_cell_list", "misc", ["measurement"], "SIB11", units.CELL_LIST),
    _umts("hcs_prio", "cell_priority", ["decision"], "SIB11", units.PRIORITY),
    _umts("q_hcs", "radio_signal", ["decision"], "SIB11", units.RELATIVE_DB),
    _umts("penalty_time", "timer", ["decision"], "SIB11", units.T_RESELECTION_S),
    _umts("temporary_offset", "radio_signal", ["decision"], "SIB11", units.OFFSET_DB),
    _umts("priority_eutra", "cell_priority", ["measurement", "decision"], "SIB19", units.PRIORITY),
    _umts("thresh_high_eutra", "radio_signal", ["decision"], "SIB19", units.RELATIVE_DB),
    _umts("thresh_low_eutra", "radio_signal", ["decision"], "SIB19", units.RELATIVE_DB),
    _umts("priority_serving", "cell_priority", ["measurement", "decision"], "SIB19", units.PRIORITY),
    _umts("thresh_serving_low", "radio_signal", ["decision"], "SIB19", units.RELATIVE_DB),
    _umts("t_reselection_eutra", "timer", ["decision"], "SIB19", units.T_RESELECTION_S),
    _umts("eutra_freq_list", "misc", ["measurement"], "SIB19", units.CELL_LIST),
    _umts("q_rxlevmin_eutra", "radio_signal", ["calibration"], "SIB19", units.DBM_THRESHOLD),
]

_UMTS_CONNECTED = [
    # Intra-frequency events 1a-1f (20).
    _umts("e1a_reporting_range", "radio_signal", ["reporting"], "meas_control", units.REPORTING_RANGE_DB),
    _umts("e1a_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e1a_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    _umts("e1a_weighting", "misc", ["reporting"], "meas_control", units.OFFSET_DB),
    _umts("e1b_reporting_range", "radio_signal", ["reporting"], "meas_control", units.REPORTING_RANGE_DB),
    _umts("e1b_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e1b_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    _umts("e1b_weighting", "misc", ["reporting"], "meas_control", units.OFFSET_DB),
    _umts("e1c_replacement_threshold", "radio_signal", ["reporting"], "meas_control", units.DBM_THRESHOLD),
    _umts("e1c_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e1c_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    _umts("e1d_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e1d_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    _umts("e1e_threshold", "radio_signal", ["reporting"], "meas_control", units.DBM_THRESHOLD),
    _umts("e1e_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e1e_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    _umts("e1f_threshold", "radio_signal", ["reporting"], "meas_control", units.DBM_THRESHOLD),
    _umts("e1f_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e1f_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    _umts("intra_freq_filter_coefficient", "misc", ["measurement"], "meas_control", units.PRIORITY),
    # Inter-frequency events 2b/2d/2f (10).
    _umts("e2b_threshold_used", "radio_signal", ["reporting"], "meas_control", units.DBM_THRESHOLD),
    _umts("e2b_threshold_non_used", "radio_signal", ["reporting"], "meas_control", units.DBM_THRESHOLD),
    _umts("e2b_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e2b_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    _umts("e2d_threshold_used", "radio_signal", ["reporting"], "meas_control", units.DBM_THRESHOLD),
    _umts("e2d_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e2d_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    _umts("e2f_threshold_used", "radio_signal", ["reporting"], "meas_control", units.DBM_THRESHOLD),
    _umts("e2f_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e2f_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    # Inter-RAT event 3a + measurement control (6).
    _umts("e3a_threshold_own", "radio_signal", ["reporting"], "meas_control", units.DBM_THRESHOLD),
    _umts("e3a_threshold_other", "radio_signal", ["reporting"], "meas_control", units.DBM_THRESHOLD),
    _umts("e3a_hysteresis", "radio_signal", ["reporting"], "meas_control", units.HYSTERESIS_DB),
    _umts("e3a_time_to_trigger", "timer", ["reporting"], "meas_control", units.TTT_MS),
    _umts("measurement_quantity", "misc", ["measurement"], "meas_control", Domain("enum", choices=("rscp", "ecno"))),
    _umts("inter_rat_filter_coefficient", "misc", ["measurement"], "meas_control", units.PRIORITY),
]


def _gsm(name, category, used_for, message, domain, symbol=""):
    return ParameterSpec(name, RAT.GSM, category, tuple(used_for), message, domain, symbol)


# --------------------------------------------------------------------------
# 2G GSM: 9 parameters (SI3/SI4 cell reselection, C1/C2 criteria).
# --------------------------------------------------------------------------

_GSM_PARAMS = [
    _gsm("cell_reselect_hysteresis", "radio_signal", ["decision"], "SI3", units.HYSTERESIS_DB),
    _gsm("rxlev_access_min", "radio_signal", ["calibration"], "SI3", units.DBM_THRESHOLD),
    _gsm("ms_txpwr_max_cch", "misc", ["calibration"], "SI3", units.POWER_DBM),
    _gsm("cell_reselect_offset", "radio_signal", ["decision"], "SI4", units.OFFSET_DB),
    _gsm("temporary_offset", "radio_signal", ["decision"], "SI4", units.OFFSET_DB),
    _gsm("penalty_time", "timer", ["decision"], "SI4", units.T_RESELECTION_S),
    _gsm("cell_bar_qualify", "misc", ["decision"], "SI4", Domain("enum", choices=(0, 1))),
    _gsm("c2_enabled", "misc", ["decision"], "SI4", Domain("enum", choices=(0, 1))),
    _gsm("multiband_reporting", "misc", ["measurement"], "SI4", Domain("enum", choices=(0, 1, 2, 3))),
]


def _evdo(name, category, used_for, message, domain, symbol=""):
    return ParameterSpec(name, RAT.EVDO, category, tuple(used_for), message, domain, symbol)


# --------------------------------------------------------------------------
# 3G EVDO: 14 parameters (pilot-set management / route update).
# --------------------------------------------------------------------------

_EVDO_PARAMS = [
    _evdo("pilot_add", "radio_signal", ["measurement", "decision"], "sector_params", units.OFFSET_DB),
    _evdo("pilot_drop", "radio_signal", ["decision"], "sector_params", units.OFFSET_DB),
    _evdo("pilot_drop_timer", "timer", ["decision"], "sector_params", units.T_RESELECTION_S),
    _evdo("pilot_compare", "radio_signal", ["decision"], "sector_params", units.OFFSET_DB),
    _evdo("active_set_max", "misc", ["decision"], "sector_params", Domain("int", low=1, high=6, step=1)),
    _evdo("neighbor_max_age", "timer", ["measurement"], "sector_params", units.T_RESELECTION_S),
    _evdo("search_window_active", "misc", ["measurement"], "sector_params", Domain("int", low=0, high=15, step=1)),
    _evdo("search_window_neighbor", "misc", ["measurement"], "sector_params", Domain("int", low=0, high=15, step=1)),
    _evdo("search_window_remaining", "misc", ["measurement"], "sector_params", Domain("int", low=0, high=15, step=1)),
    _evdo("soft_slope", "radio_signal", ["decision"], "sector_params", units.OFFSET_DB),
    _evdo("add_intercept", "radio_signal", ["decision"], "sector_params", units.OFFSET_DB),
    _evdo("drop_intercept", "radio_signal", ["decision"], "sector_params", units.OFFSET_DB),
    _evdo("idle_handoff_threshold", "radio_signal", ["decision"], "sector_params", units.OFFSET_DB),
    _evdo("route_update_radius", "misc", ["decision"], "sector_params", Domain("int", low=0, high=2047, step=1)),
]


def _cdma(name, category, used_for, message, domain, symbol=""):
    return ParameterSpec(name, RAT.CDMA1X, category, tuple(used_for), message, domain, symbol)


# --------------------------------------------------------------------------
# 2G CDMA1x: 4 parameters (classic pilot thresholds).
# --------------------------------------------------------------------------

_CDMA1X_PARAMS = [
    _cdma("t_add", "radio_signal", ["measurement", "decision"], "sys_params", units.OFFSET_DB),
    _cdma("t_drop", "radio_signal", ["decision"], "sys_params", units.OFFSET_DB),
    _cdma("t_comp", "radio_signal", ["decision"], "sys_params", units.OFFSET_DB),
    _cdma("t_tdrop", "timer", ["decision"], "sys_params", units.T_RESELECTION_S),
]

#: The full registry keyed by RAT; counts mirror the paper's Table 4.
REGISTRY: dict[RAT, tuple[ParameterSpec, ...]] = {
    RAT.LTE: tuple(_LTE_IDLE + _LTE_CONNECTED),
    RAT.UMTS: tuple(_UMTS_IDLE + _UMTS_CONNECTED),
    RAT.GSM: tuple(_GSM_PARAMS),
    RAT.EVDO: tuple(_EVDO_PARAMS),
    RAT.CDMA1X: tuple(_CDMA1X_PARAMS),
}

_EXPECTED_COUNTS = {RAT.LTE: 66, RAT.UMTS: 64, RAT.GSM: 9, RAT.EVDO: 14, RAT.CDMA1X: 4}
for _rat, _expected in _EXPECTED_COUNTS.items():
    _actual = len(REGISTRY[_rat])
    if _actual != _expected:
        raise AssertionError(
            f"{_rat.value} registry has {_actual} parameters, paper says {_expected}"
        )
    _names = [s.name for s in REGISTRY[_rat]]
    if len(set(_names)) != len(_names):
        raise AssertionError(f"duplicate parameter names in {_rat.value} registry")


#: ``{name: spec}`` per RAT; exact since the check above rejects duplicates.
_BY_NAME = {rat: {spec.name: spec for spec in specs} for rat, specs in REGISTRY.items()}


def parameters_for(rat: RAT) -> tuple[ParameterSpec, ...]:
    """All parameter specs of one RAT."""
    return REGISTRY[rat]


def parameter_count(rat: RAT) -> int:
    """Number of standardized parameters for a cell of ``rat``."""
    return len(REGISTRY[rat])


def spec_by_name(rat: RAT, name: str) -> ParameterSpec:
    """Resolve a parameter name within one RAT's registry.

    Raises:
        KeyError: If the name is not in the registry.
    """
    table = _BY_NAME[rat]
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"unknown {rat.value} parameter {name!r}") from None


def domain_violations(rat: RAT, samples: list[tuple[str, object]]) -> list[str]:
    """Domain-check (name, value) samples against ``rat``'s registry.

    The one check loop of :meth:`repro.config.lte.LteCellConfig.validate`
    and :func:`repro.config.legacy.validate_legacy`; returns one
    description per value outside its parameter's domain.

    Raises:
        KeyError: If a name is not in the registry.
    """
    table = _BY_NAME[rat]
    problems = []
    for name, value in samples:
        spec = table.get(name) or spec_by_name(rat, name)  # raises if unknown
        if not spec.domain.contains(value):
            problems.append(f"{name}={value!r} outside domain")
    return problems


def idle_state_parameters(rat: RAT) -> tuple[ParameterSpec, ...]:
    """Parameters broadcast in SIBs (idle-state handoff configuration)."""
    return tuple(s for s in REGISTRY[rat] if s.message not in ("meas_config", "meas_control"))


def active_state_parameters(rat: RAT) -> tuple[ParameterSpec, ...]:
    """Parameters sent in dedicated signaling (active-state handoffs)."""
    return tuple(s for s in REGISTRY[rat] if s.message in ("meas_config", "meas_control"))
