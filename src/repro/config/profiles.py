"""Per-carrier configuration policy profiles.

The paper's central empirical object is the *population* of configuration
values each carrier deploys.  Real values came from crawled SIBs; here a
:class:`CarrierProfile` generates a synthetic population calibrated to
every marginal the paper reports:

* decisive-event policy mix per carrier (Fig. 5: AT&T A3 67.4% / A5
  26.1% / P 4.4% / A2 1.7%; T-Mobile A3 67.7% / P 20.2% / A5 10.0%),
* parameter value ranges and dominant values (Fig. 14/15: AT&T
  Delta_A3 in [0,5] dominated by 3 dB, T-Mobile in [-1,15] dominated by
  3/4/5 dB; A5 thresholds with the permissive -44 dBm serving threshold
  that Section 4.1 dissects; q_rx_lev_min almost single-valued at -122),
* per-carrier diversity tiers (Fig. 17: SK Telecom single-valued,
  MobileOne low, the rest high),
* frequency dependence of priorities with rare multi-valued channels
  (Fig. 18: ~6.3% of AT&T cells; band 30 / channel 9820 on top),
* city dependence (Fig. 20: Chicago differs) and proximity behaviour
  (Fig. 21: T-Mobile configures per (city, channel) — zero spatial
  diversity; AT&T/Verizon/Sprint fine-tune per cell),
* temporal dynamics (Fig. 13: idle-state parameters update rarely,
  active-state measConfig varies across observations).

Profiles are pure functions of (seed, carrier, cell, context): the same
cell always gets the same base configuration, which is what makes the
datasets reproducible and the temporal analysis meaningful.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.cellnet.cell import Cell
from repro.cellnet.rat import RAT
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
from repro.config.units import nearest_time_to_trigger
from repro.util import stable_hash


@dataclass(frozen=True)
class ConfigContext:
    """Deployment context a profile needs to configure one cell.

    Attributes:
        city: City the cell is in (city-dependent policies key on this).
        lte_channels: Other LTE channels of this carrier in the area —
            they become SIB5 inter-freq layers.
        utra_channels: 3G channels for SIB6.
        geran_channels: 2G GSM channels for SIB7.
        cdma_bands: CDMA band classes for SIB8.
    """

    city: str = ""
    lte_channels: tuple[int, ...] = ()
    utra_channels: tuple[int, ...] = ()
    geran_channels: tuple[int, ...] = ()
    cdma_bands: tuple[int, ...] = ()


@functools.lru_cache(maxsize=1024)
def _cdf(weights: tuple[float, ...]) -> tuple[float, ...]:
    """The CDF ``Generator.choice`` searches for these weights.

    Computed with choice's own ops on the same normalized ``p``
    (``cumsum``, then ``cdf /= cdf[-1]``).  A throwaway generator runs
    choice once first, so a NaN, negative, all-zero or empty table
    raises the ``ValueError`` choice raises.
    """
    p = np.array(weights, dtype=float)
    p /= p.sum()
    np.random.default_rng(0).choice(len(p), p=p)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


class DrawTable(NamedTuple):
    """A {value: weight} table built for :func:`_draw`."""

    #: The table's keys, in its order and with their own types.
    values: tuple[Any, ...]
    #: The CDF ``Generator.choice`` searches for the table's weights.
    cdf: tuple[float, ...]


def _table(weights: dict) -> DrawTable:
    """Build a {value: weight} table once, for every later draw from it.

    The CDF comes from :func:`_cdf` (cached by the weight sequence
    alone), so an invalid table raises choice's ``ValueError`` here.
    The values are the table's own keys, so tables whose keys compare
    equal across types (``1`` and ``1.0``) share a CDF, never a value.
    """
    return DrawTable(tuple(weights), _cdf(tuple(weights.values())))


#: Doubles a :class:`_DoubleReader` takes from its generator at a time.
_BLOCK = 16


class _DoubleReader:
    """The uniform doubles of one private generator, read in blocks.

    ``Generator.random(16)`` fills its block by calling ``next_double``
    16 times in order, so :meth:`random` returns exactly the doubles
    that successive ``Generator.random()`` calls would, for much less
    than a numpy call each.  The block reads ahead of what was used,
    which is sound only for a generator private to one generation call
    and asked for nothing but uniform doubles.  The reader has no other
    method, so any other kind of draw fails instead of drifting off the
    stream: such a draw needs a real ``Generator``.
    """

    __slots__ = ("_generator", "_block")

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator
        #: The unread rest of the current block, last-drawn-first.
        self._block: list[float] = []

    def random(self) -> float:
        """The stream's next uniform double in [0, 1)."""
        try:
            return self._block.pop()
        except IndexError:
            block = self._generator.random(_BLOCK).tolist()
            block.reverse()
            self._block = block
            return block.pop()


def _draw(rng: _DoubleReader, table: DrawTable) -> Any:
    """Weighted draw from a built table.

    Stream-identical to ``values[rng.choice(len(values), p=weights)]``:
    choice's single-sample path draws one ``rng.random()`` double and
    takes ``searchsorted(side="right")`` in the CDF, which is
    ``bisect_right`` here.
    """
    values, cdf = table
    return values[bisect_right(cdf, rng.random())]


#: Every measConfig's A2 (radio-problem detector) trigger time.
_A2_TIME_TO_TRIGGER_MS = nearest_time_to_trigger(640)

# Fixed tables of the LTE generators (carrier styles hold the rest).
_A2_RSRP_THRESHOLD = _table({-114.0: 4, -112.0: 2, -116.0: 2, -118.0: 1})
_A5_TIME_TO_TRIGGER = _table({640: 2, 1280: 4, 2560: 2})
_PERIODIC_INTERVAL = _table({2048: 3, 5120: 4, 10240: 1})
_A4_RSRP_THRESHOLD = _table({-104.0: 2, -108.0: 1})
_S_MEASURE = _table({-97.0: 5, -95.0: 2, -103.0: 1, -44.0: 1})
_S_INTRA_SEARCH_Q = _table({8.0: 5, 6.0: 2, 10.0: 1})
_S_NON_INTRA_SEARCH_Q = _table({4.0: 5, 6.0: 2, 2.0: 1})
_THRESH_SERVING_LOW_Q = _table({4.0: 5, 2.0: 2, 6.0: 1})
_Q_QUAL_MIN = _table({-18.0: 6, -19.5: 2, -16.0: 1})
_T_RESELECTION_EUTRA = _table({1: 5, 2: 3, 0: 1})
_LAYER_T_RESELECTION_EUTRA = _table({1: 5, 2: 3})
_ALLOWED_MEAS_BANDWIDTH = _table({50: 5, 100: 3, 25: 1})
_UTRA_PRIORITY = _table({1: 6, 0: 2})
_CDMA_PRIORITY = _table({1: 5, 0: 2})
_Q_OFFSET_CELL = _table({0.0: 8, 1.0: 1, -1.0: 1})

_UMTS_HYSTERESIS = _table({1.0: 4, 0.5: 2, 1.5: 2, 2.0: 1})
_UMTS_TIME_TO_TRIGGER = _table({320: 4, 640: 2, 100: 1, 1280: 1})
#: (field, type, table) of every drawn ``UmtsCellConfig`` parameter, in
#: draw order.
_UMTS_DRAWS: tuple[tuple[str, type, DrawTable], ...] = (
    ("q_hyst_1s", float, _table({4.0: 4, 2.0: 2, 6.0: 1})),
    ("q_hyst_2s", float, _table({4.0: 4, 2.0: 2, 6.0: 1})),
    ("s_intrasearch", float, _table({10.0: 4, 8.0: 2, 12.0: 2, 14.0: 1})),
    ("s_intersearch", float, _table({10.0: 4, 6.0: 2, 12.0: 1})),
    ("s_search_rat", float, _table({4.0: 4, 2.0: 2, 6.0: 1})),
    ("s_limit_search_rat", float, _table({4.0: 4, 6.0: 2, 2.0: 1})),
    ("q_rxlevmin", float, _table({-115.0: 6, -113.0: 2, -111.0: 1})),
    ("t_reselection_s", int, _table({1: 5, 2: 3, 0: 1})),
    ("q_offset_s_n_1", float, _table({0.0: 6, 2.0: 2, -2.0: 1})),
    ("q_offset_s_n_2", float, _table({0.0: 6, 2.0: 2})),
    ("penalty_time", int, _table({0: 5, 2: 2, 4: 1})),
    ("temporary_offset", float, _table({0.0: 6, 3.0: 2})),
    ("priority_eutra", int, _table({5: 5, 6: 2, 4: 2})),
    ("thresh_high_eutra", float, _table({8.0: 4, 12.0: 2, 6.0: 1})),
    ("thresh_low_eutra", float, _table({4.0: 4, 2.0: 2, 0.0: 1})),
    ("priority_serving", int, _table({2: 6, 1: 2, 3: 1})),
    ("thresh_serving_low", float, _table({4.0: 4, 2.0: 2, 6.0: 2, 8.0: 1})),
    ("t_reselection_eutra", int, _table({2: 5, 1: 3})),
    ("e1a_reporting_range", float, _table({4.0: 4, 3.0: 2, 5.0: 2, 6.0: 1})),
    ("e1a_hysteresis", float, _UMTS_HYSTERESIS),
    ("e1a_time_to_trigger", int, _UMTS_TIME_TO_TRIGGER),
    ("e1b_reporting_range", float, _table({6.0: 4, 5.0: 2, 8.0: 1})),
    ("e1b_hysteresis", float, _UMTS_HYSTERESIS),
    ("e1b_time_to_trigger", int, _UMTS_TIME_TO_TRIGGER),
    ("e1c_replacement_threshold", float, _table({-95.0: 4, -93.0: 2, -97.0: 1})),
    ("e1c_time_to_trigger", int, _UMTS_TIME_TO_TRIGGER),
    ("e1d_time_to_trigger", int, _UMTS_TIME_TO_TRIGGER),
    ("e1e_threshold", float, _table({-100.0: 4, -98.0: 2, -102.0: 1})),
    ("e1f_threshold", float, _table({-105.0: 4, -103.0: 2, -107.0: 1})),
    ("intra_freq_filter_coefficient", int, _table({3: 4, 4: 2, 2: 1})),
    ("e2b_threshold_used", float, _table({-100.0: 4, -98.0: 2, -102.0: 1})),
    ("e2b_threshold_non_used", float, _table({-95.0: 4, -93.0: 2})),
    ("e2b_time_to_trigger", int, _UMTS_TIME_TO_TRIGGER),
    ("e2d_threshold_used", float, _table({-103.0: 4, -101.0: 2, -105.0: 1})),
    ("e2d_time_to_trigger", int, _UMTS_TIME_TO_TRIGGER),
    ("e2f_threshold_used", float, _table({-98.0: 4, -96.0: 2})),
    ("e2f_time_to_trigger", int, _UMTS_TIME_TO_TRIGGER),
    ("e3a_threshold_own", float, _table({-102.0: 4, -100.0: 2, -104.0: 1})),
    ("e3a_threshold_other", float, _table({-98.0: 4, -96.0: 2})),
    ("e3a_time_to_trigger", int, _UMTS_TIME_TO_TRIGGER),
)

_GSM_RESELECT_HYSTERESIS = _table({4.0: 4, 6.0: 2, 2.0: 1})
_GSM_RESELECT_OFFSET = _table({0.0: 5, 2.0: 1})
_EVDO_PILOT_ADD = _table({-7.0: 5, -6.5: 1, -7.5: 1})
_EVDO_PILOT_DROP = _table({-9.0: 5, -8.5: 1})
_CDMA1X_T_ADD = _table({-7.0: 5, -6.5: 1})


@dataclass(frozen=True)
class CarrierStyle:
    """Knobs describing one carrier's configuration habits.

    ``diversity`` scales how many alternative values dispersed
    parameters take: "high" carriers use the full tables below, "low"
    carriers collapse most tables to their dominant value, and "none"
    (SK Telecom) is single-valued everywhere.
    """

    event_policy: dict = field(default_factory=lambda: {"A3": 0.65, "A5": 0.2, "P": 0.1, "A2": 0.04, "A1": 0.005, "A4": 0.005})
    a3_offsets: dict = field(default_factory=lambda: {0.0: 1, 1.0: 2, 2.0: 3, 3.0: 10, 4.0: 3, 5.0: 2})
    a3_hysteresis: dict = field(default_factory=lambda: {1.0: 5, 1.5: 2, 2.0: 2, 2.5: 1})
    a5_rsrq_share: float = 0.0
    a5_serving_rsrp: dict = field(default_factory=lambda: {-44.0: 6, -118.0: 2, -121.0: 1, -110.0: 1})
    a5_candidate_rsrp: dict = field(default_factory=lambda: {-114.0: 6, -118.0: 2, -112.0: 1, -101.0: 1})
    a5_serving_rsrq: dict = field(default_factory=lambda: {-11.5: 3, -14.0: 2, -16.0: 2, -18.0: 1})
    a5_candidate_rsrq: dict = field(default_factory=lambda: {-14.0: 3, -15.0: 2, -16.5: 2, -18.5: 1})
    time_to_trigger: dict = field(default_factory=lambda: {40: 2, 80: 2, 128: 2, 256: 1, 320: 3, 480: 1, 640: 3, 1280: 2})
    q_hyst: dict = field(default_factory=lambda: {4.0: 1})
    q_rx_lev_min: dict = field(default_factory=lambda: {-122.0: 400, -124.0: 1, -120.0: 1, -94.0: 1})
    s_intra_search: dict = field(default_factory=lambda: {62.0: 10, 60.0: 2, 58.0: 1, 50.0: 1, 46.0: 1})
    s_non_intra_search: dict = field(default_factory=lambda: (
        dict.fromkeys((0.0, 2.0, 4.0, 6.0, 10.0, 12.0, 14.0, 16.0), 1.0)
        | dict.fromkeys((18.0, 20.0, 22.0, 24.0, 26.0, 30.0, 34.0, 38.0, 42.0, 46.0, 62.0), 0.3)
        | {8.0: 8.0, 28.0: 4.0}
    ))
    thresh_serving_low: dict = field(default_factory=lambda: (
        dict.fromkeys((0.0, 2.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0, 30.0), 1.0)
        | {4.0: 6.0, 6.0: 7.0}
    ))
    thresh_x_high: dict = field(default_factory=lambda: {26.0: 4, 30.0: 3, 22.0: 2, 34.0: 1, 20.0: 1})
    thresh_x_low: dict = field(default_factory=lambda: {0.0: 3, 2.0: 3, 4.0: 2, 8.0: 1, 12.0: 1})
    q_offset_freq: dict = field(default_factory=lambda: {0.0: 8, 2.0: 1, -2.0: 1})
    diversity: str = "high"
    #: "cell" = per-cell fine-tuning (nonzero proximity diversity);
    #: "grid" = config keyed on (city, channel) only (T-Mobile's habit).
    spatial_mode: str = "cell"
    #: Probability that one observation of the measConfig differs from
    #: the base (active-state temporal dynamics, Fig. 13b: ~21-24% of
    #: cells observed with changed active-state configuration).
    active_churn: float = 0.12
    #: Per-180-days probability that idle-state SIB parameters change
    #: (Fig. 13b: 0.4-1.6% of cells).
    idle_churn_180d: float = 0.018
    #: Fraction of cells whose channel carries a second priority value
    #: (the inconsistent settings behind priority loops, Section 5.4.1;
    #: together with the market-dependent channels this lands near the
    #: paper's 6.3% multi-valued-cell share).
    priority_conflict_rate: float = 0.03


def _restyled(
    style: CarrierStyle, table: Callable[[dict], dict], **overrides: Any
) -> CarrierStyle:
    """``style`` with ``table`` applied to each of its {value: weight}
    tables, then the named ``overrides``."""
    tables: dict[str, Any] = {
        f.name: table(getattr(style, f.name))
        for f in fields(style)
        if isinstance(getattr(style, f.name), dict)
    }
    return replace(style, **{**tables, **overrides})


def _single_valued(style: CarrierStyle) -> CarrierStyle:
    """Collapse every table of ``style`` to its dominant value."""

    def dominant(table: dict) -> dict:
        return {max(table, key=table.get): 1.0}

    return _restyled(
        style, dominant, event_policy={"A3": 1.0}, a5_rsrq_share=0.0,
        diversity="none", spatial_mode="grid", active_churn=0.0,
        idle_churn_180d=0.0, priority_conflict_rate=0.0,
    )


def _reduced(style: CarrierStyle, keep: int = 3) -> CarrierStyle:
    """Trim every table of ``style`` to its ``keep`` heaviest values."""

    def trim(table: dict) -> dict:
        return {v: table[v] for v in sorted(table, key=table.get, reverse=True)[:keep]}

    return _restyled(
        style, trim, diversity="low", spatial_mode="grid", active_churn=0.05,
        idle_churn_180d=0.004, priority_conflict_rate=0.01,
    )


_BASE_STYLE = CarrierStyle()

#: The style every carrier missing from :data:`CARRIER_STYLES` shares:
#: the base tables trimmed to their four heaviest values.
_GENERIC_STYLE = _reduced(_BASE_STYLE, keep=4)

#: Carrier-specific styles.  Unlisted carriers get :data:`_GENERIC_STYLE`.
CARRIER_STYLES: dict[str, CarrierStyle] = {
    # AT&T: the paper's reference carrier.  Delta_A3 in [0, 5] dominated
    # by 3 dB; A5 split between RSRP and RSRQ with the permissive
    # (-44, -114) RSRP pair dominant; wide TTT dispersion.
    # The event_policy table is the *cell-level* arming mix; it is set
    # so the resulting handoff-instance mix lands on Fig. 5a's shares
    # (A3 67.4% / A5 26.1% / P 4.4%) — A5 and periodic policies fire
    # more handoffs per armed cell than A3 does, so their cell shares
    # sit below their instance shares.
    "A": CarrierStyle(
        event_policy={"A3": 0.755, "A5": 0.20, "P": 0.02, "A2": 0.019, "A1": 0.003, "A4": 0.003},
        a3_offsets={0.0: 1, 1.0: 1, 2.0: 2, 3.0: 12, 4.0: 3, 5.0: 2},
        a3_hysteresis={1.0: 5, 1.5: 2, 2.0: 2, 2.5: 1},
        a5_rsrq_share=0.48,
        a5_serving_rsrp={-44.0: 7, -118.0: 2, -121.0: 1},
        a5_candidate_rsrp={-114.0: 8, -118.0: 1, -112.0: 1},
        a5_serving_rsrq={-11.5: 4, -14.0: 2, -16.0: 2, -18.0: 1},
        a5_candidate_rsrq={-14.0: 4, -15.5: 2, -16.5: 2, -18.5: 1},
        spatial_mode="cell",
    ),
    # T-Mobile: wider, occasionally negative A3 offsets; RSRP-only A5
    # with strict serving thresholds; grid-granularity configuration
    # (near-zero proximity diversity, Fig. 21).
    "T": CarrierStyle(
        event_policy={"A3": 0.677, "P": 0.202, "A5": 0.100, "A2": 0.014, "A1": 0.004, "A4": 0.003},
        a3_offsets={-1.0: 1, 0.0: 1, 1.0: 2, 2.0: 3, 3.0: 10, 4.0: 9, 5.0: 8, 6.0: 3, 8.0: 2, 10.0: 1, 12.0: 1, 15.0: 1},
        a3_hysteresis={0.0: 2, 1.0: 10, 2.0: 3, 3.0: 1, 4.0: 1, 5.0: 1},
        a5_rsrq_share=0.05,
        a5_serving_rsrp={-87.0: 3, -95.0: 2, -105.0: 2, -112.0: 2, -121.0: 3},
        a5_candidate_rsrp={-101.0: 3, -108.0: 3, -112.0: 2, -118.0: 2},
        spatial_mode="grid",
    ),
    # Verizon / Sprint: CDMA-family carriers with per-cell fine-tuning.
    "V": CarrierStyle(spatial_mode="cell"),
    "S": CarrierStyle(spatial_mode="cell"),
    # China Mobile: diverse, TDD-heavy.
    "CM": CarrierStyle(spatial_mode="cell"),
    # SK Telecom: the paper's single-valued outlier (Fig. 15/17).
    "SK": _single_valued(_BASE_STYLE),
    # MobileOne: low diversity.
    "MO": _reduced(_BASE_STYLE, keep=2),
    # China Mobile Hong Kong / Chunghwa: highly diverse.
    "CH": CarrierStyle(spatial_mode="cell"),
    "CW": CarrierStyle(spatial_mode="cell"),
}


def _style_for(acronym: str) -> CarrierStyle:
    return CARRIER_STYLES.get(acronym, _GENERIC_STYLE)


#: Every {value: weight} table of each style, built on first use: keyed
#: by the listed acronym, or by None for the generic style.
_STYLE_TABLES: dict[str | None, dict[str, DrawTable]] = {}


def _style_tables(acronym: str) -> dict[str, DrawTable]:
    """The built tables of ``acronym``'s style, shared by its profiles."""
    key = acronym if acronym in CARRIER_STYLES else None
    tables = _STYLE_TABLES.get(key)
    if tables is None:
        style = _style_for(acronym)
        tables = _STYLE_TABLES[key] = {
            f.name: _table(getattr(style, f.name))
            for f in fields(CarrierStyle)
            if isinstance(getattr(style, f.name), dict)
        }
    return tables


class CarrierProfile:
    """Generates handoff configurations for one carrier's cells.

    Args:
        acronym: Carrier acronym (Table 3).
        seed: Profile seed; all outputs are deterministic in
            (seed, acronym, cell identity / grid key, observation rng).
    """

    def __init__(self, acronym: str, seed: int = 2018):
        self.acronym = acronym
        self.seed = seed
        self.style = _style_for(acronym)
        self._tables = _style_tables(acronym)
        self._carrier_key = stable_hash(acronym) & 0xFFFF
        # Seed-pure memos of priority_for_channel (cell mode: per-channel
        # base priority and city sensitivity; grid mode: per-city value).
        self._channel_priority: dict[int, tuple[int, bool]] = {}
        self._city_priority: dict[str, int] = {}
        # Seed-pure memo of observed_lte_config: each cell's idle-churn
        # flip per elapsed 90-day epoch, keyed by gci.  Whatever an
        # observation draws from ``obs_rng`` is never stored.
        self._idle_flips: dict[int, list[bool]] = {}

    # -- deterministic RNG plumbing -------------------------------------

    def _cell_rng(self, cell: Cell, salt: int = 0, force_cell: bool = False) -> _DoubleReader:
        """Per-cell generator ("cell" spatial mode) or per-grid-key
        generator ("grid" mode: keyed on city + channel only), read
        through a :class:`_DoubleReader`.

        ``force_cell`` bypasses grid mode: the paper's near-zero spatial
        diversity for grid carriers concerns the *idle* SIB parameters
        (Fig. 21 analyzes Ps); dedicated measConfig content still varies
        per cell on every carrier.
        """
        if self.style.spatial_mode == "grid" and not force_cell:
            key = (stable_hash(cell.city) & 0xFFFFFF, cell.channel)
        else:
            key = (cell.cell_id.gci, cell.channel)
        return _DoubleReader(
            np.random.default_rng((self.seed, self._carrier_key, key[0], key[1], salt))
        )

    # -- priorities ------------------------------------------------------

    def priority_for_channel(
        self, channel: int, city: str, rng: np.random.Generator | _DoubleReader
    ) -> int:
        """LTE reselection priority of one EARFCN.

        Mostly a deterministic per-channel value (Fig. 18: each channel
        has one dominant priority); a ``priority_conflict_rate`` fraction
        of draws picks a second value, producing the inconsistent
        settings Section 5.4.1 troubleshoots.  Chicago gets a shifted
        map (Fig. 20: C1 differs from other cities).
        """
        if self.style.diversity == "none":
            return 5
        if self.style.spatial_mode == "grid":
            # Grid-granularity carriers (T-Mobile's habit) use one
            # priority per city across all their LTE layers — the reason
            # their proximity diversity is ~zero in Fig. 21.
            if city not in self._city_priority:
                city_rng = np.random.default_rng(
                    (self.seed, self._carrier_key, stable_hash(city) & 0xFFFF, 0xC17)
                )
                self._city_priority[city] = int(city_rng.integers(3, 6))
            return self._city_priority[city]
        if channel not in self._channel_priority:
            self._channel_priority[channel] = self._channel_base_priority(channel)
        base, city_sensitive = self._channel_priority[channel]
        if city == "Chicago" and self.style.diversity == "high" and city_sensitive:
            base = min(7, base + 1)
        if rng.random() < self.style.priority_conflict_rate:
            alt = base - 1 if base >= 3 else base + 1
            return alt
        return base

    def _channel_base_priority(self, channel: int) -> tuple[int, bool]:
        """Seed-pure part of :meth:`priority_for_channel` in cell mode:
        the channel's national priority and whether its market areas may
        shift it."""
        base_rng = np.random.default_rng((self.seed, self._carrier_key, channel, 0xBEEF))
        try:
            from repro.cellnet.bands import earfcn_to_band

            band = earfcn_to_band(channel).number
        except ValueError:
            band = 0
        if band == 30:
            base = 5  # Recently acquired WCS spectrum: top priority.
        elif band in (12, 17, 29):
            base = 2  # LTE-exclusive "main" bands: lower priority.
        elif band in (2, 25):
            base = 3
        elif band == 4:
            base = int(base_rng.integers(3, 5))
        else:
            base = int(base_rng.integers(2, 6))
        # A subset of channels is configured differently per market area
        # (Fig. 20: Chicago differs); most channels stay nationally
        # uniform, keeping Fig. 18's mostly-single-valued breakdown.
        return base, base_rng.random() < 0.1

    # -- active-state (measConfig) ----------------------------------------

    def _event_suite(self, rng: _DoubleReader) -> tuple[tuple[EventConfig, ...], PeriodicConfig | None]:
        """The armed events of one measConfig.

        Every connected UE gets an A2 (radio-problem detector).  The
        carrier's *policy* event — the one that ends up decisive — is
        drawn from the Fig. 5 mix; P policies arm periodic reporting.
        """
        style = self.style
        tables = self._tables
        ttt = int(_draw(rng, tables["time_to_trigger"]))
        policy = str(_draw(rng, tables["event_policy"]))
        events: list[EventConfig] = [
            EventConfig(
                event=EventType.A2,
                metric="rsrp",
                threshold1=float(_draw(rng, _A2_RSRP_THRESHOLD)),
                hysteresis=1.0,
                time_to_trigger_ms=_A2_TIME_TO_TRIGGER_MS,
                report_amount=1,
            )
        ]
        periodic: PeriodicConfig | None = None
        if policy == "A3":
            events.append(
                EventConfig(
                    event=EventType.A3,
                    metric="rsrp",
                    offset=float(_draw(rng, tables["a3_offsets"])),
                    hysteresis=float(_draw(rng, tables["a3_hysteresis"])),
                    time_to_trigger_ms=ttt,
                    report_amount=1,
                )
            )
        elif policy == "A5":
            # Coverage-based events ride longer triggers in practice —
            # without this, the permissive (-44 dBm) A5 pairs fire on
            # the first measurement round and A5 would overwhelm the
            # instance mix relative to its cell-policy share.
            ttt = int(_draw(rng, _A5_TIME_TO_TRIGGER))
            use_rsrq = rng.random() < style.a5_rsrq_share
            if use_rsrq:
                events.append(
                    EventConfig(
                        event=EventType.A5,
                        metric="rsrq",
                        threshold1=float(_draw(rng, tables["a5_serving_rsrq"])),
                        threshold2=float(_draw(rng, tables["a5_candidate_rsrq"])),
                        hysteresis=1.0,
                        time_to_trigger_ms=ttt,
                        report_amount=1,
                    )
                )
            else:
                events.append(
                    EventConfig(
                        event=EventType.A5,
                        metric="rsrp",
                        threshold1=float(_draw(rng, tables["a5_serving_rsrp"])),
                        threshold2=float(_draw(rng, tables["a5_candidate_rsrp"])),
                        hysteresis=1.0,
                        time_to_trigger_ms=ttt,
                        report_amount=1,
                    )
                )
        elif policy == "P":
            periodic = PeriodicConfig(report_interval_ms=int(_draw(rng, _PERIODIC_INTERVAL)))
        elif policy == "A1":
            events.append(
                EventConfig(
                    event=EventType.A1,
                    metric="rsrp",
                    threshold1=-100.0,
                    hysteresis=1.0,
                    time_to_trigger_ms=ttt,
                )
            )
        elif policy == "A4":
            events.append(
                EventConfig(
                    event=EventType.A4,
                    metric="rsrp",
                    threshold1=float(_draw(rng, _A4_RSRP_THRESHOLD)),
                    hysteresis=1.0,
                    time_to_trigger_ms=ttt,
                )
            )
        # policy == "A2": the A2 above is the only trigger (rare; yields
        # the blind-redirection handoffs the paper occasionally sees).
        return tuple(events), periodic

    def measurement_config(self, cell: Cell, obs_rng: np.random.Generator | None = None) -> MeasurementConfig:
        """The measConfig a UE connected to ``cell`` receives.

        With ``obs_rng`` given, this is one observation of it
        (:meth:`observed_measurement`).
        """
        rng = self._cell_rng(cell, salt=1, force_cell=True)
        events, periodic = self._event_suite(rng)
        s_measure = float(_draw(rng, _S_MEASURE))
        base = MeasurementConfig(events=events, periodic=periodic, s_measure=s_measure)
        if obs_rng is None:
            return base
        return self.observed_measurement(cell, base, obs_rng)

    def observed_measurement(
        self, cell: Cell, base: MeasurementConfig, obs_rng: np.random.Generator
    ) -> MeasurementConfig:
        """One observation of ``cell``'s measConfig, whose base
        (:meth:`measurement_config`) is ``base``.

        The observation differs from the base with probability
        ``active_churn``, keeping its s-Measure — reproducing the much
        higher temporal variability of active-state parameters
        (Fig. 13b).  Only ``obs_rng`` is drawn from.
        """
        if obs_rng.random() < self.style.active_churn:
            alt_rng = np.random.default_rng(
                (self.seed, cell.cell_id.gci, int(obs_rng.integers(1 << 30)), 2)
            )
            events, periodic = self._event_suite(_DoubleReader(alt_rng))
            return MeasurementConfig(events=events, periodic=periodic, s_measure=base.s_measure)
        return base

    # -- idle-state (SIBs) -------------------------------------------------

    def serving_config(self, cell: Cell, context: ConfigContext) -> ServingCellConfig:
        """SIB3 serving-cell configuration for ``cell``."""
        rng = self._cell_rng(cell, salt=3)
        tables = self._tables
        s_intra = float(_draw(rng, tables["s_intra_search"]))
        # Non-intra threshold never exceeds the intra threshold; ~5% of
        # cells configure them equal (both measurements invoked at the
        # same time — the paper's Fig. 11 tie case).
        if rng.random() < 0.05:
            s_non_intra = s_intra
        else:
            s_non_intra = min(float(_draw(rng, tables["s_non_intra_search"])), s_intra)
        return ServingCellConfig(
            q_hyst=float(_draw(rng, tables["q_hyst"])),
            s_intra_search_p=s_intra,
            s_intra_search_q=float(_draw(rng, _S_INTRA_SEARCH_Q)),
            s_non_intra_search_p=s_non_intra,
            s_non_intra_search_q=float(_draw(rng, _S_NON_INTRA_SEARCH_Q)),
            thresh_serving_low_p=float(_draw(rng, tables["thresh_serving_low"])),
            thresh_serving_low_q=float(_draw(rng, _THRESH_SERVING_LOW_Q)),
            cell_reselection_priority=self.priority_for_channel(cell.channel, context.city, rng),
            q_rx_lev_min=float(_draw(rng, tables["q_rx_lev_min"])),
            q_qual_min=float(_draw(rng, _Q_QUAL_MIN)),
            p_max=23,
            t_reselection_eutra=int(_draw(rng, _T_RESELECTION_EUTRA)),
        )

    def lte_config(self, cell: Cell, context: ConfigContext) -> LteCellConfig:
        """Complete base LTE configuration of ``cell``."""
        rng = self._cell_rng(cell, salt=4)
        tables = self._tables
        serving = self.serving_config(cell, context)
        # The paper observes Theta(c)_lower > Theta(s)_lower: the target
        # of a lower-priority handoff is required to be better than the
        # serving cell was; layer low-thresholds therefore ride above
        # the serving low-threshold.
        base_low = serving.thresh_serving_low_p
        inter_layers = []
        for channel in context.lte_channels:
            if channel == cell.channel:
                continue
            inter_layers.append(
                InterFreqLayerConfig(
                    dl_carrier_freq=channel,
                    q_offset_freq=float(_draw(rng, tables["q_offset_freq"])),
                    cell_reselection_priority=self.priority_for_channel(channel, context.city, rng),
                    thresh_x_high_p=float(_draw(rng, tables["thresh_x_high"])),
                    thresh_x_low_p=min(base_low + float(_draw(rng, tables["thresh_x_low"])) + 2.0, 62.0),
                    q_rx_lev_min=float(_draw(rng, tables["q_rx_lev_min"])),
                    p_max=23,
                    t_reselection_eutra=int(_draw(rng, _LAYER_T_RESELECTION_EUTRA)),
                    allowed_meas_bandwidth=int(_draw(rng, _ALLOWED_MEAS_BANDWIDTH)),
                )
            )
        utra_layers = tuple(
            InterRatUtraConfig(
                carrier_freq=channel,
                cell_reselection_priority=int(_draw(rng, _UTRA_PRIORITY)),
                thresh_x_high=float(_draw(rng, tables["thresh_x_high"])),
                thresh_x_low=min(base_low + float(_draw(rng, tables["thresh_x_low"])) + 4.0, 62.0),
                q_rx_lev_min=-115.0,
                t_reselection=2,
            )
            for channel in context.utra_channels
        )
        geran_layers = tuple(
            InterRatGeranConfig(
                carrier_freqs=(channel,),
                cell_reselection_priority=0,
                thresh_x_high=float(_draw(rng, tables["thresh_x_high"])),
                thresh_x_low=min(base_low + float(_draw(rng, tables["thresh_x_low"])) + 6.0, 62.0),
                q_rx_lev_min=-110.0,
                t_reselection=2,
            )
            for channel in context.geran_channels
        )
        cdma_layers = tuple(
            InterRatCdmaConfig(
                band_class=band,
                cell_reselection_priority=int(_draw(rng, _CDMA_PRIORITY)),
                thresh_x_high=float(_draw(rng, tables["thresh_x_high"])),
                thresh_x_low=min(base_low + float(_draw(rng, tables["thresh_x_low"])) + 4.0, 62.0),
                t_reselection=2,
            )
            for band in context.cdma_bands
        )
        return LteCellConfig(
            serving=serving,
            intra_neighbors=IntraFreqNeighborConfig(
                q_offset_cell=float(_draw(rng, _Q_OFFSET_CELL)),
            ),
            inter_freq_layers=tuple(inter_layers),
            utra_layers=utra_layers,
            geran_layers=geran_layers,
            cdma_layers=cdma_layers,
            measurement=self.measurement_config(cell),
        )

    def observed_lte_config(
        self,
        cell: Cell,
        base: LteCellConfig,
        obs_rng: np.random.Generator,
        days_since_first: float = 0.0,
    ) -> LteCellConfig:
        """One *observation* of the cell's configuration.

        Models the paper's temporal dynamics: idle-state SIB parameters
        change rarely (probability scaled from ``idle_churn_180d`` by the
        elapsed time), while measConfig content varies observation to
        observation with ``active_churn``.  ``base`` is the cell's
        :meth:`lte_config`, which a
        :class:`~repro.rrc.broadcast.ConfigServer` already caches; its
        measConfig is the base the observation churns from.
        """
        serving = base.serving
        # Idle-state churn is an *event on the cell's timeline*, not an
        # observation effect: version the configuration per 90-day epoch
        # so two observations in the same epoch always agree (Fig. 13b's
        # near-flat, sub-2% idle curve).
        gci = cell.cell_id.gci
        epoch = int(days_since_first // 90)
        flips = self._idle_flips.setdefault(gci, [])
        for e in range(len(flips) + 1, epoch + 1):
            flip_rng = np.random.default_rng((self.seed, gci, 0xE0, e))
            flips.append(flip_rng.random() < self.style.idle_churn_180d / 2.0)
        changed_epoch = 0
        for e in range(1, epoch + 1):
            if flips[e - 1]:
                changed_epoch = e
        if changed_epoch:
            alt_rng = _DoubleReader(
                np.random.default_rng((self.seed, gci, changed_epoch + 11, 5))
            )
            serving = replace(
                serving,
                thresh_serving_low_p=float(_draw(alt_rng, self._tables["thresh_serving_low"])),
            )
        measurement = self.observed_measurement(cell, base.measurement, obs_rng)
        return replace(base, serving=serving, measurement=measurement)

    # -- legacy RATs --------------------------------------------------------

    def umts_config(self, cell: Cell) -> UmtsCellConfig:
        """3G UMTS configuration.

        WCDMA "heavily" shares machinery with LTE (Section 5.5), and
        Fig. 22 shows its diversity second only to LTE's — so most of
        the 64 parameters carry several values, with the usual
        single-valued calibration block.
        """
        rng = self._cell_rng(cell, salt=6)
        if self.style.diversity == "none":
            return UmtsCellConfig()
        return UmtsCellConfig(
            **{name: kind(_draw(rng, table)) for name, kind, table in _UMTS_DRAWS}
        )

    def gsm_config(self, cell: Cell) -> GsmCellConfig:
        """2G GSM configuration; nearly static (Fig. 22)."""
        rng = self._cell_rng(cell, salt=7)
        if self.style.diversity == "none" or rng.random() < 0.9:
            return GsmCellConfig()
        return GsmCellConfig(
            cell_reselect_hysteresis=float(_draw(rng, _GSM_RESELECT_HYSTERESIS)),
            cell_reselect_offset=float(_draw(rng, _GSM_RESELECT_OFFSET)),
        )

    def evdo_config(self, cell: Cell) -> EvdoCellConfig:
        """3G EVDO sector parameters; single dominant values."""
        rng = self._cell_rng(cell, salt=8)
        if self.style.diversity == "none" or rng.random() < 0.85:
            return EvdoCellConfig()
        return EvdoCellConfig(
            pilot_add=float(_draw(rng, _EVDO_PILOT_ADD)),
            pilot_drop=float(_draw(rng, _EVDO_PILOT_DROP)),
        )

    def cdma1x_config(self, cell: Cell) -> Cdma1xCellConfig:
        """2G CDMA1x parameters; essentially static."""
        rng = self._cell_rng(cell, salt=9)
        if self.style.diversity == "none" or rng.random() < 0.92:
            return Cdma1xCellConfig()
        return Cdma1xCellConfig(t_add=float(_draw(rng, _CDMA1X_T_ADD)))

    def legacy_config(self, cell: Cell):
        """Dispatch to the right legacy generator for ``cell``'s RAT."""
        if cell.rat is RAT.UMTS:
            return self.umts_config(cell)
        if cell.rat is RAT.GSM:
            return self.gsm_config(cell)
        if cell.rat is RAT.EVDO:
            return self.evdo_config(cell)
        if cell.rat is RAT.CDMA1X:
            return self.cdma1x_config(cell)
        raise ValueError(f"{cell.rat.value} is not a legacy RAT")


_PROFILE_CACHE: dict[tuple[str, int], CarrierProfile] = {}


def profile_for_carrier(acronym: str, seed: int = 2018) -> CarrierProfile:
    """Cached profile accessor (profiles memoize only seed-pure values, so
    sharing is safe)."""
    key = (acronym, seed)
    if key not in _PROFILE_CACHE:
        _PROFILE_CACHE[key] = CarrierProfile(acronym, seed=seed)
    return _PROFILE_CACHE[key]
