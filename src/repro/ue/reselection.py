"""Idle-mode cell reselection (the paper's Eq. 3 decision rules).

The device makes idle-state handoff decisions locally, using criteria
pre-configured by the serving cell's SIBs:

* measurement gating (Eq. 1): intra-freq neighbors are measured only
  when the serving *level* (RSRP minus q_rx_lev_min) drops to
  s_intra_search_p; non-intra-freq ones at s_non_intra_search_p;
  higher-priority layers are always measured periodically;
* ranking (Eq. 3): a higher-priority candidate wins when its level
  clears thresh_x_high; an equal-priority candidate when its RSRP beats
  the serving's by q_hyst (+ q_offset); a lower-priority candidate only
  when the serving level is below thresh_serving_low *and* the
  candidate's level clears thresh_x_low;
* timing: the winning condition must hold continuously for
  t_reselection seconds before the device reselects.

:func:`rank_candidates` applies the ranking neighbour by neighbour; it
is the scalar oracle.  The device's vectorized path ranks a whole
:class:`~repro.ue.measurement.MeasurementRound` through
:class:`ReselectionColumns`, with the identical comparisons laid out as
array passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.radio import PreparedCells
from repro.cellnet.rat import RAT
from repro.config.lte import LteCellConfig
from repro.ue.measurement import FilteredMeasurement, MeasurementRound


@dataclass(frozen=True)
class RankedCandidate:
    """One neighbor that currently out-ranks the serving cell."""

    measurement: FilteredMeasurement
    priority: int
    serving_priority: int

    @property
    def cell(self) -> Cell:
        return self.measurement.cell

    @property
    def priority_class(self) -> str:
        """"higher", "equal" or "lower" relative to the serving cell."""
        if self.priority > self.serving_priority:
            return "higher"
        if self.priority == self.serving_priority:
            return "equal"
        return "lower"


def _level(rsrp_dbm: float, q_rx_lev_min: float) -> float:
    """Calibrated signal level: actual RSRP minus the configured floor.

    This is the paper's "r_S = r_S(actual) - Delta_min" calibration; all
    relative thresholds (S-criteria, threshX) compare against levels.
    """
    return rsrp_dbm - q_rx_lev_min


def measurement_gates(
    config: LteCellConfig, serving_rsrp_dbm: float
) -> tuple[bool, bool]:
    """(measure_intra, measure_non_intra) per the Eq. 1 S-criteria."""
    level = _level(serving_rsrp_dbm, config.serving.q_rx_lev_min)
    return (
        level <= config.serving.s_intra_search_p,
        level <= config.serving.s_non_intra_search_p,
    )


def rank_candidates(
    config: LteCellConfig,
    serving: FilteredMeasurement,
    neighbors: list[FilteredMeasurement],
) -> list[RankedCandidate]:
    """Neighbors that out-rank the serving cell under Eq. 3.

    Unknown layers (no priority broadcast for that frequency) are
    skipped, as a real UE ignores them.  Results are ordered
    higher-priority-first, then by RSRP, which is also the preference
    order of the reselection rule.
    """
    serving_cell = serving.cell
    serving_priority = config.serving.cell_reselection_priority
    serving_level = _level(serving.rsrp_dbm, config.serving.q_rx_lev_min)
    ranked: list[RankedCandidate] = []
    for neighbor in neighbors:
        cell = neighbor.cell
        priority = config.priority_of_layer(cell.rat, cell.channel, serving_cell.channel)
        if priority is None:
            continue
        level = _level(neighbor.rsrp_dbm, config.serving.q_rx_lev_min)
        if priority > serving_priority:
            threshold = _thresh_high(config, cell)
            if threshold is not None and level > threshold:
                ranked.append(RankedCandidate(neighbor, priority, serving_priority))
        elif priority == serving_priority:
            offset = config.intra_neighbors.q_offset_cell if _is_intra(cell, serving_cell) else _freq_offset(config, cell)
            if neighbor.rsrp_dbm > serving.rsrp_dbm + config.serving.q_hyst + offset:
                ranked.append(RankedCandidate(neighbor, priority, serving_priority))
        else:
            threshold = _thresh_low(config, cell)
            if (
                threshold is not None
                and serving_level < config.serving.thresh_serving_low_p
                and level > threshold
            ):
                ranked.append(RankedCandidate(neighbor, priority, serving_priority))
    ranked.sort(
        key=lambda r: (-r.priority, -r.measurement.rsrp_dbm, r.cell.cell_id)
    )
    return ranked


def _is_intra(cell: Cell, serving: Cell) -> bool:
    return cell.rat is serving.rat and cell.channel == serving.channel


def _freq_offset(config: LteCellConfig, cell: Cell) -> float:
    if cell.rat is RAT.LTE:
        for layer in config.inter_freq_layers:
            if layer.dl_carrier_freq == cell.channel:
                return layer.q_offset_freq
    return 0.0


def _thresh_high(config: LteCellConfig, cell: Cell) -> float | None:
    if cell.rat is RAT.LTE:
        for layer in config.inter_freq_layers:
            if layer.dl_carrier_freq == cell.channel:
                return layer.thresh_x_high_p
        return None
    if cell.rat is RAT.UMTS:
        for layer in config.utra_layers:
            if layer.carrier_freq == cell.channel:
                return layer.thresh_x_high
        return None
    if cell.rat is RAT.GSM:
        for layer in config.geran_layers:
            if cell.channel in layer.carrier_freqs:
                return layer.thresh_x_high
        return None
    for layer in config.cdma_layers:
        return layer.thresh_x_high
    return None


def _thresh_low(config: LteCellConfig, cell: Cell) -> float | None:
    if cell.rat is RAT.LTE:
        for layer in config.inter_freq_layers:
            if layer.dl_carrier_freq == cell.channel:
                return layer.thresh_x_low_p
        return None
    if cell.rat is RAT.UMTS:
        for layer in config.utra_layers:
            if layer.carrier_freq == cell.channel:
                return layer.thresh_x_low
        return None
    if cell.rat is RAT.GSM:
        for layer in config.geran_layers:
            if cell.channel in layer.carrier_freqs:
                return layer.thresh_x_low
        return None
    for layer in config.cdma_layers:
        return layer.thresh_x_low
    return None


def _or_nan(value: float | None) -> float:
    return np.nan if value is None else value


class ReselectionColumns:
    """Eq. 3's per-cell inputs as columns over one prepared cell list.

    :func:`rank_candidates` looks up every neighbour's layer in the
    serving configuration: its priority, threshX-high, threshX-low and
    Qoffset.  Those lookups depend only on the neighbour's (RAT,
    channel), so for one (serving config, prepared set, serving cell)
    they are made once per channel group and spread over the cells.
    Unknown layers and absent thresholds are NaN, which fails every
    comparison, just as the scalar path skips them.
    """

    __slots__ = (
        "config",
        "prepared",
        "serving_cell",
        "priority",
        "thresh_high",
        "thresh_low",
        "offset",
        "_priorities",
        "_group_index",
    )

    def __init__(self, config: LteCellConfig, prepared: PreparedCells, serving_cell: Cell):
        self.config = config
        self.prepared = prepared
        self.serving_cell = serving_cell
        group_index, n_groups = prepared.channel_groups
        # Groups are numbered in order of first appearance, so the
        # sorted unique ids line up with their first cells.
        _, firsts = np.unique(group_index, return_index=True)
        priorities: list[int | None] = []
        groups = np.empty((4, n_groups))
        for g, i in enumerate(firsts.tolist()):
            cell = prepared.cells[i]
            priority = config.priority_of_layer(cell.rat, cell.channel, serving_cell.channel)
            priorities.append(priority)
            if priority is None:
                groups[:, g] = np.nan
                continue
            if _is_intra(cell, serving_cell):
                offset = config.intra_neighbors.q_offset_cell
            else:
                offset = _freq_offset(config, cell)
            groups[0, g] = priority
            groups[1, g] = _or_nan(_thresh_high(config, cell))
            groups[2, g] = _or_nan(_thresh_low(config, cell))
            groups[3, g] = offset
        self.priority, self.thresh_high, self.thresh_low, self.offset = groups[:, group_index]
        self._priorities = priorities
        self._group_index = group_index

    def rank(
        self, serving: FilteredMeasurement, measured: MeasurementRound
    ) -> list[RankedCandidate]:
        """:func:`rank_candidates` over every neighbour ``measured`` holds.

        The three Eq. 3 rules run as array passes with the scalar
        path's operands and operation order; a :class:`RankedCandidate`
        is built only for the cells that out-rank the serving cell.
        """
        sc = self.config.serving
        serving_priority = sc.cell_reselection_priority
        rsrp = measured.rsrp
        level = rsrp - sc.q_rx_lev_min
        priority = self.priority
        wins = (priority > serving_priority) & (level > self.thresh_high)
        wins |= (priority == serving_priority) & (
            rsrp > serving.rsrp_dbm + sc.q_hyst + self.offset
        )
        if _level(serving.rsrp_dbm, sc.q_rx_lev_min) < sc.thresh_serving_low_p:
            wins |= (priority < serving_priority) & (level > self.thresh_low)
        wins &= measured.mask
        serving_i = self.prepared.index.get(serving.cell.cell_id)
        if serving_i is not None:
            wins[serving_i] = False
        if not wins.any():
            return []
        group_index = self._group_index
        ranked = [
            RankedCandidate(
                measured.measurement_at(i),
                self._priorities[group_index[i]],
                serving_priority,
            )
            for i in np.flatnonzero(wins).tolist()
        ]
        ranked.sort(key=lambda r: (-r.priority, -r.measurement.rsrp_dbm, r.cell.cell_id))
        return ranked


@dataclass
class ReselectionEngine:
    """Applies Eq. 3 with the Treselection persistence requirement."""

    #: Candidate -> time its winning condition started holding.
    _winning_since: dict[CellId, int] = field(default_factory=dict)

    def reset(self) -> None:
        """Clear persistence state (after camping on a new cell)."""
        self._winning_since.clear()

    def step(
        self,
        now_ms: int,
        config: LteCellConfig,
        ranked: list[RankedCandidate],
    ) -> RankedCandidate | None:
        """One decision round over this round's Eq. 3 ranking.

        ``ranked`` is :func:`rank_candidates`' result (or the array
        ranking of :meth:`ReselectionColumns.rank`); returns the
        reselection target, if any.
        """
        ranked_ids = {r.cell.cell_id for r in ranked}
        for stale in [cid for cid in self._winning_since if cid not in ranked_ids]:
            del self._winning_since[stale]
        t_reselection_ms = config.serving.t_reselection_eutra * 1000
        for candidate in ranked:
            started = self._winning_since.setdefault(candidate.cell.cell_id, now_ms)
            if now_ms - started >= t_reselection_ms:
                return candidate
        return None
