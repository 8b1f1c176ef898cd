"""Event-triggered reporting (active-state step 3 of the paper's Fig. 1).

An :class:`EventMonitor` holds the armed events of the current
measConfig and tracks, per (event, neighbor) pair, how long the entry
condition has held.  When it has held for the configured
time-to-trigger, the event *fires* and a measurement report is due;
the leave condition (hysteresis-mirrored) disarms it.

The monitor is rebuilt whenever the UE receives a new measConfig —
after every handoff, exactly as in a real network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cellnet.cell import CellId
from repro.config.events import (
    EventConfig,
    EventType,
    entry_mask,
    evaluate_entry,
    evaluate_leave,
)
from repro.config.lte import MeasurementConfig
from repro.ue.measurement import FilteredMeasurement, MeasurementRound


@dataclass(frozen=True)
class TriggeredReport:
    """One due measurement report.

    Attributes:
        event: The reporting event that fired (PERIODIC for periodic).
        config: The firing event's configuration.
        serving: Serving-cell measurement at fire time.
        neighbors: Neighbors satisfying the condition (or the strongest
            cells for periodic reports), best first.
    """

    event: EventType
    config: EventConfig
    serving: FilteredMeasurement
    neighbors: tuple[FilteredMeasurement, ...]


#: Sentinel key for serving-only events (A1/A2), which have no neighbor.
_SERVING_KEY = CellId("", -1)


@dataclass
class _EventState:
    """TTT and reporting state of one armed event."""

    config: EventConfig
    #: (event, neighbor) -> time entry condition started holding.
    entry_since: dict[CellId, int] = field(default_factory=dict)
    #: Neighbors already reported (until their leave condition holds).
    reported: set[CellId] = field(default_factory=set)


class EventMonitor:
    """Evaluates armed reporting events against measurement rounds."""

    def __init__(self, meas_config: MeasurementConfig):
        self.meas_config = meas_config
        self._states = [_EventState(config=e) for e in meas_config.events]
        self._last_periodic_ms: int | None = None

    @property
    def armed_events(self) -> list[EventType]:
        """Event types currently armed (paper: multiple per handoff)."""
        events = [s.config.event for s in self._states]
        if self.meas_config.periodic is not None:
            events.append(EventType.PERIODIC)
        return events

    def s_measure_gate_open(self, serving: FilteredMeasurement) -> bool:
        """Whether neighbor measurement is allowed by s-Measure.

        TS 36.331: neighbor measurements run when serving RSRP falls
        below s-Measure.  The permissive -44 value disables the gate.
        """
        return serving.rsrp_dbm <= self.meas_config.s_measure

    def step(
        self,
        now_ms: int,
        serving: FilteredMeasurement,
        intra_rat_neighbors: list[FilteredMeasurement],
        inter_rat_neighbors: list[FilteredMeasurement],
    ) -> list[TriggeredReport]:
        """One evaluation round; returns reports due at ``now_ms``."""
        reports: list[TriggeredReport] = []
        gate_open = self.s_measure_gate_open(serving)
        for state in self._states:
            config = state.config
            candidates: list[FilteredMeasurement | None]
            if not config.event.needs_neighbor:
                candidates = [None]
            elif config.event.is_inter_rat:
                candidates = list(inter_rat_neighbors) if gate_open else []
            else:
                candidates = list(intra_rat_neighbors) if gate_open else []
            fired: list[FilteredMeasurement] = []
            seen_keys: set[CellId] = set()
            for neighbor in candidates:
                key = _SERVING_KEY if neighbor is None else neighbor.cell.cell_id
                seen_keys.add(key)
                serving_value = serving.metric(config.metric)
                neighbor_value = None if neighbor is None else neighbor.metric(config.metric)
                if key in state.reported:
                    if evaluate_leave(config, serving_value, neighbor_value):
                        state.reported.discard(key)
                        state.entry_since.pop(key, None)
                    continue
                if evaluate_entry(config, serving_value, neighbor_value):
                    started = state.entry_since.setdefault(key, now_ms)
                    if now_ms - started >= config.time_to_trigger_ms:
                        state.reported.add(key)
                        if neighbor is not None:
                            fired.append(neighbor)
                        else:
                            fired.append(serving)
                elif evaluate_leave(config, serving_value, neighbor_value):
                    state.entry_since.pop(key, None)
            # Neighbors that disappeared from measurement: clear state.
            for key in [k for k in state.entry_since if k not in seen_keys]:
                del state.entry_since[key]
            state.reported &= seen_keys | ({_SERVING_KEY} & state.reported)
            if fired:
                neighbors = tuple(
                    m for m in fired if m.cell.cell_id != serving.cell.cell_id
                )
                reports.append(
                    TriggeredReport(
                        event=config.event,
                        config=config,
                        serving=serving,
                        neighbors=tuple(
                            sorted(neighbors, key=lambda m: (-m.metric(config.metric), m.cell.cell_id))
                        ),
                    )
                )
        periodic = self.meas_config.periodic
        if periodic is not None and gate_open and intra_rat_neighbors:
            due = (
                self._last_periodic_ms is None
                or now_ms - self._last_periodic_ms >= periodic.report_interval_ms
            )
            if due:
                self._last_periodic_ms = now_ms
                reports.append(
                    TriggeredReport(
                        event=EventType.PERIODIC,
                        config=periodic.as_event_config(),
                        serving=serving,
                        neighbors=tuple(intra_rat_neighbors[: periodic.max_report_cells]),
                    )
                )
        return reports

    def _step_serving_only(
        self, now_ms: int, state: _EventState, serving: FilteredMeasurement
    ) -> bool:
        """A1/A2 evaluation (no neighbor axis); True when the event fires."""
        config = state.config
        serving_value = serving.metric(config.metric)
        key = _SERVING_KEY
        if key in state.reported:
            if evaluate_leave(config, serving_value, None):
                state.reported.discard(key)
                state.entry_since.pop(key, None)
            return False
        if evaluate_entry(config, serving_value, None):
            started = state.entry_since.setdefault(key, now_ms)
            if now_ms - started >= config.time_to_trigger_ms:
                state.reported.add(key)
                return True
        elif evaluate_leave(config, serving_value, None):
            state.entry_since.pop(key, None)
        return False

    def step_round(
        self, now_ms: int, round_: MeasurementRound, serving: FilteredMeasurement
    ) -> list[TriggeredReport]:
        """One evaluation round over an array-resident measurement round.

        Semantically identical to :meth:`step` fed the sorted neighbor
        lists of the same round, but each event's entry/leave conditions
        are evaluated as one masked array pass over the candidate metric
        values; per-neighbor Python work happens only where a mask is
        hot (a condition holds), which on a steady drive is almost
        never.
        """
        reports: list[TriggeredReport] = []
        gate_open = self.s_measure_gate_open(serving)
        prepared = round_.prepared
        cell_ids = prepared.cell_ids
        index = prepared.index
        if gate_open:
            intra_cand, inter_cand = round_.neighbor_masks(serving.cell)
        else:
            intra_cand = inter_cand = None
        for state in self._states:
            config = state.config
            if not config.event.needs_neighbor:
                if self._step_serving_only(now_ms, state, serving):
                    reports.append(
                        TriggeredReport(
                            event=config.event,
                            config=config,
                            serving=serving,
                            neighbors=(),
                        )
                    )
                continue
            cand = inter_cand if config.event.is_inter_rat else intra_cand
            serving_value = serving.metric(config.metric)
            fired: list[int] = []
            entry = None
            if cand is not None:
                # One masked array pass over the whole prepared cell
                # list; only positions where the entry condition holds
                # (on a steady drive: almost none) cost Python work.
                values = round_.metric_values(config.metric)
                entry = entry_mask(config, serving_value, values) & cand
                for i in np.flatnonzero(entry):
                    key = cell_ids[i]
                    if key in state.reported:
                        # Entry and leave are mutually exclusive (hys
                        # >= 0): a reported neighbor whose entry holds
                        # cannot satisfy leave, so nothing to do.
                        continue
                    started = state.entry_since.setdefault(key, now_ms)
                    if now_ms - started >= config.time_to_trigger_ms:
                        state.reported.add(key)
                        fired.append(int(i))
            # Leave conditions only matter for keys with state — the
            # reported set and pending TTT timers, which are near-empty
            # on a steady drive — so they are consulted scalar-wise.
            if state.reported:
                for key in list(state.reported):
                    if key == _SERVING_KEY:
                        continue
                    i = index.get(key)
                    if cand is None or i is None or not cand[i]:
                        # Disappeared from this round's candidates:
                        # clear state, as the scalar pass's stale
                        # cleanup does.
                        state.reported.discard(key)
                        state.entry_since.pop(key, None)
                        continue
                    if evaluate_leave(config, serving_value, float(values[i])):
                        state.reported.discard(key)
                        state.entry_since.pop(key, None)
            if state.entry_since:
                for key in list(state.entry_since):
                    if key in state.reported or key == _SERVING_KEY:
                        continue
                    i = index.get(key)
                    if cand is None or i is None or not cand[i]:
                        del state.entry_since[key]
                        continue
                    if entry is not None and entry[i]:
                        continue
                    if evaluate_leave(config, serving_value, float(values[i])):
                        del state.entry_since[key]
            if fired:
                neighbors = [round_.measurement_at(i) for i in fired]
                reports.append(
                    TriggeredReport(
                        event=config.event,
                        config=config,
                        serving=serving,
                        neighbors=tuple(
                            sorted(
                                neighbors,
                                key=lambda m: (-m.metric(config.metric), m.cell.cell_id),
                            )
                        ),
                    )
                )
        periodic = self.meas_config.periodic
        if periodic is not None and intra_cand is not None:
            due = (
                self._last_periodic_ms is None
                or now_ms - self._last_periodic_ms >= periodic.report_interval_ms
            )
            # The best-first sort is only paid when a report is due and
            # there is at least one intra-RAT neighbor to report.
            if due and intra_cand.any():
                self._last_periodic_ms = now_ms
                intra_idx, _ = round_.neighbor_order(serving.cell)
                reports.append(
                    TriggeredReport(
                        event=EventType.PERIODIC,
                        config=periodic.as_event_config(),
                        serving=serving,
                        neighbors=tuple(
                            round_.measurement_at(i)
                            for i in intra_idx[: periodic.max_report_cells]
                        ),
                    )
                )
        return reports
