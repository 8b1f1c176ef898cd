"""Measurement reporting events (TS 36.331 Section 5.5.4).

LTE defines ten events (A1-A6, B1, B2, C1, C2); the paper observes only
A1-A5, B1 and B2 in the wild, plus carrier-configured periodic reporting
("P").  Each event has an *entry* condition that must hold continuously
for the configured time-to-trigger before a measurement report is sent,
and a *leave* condition that disarms it; hysteresis separates the two.

Entry conditions implemented (Ms = serving, Mn = neighbor, all after the
configured metric's calibration; Ofn/Ocn cell/frequency offsets):

    A1: Ms - Hys > Thresh
    A2: Ms + Hys < Thresh
    A3: Mn + Ofn - Hys > Ms + Off
    A4: Mn + Ofn - Hys > Thresh
    A5: Ms + Hys < Thresh1  and  Mn + Ofn - Hys > Thresh2
    A6: Mn - Hys > Ms + Off            (SCell; never observed, §4.1)
    B1: Mn + Ofn - Hys > Thresh
    B2: Ms + Hys < Thresh1  and  Mn + Ofn - Hys > Thresh2

The leave condition of each event mirrors the entry condition with the
hysteresis sign flipped, exactly as Eq. (2) of the paper shows for A3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.config.units import (
    REPORT_AMOUNT,
    REPORT_INTERVAL_MS,
    TIME_TO_TRIGGER_MS,
)

if TYPE_CHECKING:
    from repro.config.lte import MeasurementConfig


class EventType(enum.Enum):
    """All standardized LTE reporting event types plus periodic."""

    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    A5 = "A5"
    A6 = "A6"
    B1 = "B1"
    B2 = "B2"
    C1 = "C1"
    C2 = "C2"
    PERIODIC = "P"

    @property
    def is_inter_rat(self) -> bool:
        """B-series events target inter-RAT neighbors."""
        return self in (EventType.B1, EventType.B2)

    @property
    def needs_neighbor(self) -> bool:
        """Whether the entry condition involves a neighbor measurement."""
        return self not in (EventType.A1, EventType.A2, EventType.PERIODIC)


@dataclass(frozen=True)
class EventConfig:
    """Configuration of one armed reporting event.

    Attributes:
        event: The event type.
        metric: Trigger quantity, "rsrp" or "rsrq" (the paper finds
            AT&T uses both for A5, T-Mobile mostly RSRP).
        threshold1: Serving-cell threshold (A1/A2/A5/B2) or the single
            neighbor threshold (A4/B1); unused for A3/A6.
        threshold2: Neighbor threshold for the two-threshold events
            (A5/B2); unused otherwise.
        offset: A3/A6 offset (the paper's Delta_A3; may be negative in
            the wild, a practice Section 6 flags as questionable).
        hysteresis: Entry/leave hysteresis in dB.
        time_to_trigger_ms: TTT from the standardized enumeration.
        report_interval_ms: Interval between successive reports.
        report_amount: Number of reports (-1 = unbounded).
    """

    event: EventType
    metric: str = "rsrp"
    threshold1: float | None = None
    threshold2: float | None = None
    offset: float = 0.0
    hysteresis: float = 0.0
    time_to_trigger_ms: int = 0
    report_interval_ms: int = 480
    report_amount: int = 1

    def __post_init__(self):
        if self.metric not in ("rsrp", "rsrq"):
            raise ValueError(f"metric must be rsrp or rsrq, got {self.metric!r}")
        if self.time_to_trigger_ms not in TIME_TO_TRIGGER_MS:
            raise ValueError(f"non-standard time-to-trigger {self.time_to_trigger_ms}")
        if self.report_interval_ms not in REPORT_INTERVAL_MS:
            raise ValueError(f"non-standard report interval {self.report_interval_ms}")
        if self.report_amount not in REPORT_AMOUNT:
            raise ValueError(f"non-standard report amount {self.report_amount}")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        needs1 = self.event in (EventType.A1, EventType.A2, EventType.A4,
                                EventType.A5, EventType.B1, EventType.B2)
        if needs1 and self.threshold1 is None:
            raise ValueError(f"{self.event.value} requires threshold1")
        needs2 = self.event in (EventType.A5, EventType.B2)
        if needs2 and self.threshold2 is None:
            raise ValueError(f"{self.event.value} requires threshold2")

    def parameter_samples(self) -> list[tuple[str, object]]:
        """(registry parameter name, value) pairs this config contributes.

        These names match ``repro.config.parameters``; the dataset
        builders record them as configuration samples.
        """
        prefix = self.event.value.lower()
        samples: list[tuple[str, object]] = []
        if self.event is EventType.PERIODIC:
            samples.append(("report_interval", self.report_interval_ms))
            samples.append(("report_amount", self.report_amount))
            return samples
        if self.event is EventType.A3:
            samples.append(("a3_offset", self.offset))
        elif self.event in (EventType.A5, EventType.B2):
            samples.append((f"{prefix}_threshold1", self.threshold1))
            samples.append((f"{prefix}_threshold2", self.threshold2))
        else:
            samples.append((f"{prefix}_threshold", self.threshold1))
        samples.append((f"{prefix}_hysteresis", self.hysteresis))
        samples.append((f"{prefix}_time_to_trigger", self.time_to_trigger_ms))
        return samples


@dataclass(frozen=True)
class PeriodicConfig:
    """Carrier-configured periodic reporting of strongest cells."""

    metric: str = "rsrp"
    report_interval_ms: int = 5120
    report_amount: int = -1
    max_report_cells: int = 4

    def as_event_config(self) -> EventConfig:
        """The equivalent :class:`EventConfig` with type PERIODIC."""
        return EventConfig(
            event=EventType.PERIODIC,
            metric=self.metric,
            report_interval_ms=self.report_interval_ms,
            report_amount=self.report_amount,
        )


def evaluate_entry(
    config: EventConfig,
    serving: float | None,
    neighbor: float | None,
    neighbor_offset: float = 0.0,
) -> bool:
    """Whether the event's *entry* condition holds for one sample.

    Args:
        config: The armed event.
        serving: Serving-cell value of the trigger metric (calibrated).
        neighbor: Neighbor value (None when not applicable).
        neighbor_offset: Ofn + Ocn cell/frequency offsets of the
            evaluated neighbor.
    """
    e, hys = config.event, config.hysteresis
    if e is EventType.PERIODIC:
        return True
    if e is EventType.A1:
        return serving is not None and serving - hys > config.threshold1
    if e is EventType.A2:
        return serving is not None and serving + hys < config.threshold1
    if e in (EventType.A3, EventType.A6):
        if serving is None or neighbor is None:
            return False
        return neighbor + neighbor_offset - hys > serving + config.offset
    if e in (EventType.A4, EventType.B1):
        return neighbor is not None and neighbor + neighbor_offset - hys > config.threshold1
    if e in (EventType.A5, EventType.B2):
        if serving is None or neighbor is None:
            return False
        return (serving + hys < config.threshold1
                and neighbor + neighbor_offset - hys > config.threshold2)
    raise NotImplementedError(f"event {e.value} not supported")


def evaluate_leave(
    config: EventConfig,
    serving: float | None,
    neighbor: float | None,
    neighbor_offset: float = 0.0,
) -> bool:
    """Whether the event's *leave* condition holds for one sample.

    The leave condition is the entry condition with the hysteresis sign
    flipped; an armed event that satisfies neither stays in its current
    state (TS 36.331 5.5.4.1).
    """
    e, hys = config.event, config.hysteresis
    if e is EventType.PERIODIC:
        return False
    if e is EventType.A1:
        return serving is None or serving + hys < config.threshold1
    if e is EventType.A2:
        return serving is None or serving - hys > config.threshold1
    if e in (EventType.A3, EventType.A6):
        if serving is None or neighbor is None:
            return True
        return neighbor + neighbor_offset + hys < serving + config.offset
    if e in (EventType.A4, EventType.B1):
        return neighbor is None or neighbor + neighbor_offset + hys < config.threshold1
    if e in (EventType.A5, EventType.B2):
        if serving is None or neighbor is None:
            return True
        return (serving - hys > config.threshold1
                or neighbor + neighbor_offset + hys < config.threshold2)
    raise NotImplementedError(f"event {e.value} not supported")


class EventColumns(NamedTuple):
    """Entry parameters of one event type for many UEs, as columns.

    Stands in for an :class:`EventConfig` in :func:`entry_mask`: each
    parameter is an array that broadcasts against the serving and
    neighbor operands, one element per armed event (absent thresholds
    as NaN; their events never read them).
    """

    event: EventType
    hysteresis: np.ndarray
    threshold1: np.ndarray
    threshold2: np.ndarray
    offset: np.ndarray


def entry_mask(config: EventConfig | EventColumns, serving: Any, neighbors: Any) -> Any:
    """Vectorized :func:`evaluate_entry`.

    Takes one :class:`EventConfig` with ``serving`` a float and
    ``neighbors`` a candidate-value array, or :class:`EventColumns`
    with ``serving`` and ``neighbors`` arrays that broadcast against
    the columns.  Neighbor-triggered events (A3-A6, B1, B2) return the
    mask over ``neighbors``; the serving-only A1/A2 ignore
    ``neighbors`` and return the serving's shape.  The comparisons are
    written exactly as the scalar evaluator's and broadcast unchanged
    over the member axis, so every element agrees with
    :func:`evaluate_entry` bit for bit.

    Every neighbor condition reads ``neighbors - hys > x``, and
    ``v -> fl(v - hys)`` is monotone (rounding preserves order), so the
    condition holds for *some* candidate exactly when it holds for the
    candidates' maximum.  :class:`EventTable` relies on this: fed each
    row's candidate maximum (``-inf`` for no candidate), one call
    decides "any candidate enters" for every row at once.
    """
    e, hys = config.event, config.hysteresis
    if e is EventType.A1:
        return serving - hys > config.threshold1
    if e is EventType.A2:
        return serving + hys < config.threshold1
    if e in (EventType.A3, EventType.A6):
        return neighbors - hys > serving + config.offset
    if e in (EventType.A4, EventType.B1):
        return neighbors - hys > config.threshold1
    if e in (EventType.A5, EventType.B2):
        return (serving + hys < config.threshold1) & (neighbors - hys > config.threshold2)
    raise NotImplementedError(f"event {e.value} has no entry mask")


#: Trigger quantity -> leading (metric) axis of :class:`EventTable`.
METRIC_AXIS = {"rsrp": 0, "rsrq": 1}

#: Event types :func:`entry_mask` evaluates.
_MASKED_EVENTS = frozenset(
    (EventType.A1, EventType.A2, EventType.A3, EventType.A4,
     EventType.A5, EventType.A6, EventType.B1, EventType.B2)
)


class EventTable:
    """The armed entry conditions of many rows, as per-type columns.

    Row ``r`` holds one measConfig: its s-Measure and its events.  Each
    armed event type keeps ``(metric, row, slot)`` parameter columns:
    metric 0 is RSRP and 1 is RSRQ, and slot ``k`` is the row's
    ``k``-th event of that type on that metric.  An unarmed slot has a
    NaN hysteresis, which fails every comparison :func:`entry_mask`
    makes.

    :meth:`entry_rows` decides for every row at once whether some armed
    event's entry condition holds for some candidate.  That is all a
    quiet-tick proof needs, and it runs one :func:`entry_mask` call per
    armed event type over each row's candidate maximum.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.s_measure = np.full(n_rows, np.nan)
        #: Per event type: ``(4, 2, n_rows, slots)`` parameters
        #: (hysteresis, threshold1, threshold2, offset) and their
        #: :class:`EventColumns` views.
        self._params: dict[EventType, np.ndarray] = {}
        self._columns: dict[EventType, EventColumns] = {}
        self._armed: dict[EventType, int] = {}
        #: Per row: the (event type, metric, slot) cells it fills.
        self._slots: list[tuple] = [()] * n_rows

    def set_row(self, row: int, meas_config: MeasurementConfig | None) -> None:
        """Arm row ``row`` with a measConfig's events (None: none).

        Raises ``NotImplementedError`` for an event :func:`entry_mask`
        cannot evaluate; periodic reporting belongs in
        ``MeasurementConfig.periodic``, not in the event list.
        """
        self.clear_row(row)
        if meas_config is None:
            return
        for config in meas_config.events:
            if config.event not in _MASKED_EVENTS:
                raise NotImplementedError(f"event {config.event.value} has no entry mask")
        self.s_measure[row] = meas_config.s_measure
        slots: list[tuple[EventType, int, int]] = []
        for config in meas_config.events:
            event = config.event
            metric = METRIC_AXIS[config.metric]
            slot = sum(1 for e, m, _ in slots if e is event and m == metric)
            params = self._params.get(event)
            if params is None or slot >= params.shape[3]:
                params = self._widen(event, slot + 1)
            params[:, metric, row, slot] = (
                config.hysteresis,
                np.nan if config.threshold1 is None else config.threshold1,
                np.nan if config.threshold2 is None else config.threshold2,
                config.offset,
            )
            self._armed[event] += 1
            slots.append((event, metric, slot))
        self._slots[row] = tuple(slots)

    def clear_row(self, row: int) -> None:
        """Disarm every event of row ``row``."""
        for event, metric, slot in self._slots[row]:
            self._params[event][:, metric, row, slot] = np.nan
            self._armed[event] -= 1
        self._slots[row] = ()
        self.s_measure[row] = np.nan

    def _widen(self, event: EventType, slots: int) -> np.ndarray:
        params = np.full((4, 2, self.n_rows, slots), np.nan)
        old = self._params.get(event)
        if old is None:
            self._armed[event] = 0
        else:
            params[:, :, :, : old.shape[3]] = old
        self._params[event] = params
        self._columns[event] = EventColumns(event, *params)
        return params

    def entry_rows(
        self, serving: np.ndarray, values: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(entered, gate_open)`` per row for one measurement round.

        ``serving`` is the ``(2, rows)`` serving-cell [RSRP, RSRQ];
        ``values`` the ``(2, rows, cells)`` measured values and
        ``candidates`` the ``(2, rows, cells)`` [intra-RAT, inter-RAT]
        neighbor masks.  A row's gate is open when its serving RSRP is
        at most its s-Measure; a closed gate leaves its neighbor events
        no candidates, as in
        :meth:`~repro.ue.reporting.EventMonitor.step_round`.  Row
        ``r`` has entered exactly when some armed event's
        :func:`entry_mask` holds for the serving value alone (A1/A2) or
        for one of its candidates: each neighbor event reads the row's
        candidate maximum, which is exact by the monotonicity argument
        in :func:`entry_mask`.
        """
        gate = serving[0] <= self.s_measure
        # (metric, class, row) candidate maxima, -inf where none.
        maxima = np.where(candidates[None], values[:, None], -np.inf)
        maxima = maxima.max(axis=3, initial=-np.inf)
        maxima = np.where(gate, maxima, -np.inf)[..., None]
        serving = serving[:, :, None]
        entered = np.zeros(self.n_rows, dtype=bool)
        for event, columns in self._columns.items():
            if self._armed[event]:
                entry = entry_mask(columns, serving, maxima[:, int(event.is_inter_rat)])
                entered |= entry.any(axis=(0, 2))
        return entered, gate
