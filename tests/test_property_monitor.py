"""Stateful property test: the event monitor's TTT state machine.

Invariants checked against a reference interpretation of TS 36.331:

* no report fires before the entry condition has held continuously for
  the configured time-to-trigger;
* a neighbor in the reported state never re-reports until its leave
  condition has held;
* the monitor never reports the serving cell as an A3 neighbor.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT
from repro.config.events import EventConfig, EventType, evaluate_entry, evaluate_leave
from repro.config.lte import MeasurementConfig
from repro.ue.measurement import FilteredMeasurement
from repro.ue.reporting import EventMonitor

_SERVING = Cell(cell_id=CellId("A", 1), rat=RAT.LTE, channel=850, pci=0,
                location=Point(0, 0))
_NEIGHBOR = Cell(cell_id=CellId("A", 2), rat=RAT.LTE, channel=850, pci=0,
                 location=Point(0, 0))

_CONFIG = EventConfig(event=EventType.A3, offset=3.0, hysteresis=1.0,
                      time_to_trigger_ms=320)
_TICK_MS = 100


def _fm(cell, rsrp):
    return FilteredMeasurement(cell=cell, rsrp_dbm=rsrp, rsrq_db=-11.0)


class MonitorMachine(RuleBasedStateMachine):
    """Drives the monitor with arbitrary signal paths and checks TTT."""

    @initialize()
    def setup(self):
        self.monitor = EventMonitor(
            MeasurementConfig(events=(_CONFIG,), s_measure=-44.0)
        )
        self.now_ms = 0
        self.entry_since = None  # reference TTT tracker
        self.reported = False

    @rule(
        serving=st.floats(min_value=-130.0, max_value=-60.0),
        neighbor=st.floats(min_value=-130.0, max_value=-60.0),
    )
    def step(self, serving, neighbor):
        self.now_ms += _TICK_MS
        serving_meas = _fm(_SERVING, serving)
        neighbor_meas = _fm(_NEIGHBOR, neighbor)
        entry = evaluate_entry(_CONFIG, serving, neighbor)
        leave = evaluate_leave(_CONFIG, serving, neighbor)
        # Reference model update (mirrors the spec's wording).
        if not self.reported:
            if entry and self.entry_since is None:
                self.entry_since = self.now_ms
            elif leave:
                self.entry_since = None
        reports = self.monitor.step(self.now_ms, serving_meas, [neighbor_meas], [])
        if reports:
            assert not self.reported, "re-reported without leaving"
            assert self.entry_since is not None, "report without entry"
            held = self.now_ms - self.entry_since
            assert held >= _CONFIG.time_to_trigger_ms, f"TTT violated: {held}"
            for report in reports:
                for fired in report.neighbors:
                    assert fired.cell.cell_id != _SERVING.cell_id
            self.reported = True
            self.entry_since = None
        if self.reported and leave:
            self.reported = False

    @invariant()
    def time_monotonic(self):
        assert self.now_ms >= 0


TestMonitorStateMachine = MonitorMachine.TestCase
TestMonitorStateMachine.settings = settings(max_examples=40, stateful_step_count=60)
