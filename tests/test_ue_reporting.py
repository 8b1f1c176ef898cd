"""Tests for the event monitor (time-to-trigger reporting)."""

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT
from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.lte import MeasurementConfig
from repro.ue.measurement import FilteredMeasurement
from repro.ue.reporting import EventMonitor


def _cell(gci, rat=RAT.LTE, channel=850):
    return Cell(cell_id=CellId("A", gci), rat=rat, channel=channel, pci=0,
                location=Point(0, 0))


def _fm(cell, rsrp, rsrq=-11.0):
    return FilteredMeasurement(cell=cell, rsrp_dbm=rsrp, rsrq_db=rsrq)


SERVING = _cell(1)
NEIGHBOR = _cell(2)


def _monitor(ttt=400, offset=3.0, hysteresis=1.0, s_measure=-44.0):
    config = MeasurementConfig(
        events=(
            EventConfig(event=EventType.A3, offset=offset, hysteresis=hysteresis,
                        time_to_trigger_ms=ttt if ttt in (0, 40, 320, 640) else 320),
        ),
        s_measure=s_measure,
    )
    return EventMonitor(config)


def test_report_fires_after_ttt():
    monitor = _monitor(ttt=320)
    serving = _fm(SERVING, -100.0)
    strong = [_fm(NEIGHBOR, -90.0)]
    assert monitor.step(0, serving, strong, []) == []
    assert monitor.step(200, serving, strong, []) == []
    reports = monitor.step(400, serving, strong, [])
    assert len(reports) == 1
    assert reports[0].event is EventType.A3
    assert reports[0].neighbors[0].cell.cell_id == NEIGHBOR.cell_id


def test_flicker_resets_ttt():
    monitor = _monitor(ttt=320)
    serving = _fm(SERVING, -100.0)
    strong = [_fm(NEIGHBOR, -90.0)]
    weak = [_fm(NEIGHBOR, -105.0)]
    monitor.step(0, serving, strong, [])
    monitor.step(200, serving, weak, [])    # leave condition holds: reset
    monitor.step(400, serving, strong, [])  # timer restarts here
    assert monitor.step(600, serving, strong, []) == []
    assert monitor.step(800, serving, strong, []) != []


def test_no_rereport_until_leave():
    monitor = _monitor(ttt=0)
    serving = _fm(SERVING, -100.0)
    strong = [_fm(NEIGHBOR, -90.0)]
    assert monitor.step(0, serving, strong, [])
    assert monitor.step(200, serving, strong, []) == []
    # Leave (below offset - hysteresis), then re-enter: report again.
    monitor.step(400, serving, [_fm(NEIGHBOR, -104.0)], [])
    assert monitor.step(600, serving, strong, [])


def test_s_measure_gates_neighbor_events():
    monitor = _monitor(ttt=0, s_measure=-103.0)
    strong_serving = _fm(SERVING, -80.0)
    weak_serving = _fm(SERVING, -110.0)
    neighbor = [_fm(NEIGHBOR, -70.0)]
    assert monitor.step(0, strong_serving, neighbor, []) == []
    assert monitor.step(200, weak_serving, neighbor, []) != []


def test_serving_only_event_ignores_gate():
    config = MeasurementConfig(
        events=(EventConfig(event=EventType.A2, threshold1=-105.0,
                            hysteresis=1.0, time_to_trigger_ms=0),),
        s_measure=-140.0,  # gate never opens
    )
    monitor = EventMonitor(config)
    reports = monitor.step(0, _fm(SERVING, -110.0), [], [])
    assert [r.event for r in reports] == [EventType.A2]
    assert reports[0].neighbors == ()


def test_periodic_reporting_interval():
    config = MeasurementConfig(
        events=(), periodic=PeriodicConfig(report_interval_ms=2048), s_measure=-44.0
    )
    monitor = EventMonitor(config)
    serving = _fm(SERVING, -100.0)
    neighbors = [_fm(NEIGHBOR, -95.0)]
    first = monitor.step(0, serving, neighbors, [])
    assert [r.event for r in first] == [EventType.PERIODIC]
    assert monitor.step(1000, serving, neighbors, []) == []
    assert monitor.step(2100, serving, neighbors, []) != []


def test_periodic_respects_max_report_cells():
    config = MeasurementConfig(
        events=(),
        periodic=PeriodicConfig(report_interval_ms=2048, max_report_cells=2),
        s_measure=-44.0,
    )
    monitor = EventMonitor(config)
    neighbors = [_fm(_cell(i), -90.0 - i) for i in range(2, 8)]
    reports = monitor.step(0, _fm(SERVING, -100.0), neighbors, [])
    assert len(reports[0].neighbors) == 2


def test_inter_rat_event_uses_inter_rat_neighbors():
    config = MeasurementConfig(
        events=(EventConfig(event=EventType.B1, threshold1=-100.0,
                            hysteresis=0.5, time_to_trigger_ms=0),),
        s_measure=-44.0,
    )
    monitor = EventMonitor(config)
    umts = _cell(9, rat=RAT.UMTS, channel=4385)
    reports = monitor.step(0, _fm(SERVING, -110.0), [], [_fm(umts, -95.0)])
    assert reports and reports[0].event is EventType.B1
    # LTE neighbors must not satisfy B1.
    monitor2 = EventMonitor(config)
    assert monitor2.step(0, _fm(SERVING, -110.0), [_fm(NEIGHBOR, -95.0)], []) == []


def test_armed_events_listing():
    config = MeasurementConfig(
        events=(EventConfig(event=EventType.A2, threshold1=-110.0),),
        periodic=PeriodicConfig(),
    )
    monitor = EventMonitor(config)
    assert monitor.armed_events == [EventType.A2, EventType.PERIODIC]


def test_multiple_neighbors_reported_sorted():
    monitor = _monitor(ttt=0)
    serving = _fm(SERVING, -100.0)
    neighbors = [_fm(_cell(2), -92.0), _fm(_cell(3), -88.0)]
    reports = monitor.step(0, serving, neighbors, [])
    values = [n.rsrp_dbm for n in reports[0].neighbors]
    assert values == sorted(values, reverse=True)
