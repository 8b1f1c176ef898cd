"""Failure-injection tests: the pipeline under adverse conditions."""

import pytest

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.deployment import DeploymentPlan, city_by_name, deploy_city
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT
from repro.cellnet.world import RadioEnvironment
from repro.core.crawler import ConfigCrawler
from repro.core.handoffs import extract_handoff_instances
from repro.rrc.broadcast import ConfigServer
from repro.rrc.codec import CodecError
from repro.rrc.diag import DiagError, DiagWriter
from repro.rrc.messages import MeasurementReport, Sib1, Sib3
from repro.ue.device import RrcState, UserEquipment


def test_ue_raises_outside_coverage(env, server):
    ue = UserEquipment(env, server, "A", seed=1)
    nowhere = Point(9_000_000.0, 9_000_000.0)
    with pytest.raises(RuntimeError, match="no A coverage"):
        ue.initial_camp(nowhere)


def test_radio_link_failure_reestablishes(env, server, scenario):
    """Drag a connected UE out of its serving cell's audible range."""
    ue = UserEquipment(env, server, "A", seed=2)
    origin = scenario.cities[0].origin
    first = ue.initial_camp(origin, 0)
    ue.connect(0)
    # Teleport far across the city: the serving cell drops out of the
    # measurement snapshot and the UE must re-establish.
    extent = scenario.cities[0].rings * scenario.cities[0].site_spacing_m
    far = origin.offset(extent * 0.9, 0.0)
    ue.tick(200, far)
    assert ue.serving is not None
    assert ue.serving.cell_id != first.cell_id
    assert ue.state is RrcState.CONNECTED
    assert ue.is_interrupted(300)  # re-establishment outage


def test_crawler_rejects_truncated_log(env, server, lte_cell):
    writer = DiagWriter.in_memory()
    for message in server.sib_messages(lte_cell):
        writer.write(0, message)
    data = writer.getvalue()
    with pytest.raises((DiagError, CodecError)):
        ConfigCrawler.crawl(data[: len(data) - 7])


def test_crawler_tolerates_out_of_order_sibs():
    """A SIB3 with no preceding SIB1 (mid-capture start) is dropped."""
    writer = DiagWriter.in_memory()
    writer.write(0, Sib3())
    writer.write(10, Sib1(carrier="A", gci=5, channel=850, rat="LTE"))
    writer.write(20, Sib3())
    snapshots = ConfigCrawler.crawl(writer.getvalue())
    assert [s.gci for s in snapshots] == [5]


def test_extractor_handles_report_without_handover():
    """A measurement report that the network ignored must not produce
    an instance."""
    writer = DiagWriter.in_memory()
    writer.write(0, Sib1(carrier="A", gci=1, channel=850, rat="LTE"))
    writer.write(100, MeasurementReport(event="A2"))
    instances = extract_handoff_instances(writer.getvalue(), "A")
    assert instances == []


def test_extractor_handles_trace_ending_mid_handover():
    """Sib1 of the new cell arrives but the trace ends before its PHY
    measurement: the instance is kept with rsrp_after unset."""
    from repro.rrc.messages import MobilityControlInfo, RrcConnectionReconfiguration

    writer = DiagWriter.in_memory()
    writer.write(0, Sib1(carrier="A", gci=1, channel=850, rat="LTE"))
    writer.write(100, MeasurementReport(event="A3"))
    writer.write(250, RrcConnectionReconfiguration(
        mobility=MobilityControlInfo(target_carrier="A", target_gci=2,
                                     target_channel=850)))
    writer.write(300, Sib1(carrier="A", gci=2, channel=850, rat="LTE"))
    instances = extract_handoff_instances(writer.getvalue(), "A")
    assert len(instances) == 1
    assert instances[0].rsrp_after is None
    assert instances[0].decisive_event == "A3"


def test_single_cell_island():
    """A one-cell deployment: the UE camps and stays; no handoffs."""
    plan = DeploymentPlan()
    cell = Cell(cell_id=CellId("A", 1), rat=RAT.LTE, channel=850, pci=1,
                location=Point(0.0, 0.0), city="Island")
    plan.registry.add(cell)
    env = RadioEnvironment(plan)
    server = ConfigServer(env, seed=1)
    ue = UserEquipment(env, server, "A", seed=1)
    ue.initial_camp(Point(50.0, 0.0), 0)
    ue.connect(0)
    for tick in range(1, 50):
        events = ue.tick(tick * 200, Point(50.0 + tick, 0.0))
        assert events == []
    assert ue.serving.cell_id == cell.cell_id


def test_empty_city_has_no_carrier_cells():
    plan = DeploymentPlan()
    deploy_city(city_by_name("Oslo"), plan, seed=3)
    assert plan.registry.by_carrier("A") == []  # AT&T not in Norway
