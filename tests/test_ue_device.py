"""Tests for the UE state machine."""

import pytest

from repro.cellnet.rat import RAT
from repro.rrc.messages import (
    MeasurementReport,
    RrcConnectionReconfiguration,
    Sib1,
    Sib3,
)
from repro.ue.device import RrcState, UserEquipment, lte_config_from_sibs


@pytest.fixture
def ue(env, server):
    return UserEquipment(env, server, "A", seed=11)


@pytest.fixture
def origin(scenario):
    return scenario.cities[0].origin


def test_initial_camp_prefers_lte(ue, origin):
    cell = ue.initial_camp(origin)
    assert cell.rat is RAT.LTE
    assert ue.serving is cell
    assert ue.serving_config is not None
    assert ue.state is RrcState.IDLE


def test_camp_rebuilds_config_from_sibs(ue, origin, server):
    cell = ue.initial_camp(origin)
    assert ue.serving_config == server.lte_config(cell).__class__(
        serving=server.lte_config(cell).serving,
        intra_neighbors=server.lte_config(cell).intra_neighbors,
        inter_freq_layers=server.lte_config(cell).inter_freq_layers,
        utra_layers=server.lte_config(cell).utra_layers,
        geran_layers=server.lte_config(cell).geran_layers,
        cdma_layers=server.lte_config(cell).cdma_layers,
    )


def test_listeners_see_sibs_on_camp(ue, origin):
    seen = []
    ue.add_listener(lambda t, message, direction: seen.append((message, direction)))
    ue.initial_camp(origin)
    types = [type(m).__name__ for m, _ in seen]
    assert "Sib1" in types and "Sib3" in types
    assert all(direction == "down" for _, direction in seen)


def test_connect_arms_monitor(ue, origin):
    ue.initial_camp(origin)
    ue.connect(0)
    assert ue.state is RrcState.CONNECTED
    assert ue.monitor is not None


def test_release_disarms(ue, origin):
    ue.initial_camp(origin)
    ue.connect(0)
    ue.release(100)
    assert ue.state is RrcState.IDLE
    assert ue.monitor is None


def test_connect_before_camp_raises(ue):
    with pytest.raises(RuntimeError):
        ue.connect(0)


def test_connected_drive_emits_reports_and_handoffs(ue, scenario, origin):
    messages = []
    ue.add_listener(lambda t, m, d: messages.append((t, m, d)))
    ue.initial_camp(origin)
    ue.connect(0)
    # Walk across the city until a handoff happens.
    handoffs = []
    for tick in range(1, 2500):
        t = tick * 200
        location = origin.offset(tick * 2.2, 0.0)
        handoffs.extend(ue.tick(t, location))
        if handoffs:
            break
    assert handoffs, "no handoff within the walk"
    reports = [m for _, m, d in messages if isinstance(m, MeasurementReport)]
    assert reports
    commands = [
        m for _, m, d in messages
        if isinstance(m, RrcConnectionReconfiguration) and m.mobility is not None
    ]
    assert commands
    assert handoffs[0].kind == "active"
    assert handoffs[0].source != handoffs[0].target


def test_idle_drive_reselects(ue, scenario, origin):
    ue.initial_camp(origin)
    handoffs = []
    for tick in range(1, 2500):
        t = tick * 200
        location = origin.offset(tick * 2.2, 0.0)
        handoffs.extend(ue.tick(t, location))
        if handoffs:
            break
    assert handoffs
    assert handoffs[0].kind == "idle"
    assert ue.state is RrcState.IDLE


def test_interruption_window(ue, origin):
    ue.interrupted_until_ms = 1000
    assert ue.is_interrupted(500)
    assert not ue.is_interrupted(1000)


def test_phy_meas_emitted_periodically(ue, origin):
    from repro.rrc.messages import PhyServingMeas

    seen = []
    ue.add_listener(lambda t, m, d: seen.append(m))
    ue.initial_camp(origin)
    ue.connect(0)
    for tick in range(0, 11):
        ue.tick(tick * 200, origin)
    phy = [m for m in seen if isinstance(m, PhyServingMeas)]
    assert len(phy) >= 4  # 500 ms cadence over 2 s+


def test_lte_config_from_sibs_requires_sib3():
    with pytest.raises(ValueError, match="SIB3"):
        lte_config_from_sibs([Sib1(carrier="A", gci=1)])


def test_lte_config_from_sibs_minimal():
    from repro.config.lte import ServingCellConfig

    config = lte_config_from_sibs([Sib3(config=ServingCellConfig(q_hyst=2.0))])
    assert config.serving.q_hyst == 2.0
    assert config.inter_freq_layers == ()
