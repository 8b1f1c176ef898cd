"""Tests for the MMLab server orchestration."""

import numpy as np
import pytest

from repro.core.server import MMLabServer
from repro.simulate.traffic import Speedtest


@pytest.fixture
def mmlab_server(scenario):
    return MMLabServer(scenario, seed=5)


def test_register_participants(mmlab_server):
    a = mmlab_server.register("A")
    b = mmlab_server.register("T")
    assert a != b
    assert mmlab_server.pending_count(a) == 0


def test_type1_patch_flow(mmlab_server, scenario):
    participant = mmlab_server.register("A")
    origin = scenario.cities[0].origin
    patch_id = mmlab_server.push_type1(
        participant, [origin, origin.offset(800.0, 0.0)], observed_day=12.0
    )
    assert mmlab_server.pending_count(participant) == 1
    assert mmlab_server.run_pending(participant) == 1
    assert mmlab_server.pending_count(participant) == 0
    assert len(mmlab_server.archive) == 1
    samples = mmlab_server.harvest_config_samples()
    assert samples
    assert all(s.observed_day == 12.0 for s in samples)
    assert all(s.round_index == patch_id for s in samples)
    assert {s.carrier for s in samples} == {"A"}


def test_type2_patch_flow(mmlab_server, scenario):
    participant = mmlab_server.register("A")
    trajectory = scenario.urban_trajectory(np.random.default_rng(9), duration_s=240.0)
    mmlab_server.push_type2(participant, trajectory, Speedtest())
    mmlab_server.run_pending(participant)
    instances = mmlab_server.harvest_handoff_instances()
    # Short drive: instances may be few, but the pipeline must work and
    # carry throughput alignment when present.
    for instance in instances:
        assert instance.carrier == "A"


def test_run_all_pending(mmlab_server, scenario):
    origin = scenario.cities[0].origin
    for carrier in ("A", "T"):
        participant = mmlab_server.register(carrier)
        mmlab_server.push_type1(participant, [origin])
    assert mmlab_server.run_all_pending() == 2
    carriers = {log.carrier for log in mmlab_server.archive}
    assert carriers == {"A", "T"}


def test_type1_harvest_contains_no_handoffs(mmlab_server, scenario):
    participant = mmlab_server.register("A")
    mmlab_server.push_type1(participant, [scenario.cities[0].origin])
    mmlab_server.run_pending(participant)
    assert mmlab_server.harvest_handoff_instances() == []


def test_patch_ids_unique(mmlab_server, scenario):
    participant = mmlab_server.register("A")
    origin = scenario.cities[0].origin
    ids = {
        mmlab_server.push_type1(participant, [origin]) for _ in range(3)
    }
    assert len(ids) == 3


def test_run_pending_preserves_push_order(mmlab_server, scenario):
    """The queue drain is FIFO: archive order equals push order."""
    participant = mmlab_server.register("A")
    origin = scenario.cities[0].origin
    pushed = [
        mmlab_server.push_type1(participant, [origin.offset(200.0 * i, 0.0)])
        for i in range(5)
    ]
    assert mmlab_server.run_pending(participant) == 5
    assert [log.patch.patch_id for log in mmlab_server.archive] == pushed


def test_run_all_pending_interleaves_participants_in_id_order(mmlab_server, scenario):
    origin = scenario.cities[0].origin
    a = mmlab_server.register("A")
    t = mmlab_server.register("T")
    # Push in reverse participant order; execution still goes A then T.
    mmlab_server.push_type1(t, [origin])
    mmlab_server.push_type1(a, [origin])
    mmlab_server.push_type1(a, [origin.offset(500.0, 0.0)])
    assert mmlab_server.run_all_pending() == 3
    assert [log.participant_id for log in mmlab_server.archive] == [a, a, t]


def test_run_all_pending_on_process_backend_matches_serial(scenario):
    """Patches fan out over worker processes; archives stay identical."""
    from repro.core.server import MMLabServer

    origin = scenario.cities[0].origin
    servers = [MMLabServer(scenario, seed=5, workers=w) for w in (1, 2)]
    for server in servers:
        for carrier in ("A", "T"):
            participant = server.register(carrier)
            server.push_type1(
                participant, [origin, origin.offset(800.0, 0.0)], observed_day=2.0
            )
    serial, pooled = servers
    assert serial.run_all_pending() == 2
    assert pooled.run_all_pending() == 2
    assert [log.log_bytes for log in pooled.archive] == [
        log.log_bytes for log in serial.archive
    ]
    assert pooled.pending_count(0) == 0


def test_streaming_harvest_matches_list_harvest(mmlab_server, scenario):
    participant = mmlab_server.register("A")
    mmlab_server.push_type1(participant, [scenario.cities[0].origin])
    mmlab_server.run_pending(participant)
    assert list(mmlab_server.iter_config_samples()) == (
        mmlab_server.harvest_config_samples()
    )
