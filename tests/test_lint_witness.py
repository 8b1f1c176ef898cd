"""Witness synthesis and simulator replay tests.

The canary tests are the coverage analyzer's ground truth: an HC401
dead-zone witness replayed through the drive simulator must actually
exhibit the predicted missed-handoff failure, an HC405 overlap witness
must actually ping-pong, and in both cases the corrected twin of the
configuration must be failure-free in the *identical* geometry.
"""

from __future__ import annotations

from repro.config.events import EventConfig, EventType
from repro.config.lte import (
    LteCellConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.core.crawler import CellConfigSnapshot
from repro.lint.coverage import analyze_cell
from repro.lint.fixtures import dead_zone_fixture
from repro.lint.witness import (
    CoverageWitness,
    corrected_twin,
    distance_for_rsrp,
    replay_witness,
    replay_witnesses,
    rsrp_at_distance,
)


def _snapshot(config: LteCellConfig, gci: int = 0x300) -> CellConfigSnapshot:
    return CellConfigSnapshot(
        carrier="A", gci=gci, rat="LTE", channel=1975, city="X",
        first_seen_ms=0, lte_config=config,
    )


def _config(event: EventConfig, s_measure: float = -44.0) -> LteCellConfig:
    return LteCellConfig(
        serving=ServingCellConfig(),
        measurement=MeasurementConfig(events=(event,), s_measure=s_measure),
    )


DEAD_ZONE = _config(EventConfig(
    event=EventType.A5, threshold1=-126.0, threshold2=-121.0,
    hysteresis=1.0, time_to_trigger_ms=1024,
))
DEAD_ZONE_FIXED = _config(EventConfig(
    event=EventType.A5, threshold1=-106.0, threshold2=-106.0,
    hysteresis=1.0, time_to_trigger_ms=480,
))
OVERLAP = _config(EventConfig(
    event=EventType.A5, threshold1=-95.0, threshold2=-110.0,
    hysteresis=1.0, time_to_trigger_ms=100,
), s_measure=-80.0)
OVERLAP_FIXED = _config(EventConfig(
    event=EventType.A5, threshold1=-104.0, threshold2=-98.0,
    hysteresis=2.0, time_to_trigger_ms=480,
), s_measure=-80.0)


def test_radio_inversion_is_exact():
    for level in (-85.0, -104.0, -115.0, -127.0):
        distance = distance_for_rsrp(level, channel=1975)
        assert abs(rsrp_at_distance(distance, channel=1975) - level) < 1e-9


def test_witness_round_trips_through_dict():
    result = analyze_cell(_snapshot(DEAD_ZONE), ("HC401",))
    ((_, witness),) = result.witnesses
    restored = CoverageWitness.from_dict(witness.to_dict())
    assert restored == witness
    assert restored.config == witness.config


def test_hc401_witness_replay_reproduces_missed_handoff():
    """The dead-zone canary: the predicted failure actually happens."""
    result = analyze_cell(_snapshot(DEAD_ZONE), ("HC401",))
    ((_, witness),) = result.witnesses
    outcome = replay_witness(witness)
    assert outcome.reproduced
    assert outcome.kind == "missed-handoff"
    # The failure is observable: either an RLF or a sustained outage
    # that no handoff interrupts.
    assert outcome.rlf_count >= 1 or outcome.max_outage_run_ticks >= 25


def test_hc401_corrected_twin_is_failure_free():
    result = analyze_cell(_snapshot(DEAD_ZONE), ("HC401",))
    ((_, witness),) = result.witnesses
    twin = corrected_twin(witness.config, DEAD_ZONE_FIXED)
    # Statically clean...
    assert analyze_cell(_snapshot(twin), ("HC401",)).findings == ()
    # ...and dynamically rescued in the identical geometry: the handoff
    # arrives before service ever degrades into an outage.
    outcome = replay_witness(witness, serving_config=twin, neighbor_config=twin)
    assert not outcome.reproduced
    assert outcome.handoffs >= 1
    assert (
        outcome.first_outage_ms < 0
        or 0 <= outcome.first_handoff_ms < outcome.first_outage_ms
    )


def test_hc405_witness_replay_ping_pongs():
    result = analyze_cell(_snapshot(OVERLAP), ("HC405",))
    ((_, witness),) = result.witnesses
    assert witness.kind == "ping-pong"
    outcome = replay_witness(witness)
    assert outcome.reproduced
    assert outcome.flips >= 2


def test_hc405_corrected_twin_does_not_oscillate():
    result = analyze_cell(_snapshot(OVERLAP), ("HC405",))
    ((_, witness),) = result.witnesses
    twin = corrected_twin(witness.config, OVERLAP_FIXED)
    assert analyze_cell(_snapshot(twin), ("HC405",)).findings == ()
    outcome = replay_witness(witness, serving_config=twin, neighbor_config=twin)
    assert not outcome.reproduced
    assert outcome.flips == 0


def test_replay_witnesses_batches_deterministically():
    witnesses = [
        witness
        for snap in (_snapshot(DEAD_ZONE, gci=0x300),)
        for _, witness in analyze_cell(snap, ("HC401", "HC404")).witnesses
    ]
    assert len(witnesses) == 2
    serial = replay_witnesses(witnesses)
    sharded = replay_witnesses(witnesses, workers=2)
    assert serial == sharded
    assert all(outcome.reproduced for outcome in serial)


def test_fixture_witnesses_replay_end_to_end():
    """Fixture -> analyzer -> witness -> simulator, all four findings."""
    scenario = dead_zone_fixture(misconfigured=True)
    from repro.lint.engine import lint_world

    report = lint_world(
        scenario.env, scenario.server, codes=["HC401"], coverage=True,
    )
    assert len(report.witnesses) == 2
    outcomes = replay_witnesses(list(report.witnesses.values()))
    assert all(outcome.reproduced for outcome in outcomes)
