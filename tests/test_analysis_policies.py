"""Tests for handoff-policy inference."""

from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.lte import MeasurementConfig
from repro.core.analysis.policies import (
    carrier_policy_profile,
    classify_policy,
)
from repro.core.crawler import CellConfigSnapshot


def _meas(events=(), periodic=None):
    return MeasurementConfig(events=tuple(events), periodic=periodic)


def test_permissive_a5_is_performance_driven():
    meas = _meas([EventConfig(event=EventType.A5, threshold1=-44.0,
                              threshold2=-114.0)])
    label = classify_policy(meas)
    assert label.trigger == "A5"
    assert label.label == "performance-driven"
    assert label.eagerness > 0.5


def test_strict_a5_is_overhead_driven():
    meas = _meas([EventConfig(event=EventType.A5, threshold1=-120.0,
                              threshold2=-110.0)])
    label = classify_policy(meas)
    assert label.label == "overhead-driven"


def test_small_a3_offset_hands_off_early():
    eager = classify_policy(_meas([EventConfig(event=EventType.A3, offset=1.0,
                                               time_to_trigger_ms=40)]))
    reluctant = classify_policy(_meas([EventConfig(event=EventType.A3, offset=12.0,
                                                   time_to_trigger_ms=2560)]))
    assert eager.eagerness > reluctant.eagerness
    assert reluctant.label == "overhead-driven"


def test_a2_only_config_has_no_trigger():
    meas = _meas([EventConfig(event=EventType.A2, threshold1=-114.0)])
    label = classify_policy(meas)
    assert label.trigger == "none"
    assert label.label == "balanced"


def test_periodic_policy():
    label = classify_policy(_meas(periodic=PeriodicConfig(report_interval_ms=2048)))
    assert label.trigger == "P"


def test_carrier_policy_profile():
    def snapshot(carrier, gci, meas):
        return CellConfigSnapshot(
            carrier=carrier, gci=gci, rat="LTE", channel=850, city="X",
            first_seen_ms=0, meas_config=meas,
        )

    snapshots = [
        snapshot("A", 1, _meas([EventConfig(event=EventType.A5, threshold1=-44.0,
                                            threshold2=-114.0)])),
        snapshot("A", 2, _meas([EventConfig(event=EventType.A3, offset=3.0)])),
        snapshot("T", 1, _meas([EventConfig(event=EventType.A3, offset=12.0,
                                            time_to_trigger_ms=2560)])),
        snapshot("T", 2, None),  # no measConfig observed: skipped
    ]
    snapshots[3].meas_config = None
    profile = carrier_policy_profile(snapshots)
    assert profile["A"]["n"] == 2
    assert profile["T"]["n"] == 1
    assert profile["A"]["mean_eagerness"] > profile["T"]["mean_eagerness"]
    assert profile["T"]["labels"] == {"overhead-driven": 1.0}


def test_profile_population_has_mixed_policies(tiny_d2):
    """The synthetic carriers should span the policy axis."""
    from repro.core.crawler import ConfigCrawler
    from repro.rrc.diag import DiagWriter
    from repro.cellnet.rat import RAT

    cells = [c for c in tiny_d2.plan.registry.by_carrier("A")
             if c.rat is RAT.LTE][:150]
    writer = DiagWriter.in_memory()
    for cell in cells:
        for message in tiny_d2.server.sib_messages(cell):
            writer.write(0, message)
        writer.write(0, tiny_d2.server.connection_reconfiguration(cell))
    snapshots = ConfigCrawler.crawl(writer.getvalue())
    profile = carrier_policy_profile(snapshots)
    assert profile["A"]["n"] > 100
    assert len(profile["A"]["labels"]) >= 2
