"""Signal-space coverage analyzer (HC401-HC405) tests.

Covers the fire-region extraction, the critical-band gap subtraction,
each rule's trigger and clean cases, the per-cell digest cache, and the
worker-count independence of full reports.
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.config.events import EventConfig, EventType
from repro.config.lte import (
    InterFreqLayerConfig,
    LteCellConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.core.crawler import CellConfigSnapshot
from repro.lint.baseline import Baseline
from repro.lint.coverage import (
    CRITICAL_BAND,
    CoverageAnalyzer,
    analyze_cell,
    coverage_gaps,
    fire_regions,
)
from repro.lint.engine import lint_snapshots, lint_world
from repro.lint.fixtures import dead_zone_fixture
from repro.lint.pingpong import Interval
from repro.lint.report import render_json, render_sarif, render_text
from repro.lint.witness import RLF_RSRP_DBM

ALL_HC4XX = ("HC401", "HC402", "HC403", "HC404", "HC405")


def _snapshot(
    events: tuple[EventConfig, ...],
    s_measure: float = -44.0,
    gci: int = 0x100,
    channel: int = 1975,
    serving: ServingCellConfig | None = None,
    layers: tuple[InterFreqLayerConfig, ...] = (),
) -> CellConfigSnapshot:
    config = LteCellConfig(
        serving=serving or ServingCellConfig(),
        inter_freq_layers=layers,
        measurement=MeasurementConfig(events=events, s_measure=s_measure),
    )
    return CellConfigSnapshot(
        carrier="A", gci=gci, rat="LTE", channel=channel, city="X",
        first_seen_ms=0, lte_config=config,
    )


def _a5(t1: float, t2: float, hys: float = 1.0, ttt: int = 480) -> EventConfig:
    return EventConfig(
        event=EventType.A5, threshold1=t1, threshold2=t2,
        hysteresis=hys, time_to_trigger_ms=ttt,
    )


SANE = _a5(-106.0, -106.0)


class TestFireRegions:
    def test_a5_serving_region_clipped_by_smeasure(self):
        snap = _snapshot((_a5(-100.0, -95.0),), s_measure=-120.0)
        (a5,) = [r for r in fire_regions(snap) if r.label == "A5[0]"]
        # serving clause [floor, -101) intersected with gate [floor, -120]
        assert a5.serving == Interval(-140.0, -120.0)
        assert a5.handoff and a5.mode == "active"

    def test_a1_a2_regions_never_hand_off(self):
        snap = _snapshot((
            EventConfig(event=EventType.A1, threshold1=-80.0, hysteresis=1.0),
            EventConfig(event=EventType.A2, threshold1=-110.0, hysteresis=1.0),
        ))
        regions = {r.label: r for r in fire_regions(snap)}
        assert not regions["A1[0]"].handoff
        assert not regions["A2[1]"].handoff
        assert regions["A2[1]"].serving == Interval(
            -140.0, -111.0, hi_open=True
        )

    def test_a3_region_is_relative_with_margin(self):
        snap = _snapshot((EventConfig(
            event=EventType.A3, offset=3.0, hysteresis=1.0,
        ),))
        (a3,) = [r for r in fire_regions(snap) if r.label == "A3[0]"]
        assert a3.relative and a3.margin_db == 4.0 and a3.handoff

    def test_rsrq_event_gets_unconstrained_serving(self):
        snap = _snapshot((replace(_a5(-10.0, -10.0), metric="rsrq"),))
        (a5,) = [r for r in fire_regions(snap) if r.label == "A5[0]"]
        assert a5.serving.covers(CRITICAL_BAND)

    def test_non_lte_snapshot_has_no_regions(self):
        snap = CellConfigSnapshot(
            carrier="A", gci=1, rat="UMTS", channel=4385, city="X",
            first_seen_ms=0,
        )
        assert fire_regions(snap) == ()

    def test_lower_priority_layer_adds_idle_reselection_region(self):
        layer = InterFreqLayerConfig(
            dl_carrier_freq=850, cell_reselection_priority=2,
        )
        snap = _snapshot((SANE,), layers=(layer,))
        labels = [r.label for r in fire_regions(snap)]
        assert "resel-lower" in labels
        no_layer = _snapshot((SANE,))
        assert "resel-lower" not in [r.label for r in fire_regions(no_layer)]


class TestGapSubtraction:
    def test_sane_a5_leaves_no_gap(self):
        assert coverage_gaps(fire_regions(_snapshot((SANE,)))) == ()

    def test_buried_a5_leaves_the_critical_band_uncovered(self):
        snap = _snapshot((_a5(-126.0, -121.0, ttt=1024),))
        (gap,) = coverage_gaps(fire_regions(snap))
        assert gap == Interval(-127.0, -115.0)

    def test_partial_coverage_splits_the_band(self):
        # Two A5s covering [-140, -125) and (-119-eps side) leave a
        # middle gap.
        snap = _snapshot((
            _a5(-124.0, -120.0),          # serving < -125
            replace(_a5(-106.0, -106.0), threshold1=-106.0),
        ), s_measure=-118.0)
        # second event clipped by gate [-140, -118]: covers [-140, -118]
        gaps = coverage_gaps(fire_regions(snap))
        assert gaps == (Interval(-118.0, -115.0, lo_open=True),)

    def test_idle_reselection_does_not_count_as_coverage(self):
        layer = InterFreqLayerConfig(
            dl_carrier_freq=850, cell_reselection_priority=2,
        )
        snap = _snapshot((_a5(-126.0, -121.0),), layers=(layer,))
        # resel-lower covers [floor, -116] but is idle-mode only.
        (gap,) = coverage_gaps(fire_regions(snap))
        assert gap == Interval(-127.0, -115.0)


class TestRules:
    def test_hc401_fires_with_witness_and_sane_config_is_clean(self):
        bad = _snapshot((_a5(-126.0, -121.0, ttt=1024),))
        result = analyze_cell(bad, ("HC401",))
        (finding,) = result.findings
        assert finding.code == "HC401" and finding.severity == "problem"
        ((fingerprint, witness),) = result.witnesses
        assert fingerprint == finding.fingerprint
        assert witness.kind == "missed-handoff"
        assert witness.exit_dbm <= RLF_RSRP_DBM
        assert analyze_cell(_snapshot((SANE,)), ("HC401",)).findings == ()

    def test_hc402_shadowed_a5_behind_laxer_a4(self):
        a4 = EventConfig(
            event=EventType.A4, threshold1=-100.0, hysteresis=1.0,
            time_to_trigger_ms=100,
        )
        a5 = _a5(-110.0, -95.0, ttt=480)
        result = analyze_cell(_snapshot((a4, a5)), ("HC402",))
        (finding,) = result.findings
        assert "A5[1]" in finding.message and "A4[0]" in finding.message
        ((_, witness),) = result.witnesses
        assert witness.subject_event == "A5[1]"
        # The A4 alone (or the pair with a faster A5) is clean.
        assert analyze_cell(_snapshot((a4,)), ("HC402",)).findings == ()

    def test_hc403_a2_gate_below_reachable_entry(self):
        a2 = EventConfig(
            event=EventType.A2, threshold1=-120.0, hysteresis=1.0,
        )
        a4 = EventConfig(
            event=EventType.A4, threshold1=-90.0, hysteresis=1.0,
        )
        result = analyze_cell(_snapshot((a2, a4)), ("HC403",))
        (finding,) = result.findings
        assert "A2[0]" in finding.message and "A4[1]" in finding.message
        # A sane A4 floor within 25 dB of the gate is clean.
        ok = EventConfig(
            event=EventType.A4, threshold1=-105.0, hysteresis=1.0,
        )
        assert analyze_cell(_snapshot((a2, ok)), ("HC403",)).findings == ()

    def test_hc404_ttt_exceeds_dwell(self):
        bad = _snapshot((_a5(-126.0, -121.0, ttt=1024),))
        (finding,) = analyze_cell(bad, ("HC404",)).findings
        assert finding.code == "HC404"
        fast = _snapshot((_a5(-126.0, -121.0, ttt=256),))
        assert analyze_cell(fast, ("HC404",)).findings == ()

    def test_hc405_overlap_window_severity_scales(self):
        wide = _snapshot((_a5(-95.0, -110.0, ttt=100),), s_measure=-80.0)
        (finding,) = analyze_cell(wide, ("HC405",)).findings
        assert finding.severity == "problem"
        narrow = _snapshot((_a5(-103.0, -107.0, ttt=100),), s_measure=-80.0)
        (soft,) = analyze_cell(narrow, ("HC405",)).findings
        assert soft.severity == "warning"
        assert analyze_cell(_snapshot((SANE,)), ("HC405",)).findings == ()

    def test_hc405_negative_a3_margin(self):
        a3 = EventConfig(event=EventType.A3, offset=-2.0, hysteresis=0.5)
        (finding,) = analyze_cell(_snapshot((a3,)), ("HC405",)).findings
        assert "overlap" in finding.message
        ((_, witness),) = analyze_cell(_snapshot((a3,)), ("HC405",)).witnesses
        assert witness.kind == "ping-pong"

    def test_every_finding_has_a_witness(self):
        scenario = dead_zone_fixture(misconfigured=True)
        report = lint_world(
            scenario.env, scenario.server, codes=list(ALL_HC4XX),
            coverage=True,
        )
        assert report.findings
        for finding in report.findings:
            assert finding.fingerprint in report.witnesses


class TestAnalyzer:
    def test_cache_hits_on_unchanged_cells(self):
        analyzer = CoverageAnalyzer()
        snaps = [
            _snapshot((_a5(-126.0, -121.0, ttt=1024),), gci=0x10),
            _snapshot((SANE,), gci=0x11),
        ]
        first, stats1, _ = analyzer.analyze(snaps)
        assert (stats1.cells_analyzed, stats1.cells_cached) == (2, 0)
        second, stats2, _ = analyzer.analyze(snaps)
        assert (stats2.cells_analyzed, stats2.cells_cached) == (0, 2)
        assert first == second

    def test_mutating_one_cell_reanalyzes_only_it(self):
        analyzer = CoverageAnalyzer()
        snaps = [
            _snapshot((_a5(-126.0, -121.0, ttt=1024),), gci=0x10),
            _snapshot((SANE,), gci=0x11),
        ]
        analyzer.analyze(snaps)
        snaps[0] = _snapshot((SANE,), gci=0x10)
        findings, stats, _ = analyzer.analyze(snaps)
        assert (stats.cells_analyzed, stats.cells_cached) == (1, 1)
        assert findings == []

    def test_findings_independent_of_worker_count(self):
        snaps = [
            _snapshot((_a5(-126.0, -121.0, ttt=1024),), gci=0x10 + i)
            for i in range(5)
        ] + [_snapshot((_a5(-95.0, -110.0),), gci=0x20)]
        serial = CoverageAnalyzer().analyze(snaps)
        parallel = CoverageAnalyzer().analyze(snaps, workers=2)
        assert serial[0] == parallel[0]
        assert serial[1] == replace(parallel[1])
        assert sorted(serial[2]) == sorted(parallel[2])


class TestEngineAndReporters:
    def test_lint_snapshots_without_coverage_flag_skips_hc4xx(self):
        bad = _snapshot((_a5(-126.0, -121.0, ttt=1024),))
        report = lint_snapshots([bad], codes=list(ALL_HC4XX))
        assert report.findings == []
        assert report.coverage_stats is None
        assert report.rules_run == ()

    def test_lint_snapshots_with_coverage(self):
        bad = _snapshot((_a5(-126.0, -121.0, ttt=1024),))
        report = lint_snapshots([bad], codes=list(ALL_HC4XX), coverage=True)
        assert {f.code for f in report.findings} == {"HC401", "HC404"}
        assert report.rules_run == ALL_HC4XX
        assert report.coverage_stats is not None
        assert report.coverage_stats.witnesses == len(report.witnesses) == 2

    def test_baseline_suppression_drops_witnesses(self):
        bad = _snapshot((_a5(-126.0, -121.0, ttt=1024),))
        full = lint_snapshots([bad], codes=list(ALL_HC4XX), coverage=True)
        baseline = Baseline.from_findings(full.findings)
        report = lint_snapshots(
            [bad], codes=list(ALL_HC4XX), coverage=True, baseline=baseline,
        )
        assert report.findings == [] and len(report.suppressed) == 2
        assert report.witnesses == {}

    def test_reports_are_byte_identical_across_workers(self):
        scenario = dead_zone_fixture(misconfigured=True)
        reports = [
            lint_world(
                scenario.env, scenario.server, coverage=True, workers=n,
            )
            for n in (None, 2)
        ]
        assert render_json(reports[0]) == render_json(reports[1])
        assert render_sarif(reports[0]) == render_sarif(reports[1])

    def test_text_report_shows_coverage_stats_and_witness(self):
        scenario = dead_zone_fixture(misconfigured=True)
        report = lint_world(
            scenario.env, scenario.server, codes=list(ALL_HC4XX),
            coverage=True,
        )
        text = render_text(report)
        assert "coverage: 2 cells" in text
        assert "replayable witnesses" in text
        assert "witness (missed-handoff)" in text

    def test_json_report_embeds_witnesses(self):
        scenario = dead_zone_fixture(misconfigured=True)
        report = lint_world(
            scenario.env, scenario.server, codes=["HC401"], coverage=True,
        )
        payload = json.loads(render_json(report))
        assert payload["coverage_stats"]["gaps"] == 2
        assert set(payload["witnesses"]) == set(report.witnesses)


class TestSarifMixedFamilies:
    SCHEMA = None

    def _validate(self, payload: str) -> dict:
        import jsonschema
        from pathlib import Path

        schema_path = (
            Path(__file__).parent / "data" / "sarif-2.1.0-subset.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        jsonschema.Draft7Validator.check_schema(schema)
        document = json.loads(payload)
        jsonschema.Draft7Validator(schema).validate(document)
        return document

    def test_rule_metadata_appears_exactly_once_when_families_mix(self):
        # Cell-scope (HC0xx), graph-scope (HC2xx) and coverage-scope
        # (HC4xx) rules in one audit of the dead-zone fixture.
        scenario = dead_zone_fixture(misconfigured=True)
        report = lint_world(
            scenario.env, scenario.server, graph=True, coverage=True,
        )
        document = self._validate(render_sarif(report))
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        ids = [entry["id"] for entry in rules]
        assert len(ids) == len(set(ids)), f"duplicate rule metadata: {ids}"
        assert ids == sorted(ids)
        result_codes = {
            result["ruleId"] for result in document["runs"][0]["results"]
        }
        assert result_codes <= set(ids)
        assert {"HC401", "HC404"} <= set(ids)

    def test_finding_codes_outside_rules_run_still_get_metadata(self):
        # A report can carry findings stamped by rules outside
        # rules_run (the drift gate does this); their metadata must
        # still land in tool.driver.rules so every ruleId resolves.
        scenario = dead_zone_fixture(misconfigured=True)
        report = lint_world(
            scenario.env, scenario.server, codes=["HC401"], coverage=True,
        )
        report.rules_run = ()
        document = self._validate(render_sarif(report))
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        assert [entry["id"] for entry in rules] == ["HC401"]


class TestDeadZoneFixture:
    def test_misconfigured_fixture_trips_hc401_and_hc404(self):
        scenario = dead_zone_fixture(misconfigured=True)
        report = lint_world(
            scenario.env, scenario.server, codes=list(ALL_HC4XX),
            coverage=True,
        )
        assert {f.code for f in report.findings} == {"HC401", "HC404"}
        assert len([f for f in report.findings if f.code == "HC401"]) == 2

    def test_corrected_twin_is_hc4xx_clean(self):
        scenario = dead_zone_fixture(misconfigured=False)
        report = lint_world(
            scenario.env, scenario.server, codes=list(ALL_HC4XX),
            coverage=True,
        )
        assert report.findings == []
