"""Tests for the lint engine, baseline files, reporters and CLI."""

import json
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.config.events import EventConfig, EventType
from repro.config.lte import LteCellConfig, MeasurementConfig, ServingCellConfig
from repro.core.crawler import CellConfigSnapshot
from repro.lint import (
    Baseline,
    ConfigLintWarning,
    Finding,
    lint_snapshots,
    lint_world,
    render_json,
    render_sarif,
    render_text,
    warn_before_run,
    world_snapshots,
)
from repro.lint import coverage as coverage_module
from repro.lint import engine as engine_module
from repro.lint import graph as graph_module
from repro.lint.coverage import CoverageAnalyzer
from repro.lint.engine import PREFLIGHT_MAX_CELLS
from repro.lint.fixtures import LOOP_CARRIER, loop_fixture
from repro.lint.graph import GraphAnalyzer
from repro.lint.report import SARIF_LEVELS, SARIF_VERSION
from repro.rrc.broadcast import ConfigServer


def _bad_snapshot(gci=1, channel=850):
    """A snapshot tripping several cell rules at once."""
    meas = MeasurementConfig(events=(
        EventConfig(event=EventType.A3, offset=-1.0, hysteresis=1.0),
        EventConfig(event=EventType.A5, threshold1=-44.0, threshold2=-114.0),
    ))
    config = LteCellConfig(
        serving=ServingCellConfig(
            s_intra_search_p=62.0, s_non_intra_search_p=8.0,
            thresh_serving_low_p=6.0,
        ),
        measurement=meas,
    )
    return CellConfigSnapshot(
        carrier="A", gci=gci, rat="LTE", channel=channel, city="X",
        first_seen_ms=0, lte_config=config, meas_config=meas,
    )


def test_report_counts_and_flags():
    report = lint_snapshots([_bad_snapshot()])
    assert report.snapshots_audited == 1
    assert len(report.rules_run) >= 16
    counts = report.counts_by_code()
    assert counts["HC002"] == 1 and counts["HC003"] == 1
    assert report.has_problems  # the guaranteed A3 ping-pong (HC009)
    assert report.has_warnings
    severities = report.counts_by_severity()
    assert sum(severities.values()) == len(report.findings)


def test_findings_sorted_deterministically():
    snapshots = [_bad_snapshot(gci=2), _bad_snapshot(gci=1)]
    first = lint_snapshots(snapshots).findings
    second = lint_snapshots(list(reversed(snapshots))).findings
    assert first == second


def test_baseline_roundtrip(tmp_path):
    report = lint_snapshots([_bad_snapshot()])
    baseline = Baseline.from_findings(report.findings)
    path = tmp_path / "baseline.json"
    baseline.save(path)
    reloaded = Baseline.load(path)
    assert len(reloaded) == len(report.findings)
    suppressed_run = lint_snapshots([_bad_snapshot()], baseline=reloaded)
    assert suppressed_run.findings == []
    assert len(suppressed_run.suppressed) == len(report.findings)
    assert reloaded.unused(suppressed_run.suppressed) == set()


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "suppressions": []}))
    with pytest.raises(ValueError, match="version"):
        Baseline.load(path)


def test_baseline_from_findings_roundtrip_with_duplicate_fingerprints(tmp_path):
    """Two findings sharing a fingerprint (same code/cell/subject,
    different message) collapse into one suppression; the first message
    wins as the exemplar and the file round-trips losslessly."""
    first = lint_snapshots([_bad_snapshot()]).findings[0]
    import dataclasses

    reworded = dataclasses.replace(first, message="same defect, new words")
    assert first.fingerprint == reworded.fingerprint
    baseline = Baseline.from_findings([first, reworded, first])
    assert len(baseline) == 1
    assert baseline.messages[first.fingerprint] == first.message
    path = tmp_path / "baseline.json"
    baseline.save(path)
    reloaded = Baseline.load(path)
    assert reloaded.fingerprints == baseline.fingerprints
    assert reloaded.messages == baseline.messages
    assert reloaded.split([first, reworded]) == ([], [first, reworded])


def test_baseline_prune_drops_only_stale_entries():
    report = lint_snapshots([_bad_snapshot()])
    baseline = Baseline.from_findings(report.findings)
    ghost = Finding(code="HC001", severity="info", carrier="Z", gci=99,
                    message="long gone")
    baseline.fingerprints.add(ghost.fingerprint)
    baseline.messages[ghost.fingerprint] = ghost.message
    baseline.codes["HC001"] = "ghost-rule"
    pruned = baseline.prune(report.findings)
    assert pruned == {ghost.fingerprint}
    assert ghost.fingerprint not in baseline.messages
    assert "HC001" not in baseline.codes  # legend follows the survivors
    assert baseline.unused(report.findings) == set()
    # Idempotent on an already-clean baseline.
    assert baseline.prune(report.findings) == set()


def test_prune_scoped_to_rules_run_spares_unexecuted_rules():
    """A graph-rule suppression must survive a non-graph audit's prune:
    the audit never ran HC201, so it cannot call the entry stale."""
    report = lint_snapshots([_bad_snapshot()])
    baseline = Baseline.from_findings(report.findings)
    graph_fp = "HC201:A:1:850:layer-cycle"
    baseline.fingerprints.add(graph_fp)
    baseline.codes["HC201"] = "k-cell-loop-active"
    assert graph_fp in baseline.unused(report.findings)  # unscoped: stale
    scoped = baseline.unused(report.findings, rules_run=report.rules_run)
    assert graph_fp not in scoped
    assert baseline.prune(report.findings, rules_run=report.rules_run) == set()
    assert graph_fp in baseline.fingerprints
    assert "HC201" in baseline.codes


def test_cli_lint_prune_baseline(tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--write-baseline", str(baseline_path)]) == 0
    capsys.readouterr()
    stale = Baseline.load(baseline_path)
    stale.fingerprints.add("HC001:Z:99:-1:")
    stale.save(baseline_path)
    # Without --prune-baseline the stale entry is surfaced, not dropped.
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--baseline", str(baseline_path)]) == 0
    err = capsys.readouterr().err
    assert "no longer match" in err and "--prune-baseline" in err
    assert "HC001:Z:99:-1:" in Baseline.load(baseline_path).fingerprints
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--baseline", str(baseline_path), "--prune-baseline"]) == 0
    err = capsys.readouterr().err
    assert "pruned 1 stale suppression" in err
    assert "HC001:Z:99:-1:" not in Baseline.load(baseline_path).fingerprints
    # A clean baseline prunes nothing and stays quiet.
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--baseline", str(baseline_path), "--prune-baseline"]) == 0
    assert "pruned" not in capsys.readouterr().err


def test_baseline_survives_message_rewording():
    report = lint_snapshots([_bad_snapshot()])
    baseline = Baseline.from_findings(report.findings)
    reworded = [
        type(f)(code=f.code, severity=f.severity, carrier=f.carrier, gci=f.gci,
                message="totally new wording", name=f.name, channel=f.channel,
                subject=f.subject)
        for f in report.findings
    ]
    new, suppressed = baseline.split(reworded)
    assert new == [] and len(suppressed) == len(reworded)


def test_json_report_shape():
    report = lint_snapshots([_bad_snapshot()])
    payload = json.loads(render_json(report))
    assert payload["version"] == 1
    assert payload["tool"] == "repro.lint"
    assert payload["snapshots_audited"] == 1
    assert set(payload["counts_by_code"]) == {f["code"] for f in payload["findings"]}
    for finding in payload["findings"]:
        assert finding["fingerprint"].startswith(finding["code"] + ":")
        assert finding["severity"] in ("info", "warning", "problem")


def test_sarif_report_shape():
    report = lint_snapshots([_bad_snapshot()])
    sarif = json.loads(render_sarif(report))
    assert sarif["version"] == SARIF_VERSION
    assert "sarif-schema-2.1.0" in sarif["$schema"]
    (run,) = sarif["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {r["id"] for r in driver["rules"]}
    for rule_entry in driver["rules"]:
        assert rule_entry["shortDescription"]["text"]
        assert rule_entry["defaultConfiguration"]["level"] in SARIF_LEVELS.values()
    assert run["results"]
    for result in run["results"]:
        assert result["ruleId"] in rule_ids
        assert result["level"] in SARIF_LEVELS.values()
        assert result["message"]["text"]
        (location,) = result["locations"]
        assert location["logicalLocations"][0]["name"]
        assert result["partialFingerprints"]["reproLint/v1"]


def test_text_report_mentions_codes():
    report = lint_snapshots([_bad_snapshot()])
    text = render_text(report)
    assert "HC002" in text and "a3-negative-offset" in text
    verbose = render_text(report, verbose=True)
    assert verbose.count("HC00") >= text.count("HC00")


def test_world_snapshots_sampling(env, server):
    sampled = world_snapshots(env, server, carriers=("A",), max_cells_per_carrier=5)
    assert len(sampled) == 5
    again = world_snapshots(env, server, carriers=("A",), max_cells_per_carrier=5)
    assert [s.gci for s in sampled] == [s.gci for s in again]


def test_lint_world_finds_paper_misconfigurations(env, server):
    report = lint_world(env, server)
    assert report.snapshots_audited > 100
    assert len(report.counts_by_code()) >= 8


def _count_digests(monkeypatch):
    calls = []
    real = graph_module.snapshot_digest

    def counting(snapshot):
        calls.append(snapshot)
        return real(snapshot)

    for module in (graph_module, coverage_module, engine_module):
        monkeypatch.setattr(module, "snapshot_digest", counting)
    return calls


def test_graph_coverage_audit_hashes_each_cell_once(monkeypatch):
    """``lint_snapshots`` hashes every cell once for both analyzers, and
    the report equals the two analyzers run on their own."""
    from repro.datasets.d2 import d2_world

    world = d2_world()
    snapshots = world_snapshots(world.env, world.server, max_cells_per_carrier=60)
    graph_findings, graph_stats = GraphAnalyzer().analyze(snapshots)
    coverage_findings, coverage_stats, witnesses = CoverageAnalyzer().analyze(snapshots)
    calls = _count_digests(monkeypatch)
    report = lint_snapshots(snapshots, graph=True, coverage=True)
    assert len(calls) == len(snapshots) > 1000
    assert report.graph_stats == graph_stats
    assert report.coverage_stats == coverage_stats
    assert report.witnesses == witnesses
    graph_codes = {f.code for f in graph_findings}
    coverage_codes = {f.code for f in coverage_findings}
    assert [f for f in report.findings if f.code in graph_codes] == graph_findings
    assert [f for f in report.findings if f.code in coverage_codes] == coverage_findings
    # Each analyzer called on its own still hashes what it needs.
    del calls[:]
    CoverageAnalyzer().analyze(snapshots)
    assert len(calls) == len(snapshots)


def test_committed_baseline_covers_default_fleet():
    """The repo's lint-baseline.json documents every intentional finding

    of the default world fleet (the paper-replicated misconfigurations),
    so a default audit against it reports nothing new.
    """
    from pathlib import Path

    from repro.cellnet.deployment import build_world_deployment
    from repro.cellnet.world import RadioEnvironment

    plan = build_world_deployment(seed=7)
    env = RadioEnvironment(plan)
    server = ConfigServer(env, seed=2018)
    baseline_path = Path(__file__).resolve().parents[1] / "lint-baseline.json"
    baseline = Baseline.load(baseline_path)
    report = lint_world(
        env,
        server,
        max_cells_per_carrier=60,
        baseline=baseline,
        graph=True,
        coverage=True,
    )
    assert report.findings == []
    assert len(report.suppressed) == len(baseline)
    assert baseline.unused(report.suppressed) == set()


def test_preflight_warns_once(env):
    fresh_server = ConfigServer(env, seed=2018)
    with pytest.warns(ConfigLintWarning, match="carrier 'A'"):
        first = warn_before_run(env, fresh_server, "A")
    assert first.findings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        second = warn_before_run(env, fresh_server, "A")
    assert second is first


def _direct_preflight(fixture):
    return lint_world(
        fixture.env, fixture.server, carriers=(LOOP_CARRIER,),
        max_cells_per_carrier=PREFLIGHT_MAX_CELLS,
    )


def test_preflight_audits_each_static_server_itself():
    # The twins share one deployment, so one world digest; only their
    # injected configurations differ, which the digest cannot see.
    corrected = loop_fixture(misconfigured=False)
    broken = loop_fixture(misconfigured=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigLintWarning)
        first = warn_before_run(corrected.env, corrected.server, LOOP_CARRIER)
        second = warn_before_run(broken.env, broken.server, LOOP_CARRIER)
    assert first.findings == _direct_preflight(corrected).findings
    assert second.findings == _direct_preflight(broken).findings
    assert len(second.findings) > len(first.findings)


def test_simulator_preflight_toggle(scenario):
    from repro.simulate.runner import DriveSimulator
    from repro.simulate.traffic import NoTraffic

    rng = np.random.default_rng(3)
    trajectory = scenario.urban_trajectory(rng, duration_s=10.0)
    quiet_server = ConfigServer(scenario.env, seed=2018)
    sim = DriveSimulator(scenario.env, quiet_server, "A", config_lint=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConfigLintWarning)
        sim.run(trajectory, NoTraffic())
    loud_server = ConfigServer(scenario.env, seed=2018)
    loud = DriveSimulator(scenario.env, loud_server, "A")
    with pytest.warns(ConfigLintWarning):
        loud.run(trajectory, NoTraffic())


def test_cli_lint_json(capsys):
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "repro.lint"
    assert payload["snapshots_audited"] > 0
    assert len(payload["rules_run"]) >= 16


def test_cli_lint_sarif(capsys):
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--format", "sarif"]) == 0
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == SARIF_VERSION


def test_cli_lint_baseline_roundtrip(tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--write-baseline", str(baseline_path)]) == 0
    capsys.readouterr()
    assert baseline_path.exists()
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--baseline", str(baseline_path), "--fail-on", "warning"]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_cli_lint_fail_on(capsys):
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--fail-on", "warning"]) == 1
    capsys.readouterr()


def test_cli_lint_rule_filter(capsys):
    assert main(["lint", "--city", "Lafayette", "--max-cells", "3",
                 "--rules", "HC006", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules_run"] == ["HC006"]
    assert set(payload["counts_by_code"]) <= {"HC006"}


def test_cli_lint_unknown_city(capsys):
    assert main(["lint", "--city", "Atlantis"]) == 2
    assert "unknown city" in capsys.readouterr().err


def test_cli_lint_unknown_rule_code(capsys):
    assert main(["lint", "--city", "Lafayette", "--max-cells", "2",
                 "--rules", "HC999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err
