"""Tests for the differential drift analyzer and the HC3xx rules."""

import json

import pytest

from repro.cli import main
from repro.datasets.evolve import EvolveOptions, evolve_timeline
from repro.lint import (
    Baseline,
    ConfigSnapshot,
    Finding,
    diff_config_snapshots,
    diff_lint,
    exit_code,
)
from repro.lint.diff import blame_change, diff_cell, flatten_cell
from repro.lint.report import DIFF_RENDERERS


def _timeline(scenario, steps=2):
    return evolve_timeline(EvolveOptions(scenario=scenario, steps=steps))


@pytest.fixture(scope="module")
def regression():
    tl = _timeline("loop-regression")
    return tl.snapshots[0], tl.snapshots[1]


# -- flattening and the semantic differ ---------------------------------------

def test_flatten_paths_are_qualified_and_unique(regression):
    old, _ = regression
    flat = flatten_cell(old.cells[0])
    assert flat["identity.channel"] == old.cells[0].channel
    assert "serving.cell_reselection_priority" in flat
    assert any(path.startswith("lte-layer[") for path in flat)
    assert any(path.startswith("meas.event[A5/rsrp].") for path in flat)


def test_diff_cell_short_circuits_identical_cells(regression):
    old, _ = regression
    assert diff_cell(old.cells[0], old.cells[0]) == ()


def test_differ_classifies_parameter_and_priority_changes(regression):
    old, new = regression
    changes = diff_config_snapshots(old, new)
    kinds = {c.kind for c in changes}
    assert kinds == {"parameter-changed", "priority-reshuffle"}
    priorities = [c for c in changes if c.kind == "priority-reshuffle"]
    assert all("priority" in c.parameter for c in priorities)
    # Every change carries old/new values and a stable id.
    sample = next(c for c in changes if c.parameter.endswith("thresh_x_high_p"))
    assert sample.old_value == 12.0 and sample.new_value == 0.0
    assert sample.change_id.startswith("parameter-changed:A:")


def test_differ_detects_cell_add_and_retire(regression):
    old, new = regression
    shrunk = ConfigSnapshot.capture(old.cells[:2], label="shrunk")
    changes = diff_config_snapshots(shrunk, old)
    assert [c.kind for c in changes] == ["cell-added"]
    changes = diff_config_snapshots(old, shrunk)
    assert [c.kind for c in changes] == ["cell-retired"]


def test_differ_detects_profile_migration():
    tl = _timeline("patch-rollout")
    changes = diff_config_snapshots(tl.snapshots[0], tl.snapshots[1])
    migrations = [c for c in changes if c.kind == "profile-migration"]
    # Each cell disarms the A5 and arms the A2 patch profile.
    assert len(migrations) == 6
    assert {c.new_value for c in migrations} == {None, "A2/rsrp"}


def test_differ_output_identical_at_any_worker_count(regression):
    old, new = regression
    assert diff_config_snapshots(old, new, workers=1) == \
        diff_config_snapshots(old, new, workers=4)


def test_blame_prefers_same_cell_then_channel_mention(regression):
    old, new = regression
    changes = diff_config_snapshots(old, new)
    cell_finding = Finding(
        code="HC003", severity="info", carrier="A", gci=2, message="m",
        channel=1975,
    )
    culprit = blame_change(cell_finding, changes)
    assert culprit is not None and culprit.gci == 2
    network_finding = Finding(
        code="HC103", severity="problem", carrier="A", gci=-1, message="m",
        subject="850<->1975",
    )
    culprit = blame_change(network_finding, changes)
    assert culprit is not None and culprit.carrier == "A"
    assert blame_change(
        Finding(code="HC001", severity="info", carrier="Z", gci=1, message="m"),
        changes,
    ) is None


# -- diff_lint and the drift rules --------------------------------------------

def test_diff_lint_reports_blamed_hc301_for_loop_regression(regression):
    old, new = regression
    report = diff_lint(old, new)
    hc301 = [f for f in report.findings if f.code == "HC301"]
    assert hc301, "loop regression must produce HC301"
    assert all(f.severity == "problem" for f in hc301)
    # The introduced HC201 graph loop is among the blamed escalations.
    assert any("HC201" in f.subject for f in hc301)
    for finding in hc301:
        assert report.blame.get(finding.fingerprint), "HC301 must be blamed"
    blamed_ids = {c.change_id for c in report.changes}
    assert set(report.blame.values()) <= blamed_ids


def test_diff_lint_hashes_each_cell_of_each_capture_once(monkeypatch):
    from repro.lint import coverage, diff, engine, graph, snapshot

    calls = []
    original = graph.snapshot_digest

    def counting(cell):
        calls.append(cell)
        return original(cell)

    for module in (graph, engine, diff, snapshot, coverage):
        monkeypatch.setattr(module, "snapshot_digest", counting)
    old, new = _timeline("loop-regression").snapshots[:2]
    assert len(old.cells) == len(new.cells) == 3
    report = diff_lint(old, new)
    assert report.changes and any(f.code == "HC301" for f in report.findings)
    assert len(calls) == 6  # the graph pass and the cell differ share them


@pytest.mark.parametrize("scenario", ["loop-regression", "retune", "patch-rollout"])
def test_differ_equals_diffing_every_common_pair(scenario):
    # The differ skips pairs whose capture digests agree; diff_cell on
    # every common pair, as the differ once ran it, gives the same list.
    old, new = _timeline(scenario).snapshots[:2]
    old_cells = {(c.carrier, c.gci): c for c in old.cells}
    new_cells = {(c.carrier, c.gci): c for c in new.cells}
    expected = [
        change
        for key in sorted(set(old_cells) & set(new_cells))
        for change in diff_cell(old_cells[key], new_cells[key])
    ]
    changes = diff_config_snapshots(old, new)
    common = [c for c in changes if c.kind not in ("cell-added", "cell-retired")]
    assert common == sorted(expected, key=lambda c: (c.carrier, c.gci, c.kind, c.parameter))
    assert common


def test_diff_lint_gate_excludes_preexisting_findings(regression):
    _, new = regression
    report = diff_lint(new, new)
    assert report.introduced == []
    # Nothing changed, so no drift findings and an empty gate.
    assert report.findings == []
    assert report.changes == ()


def test_diff_lint_reuses_graph_cache_differentially(regression):
    _, new = regression
    report = diff_lint(new, new)
    stats = report.graph_stats
    assert stats is not None
    # Second audit of the identical capture: every component cached.
    assert stats.components_cached == stats.components > 0
    assert stats.components_analyzed == 0


def test_clean_and_patch_rollout_pass_the_gate():
    for scenario in ("clean", "patch-rollout", "retune"):
        tl = _timeline(scenario)
        report = diff_lint(tl.snapshots[0], tl.snapshots[1])
        assert report.findings == [], scenario
        assert exit_code(report.findings, "any") == 0


def _gap_pair(return_threshold):
    """Two cells with the HC104 leave/return geometry: channel 850
    leaves down to 1975 below serving-low 10 dB; 1975 returns to 850
    once it exceeds ``return_threshold``."""
    from repro.config.lte import (
        InterFreqLayerConfig,
        LteCellConfig,
        MeasurementConfig,
        ServingCellConfig,
    )
    from repro.core.crawler import CellConfigSnapshot

    high = CellConfigSnapshot(
        carrier="A", gci=1, rat="LTE", channel=850, city="X",
        first_seen_ms=0,
        lte_config=LteCellConfig(
            serving=ServingCellConfig(
                cell_reselection_priority=5, thresh_serving_low_p=10.0,
            ),
            inter_freq_layers=(InterFreqLayerConfig(
                dl_carrier_freq=1975, cell_reselection_priority=3,
            ),),
            measurement=MeasurementConfig(events=()),
        ),
    )
    low = CellConfigSnapshot(
        carrier="A", gci=2, rat="LTE", channel=1975, city="X",
        first_seen_ms=0,
        lte_config=LteCellConfig(
            serving=ServingCellConfig(cell_reselection_priority=3),
            inter_freq_layers=(InterFreqLayerConfig(
                dl_carrier_freq=850, cell_reselection_priority=5,
                thresh_x_high_p=return_threshold,
            ),),
            measurement=MeasurementConfig(events=()),
        ),
    )
    return ConfigSnapshot.capture([high, low], label=f"ret-{return_threshold:g}")


def test_hc302_threshold_gap_regression():
    """Lowering only the return threshold opens the HC104-style
    leave/return overlap that did not exist before the change."""
    safe = _gap_pair(return_threshold=12.0)   # 12 > 10: no overlap
    opened = _gap_pair(return_threshold=4.0)  # 4 < 10: 6 dB overlap
    report = diff_lint(safe, opened)
    hc302 = [f for f in report.findings if f.code == "HC302"]
    assert len(hc302) == 1
    assert "opened a 6 dB" in hc302[0].message
    assert hc302[0].subject == "850->1975"
    # Widening an existing overlap is also a regression...
    narrow = _gap_pair(return_threshold=8.0)  # 2 dB overlap
    report = diff_lint(narrow, opened)
    hc302 = [f for f in report.findings if f.code == "HC302"]
    assert len(hc302) == 1
    assert "widened the reselection overlap from 2 to 6 dB" in hc302[0].message
    # ...but an unchanged or shrinking overlap is not.
    assert [f for f in diff_lint(opened, opened).findings
            if f.code == "HC302"] == []
    assert [f for f in diff_lint(opened, narrow).findings
            if f.code == "HC302"] == []


def test_hc303_flags_flapping_not_campaigns():
    flap = _timeline("flapping", steps=4)
    report = diff_lint(
        flap.snapshots[-2], flap.snapshots[-1], timeline=flap.snapshots
    )
    hc303 = [f for f in report.findings if f.code == "HC303"]
    assert len(hc303) == 3  # one per cell
    assert all("serving.q_hyst" == f.subject for f in hc303)
    retune = _timeline("retune", steps=4)
    report = diff_lint(
        retune.snapshots[-2], retune.snapshots[-1], timeline=retune.snapshots
    )
    assert [f for f in report.findings if f.code == "HC303"] == []


def test_hc303_needs_a_timeline():
    flap = _timeline("flapping", steps=4)
    report = diff_lint(flap.snapshots[-2], flap.snapshots[-1])
    assert [f for f in report.findings if f.code == "HC303"] == []


def test_hc304_pingpong_window_widened(regression):
    old, new = regression
    report = diff_lint(old, new)
    hc304 = [f for f in report.findings if f.code == "HC304"]
    # The regression swaps A5(-100/-90) (empty window) for A5(-44/-112).
    assert len(hc304) == 3
    assert all(f.subject == "A5/rsrp" for f in hc304)
    assert all("widened from 0 to 66" in f.message for f in hc304)


def test_hc305_stale_suppression(regression):
    good, bad = regression
    # Baseline the misconfigured capture's findings, then diff toward
    # the corrected capture: every suppression stops firing -> HC305.
    baseline = Baseline.from_findings(diff_lint(good, bad).introduced)
    report = diff_lint(bad, good, baseline=baseline)
    hc305 = [f for f in report.findings if f.code == "HC305"]
    assert hc305
    assert all(f.severity == "info" for f in hc305)
    assert all("--prune-baseline" in f.message for f in hc305)
    # The fixed list records what the rollback repaired.
    assert report.fixed


# -- reporters and the shared severity/exit mapping ---------------------------

@pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
def test_diff_renderers_carry_blame(regression, fmt):
    old, new = regression
    report = diff_lint(old, new)
    rendered = DIFF_RENDERERS[fmt](report)
    assert "HC301" in rendered
    blamed = next(iter(report.blame.values()))
    assert blamed.split(":")[0] in rendered or "blame" in rendered


@pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
def test_severity_mapping_consistent_across_formats(regression, fmt):
    """One shared severity table: whatever a format prints, the gate and
    the rendered severities must agree for all three reporters."""
    from repro.lint.findings import SARIF_LEVELS, SEVERITY_RANK

    old, new = regression
    report = diff_lint(old, new)
    severities = {f.severity for f in report.findings}
    rendered = DIFF_RENDERERS[fmt](report)
    if fmt == "sarif":
        payload = json.loads(rendered)
        levels = {r["level"] for r in payload["runs"][0]["results"]}
        assert levels == {SARIF_LEVELS[s] for s in severities}
    elif fmt == "json":
        payload = json.loads(rendered)
        counts = payload["counts_by_severity"]
        for severity in severities:
            assert counts[severity] > 0
    else:
        for severity in severities:
            assert f"[{severity}]" in rendered
    # The exit gate keys off the same table regardless of format.
    assert exit_code(report.findings, "problem") == 1
    assert exit_code(report.findings, "never") == 0
    ranks = sorted(SEVERITY_RANK[s] for s in severities)
    assert ranks == sorted(set(ranks))


def test_exit_code_thresholds():
    warn = Finding(code="HC104", severity="warning", carrier="A", gci=1,
                   message="m")
    info = Finding(code="HC003", severity="info", carrier="A", gci=1,
                   message="m")
    assert exit_code([], "any") == 0
    assert exit_code([info], "any") == 1
    assert exit_code([info], "warning") == 0
    assert exit_code([warn], "warning") == 1
    assert exit_code([warn], "problem") == 0
    assert exit_code([warn, info], "never") == 0
    with pytest.raises(ValueError):
        exit_code([], "sometimes")


# -- CLI ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def timeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("timelines")
    for scenario in ("loop-regression", "clean"):
        assert main(["evolve", "--scenario", scenario, "--steps", "2",
                     "--out", str(out / scenario)]) == 0
    return out


def test_cli_diff_catches_regression_and_blames(timeline_dir, capsys):
    paths = sorted(str(p) for p in (timeline_dir / "loop-regression").iterdir())
    assert main(["lint", "--diff", *paths, "--fail-on", "any"]) == 1
    out = capsys.readouterr().out
    assert "HC301" in out and "blame:" in out


def test_cli_diff_clean_change_passes(timeline_dir, capsys):
    paths = sorted(str(p) for p in (timeline_dir / "clean").iterdir())
    assert main(["lint", "--diff", *paths, "--fail-on", "any"]) == 0
    capsys.readouterr()


def test_cli_diff_byte_identical_across_workers(timeline_dir, capsys):
    paths = sorted(str(p) for p in (timeline_dir / "loop-regression").iterdir())
    outputs = []
    for workers in ("1", "4"):
        main(["lint", "--diff", *paths, "--workers", workers,
              "--format", "json"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_diff_needs_two_snapshots(timeline_dir, capsys):
    paths = sorted(str(p) for p in (timeline_dir / "clean").iterdir())
    assert main(["lint", "--diff", paths[0]]) == 2
    assert "at least two" in capsys.readouterr().err


def test_cli_diff_rejects_bad_snapshot_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99}")
    assert main(["lint", "--diff", str(bad), str(bad)]) == 2
    assert "unsupported snapshot version" in capsys.readouterr().err


def test_cli_snapshot_roundtrip(tmp_path, capsys):
    out = tmp_path / "cap.json"
    assert main(["snapshot", "--city", "loop-fixture", "--out", str(out),
                 "--label", "fixture"]) == 0
    err = capsys.readouterr().err
    assert "3 cells" in err
    snapshot = ConfigSnapshot.load(out)
    assert snapshot.label == "fixture" and len(snapshot) == 3
