"""``repro.lint``: static analysis for handoff configurations.

The paper's operator-facing takeaway is that *misconfigurations* —
priority preference loops, inverted A5 thresholds, negative A3 offsets,
threshold gaps (Section 6) — cause persistent handoff loops and
throughput loss, and it explicitly proposes automated configuration
verification as the remedy.  This package is that verifier: a rule
engine that audits cell configurations statically, without running the
simulator.

Layout:

* :mod:`findings` — the :class:`Finding` result record, the shared
  severity table and the ``--fail-on`` exit-code gate;
* :mod:`rules` — the :class:`Rule` protocol, ``@rule`` decorator and
  registry of stable ``HCnnn`` codes;
* :mod:`cell_rules` / :mod:`network_rules` — the built-in rules;
* :mod:`pingpong` — symbolic hysteresis/TTT/offset ping-pong algebra
  and the :class:`Interval` RSRP algebra it shares with the graph pass;
* :mod:`graph` — the whole-network symbolic handoff-graph verifier
  (persistent k-cell loops, dead layers, priority inversions);
* :mod:`snapshot` — versioned :class:`ConfigSnapshot` captures of a
  fleet's configuration state (atomic saves, typed codec);
* :mod:`diff` — the differential drift analyzer: semantic
  :class:`ConfigChange` records between captures and the
  :func:`diff_lint` regression gate;
* :mod:`drift_rules` — the HC3xx drift rules evaluated over
  ``(old, new, changes)``;
* :mod:`coverage` — the signal-space coverage analyzer (HC4xx): per-cell
  fire-region partitions over the interval algebra, dead zones, shadowed
  events, TTT contradictions and overlap windows;
* :mod:`witness` — replayable counterexample witnesses: every HC4xx
  finding carries a synthesized trajectory that, replayed through the
  drive simulator, exhibits the predicted failure;
* :mod:`explain` — per-rule documentation with minimal triggering
  configuration examples (``repro lint --explain``);
* :mod:`fixtures` — deterministic misconfigured worlds for tests;
* :mod:`engine` — snapshot/world audits and the simulation preflight;
* :mod:`baseline` — suppression files for known-and-accepted findings;
* :mod:`report` — text, JSON and SARIF renderers (plus the ``diff``
  variants that carry change blame);
* :mod:`jsontext` — the one indented-JSON writer behind the reports,
  baselines and snapshots (``json.dumps(obj, indent=2)`` byte for byte)
  and their atomic saves.

Quick start::

    from repro.lint import lint_world
    report = lint_world(scenario.env, scenario.server)
    print(report.counts_by_code())

Drift gating::

    from repro.lint import ConfigSnapshot, diff_lint
    old = ConfigSnapshot.load("capture-000.json")
    new = ConfigSnapshot.load("capture-001.json")
    report = diff_lint(old, new)
    print([f.code for f in report.findings], report.blame)
"""

from repro.lint.baseline import Baseline
from repro.lint.coverage import (
    CoverageAnalyzer,
    CoverageStats,
    FireRegion,
    coverage_gaps,
    fire_regions,
)
from repro.lint.diff import (
    CHANGE_KINDS,
    ConfigChange,
    DriftContext,
    DriftReport,
    blame_change,
    diff_config_snapshots,
    diff_lint,
    flatten_cell,
)
from repro.lint.engine import (
    ConfigLintWarning,
    LintReport,
    lint_snapshots,
    lint_world,
    snapshot_for_cell,
    warn_before_run,
    world_snapshots,
)
from repro.lint.findings import (
    SEVERITIES,
    SEVERITY_RANK,
    Finding,
    count_by_severity,
    exit_code,
    sort_findings,
    summarize,
)
from repro.lint.graph import (
    GraphAnalyzer,
    GraphStats,
    build_components,
    cell_policy,
    snapshot_digest,
)
from repro.lint.pingpong import FULL_RSRP, Interval
from repro.lint.report import (
    render_diff_json,
    render_diff_sarif,
    render_diff_text,
    render_json,
    render_sarif,
    render_text,
)
from repro.lint.rules import (
    Issue,
    RegisteredRule,
    Rule,
    all_rules,
    get_rule,
    rule,
    select_rules,
)
from repro.lint.snapshot import ConfigSnapshot
from repro.lint.witness import (
    CoverageWitness,
    ReplayOutcome,
    classify_replay,
    replay_witness,
    replay_witnesses,
)

__all__ = [
    "Baseline",
    "CHANGE_KINDS",
    "ConfigChange",
    "ConfigLintWarning",
    "ConfigSnapshot",
    "CoverageAnalyzer",
    "CoverageStats",
    "CoverageWitness",
    "DriftContext",
    "DriftReport",
    "FULL_RSRP",
    "Finding",
    "FireRegion",
    "GraphAnalyzer",
    "GraphStats",
    "Interval",
    "Issue",
    "LintReport",
    "RegisteredRule",
    "ReplayOutcome",
    "Rule",
    "SEVERITIES",
    "SEVERITY_RANK",
    "all_rules",
    "classify_replay",
    "coverage_gaps",
    "fire_regions",
    "replay_witness",
    "replay_witnesses",
    "blame_change",
    "build_components",
    "cell_policy",
    "count_by_severity",
    "diff_config_snapshots",
    "diff_lint",
    "exit_code",
    "flatten_cell",
    "get_rule",
    "lint_snapshots",
    "lint_world",
    "render_diff_json",
    "render_diff_sarif",
    "render_diff_text",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
    "select_rules",
    "snapshot_digest",
    "snapshot_for_cell",
    "sort_findings",
    "summarize",
    "warn_before_run",
    "world_snapshots",
]
