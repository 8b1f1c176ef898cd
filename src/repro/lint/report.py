"""Reporters: text for terminals, JSON for pipelines, SARIF for CI.

Each renderer takes a :class:`~repro.lint.engine.LintReport` (or, for
the ``*_diff_*`` family, a :class:`~repro.lint.diff.DriftReport`) and
returns a string; none of them mutate the report.  The SARIF output
follows the 2.1.0 schema shape (tool.driver.rules + results) so standard
code-scanning UIs can ingest fleet audits.

Severity handling is deliberately *not* local to this module: all three
formats and the CLI exit gate map through the one table in
:mod:`repro.lint.findings` (``SEVERITY_RANK`` for ordering/gating,
``SARIF_LEVELS`` for the SARIF ``level`` strings), so a finding can
never gate differently than it renders.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.lint.engine import LintReport
from repro.lint.findings import SARIF_LEVELS, Finding
from repro.lint.jsontext import dumps_indented
from repro.lint.rules import all_rules

if TYPE_CHECKING:
    from repro.lint.diff import DriftReport

JSON_REPORT_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(report: LintReport, verbose: bool = False) -> str:
    """Human-readable report: summary table plus per-finding lines."""
    lines = [
        f"repro lint: {report.snapshots_audited} cell configurations audited, "
        f"{len(report.findings)} findings "
        f"({len(report.suppressed)} baseline-suppressed)"
    ]
    stats = report.graph_stats
    if stats is not None:
        lines.append(
            f"graph: {stats.cells} cells over {stats.layers} layers, "
            f"{stats.edges} edges in {stats.components} components "
            f"({stats.components_analyzed} analyzed, "
            f"{stats.components_cached} cached); "
            f"{stats.cycles_checked} cycles checked"
            + (f" ({stats.cycles_truncated} components truncated)"
               if stats.cycles_truncated else "")
        )
    cov = report.coverage_stats
    if cov is not None:
        lines.append(
            f"coverage: {cov.cells} cells "
            f"({cov.cells_analyzed} analyzed, {cov.cells_cached} cached), "
            f"{cov.regions} fire regions, {cov.gaps} critical-band gaps, "
            f"{cov.witnesses} replayable witnesses"
        )
    counts = report.counts_by_code()
    if counts:
        names = {rule.code: rule.name for rule in all_rules()}
        lines.append("")
        for code, count in counts.items():
            lines.append(f"  {code}  {names.get(code, '?'):32s} {count:6d}")
        lines.append("")
    shown: set[str] = set()
    for finding in report.findings:
        first_of_code = finding.code not in shown
        shown.add(finding.code)
        if not (verbose or first_of_code):
            continue
        where = f"{finding.carrier}/{finding.gci}" if finding.gci >= 0 else finding.carrier
        if finding.channel >= 0:
            where += f" ch{finding.channel}"
        prefix = "" if verbose else "e.g. "
        lines.append(
            f"{prefix}{finding.code} [{finding.severity}] {where}: {finding.message}"
        )
        witness = report.witnesses.get(finding.fingerprint)
        if witness is not None:
            lines.append(f"    witness ({witness.kind}): {witness.note}")
    severities = report.counts_by_severity()
    lines.append(
        f"{severities['problem']} problems, {severities['warning']} warnings, "
        f"{severities['info']} informational"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable JSON report."""
    payload: dict[str, object] = {
        "version": JSON_REPORT_VERSION,
        "tool": "repro.lint",
        "snapshots_audited": report.snapshots_audited,
        "rules_run": list(report.rules_run),
        "counts_by_code": report.counts_by_code(),
        "counts_by_severity": report.counts_by_severity(),
        "suppressed": len(report.suppressed),
        "findings": [finding.to_dict() for finding in report.findings],
    }
    if report.graph_stats is not None:
        payload["graph_stats"] = asdict(report.graph_stats)
    if report.coverage_stats is not None:
        payload["coverage_stats"] = asdict(report.coverage_stats)
    if report.witnesses:
        payload["witnesses"] = {
            fingerprint: witness.to_dict()
            for fingerprint, witness in sorted(report.witnesses.items())
        }
    return dumps_indented(payload)


def _sarif_rules(
    rules_run: tuple[str, ...] | list[str],
    findings: list[Finding],
) -> list[dict[str, object]]:
    """Rule metadata for ``tool.driver.rules``.

    Derived from the union of the rules that ran and the codes present
    in the results, so every result's ``ruleId`` resolves even when the
    findings come from a pass whose codes are not in ``rules_run``
    (e.g. drift findings carried in a gate report).  Iterating the
    registry — where each code appears exactly once, in code order —
    guarantees no duplicate entries when rule families mix.
    """
    wanted = set(rules_run) | {finding.code for finding in findings}
    return [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {"level": SARIF_LEVELS[rule.severity]},
        }
        for rule in all_rules()
        if rule.code in wanted
    ]


def _sarif_result(finding: Finding, blame: str | None = None) -> dict[str, object]:
    properties: dict[str, object] = {
        "carrier": finding.carrier,
        "gci": finding.gci,
        "channel": finding.channel,
        "subject": finding.subject,
    }
    if blame is not None:
        properties["blame"] = blame
    return {
        "ruleId": finding.code,
        "level": SARIF_LEVELS[finding.severity],
        "message": {"text": finding.message},
        "locations": [
            {
                "logicalLocations": [
                    {
                        "name": f"{finding.carrier}/{finding.gci}",
                        "kind": "namespace",
                    }
                ]
            }
        ],
        "partialFingerprints": {"reproLint/v1": finding.fingerprint},
        "properties": properties,
    }


def _sarif_payload(
    rules: list[dict[str, object]],
    results: list[dict[str, object]],
    run_properties: dict[str, object] | None = None,
) -> str:
    run: dict[str, object] = {
        "tool": {
            "driver": {
                "name": "repro-lint",
                "informationUri": "https://example.invalid/repro",
                "rules": rules,
            }
        },
        "results": results,
    }
    if run_properties:
        run["properties"] = run_properties
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }
    return dumps_indented(payload)


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 report for code-scanning ingestion.

    Cells have no file locations, so each result carries a synthetic
    ``logicalLocations`` entry (carrier/gci) plus the raw identifiers in
    ``properties``.  Coverage findings embed their replayable witness in
    the result's ``properties``.
    """
    results = []
    for finding in report.findings:
        result = _sarif_result(finding)
        witness = report.witnesses.get(finding.fingerprint)
        if witness is not None:
            properties = result["properties"]
            assert isinstance(properties, dict)
            properties["witness"] = witness.to_dict()
        results.append(result)
    return _sarif_payload(_sarif_rules(report.rules_run, report.findings), results)


RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}


# ---------------------------------------------------------------------------
# Differential (drift) reporters


def render_diff_text(report: "DriftReport", verbose: bool = False) -> str:
    """Human-readable drift report: changes, introduced findings, blame."""
    lines = [
        f"repro lint --diff: {report.old_label!r} -> {report.new_label!r}, "
        f"{report.snapshots_audited} cell configurations audited"
    ]
    if len(report.timeline_labels) > 2:
        lines.append(
            "timeline: " + " -> ".join(report.timeline_labels)
        )
    stats = report.graph_stats
    if stats is not None:
        lines.append(
            f"graph re-verify: {stats.components} components "
            f"({stats.components_analyzed} re-analyzed, "
            f"{stats.components_cached} unchanged/cached)"
        )
    kind_counts = report.counts_by_change_kind()
    lines.append(
        f"{len(report.changes)} configuration changes"
        + (": " + ", ".join(f"{k} x{n}" for k, n in kind_counts.items())
           if kind_counts else "")
    )
    lines.append(
        f"{len(report.findings)} gate findings "
        f"({len(report.introduced)} introduced, {len(report.fixed)} fixed, "
        f"{len(report.suppressed)} baseline-suppressed)"
    )
    counts = report.counts_by_code()
    if counts:
        names = {rule.code: rule.name for rule in all_rules()}
        lines.append("")
        for code, count in counts.items():
            lines.append(f"  {code}  {names.get(code, '?'):32s} {count:6d}")
        lines.append("")
    blamed_changes = {c.change_id: c for c in report.changes}
    shown: set[str] = set()
    for finding in report.findings:
        first_of_code = finding.code not in shown
        shown.add(finding.code)
        if not (verbose or first_of_code):
            continue
        where = (
            f"{finding.carrier}/{finding.gci}" if finding.gci >= 0
            else finding.carrier
        )
        if finding.channel >= 0:
            where += f" ch{finding.channel}"
        prefix = "" if verbose else "e.g. "
        lines.append(
            f"{prefix}{finding.code} [{finding.severity}] {where}: "
            f"{finding.message}"
        )
        change_id = report.blame.get(finding.fingerprint)
        culprit = blamed_changes.get(change_id) if change_id else None
        if culprit is not None:
            lines.append(f"    blame: {culprit.describe()}")
    severities = report.counts_by_severity()
    lines.append(
        f"{severities['problem']} problems, {severities['warning']} warnings, "
        f"{severities['info']} informational"
    )
    return "\n".join(lines)


def render_diff_json(report: "DriftReport") -> str:
    """Machine-readable JSON drift report (findings carry blame ids)."""

    def finding_dict(finding: Finding) -> dict[str, object]:
        payload = finding.to_dict()
        payload["blame"] = report.blame.get(finding.fingerprint)
        return payload

    payload: dict[str, object] = {
        "version": JSON_REPORT_VERSION,
        "tool": "repro.lint",
        "mode": "diff",
        "old_label": report.old_label,
        "new_label": report.new_label,
        "timeline": list(report.timeline_labels),
        "snapshots_audited": report.snapshots_audited,
        "rules_run": list(report.rules_run),
        "changes": [change.to_dict() for change in report.changes],
        "counts_by_change_kind": report.counts_by_change_kind(),
        "counts_by_code": report.counts_by_code(),
        "counts_by_severity": report.counts_by_severity(),
        "old_counts_by_code": report.old_counts,
        "new_counts_by_code": report.new_counts,
        "introduced": len(report.introduced),
        "fixed": [finding.to_dict() for finding in report.fixed],
        "suppressed": len(report.suppressed),
        "findings": [finding_dict(finding) for finding in report.findings],
    }
    if report.graph_stats is not None:
        payload["graph_stats"] = asdict(report.graph_stats)
    return dumps_indented(payload)


def render_diff_sarif(report: "DriftReport") -> str:
    """SARIF 2.1.0 drift report; blame rides in result ``properties``."""
    results = [
        _sarif_result(finding, blame=report.blame.get(finding.fingerprint))
        for finding in report.findings
    ]
    return _sarif_payload(
        _sarif_rules(report.rules_run, report.findings),
        results,
        run_properties={
            "mode": "diff",
            "oldLabel": report.old_label,
            "newLabel": report.new_label,
            "changes": len(report.changes),
        },
    )


DIFF_RENDERERS = {
    "text": render_diff_text,
    "json": render_diff_json,
    "sarif": render_diff_sarif,
}
