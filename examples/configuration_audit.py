#!/usr/bin/env python3
"""Configuration audit: the paper's "automated tool for configuration
verification" (Section 6) over a crawled carrier network.

Crawls one carrier's cells through the full device-side pipeline (SIB
broadcasts -> diag log -> crawler) and audits the recovered
configurations for the paper's problem patterns: negative A3 offsets,
permissive/inverted A5 pairs, premature or late measurement thresholds,
priority conflicts and priority loops.

Run:
    python examples/configuration_audit.py [carrier]
"""

import sys
from collections import Counter

from repro.cellnet.rat import RAT
from repro.core.crawler import ConfigCrawler
from repro.lint.engine import lint_snapshots
from repro.lint.findings import summarize
from repro.rrc.diag import DiagWriter
from repro.simulate import drive_scenario


def main(carrier: str = "A") -> None:
    print(f"building the world and crawling carrier {carrier!r}...")
    scenario = drive_scenario("indianapolis", seed=7)
    cells = [
        c for c in scenario.plan.registry.by_carrier(carrier) if c.rat is RAT.LTE
    ]
    # Capture each cell's broadcast into a diag log — the audit only
    # ever sees what a phone would see.
    writer = DiagWriter.in_memory()
    t_ms = 0
    for cell in cells:
        for message in scenario.server.sib_messages(cell):
            writer.write(t_ms, message)
            t_ms += 10
        writer.write(t_ms, scenario.server.connection_reconfiguration(cell))
        t_ms += 10
    snapshots = ConfigCrawler.crawl(writer.getvalue())
    print(f"  crawled {len(snapshots)} cell configurations "
          f"({len(writer.getvalue()):,} bytes of signaling)")

    print("auditing...")
    findings = lint_snapshots(snapshots).findings
    summary = summarize(findings)
    severities = Counter(f.severity for f in findings)
    print(f"  {len(findings)} findings "
          f"({severities.get('problem', 0)} problems, "
          f"{severities.get('warning', 0)} warnings, "
          f"{severities.get('info', 0)} informational)")
    for code, count in summary.items():
        print(f"    {code:32s} {count:5d}")

    print("\nexample findings:")
    shown = set()
    for finding in findings:
        if finding.code in shown:
            continue
        shown.add(finding.code)
        where = f"cell {finding.carrier}/{finding.gci}" if finding.gci >= 0 else "network"
        print(f"  [{finding.severity}] {finding.code} ({where})")
        print(f"      {finding.message}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "A")
