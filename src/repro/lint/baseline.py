"""Baseline suppression files.

A baseline records the findings a network *knowingly* carries — in this
repository, the misconfigurations the synthetic carrier profiles
reproduce from the paper on purpose (negative T-Mobile A3 offsets,
AT&T's permissive -44 dBm A5 pairs, priority conflicts, ...).  Auditing
against a baseline surfaces only *new* findings, which is how a config
linter stays useful on a fleet that will never be finding-free.

Format (JSON, versioned)::

    {
      "version": 1,
      "tool": "repro.lint",
      "codes": {"HC002": "a3-negative-offset", ...},
      "suppressions": [
        {"fingerprint": "HC002:T:17:1975:", "code": "HC002",
         "message": "A3 offset -1 dB is negative: ..."},
        ...
      ]
    }

Suppression is keyed on :attr:`Finding.fingerprint` (code + cell +
channel + subject, *not* the message), so rewording a rule or changing a
numeric detail does not invalidate a baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.jsontext import write_json

BASELINE_VERSION = 1
BASELINE_TOOL = "repro.lint"


@dataclass
class Baseline:
    """A set of suppressed finding fingerprints."""

    fingerprints: set[str] = field(default_factory=set)
    #: rule code -> rule name, kept for human readers of the file.
    codes: dict[str, str] = field(default_factory=dict)
    #: fingerprint -> exemplar message at capture time (documentation).
    messages: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        """Capture a baseline that suppresses exactly ``findings``."""
        baseline = cls()
        for finding in findings:
            baseline.fingerprints.add(finding.fingerprint)
            baseline.codes[finding.code] = finding.name
            baseline.messages.setdefault(finding.fingerprint, finding.message)
        return baseline

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file, validating its version."""
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {payload.get('version')!r} "
                f"in {path} (expected {BASELINE_VERSION})"
            )
        baseline = cls(codes=dict(payload.get("codes", {})))
        for entry in payload.get("suppressions", []):
            fingerprint = entry["fingerprint"]
            baseline.fingerprints.add(fingerprint)
            if "message" in entry:
                baseline.messages[fingerprint] = entry["message"]
        return baseline

    def save(self, path: str | Path) -> None:
        """Write the baseline file (sorted, diff-friendly), atomically.

        A crash mid-save leaves the previous file as it was, never a
        torn one that every later audit fails to parse.
        """
        payload = {
            "version": BASELINE_VERSION,
            "tool": BASELINE_TOOL,
            "codes": dict(sorted(self.codes.items())),
            "suppressions": [
                {
                    "fingerprint": fingerprint,
                    "code": fingerprint.split(":", 1)[0],
                    "message": self.messages.get(fingerprint, ""),
                }
                for fingerprint in sorted(self.fingerprints)
            ],
        }
        write_json(path, payload)

    def split(self, findings: list[Finding]) -> tuple[list[Finding], list[Finding]]:
        """Partition ``findings`` into (new, suppressed)."""
        new: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in findings:
            if finding.fingerprint in self.fingerprints:
                suppressed.append(finding)
            else:
                new.append(finding)
        return new, suppressed

    def unused(
        self,
        findings: list[Finding],
        rules_run: tuple[str, ...] | None = None,
    ) -> set[str]:
        """Suppressions that matched nothing (stale baseline entries).

        When ``rules_run`` is given, only suppressions for rules that
        actually executed are considered: a suppression for a rule the
        audit never ran (filtered out with ``--rules``, or a graph rule
        on a non-``--graph`` run) is unverifiable, not stale.
        """
        seen = {finding.fingerprint for finding in findings}
        stale = self.fingerprints - seen
        if rules_run is not None:
            ran = set(rules_run)
            stale = {fp for fp in stale if fp.split(":", 1)[0] in ran}
        return stale

    def prune(
        self,
        findings: list[Finding],
        rules_run: tuple[str, ...] | None = None,
    ) -> set[str]:
        """Drop suppressions that no audit finding matches, in place.

        Returns the pruned fingerprints.  ``rules_run`` scopes the
        staleness test exactly as in :meth:`unused` — pruning after a
        partial audit must not discard suppressions the audit could
        never have re-confirmed.  The ``codes`` legend is rebuilt from
        the surviving suppressions so the saved file only documents
        rules it still mentions.
        """
        stale = self.unused(findings, rules_run)
        self.fingerprints -= stale
        for fingerprint in stale:
            self.messages.pop(fingerprint, None)
        surviving_codes = {fp.split(":", 1)[0] for fp in self.fingerprints}
        self.codes = {
            code: name for code, name in self.codes.items()
            if code in surviving_codes
        }
        return stale

    def __len__(self) -> int:
        return len(self.fingerprints)
