"""Finding: the unit result of every lint rule.

One dataclass serves the whole static-analysis stack: per-cell rules,
cross-cell network rules and all three reporters.  Findings are plain
frozen data so they can be printed, counted, serialized and asserted on.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

#: Severity levels, weakest first.  "problem" marks configurations the
#: paper ties to concrete harm (handoff loops, unreachable layers);
#: "warning" marks questionable-but-survivable settings; "info" marks
#: notable practices worth surfacing.
SEVERITIES = ("info", "warning", "problem")

#: The one severity table every consumer maps through.  Reporters,
#: exit-code gates and tests all key off this — text output prints the
#: severity name, JSON carries it verbatim, SARIF uses the ``sarif``
#: column, and ``--fail-on`` thresholds compare the ``rank`` column.
SEVERITY_RANK: dict[str, int] = {s: i for i, s in enumerate(SEVERITIES)}

#: SARIF 2.1.0 ``level`` per severity (the ``sarif`` column of the
#: shared table).  Re-exported by :mod:`repro.lint.report` as
#: ``SARIF_LEVELS`` for backwards compatibility.
SARIF_LEVELS = {"info": "note", "warning": "warning", "problem": "error"}

#: Valid ``--fail-on`` gate values: a minimum severity, "any" (fail on
#: any finding at all) or "never" (always exit 0; report-only mode).
FAIL_ON_CHOICES = ("never", "any") + SEVERITIES


def exit_code(findings: list["Finding"], fail_on: str) -> int:
    """The process exit code one set of findings maps to.

    The single gate shared by ``repro lint``, ``repro lint --diff`` and
    CI: 0 when the findings pass the ``fail_on`` threshold, 1 otherwise.
    """
    if fail_on not in FAIL_ON_CHOICES:
        raise ValueError(f"unknown fail-on threshold {fail_on!r}")
    if fail_on == "never":
        return 0
    if fail_on == "any":
        return 1 if findings else 0
    floor = SEVERITY_RANK[fail_on]
    return 1 if any(SEVERITY_RANK[f.severity] >= floor for f in findings) else 0


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding.

    Attributes:
        code: Stable machine-readable rule code (``HC001``...).
        severity: One of :data:`SEVERITIES`.
        carrier: Carrier the finding is about.
        gci: Cell the finding is about (-1 = network level).
        message: Human-readable explanation with the offending values.
        name: Human-readable rule slug (``a3-negative-offset``).
        channel: Channel the finding is about (-1 = not channel-bound).
        subject: Extra discriminator for network findings that concern
            more than one channel (e.g. ``"850->1975"``).
    """

    code: str
    severity: str
    carrier: str
    gci: int
    message: str
    name: str = ""
    channel: int = -1
    subject: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def fingerprint(self) -> str:
        """Stable identity used by baseline suppression.

        Deliberately excludes the message: rewording a rule must not
        invalidate existing baselines.
        """
        return f"{self.code}:{self.carrier}:{self.gci}:{self.channel}:{self.subject}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation: the fields in order, then the fingerprint."""
        return {
            "code": self.code,
            "severity": self.severity,
            "carrier": self.carrier,
            "gci": self.gci,
            "message": self.message,
            "name": self.name,
            "channel": self.channel,
            "subject": self.subject,
            "fingerprint": self.fingerprint,
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic report order: carrier, cell, code, subject."""
    return sorted(
        findings,
        key=lambda f: (f.carrier, f.gci, f.channel, f.code, f.subject, f.message),
    )


def summarize(findings: list[Finding]) -> dict[str, int]:
    """Finding counts per code, for report tables."""
    counts: dict[str, int] = defaultdict(int)
    for finding in findings:
        counts[finding.code] += 1
    return dict(sorted(counts.items()))


def count_by_severity(findings: list[Finding]) -> dict[str, int]:
    """Finding counts per severity ("problem" first)."""
    counts = {severity: 0 for severity in reversed(SEVERITIES)}
    for finding in findings:
        counts[finding.severity] += 1
    return counts
