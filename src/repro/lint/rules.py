"""The rule framework: protocol, registry and the ``@rule`` decorator.

A lint rule is a pure function over crawled configuration state:

* **cell** rules see one :class:`~repro.core.crawler.CellConfigSnapshot`
  at a time and catch local misconfigurations (bad domains, inverted
  thresholds, ping-pong-prone event algebra);
* **network** rules see every snapshot of an audit at once and catch
  emergent problems no single cell exhibits (priority preference loops,
  inter-channel threshold gaps, conflicting priorities on one EARFCN);
* **graph** rules run per connected component of the symbolic handoff-
  policy graph (:mod:`repro.lint.graph`); the engine routes them through
  the :class:`~repro.lint.graph.GraphAnalyzer` rather than the snapshot
  pass, so they can shard over pipeline workers and cache per-component
  results;
* **drift** rules see a :class:`~repro.lint.diff.DriftContext` — two
  captures plus the semantic changes between them — and catch
  *regressions*: problems a reconfiguration introduced that a
  single-capture audit cannot attribute (:mod:`repro.lint.drift_rules`).
  Only :func:`repro.lint.diff.diff_lint` runs them;
* **coverage** rules run per cell over the signal-space fire-region
  partition computed by :mod:`repro.lint.coverage`; the engine routes
  them through the :class:`~repro.lint.coverage.CoverageAnalyzer` (which
  shards per cell and collects the replayable
  :class:`~repro.lint.witness.CoverageWitness` each issue carries) rather
  than the snapshot pass.

Rules yield lightweight :class:`Issue` drafts; the engine stamps them
into full :class:`~repro.lint.findings.Finding` records with the rule's
stable code, slug and default severity.  Codes are append-only: a code
is never reused for a different check, which is what makes baselines
and SARIF dashboards stable across releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, runtime_checkable

from repro.core.crawler import CellConfigSnapshot
from repro.lint.findings import SEVERITIES, Finding

if TYPE_CHECKING:
    from repro.lint.witness import CoverageWitness

#: Rule scopes.
SCOPES = ("cell", "network", "graph", "drift", "coverage")


@dataclass(frozen=True)
class Issue:
    """One draft finding yielded by a rule body.

    Every field is optional; the engine fills carrier/gci/channel from
    the snapshot for cell rules and severity from the rule default.
    Coverage-scope rules attach the replayable counterexample of the
    finding as ``witness``; stamping leaves it out of the finding.
    """

    message: str
    severity: str | None = None
    carrier: str | None = None
    gci: int | None = None
    channel: int | None = None
    subject: str = ""
    witness: CoverageWitness | None = None


@runtime_checkable
class Rule(Protocol):
    """What the engine requires of a rule (satisfied by ``@rule``)."""

    code: str
    name: str
    severity: str
    scope: str
    summary: str

    def check(
        self, snapshots: list[CellConfigSnapshot]
    ) -> Iterator[Finding]: ...


@dataclass(frozen=True)
class RegisteredRule:
    """A registered rule: metadata plus the wrapped check function."""

    code: str
    name: str
    severity: str
    scope: str
    summary: str
    func: Callable[..., Iterator[Issue]] = field(compare=False)

    def check(self, snapshots: list[CellConfigSnapshot]) -> Iterator[Finding]:
        """Run the rule over an audit's snapshots, yielding findings.

        Graph-scope rules do not run here — they execute per component
        inside :func:`repro.lint.graph.analyze_component` — and neither
        do coverage-scope rules, which run per cell inside
        :func:`repro.lint.coverage.analyze_cell`, or drift-scope rules,
        which only :func:`repro.lint.diff.diff_lint` evaluates.
        """
        if self.scope == "cell":
            for snapshot in snapshots:
                for issue in self.func(snapshot):
                    yield self._stamp(issue, snapshot)
        elif self.scope == "network":
            for issue in self.func(snapshots):
                yield self._stamp(issue, None)

    def stamp(self, issue: Issue) -> Finding:
        """Stamp a standalone issue (graph rules) into a full finding."""
        return self._stamp(issue, None)

    def _stamp(self, issue: Issue, snapshot: CellConfigSnapshot | None) -> Finding:
        carrier = issue.carrier if issue.carrier is not None else (
            snapshot.carrier if snapshot is not None else ""
        )
        gci = issue.gci if issue.gci is not None else (
            snapshot.gci if snapshot is not None else -1
        )
        channel = issue.channel if issue.channel is not None else (
            snapshot.channel if snapshot is not None else -1
        )
        return Finding(
            code=self.code,
            severity=issue.severity or self.severity,
            carrier=carrier,
            gci=gci,
            message=issue.message,
            name=self.name,
            channel=channel,
            subject=issue.subject,
        )


_REGISTRY: dict[str, RegisteredRule] = {}


def rule(
    code: str, name: str, *, scope: str, severity: str, summary: str
) -> Callable[[Callable[..., Iterator[Issue]]], RegisteredRule]:
    """Register a check function as a lint rule.

    Args:
        code: Stable ``HCnnn`` code (1xx = network scope, 2xx = graph
            scope, 3xx = drift scope, 4xx = coverage scope by
            convention).
        name: Human-readable kebab-case slug.
        scope: "cell" (function takes one snapshot), "network"
            (function takes the full snapshot list), "graph" (function
            takes one component's :class:`~repro.lint.graph.HopIndex`),
            "drift" (function takes a
            :class:`~repro.lint.diff.DriftContext`) or "coverage"
            (function takes one snapshot, its fire regions and its
            critical-band gaps, and yields issues that carry their
            witness; executed per cell by the
            :class:`~repro.lint.coverage.CoverageAnalyzer`).
        severity: Default severity; individual issues may override.
        summary: One-line description used by reporters and ``--help``.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown rule scope {scope!r}")
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def register(func: Callable[..., Iterator[Issue]]) -> RegisteredRule:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        registered = RegisteredRule(
            code=code, name=name, severity=severity, scope=scope,
            summary=summary, func=func,
        )
        _REGISTRY[code] = registered
        return registered

    return register


def all_rules() -> tuple[RegisteredRule, ...]:
    """Every registered rule, ordered by code."""
    _ensure_loaded()
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def get_rule(code: str) -> RegisteredRule:
    """Look a rule up by its stable code."""
    _ensure_loaded()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"unknown rule code {code!r}") from None


def select_rules(codes: Iterable[str] | None = None) -> tuple[RegisteredRule, ...]:
    """Resolve an optional code filter to concrete rules."""
    if codes is None:
        return all_rules()
    return tuple(get_rule(code) for code in codes)


def _ensure_loaded() -> None:
    """Import the built-in rule modules (registration side effect)."""
    from repro.lint import (  # noqa: F401
        cell_rules,
        coverage,
        drift_rules,
        graph,
        network_rules,
    )
