"""The lint engine: run rules over snapshots, worlds and fleets.

Three entry layers, cheapest first:

* :func:`lint_snapshots` — audit crawled/constructed snapshots;
* :func:`lint_world` — audit a deployed world straight from its
  :class:`~repro.rrc.broadcast.ConfigServer` (no diag round trip, no
  simulation: this is the "audit millions of cell configs without
  running the simulator" path);
* :func:`warn_before_run` — the simulation preflight hook; caches one
  audit per server (for warn-once semantics), shares it across servers
  over the same world content-digest when their configurations come
  from the seeded profiles, and surfaces findings as a
  :class:`ConfigLintWarning` so every drive knows what configuration
  problems it is driving through.

Audits optionally include the symbolic handoff-graph verifier
(:mod:`repro.lint.graph`, rules HC201-HC204) via ``graph=True``; graph
analysis shards per connected component over :mod:`repro.pipeline`
workers and re-verifies only components whose member configurations
changed since the analyzer last saw them.  ``coverage=True`` adds the
signal-space coverage analyzer (:mod:`repro.lint.coverage`, rules
HC401-HC405), which shards per cell the same way and attaches a
replayable :class:`~repro.lint.witness.CoverageWitness` to every
finding.
"""

from __future__ import annotations

import hashlib
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Sequence

from repro.cellnet.cell import Cell
from repro.cellnet.rat import RAT
from repro.cellnet.world import RadioEnvironment
from repro.config.profiles import profile_for_carrier
from repro.core.crawler import CellConfigSnapshot
from repro.lint.baseline import Baseline
from repro.lint.coverage import CoverageAnalyzer, CoverageStats
from repro.lint.findings import (
    Finding,
    count_by_severity,
    sort_findings,
    summarize,
)
from repro.lint.graph import GraphAnalyzer, GraphStats, snapshot_digest
from repro.lint.rules import RegisteredRule, select_rules
from repro.lint.witness import CoverageWitness
from repro.rrc.broadcast import ConfigServer


class ConfigLintWarning(UserWarning):
    """Configuration findings surfaced before a simulation runs."""


@dataclass
class LintReport:
    """Everything one audit produced.

    Attributes:
        findings: New findings (baseline-suppressed ones excluded),
            deterministically sorted.
        suppressed: Findings matched by the baseline.
        snapshots_audited: How many cell snapshots the audit covered.
        rules_run: Codes of the rules that ran.
        graph_stats: Counters of the handoff-graph verification pass
            (None when the audit ran without ``graph=True``).
        coverage_stats: Counters of the signal-space coverage pass
            (None when the audit ran without ``coverage=True``).
        witnesses: Replayable counterexamples for coverage findings,
            keyed by finding fingerprint.  Baseline-suppressed findings
            drop their witnesses so reporters only see live ones.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    snapshots_audited: int = 0
    rules_run: tuple[str, ...] = ()
    graph_stats: GraphStats | None = None
    coverage_stats: CoverageStats | None = None
    witnesses: dict[str, CoverageWitness] = field(default_factory=dict)

    def counts_by_code(self) -> dict[str, int]:
        return summarize(self.findings)

    def counts_by_severity(self) -> dict[str, int]:
        return count_by_severity(self.findings)

    @property
    def has_problems(self) -> bool:
        return any(f.severity == "problem" for f in self.findings)

    @property
    def has_warnings(self) -> bool:
        return any(f.severity in ("warning", "problem") for f in self.findings)


def lint_snapshots(
    snapshots: list[CellConfigSnapshot],
    rules: tuple[RegisteredRule, ...] | None = None,
    codes: list[str] | None = None,
    baseline: Baseline | None = None,
    graph: bool = False,
    coverage: bool = False,
    workers: int | None = None,
    graph_analyzer: GraphAnalyzer | None = None,
    digests: Sequence[str] | None = None,
) -> LintReport:
    """Run (all or selected) rules over a list of snapshots.

    Args:
        snapshots: The audit population.
        rules: Explicit rule set (overrides ``codes``).
        codes: Rule-code filter (default: every registered rule).
        baseline: Optional suppression baseline.
        graph: Also run the handoff-graph verifier (HC2xx rules).
        coverage: Also run the signal-space coverage analyzer (HC4xx
            rules); every coverage finding carries a replayable witness
            in :attr:`LintReport.witnesses`.
        workers: Worker processes for the graph/coverage passes
            (None/1 = serial).
        graph_analyzer: Analyzer instance to reuse for incremental
            per-component caching (default: a fresh one per call).
        digests: Each snapshot's :func:`~repro.lint.graph.snapshot_digest`,
            in snapshot order, when the caller has them (a capture's
            :attr:`~repro.lint.snapshot.ConfigSnapshot.digests`).
    """
    if rules is None:
        rules = select_rules(codes)
    # Drift-scope rules need two captures; a single-capture audit can
    # never run them (repro.lint.diff.diff_lint is their engine).
    # Graph and coverage scopes run through their analyzers below.
    snapshot_rules = tuple(
        r for r in rules if r.scope not in ("graph", "drift", "coverage")
    )
    graph_codes = tuple(r.code for r in rules if r.scope == "graph")
    coverage_codes = tuple(r.code for r in rules if r.scope == "coverage")
    findings: list[Finding] = []
    for registered in snapshot_rules:
        findings.extend(registered.check(snapshots))
    # Both analyzers key their caches on the cells' content digests:
    # hash each cell once for the two of them.
    run_graph = graph and bool(graph_codes)
    run_coverage = coverage and bool(coverage_codes)
    if digests is None and (run_graph or run_coverage):
        digests = [snapshot_digest(s) for s in snapshots]
    graph_stats: GraphStats | None = None
    rules_run = tuple(r.code for r in snapshot_rules)
    if run_graph:
        analyzer = graph_analyzer if graph_analyzer is not None else GraphAnalyzer()
        graph_findings, graph_stats = analyzer.analyze(
            snapshots, codes=graph_codes, workers=workers, digests=digests
        )
        findings.extend(graph_findings)
        rules_run = rules_run + graph_codes
    coverage_stats: CoverageStats | None = None
    witnesses: dict[str, CoverageWitness] = {}
    if run_coverage:
        coverage_findings, coverage_stats, witnesses = CoverageAnalyzer().analyze(
            snapshots, codes=coverage_codes, workers=workers, digests=digests
        )
        findings.extend(coverage_findings)
        rules_run = rules_run + coverage_codes
    findings = sort_findings(findings)
    suppressed: list[Finding] = []
    if baseline is not None:
        findings, suppressed = baseline.split(findings)
    if witnesses:
        live = {f.fingerprint for f in findings}
        witnesses = {fp: w for fp, w in witnesses.items() if fp in live}
    return LintReport(
        findings=findings,
        suppressed=suppressed,
        snapshots_audited=len(snapshots),
        rules_run=rules_run,
        graph_stats=graph_stats,
        coverage_stats=coverage_stats,
        witnesses=witnesses,
    )


def snapshot_for_cell(cell: Cell, server: ConfigServer) -> CellConfigSnapshot:
    """Build one cell's audit snapshot straight from the config server.

    The snapshot carries exactly what a crawler would recover from the
    cell's broadcasts plus a measConfig observation — but is built from
    the server's cached base configuration, skipping the diag encode/
    decode round trip.
    """
    if cell.rat is RAT.LTE:
        config = server.lte_config(cell)
        return CellConfigSnapshot(
            carrier=cell.carrier,
            gci=cell.cell_id.gci,
            rat=cell.rat.value,
            channel=cell.channel,
            city=cell.city,
            first_seen_ms=0,
            lte_config=config,
            meas_config=config.measurement,
        )
    profile = profile_for_carrier(cell.carrier, seed=server.seed)
    return CellConfigSnapshot(
        carrier=cell.carrier,
        gci=cell.cell_id.gci,
        rat=cell.rat.value,
        channel=cell.channel,
        city=cell.city,
        first_seen_ms=0,
        legacy_config=profile.legacy_config(cell),
    )


def world_snapshots(
    env: RadioEnvironment,
    server: ConfigServer,
    carriers: tuple[str, ...] | None = None,
    max_cells_per_carrier: int = 0,
) -> list[CellConfigSnapshot]:
    """Audit snapshots for a deployed world, optionally sampled.

    Args:
        env: The radio environment whose cells to audit.
        server: Configuration oracle for that environment.
        carriers: Restrict to these carriers (default: every carrier
            present in the deployment).
        max_cells_per_carrier: Audit at most this many cells per carrier
            (0 = all).  Sampling is deterministic — cells are taken in
            cell-id order — so repeated audits see the same population.
    """
    by_carrier: dict[str, list[Cell]] = {}
    for cell in env.registry:
        by_carrier.setdefault(cell.carrier, []).append(cell)
    wanted = sorted(by_carrier) if carriers is None else list(carriers)
    snapshots: list[CellConfigSnapshot] = []
    for carrier in wanted:
        cells = sorted(by_carrier.get(carrier, ()), key=lambda c: c.cell_id)
        if max_cells_per_carrier > 0:
            cells = cells[:max_cells_per_carrier]
        snapshots.extend(snapshot_for_cell(cell, server) for cell in cells)
    return snapshots


def lint_world(
    env: RadioEnvironment,
    server: ConfigServer,
    carriers: tuple[str, ...] | None = None,
    max_cells_per_carrier: int = 0,
    codes: list[str] | None = None,
    baseline: Baseline | None = None,
    graph: bool = False,
    coverage: bool = False,
    workers: int | None = None,
) -> LintReport:
    """Audit a whole deployed world (or fleet subset) in one pass."""
    snapshots = world_snapshots(
        env, server, carriers=carriers, max_cells_per_carrier=max_cells_per_carrier
    )
    return lint_snapshots(
        snapshots,
        codes=codes,
        baseline=baseline,
        graph=graph,
        coverage=coverage,
        workers=workers,
    )


#: Preflight audits cached per config server: {carrier: report}.  This
#: layer exists for warn-once semantics — the warning fires once per
#: (server, carrier), and repeated calls return the identical object.
_PREFLIGHT_CACHE: "weakref.WeakKeyDictionary[ConfigServer, dict[str, LintReport]]" = (
    weakref.WeakKeyDictionary()
)

#: World content digests cached per environment (the registry is
#: immutable for a deployed world, so the digest is computed once).
_WORLD_DIGESTS: "weakref.WeakKeyDictionary[RadioEnvironment, str]" = (
    weakref.WeakKeyDictionary()
)

#: Preflight reports memoized per world *content* digest: fresh servers
#: over the same deployment and seed reuse the finished audit instead of
#: re-running it, which is what keeps preflights free for fleets of
#: drives.  Keys are (world digest, config seed, carrier); the dict is
#: bounded below.  The key covers only what
#: :meth:`ConfigServer.lte_config` reads, so servers that override it
#: never use this memo.
_PREFLIGHT_REPORTS: dict[tuple[str, int, str], LintReport] = {}

#: Bound on the digest-keyed memo; preflights touch a handful of worlds
#: per process, so eviction is a safety valve, not a steady state.
_PREFLIGHT_REPORTS_LIMIT = 64

#: Cell cap for preflight audits: enough for a representative verdict,
#: cheap enough to run in front of every first drive.
PREFLIGHT_MAX_CELLS = 200


def world_digest(env: RadioEnvironment, config_seed: int) -> str:
    """Content digest of a deployed world's configuration inputs.

    Every cell configuration is a deterministic function of the cell's
    identity/location and the profile seed, so hashing those inputs
    fingerprints the full configuration state without generating it.
    """
    cached = _WORLD_DIGESTS.get(env)
    if cached is None:
        hasher = hashlib.sha256()
        for cell in env.registry.all_cells():
            hasher.update(repr((
                cell.cell_id.carrier, cell.cell_id.gci, cell.rat.value,
                cell.channel, cell.pci, cell.location, cell.tx_power_dbm,
                cell.city, cell.bandwidth_mhz,
            )).encode())
        cached = hasher.hexdigest()[:16]
        _WORLD_DIGESTS[env] = cached
    return f"{cached}:{config_seed}"


def warn_before_run(
    env: RadioEnvironment,
    server: ConfigServer,
    carrier: str,
) -> LintReport:
    """Simulation preflight: audit ``carrier`` once and warn on findings.

    The audit runs the cell and network rules; ``repro lint --graph`` is
    the handoff-graph audit.  The finished report is memoized per world
    content-digest, so fleets of drives — even ones constructing a fresh
    :class:`ConfigServer` per drive — pay for the audit exactly once per
    deployment.  A server whose class overrides
    :meth:`~ConfigServer.lte_config` broadcasts configurations the
    digest cannot see, so its audit is cached for that server only.
    The warning itself is emitted once per (server, carrier).
    """
    per_server = _PREFLIGHT_CACHE.setdefault(server, {})
    cached = per_server.get(carrier)
    if cached is not None:
        return cached
    # The audit reads only ``server.lte_config`` and ``server.seed``.
    profiled = type(server).lte_config is ConfigServer.lte_config
    memo_key = (world_digest(env, server.seed), server.seed, carrier)
    report = _PREFLIGHT_REPORTS.get(memo_key) if profiled else None
    if report is None:
        report = lint_world(
            env,
            server,
            carriers=(carrier,),
            max_cells_per_carrier=PREFLIGHT_MAX_CELLS,
        )
        if profiled:
            if len(_PREFLIGHT_REPORTS) >= _PREFLIGHT_REPORTS_LIMIT:
                _PREFLIGHT_REPORTS.clear()
            _PREFLIGHT_REPORTS[memo_key] = report
    per_server[carrier] = report
    if report.findings:
        severities = report.counts_by_severity()
        codes = ", ".join(sorted(report.counts_by_code()))
        warnings.warn(
            ConfigLintWarning(
                f"carrier {carrier!r} configuration has "
                f"{len(report.findings)} lint findings "
                f"({severities['problem']} problems, "
                f"{severities['warning']} warnings; rules: {codes}); "
                "run `python -m repro lint` for details"
            ),
            stacklevel=3,
        )
    return report
