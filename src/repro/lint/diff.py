"""The differential configuration-drift analyzer.

Two halves:

* :func:`diff_config_snapshots` — a *semantic* differ between two
  :class:`~repro.lint.snapshot.ConfigSnapshot` captures.  Instead of raw
  JSON deltas it emits typed :class:`ConfigChange` records over
  path-qualified parameters (``serving.q_hyst``,
  ``lte-layer[1975].thresh_x_high_p``, ``meas.event[A5/rsrp].threshold1``):
  parameter changed, cell or layer added/retired, priority reshuffle,
  measurement-profile migration.  Cell diffs shard over
  :mod:`repro.pipeline` work units and merge in canonical order, so the
  change list is byte-identical at any worker count.
* :func:`diff_lint` — the regression gate.  It audits both captures with
  every non-drift rule (sharing one
  :class:`~repro.lint.graph.GraphAnalyzer`, so the graph verifier
  re-runs only on components whose member configurations changed), runs
  the HC3xx drift rules over the :class:`DriftContext`, fingerprints the
  findings *introduced* between the captures, and blames each on the
  :class:`ConfigChange` that made it appear.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Sequence

from repro.config.events import EventConfig
from repro.core.crawler import CellConfigSnapshot
from repro.lint.baseline import Baseline
from repro.lint.findings import (
    Finding,
    count_by_severity,
    sort_findings,
    summarize,
)
from repro.lint.graph import GraphAnalyzer, GraphStats, snapshot_digest
from repro.lint.rules import RegisteredRule
from repro.lint.snapshot import ConfigSnapshot
from repro.pipeline import WorkUnit, resolve_backend

#: Change kinds the differ classifies into (stable, append-only like
#: rule codes: reports and blame ids depend on them).
CHANGE_KINDS = (
    "cell-added",
    "cell-retired",
    "layer-added",
    "layer-retired",
    "parameter-changed",
    "priority-reshuffle",
    "profile-migration",
)

#: Path prefixes that denote a whole configured layer (SIB5/6/7/8
#: entry); appearing/disappearing wholesale is a layer add/retire, not a
#: pile of parameter changes.
_LAYER_PREFIXES = ("lte-layer[", "utra-layer[", "geran-layer[", "cdma-layer[")

#: Path prefix of one armed measurement event; the armed-event *set*
#: changing is a measurement-profile migration (MMLab-style patch
#: rollouts swap whole event profiles, paper Section 5.3).
_EVENT_PREFIX = "meas.event["


@dataclass(frozen=True)
class ConfigChange:
    """One typed, semantic difference between two captures.

    Attributes:
        kind: One of :data:`CHANGE_KINDS`.
        carrier / gci / channel / city: The cell the change is about
            (identity from the *new* capture when present there).
        parameter: Path-qualified parameter (or layer/event prefix for
            structural changes; empty for cell add/retire).
        old_value / new_value: Values before/after (None when absent).
        detail: Human-readable description of the change.
    """

    kind: str
    carrier: str
    gci: int
    channel: int
    city: str
    parameter: str = ""
    old_value: object = None
    new_value: object = None
    detail: str = ""

    @property
    def change_id(self) -> str:
        """Stable identity used for blame references in reports."""
        return f"{self.kind}:{self.carrier}:{self.gci}:{self.parameter}"

    def describe(self) -> str:
        """One-line rendering for text reports and blame lines."""
        where = f"{self.carrier}/{self.gci}"
        if self.kind in ("cell-added", "cell-retired"):
            return f"{self.kind} {where} ch{self.channel}"
        if self.kind in ("layer-added", "layer-retired"):
            return f"{self.kind} {where} {self.parameter}"
        return (
            f"{self.kind} {where} {self.parameter}: "
            f"{self.old_value!r} -> {self.new_value!r}"
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (values stringified via repr)."""
        return {
            "change_id": self.change_id,
            "kind": self.kind,
            "carrier": self.carrier,
            "gci": self.gci,
            "channel": self.channel,
            "city": self.city,
            "parameter": self.parameter,
            "old_value": None if self.old_value is None else repr(self.old_value),
            "new_value": None if self.new_value is None else repr(self.new_value),
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Path-qualified flattening


def _frozen(value: object) -> object:
    """Sequence values as tuples so flattened values compare/hash."""
    if isinstance(value, list):
        return tuple(value)
    return value


def _event_key(config: EventConfig) -> str:
    return f"{config.event.value}/{config.metric}"


def _claim(prefix: str, used: set[str]) -> str:
    """Disambiguate repeated structural prefixes (duplicate layers)."""
    candidate = prefix
    serial = 2
    while candidate in used:
        candidate = f"{prefix}#{serial}"
        serial += 1
    used.add(candidate)
    return candidate


def flatten_cell(snapshot: CellConfigSnapshot) -> dict[str, object]:
    """Flatten one cell's configuration into path-qualified parameters.

    Unlike the dataset builders' flat ``parameter_samples()`` (names
    repeat across layers), every path here is unique within the cell and
    *identity-qualified*: inter-frequency layers key on their target
    channel, events on ``type/metric`` — so "layer 1975's thresh_x_high_p
    changed" survives list reordering and layer insertion.
    """
    flat: dict[str, object] = {
        "identity.rat": snapshot.rat,
        "identity.channel": snapshot.channel,
        "identity.city": snapshot.city,
    }
    used: set[str] = set()
    lte = snapshot.lte_config
    if lte is not None:
        for name, value in lte.serving.parameter_samples():
            flat[f"serving.{name}"] = _frozen(value)
        for name, value in lte.intra_neighbors.parameter_samples():
            flat[f"intra.{name}"] = _frozen(value)
        for layer in lte.inter_freq_layers:
            prefix = _claim(f"lte-layer[{layer.dl_carrier_freq}]", used)
            for name, value in layer.parameter_samples():
                flat[f"{prefix}.{name}"] = _frozen(value)
        for utra in lte.utra_layers:
            prefix = _claim(f"utra-layer[{utra.carrier_freq}]", used)
            for name, value in utra.parameter_samples():
                flat[f"{prefix}.{name}"] = _frozen(value)
        for geran in lte.geran_layers:
            anchor = min(geran.carrier_freqs) if geran.carrier_freqs else 0
            prefix = _claim(f"geran-layer[{anchor}]", used)
            for name, value in geran.parameter_samples():
                flat[f"{prefix}.{name}"] = _frozen(value)
        for cdma in lte.cdma_layers:
            prefix = _claim(f"cdma-layer[{cdma.band_class}]", used)
            for name, value in cdma.parameter_samples():
                flat[f"{prefix}.{name}"] = _frozen(value)
        meas = snapshot.meas_config or lte.measurement
        flat["meas.s_measure"] = meas.s_measure
        for event in meas.events:
            prefix = _claim(f"{_EVENT_PREFIX}{_event_key(event)}]", used)
            for f in fields(event):
                if f.name in ("event", "metric"):
                    continue
                flat[f"{prefix}.{f.name}"] = _frozen(getattr(event, f.name))
        if meas.periodic is not None:
            for f in fields(meas.periodic):
                flat[f"meas.periodic.{f.name}"] = _frozen(
                    getattr(meas.periodic, f.name)
                )
    if snapshot.legacy_config is not None:
        for name, value in snapshot.legacy_config.parameter_samples():
            flat[f"legacy.{name}"] = _frozen(value)
    return flat


# ---------------------------------------------------------------------------
# Per-cell semantic diff (the sharded unit of work)


def _structural_prefix(path: str) -> str | None:
    """The layer/event prefix a path belongs to, if any."""
    if any(path.startswith(p) for p in _LAYER_PREFIXES + (_EVENT_PREFIX,)):
        return path.split("].", 1)[0] + "]"
    return None


def _is_priority_path(path: str) -> bool:
    leaf = path.rsplit(".", 1)[-1]
    return "priority" in leaf


def diff_cell(
    old: CellConfigSnapshot, new: CellConfigSnapshot
) -> tuple[ConfigChange, ...]:
    """Semantic changes between two observations of one cell."""
    if snapshot_digest(old) == snapshot_digest(new):
        return ()
    return _changed_cell(old, new)


def _changed_cell(
    old: CellConfigSnapshot, new: CellConfigSnapshot
) -> tuple[ConfigChange, ...]:
    """:func:`diff_cell` for a pair whose digests are known to differ."""
    old_flat = flatten_cell(old)
    new_flat = flatten_cell(new)
    changes: list[ConfigChange] = []

    def change(kind: str, parameter: str, old_value: object,
               new_value: object, detail: str) -> None:
        changes.append(ConfigChange(
            kind=kind, carrier=new.carrier, gci=new.gci,
            channel=new.channel, city=new.city, parameter=parameter,
            old_value=old_value, new_value=new_value, detail=detail,
        ))

    old_paths = set(old_flat)
    new_paths = set(new_flat)
    # Structural prefixes present on only one side: whole layers or
    # armed events appeared/disappeared.
    old_prefixes = {p for p in map(_structural_prefix, old_paths) if p}
    new_prefixes = {p for p in map(_structural_prefix, new_paths) if p}
    handled: set[str] = set()
    for prefix in sorted(new_prefixes - old_prefixes):
        members = sorted(p for p in new_paths if p.startswith(prefix + "."))
        handled.update(members)
        if prefix.startswith(_EVENT_PREFIX):
            event = prefix[len(_EVENT_PREFIX):-1]
            change(
                "profile-migration", prefix, None, event,
                f"measurement profile armed event {event} "
                f"({len(members)} parameters)",
            )
        else:
            change(
                "layer-added", prefix, None, None,
                f"configured neighbor layer {prefix} added "
                f"({len(members)} parameters)",
            )
    for prefix in sorted(old_prefixes - new_prefixes):
        members = sorted(p for p in old_paths if p.startswith(prefix + "."))
        handled.update(members)
        if prefix.startswith(_EVENT_PREFIX):
            event = prefix[len(_EVENT_PREFIX):-1]
            change(
                "profile-migration", prefix, event, None,
                f"measurement profile disarmed event {event} "
                f"({len(members)} parameters)",
            )
        else:
            change(
                "layer-retired", prefix, None, None,
                f"configured neighbor layer {prefix} retired "
                f"({len(members)} parameters)",
            )
    # Remaining one-sided paths (e.g. periodic reporting toggled, or a
    # legacy/LTE config section appearing) are plain parameter changes.
    for path in sorted((new_paths - old_paths) - handled):
        change("parameter-changed", path, None, new_flat[path],
               f"{path} configured (was absent)")
    for path in sorted((old_paths - new_paths) - handled):
        change("parameter-changed", path, old_flat[path], None,
               f"{path} removed (was {old_flat[path]!r})")
    # Value changes on paths both sides share.
    for path in sorted(old_paths & new_paths):
        before, after = old_flat[path], new_flat[path]
        if before == after:
            continue
        kind = "priority-reshuffle" if _is_priority_path(path) else "parameter-changed"
        change(kind, path, before, after,
               f"{path}: {before!r} -> {after!r}")
    return tuple(changes)


@dataclass(frozen=True)
class CellDiffUnit(WorkUnit):
    """One changed cell pair's diff as a :mod:`repro.pipeline` work unit."""

    unit_id: int
    old: CellConfigSnapshot
    new: CellConfigSnapshot

    def run(self) -> tuple[ConfigChange, ...]:
        return _changed_cell(self.old, self.new)


def _sort_changes(changes: list[ConfigChange]) -> tuple[ConfigChange, ...]:
    return tuple(sorted(
        changes, key=lambda c: (c.carrier, c.gci, c.kind, c.parameter)
    ))


def diff_config_snapshots(
    old: ConfigSnapshot,
    new: ConfigSnapshot,
    workers: int | None = None,
) -> tuple[ConfigChange, ...]:
    """Semantic changes between two captures, deterministically ordered.

    Cells are matched by (carrier, gci); the captures' per-cell digests
    (each capture hashed once) skip unchanged cells, and only changed
    pairs become work units, sharded over pipeline workers with results
    merged in canonical unit order — the output is byte-for-byte
    identical at any ``workers`` value.
    """
    old_cells = {(c.carrier, c.gci): c for c in old.cells}
    new_cells = {(c.carrier, c.gci): c for c in new.cells}
    changes: list[ConfigChange] = []
    for key in sorted(set(old_cells) - set(new_cells)):
        cell = old_cells[key]
        changes.append(ConfigChange(
            kind="cell-retired", carrier=cell.carrier, gci=cell.gci,
            channel=cell.channel, city=cell.city,
            detail=f"cell {cell.carrier}/{cell.gci} ({cell.rat} "
                   f"ch{cell.channel}) retired",
        ))
    for key in sorted(set(new_cells) - set(old_cells)):
        cell = new_cells[key]
        changes.append(ConfigChange(
            kind="cell-added", carrier=cell.carrier, gci=cell.gci,
            channel=cell.channel, city=cell.city,
            detail=f"cell {cell.carrier}/{cell.gci} ({cell.rat} "
                   f"ch{cell.channel}) added",
        ))
    old_digests = old.cell_digests()
    new_digests = new.cell_digests()
    changed = [
        key for key in sorted(set(old_cells) & set(new_cells))
        if old_digests[key] != new_digests[key]
    ]
    units = [
        CellDiffUnit(unit_id=i, old=old_cells[key], new=new_cells[key])
        for i, key in enumerate(changed)
    ]
    for result in resolve_backend(workers).run(units):
        assert isinstance(result, tuple)
        changes.extend(result)
    return _sort_changes(changes)


# ---------------------------------------------------------------------------
# Blame: which change made a finding appear


def _subject_channels(finding: Finding) -> set[int]:
    """Channels a finding references (its field plus subject mentions)."""
    channels = {int(tok) for tok in re.findall(r"\d+", finding.subject)}
    if finding.channel >= 0:
        channels.add(finding.channel)
    return channels


def blame_change(
    finding: Finding, changes: Sequence[ConfigChange]
) -> ConfigChange | None:
    """The change most plausibly responsible for ``finding``.

    Deterministic narrowing: same cell first, then same carrier touching
    a channel the finding names (network/graph findings carry their loop
    members in ``subject``), then any same-carrier change.
    """
    same_cell = [
        c for c in changes
        if c.carrier == finding.carrier and c.gci == finding.gci
    ]
    if same_cell:
        return same_cell[0]
    carrier_changes = [c for c in changes if c.carrier == finding.carrier]
    channels = _subject_channels(finding)
    touching = [
        c for c in carrier_changes
        if c.channel in channels
        or any(f"[{ch}]" in c.parameter for ch in channels)
    ]
    if touching:
        return touching[0]
    if carrier_changes:
        return carrier_changes[0]
    return None


# ---------------------------------------------------------------------------
# The drift-rule context and the differential lint entry point


@dataclass(frozen=True)
class DriftContext:
    """What a drift-scope (HC3xx) rule sees: ``(old, new, changes)``.

    Attributes:
        old / new: The compared captures.
        changes: Semantic differences between them, canonical order.
        old_findings / new_findings: Full static-audit findings of each
            capture (no baseline applied).
        timeline: Every capture of the series, oldest first (ends with
            ``old, new``); longitudinal rules like the flapping detector
            need more than two points.
        baseline: The suppression baseline in force, if any.
    """

    old: ConfigSnapshot
    new: ConfigSnapshot
    changes: tuple[ConfigChange, ...]
    old_findings: tuple[Finding, ...]
    new_findings: tuple[Finding, ...]
    timeline: tuple[ConfigSnapshot, ...] = ()
    baseline: Baseline | None = None

    @property
    def old_fingerprints(self) -> frozenset[str]:
        return frozenset(f.fingerprint for f in self.old_findings)

    @property
    def new_fingerprints(self) -> frozenset[str]:
        return frozenset(f.fingerprint for f in self.new_findings)

    def introduced(self) -> list[Finding]:
        """Findings present in ``new`` but absent from ``old``."""
        known = self.old_fingerprints
        return [f for f in self.new_findings if f.fingerprint not in known]

    def fixed(self) -> list[Finding]:
        """Findings present in ``old`` but gone from ``new``."""
        kept = self.new_fingerprints
        return [f for f in self.old_findings if f.fingerprint not in kept]


@dataclass
class DriftReport:
    """Everything one differential audit produced.

    ``findings`` is the *gate* population — findings introduced between
    the captures plus the HC3xx drift findings, minus baseline
    suppressions — deliberately excluding everything both captures
    already carried, which is what makes ``repro lint --diff`` usable as
    a CI regression gate on fleets that are never finding-free.
    """

    old_label: str = ""
    new_label: str = ""
    changes: tuple[ConfigChange, ...] = ()
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    introduced: list[Finding] = field(default_factory=list)
    fixed: list[Finding] = field(default_factory=list)
    #: finding fingerprint -> blamed change_id (gate findings only).
    blame: dict[str, str] = field(default_factory=dict)
    rules_run: tuple[str, ...] = ()
    snapshots_audited: int = 0
    old_counts: dict[str, int] = field(default_factory=dict)
    new_counts: dict[str, int] = field(default_factory=dict)
    graph_stats: GraphStats | None = None
    timeline_labels: tuple[str, ...] = ()

    def counts_by_code(self) -> dict[str, int]:
        return summarize(self.findings)

    def counts_by_severity(self) -> dict[str, int]:
        return count_by_severity(self.findings)

    def counts_by_change_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for c in self.changes:
            counts[c.kind] = counts.get(c.kind, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def has_problems(self) -> bool:
        return any(f.severity == "problem" for f in self.findings)

    @property
    def has_warnings(self) -> bool:
        return any(f.severity in ("warning", "problem") for f in self.findings)


def drift_rules(
    codes: Sequence[str] | None = None,
) -> tuple[RegisteredRule, ...]:
    """The registered drift-scope rules, optionally filtered by code."""
    from repro.lint.rules import select_rules

    return tuple(
        r for r in select_rules(list(codes) if codes is not None else None)
        if r.scope == "drift"
    )


def diff_lint(
    old: ConfigSnapshot,
    new: ConfigSnapshot,
    timeline: Sequence[ConfigSnapshot] = (),
    codes: list[str] | None = None,
    baseline: Baseline | None = None,
    workers: int | None = None,
) -> DriftReport:
    """Differentially audit two captures; report what changed *and broke*.

    Both captures run through the full static rule set (cell, network
    and graph scope) against one shared :class:`GraphAnalyzer`, so the
    graph verifier's second pass re-analyzes only components whose
    member digests changed — the differential re-run the drift rules
    (HC301) rely on.  Then the HC3xx rules evaluate ``(old, new,
    changes)`` and every gate finding is blamed on a concrete change.
    """
    from repro.lint.engine import lint_snapshots
    from repro.lint.rules import select_rules

    rules = select_rules(codes)
    static_rules = tuple(r for r in rules if r.scope != "drift")
    drifts = tuple(r for r in rules if r.scope == "drift")
    analyzer = GraphAnalyzer()
    old_report = lint_snapshots(
        list(old.cells), rules=static_rules, graph=True,
        workers=workers, graph_analyzer=analyzer, digests=old.digests,
    )
    new_report = lint_snapshots(
        list(new.cells), rules=static_rules, graph=True,
        workers=workers, graph_analyzer=analyzer, digests=new.digests,
    )
    changes = diff_config_snapshots(old, new, workers=workers)
    series = tuple(timeline) if timeline else (old, new)
    context = DriftContext(
        old=old,
        new=new,
        changes=changes,
        old_findings=tuple(old_report.findings),
        new_findings=tuple(new_report.findings),
        timeline=series,
        baseline=baseline,
    )
    drift_findings: list[Finding] = []
    for registered in drifts:
        for issue in registered.func(context):
            drift_findings.append(registered.stamp(issue))
    gate = sort_findings(context.introduced() + drift_findings)
    suppressed: list[Finding] = []
    if baseline is not None:
        gate, suppressed = baseline.split(gate)
    blame: dict[str, str] = {}
    for finding in gate:
        culprit = blame_change(finding, changes)
        if culprit is not None:
            blame[finding.fingerprint] = culprit.change_id
    return DriftReport(
        old_label=old.label,
        new_label=new.label,
        changes=changes,
        findings=gate,
        suppressed=suppressed,
        introduced=context.introduced(),
        fixed=context.fixed(),
        blame=blame,
        rules_run=tuple(r.code for r in static_rules) + tuple(
            r.code for r in drifts
        ),
        snapshots_audited=len(old.cells) + len(new.cells),
        old_counts=summarize(list(old_report.findings)),
        new_counts=summarize(list(new_report.findings)),
        graph_stats=new_report.graph_stats,
        timeline_labels=tuple(s.label for s in series),
    )
