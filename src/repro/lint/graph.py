"""Whole-network symbolic handoff-policy-graph verifier (HC201-HC204).

The paper's costliest misconfigurations are *persistent handoff loops
spanning three or more cells* (Section 6) — invisible to the per-cell
rules (HC001-012 see one snapshot) and to the 2-cell ping-pong algebra
of :mod:`repro.lint.pingpong`.  This module builds a typed directed
graph over an audited snapshot population and verifies it symbolically:

* **Nodes** are deployed frequency layers, one per (RAT, channel) of a
  carrier's cells in one city; each cell contributes its configuration
  to the node its own layer maps to.
* **Edges** are feasible transitions derived from the configurations:
  A3/A4/A5 and B1/B2 event configs (active mode), SIB5/6/7 reselection
  priorities and the SIB19 return path from UMTS (idle mode).  Every
  edge is annotated with the :class:`~repro.lint.pingpong.Interval` of
  serving/target RSRP under which its trigger condition holds, plus a
  *relative margin* for rank-based rules (A3's ``Off + Hys``,
  equal-priority reselection's ``Qhyst``) whose per-cycle sum plays the
  role of the 2-cell separation band.

On that graph the verifier runs SCC detection plus bounded simple-cycle
enumeration with interval-compatibility checking.  Each component's
edges are grouped by hop once (:class:`HopIndex`), and each mode policy
walks that index once: the stats and HC201 share the all-modes walk,
HC202 walks the idle graph.

* **HC201** (loop-active): a cycle whose hops can all fire in connected
  mode — every node has a non-empty RSRP window (the intersection of
  the incoming edge's target constraint and the outgoing edge's serving
  constraint) and the summed relative margin is within the shadow-fading
  band; generalizes HC009/HC010 from 2 cells to k cells.
* **HC202** (loop-idle): the same feasibility over idle reselection
  edges only; generalizes HC103 with threshold awareness.
* **HC203** (dead target): a configured neighbor layer no audited cell
  deploys, or a transition rule whose interval constraint is empty —
  the rule can never fire.
* **HC204** (cross-RAT priority inversion): a strictly-higher-priority
  preference cycle whose layers span more than one RAT, found path-wise
  over the priority subgraph.

Analysis shards per (carrier, city, connected-component) through the
:mod:`repro.pipeline` workers, and a :class:`GraphAnalyzer` caches
per-component results keyed by a content digest over the member cells'
configurations — re-auditing a world where one cell changed re-verifies
only that cell's component.

The interval model is a deterministic near-exact heuristic: both
intervals of an edge come from the *source* cell's configuration, and
when several cells of a layer could carry a hop the verifier picks the
most permissive candidate (lowest margin, widest windows) with
deterministic tie-breaks.  RSRQ-metric events contribute edges with
unconstrained RSRP intervals (their thresholds live on another axis).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from repro.config.events import EventConfig, EventType
from repro.config.lte import LteCellConfig
from repro.config.legacy import UmtsCellConfig
from repro.core.crawler import CellConfigSnapshot
from repro.lint.findings import Finding, sort_findings
from repro.lint.pingpong import (
    FULL_RSRP,
    RSRP_CEILING_DBM,
    RSRP_FLOOR_DBM,
    Interval,
    a4_neighbor_interval,
    a5_neighbor_interval,
    a5_serving_interval,
)
from repro.lint.rules import Issue, RegisteredRule, rule, select_rules
from repro.pipeline import WorkUnit, run_cached

#: Longest simple cycle the enumerator checks.  The paper's observed
#: loops span 2-4 cells; longer cycles exist combinatorially but add
#: little diagnostic value and cost factorially.
MAX_CYCLE_LEN = 4

#: Per-component cap on enumerated cycles (dense priority graphs can
#: hold thousands of simple cycles; the first findings already tell the
#: operator which layers participate).
MAX_CYCLES_PER_COMPONENT = 200

#: Shadow-fading band (dB) a persistent loop's summed relative margin
#: must stay within to keep re-triggering; matches the 2-cell
#: :data:`~repro.lint.pingpong.A3_RISK_BAND_DB`.
LOOP_FADING_BAND_DB = 2.0

#: Wildcard channel: "every deployed channel of the target RAT".
ANY_CHANNEL = -1

#: Wildcard RAT for B1/B2 targets: "every deployed non-LTE layer".
ANY_LEGACY_RAT = "*legacy*"


class LayerRef(NamedTuple):
    """One graph node: a (RAT, channel) frequency layer.

    A named tuple, so it equals, hashes and sorts as the plain tuple
    ``(rat, channel)``: union-find, SCC, the cycle walk and the edge sort
    compare layers in C.
    """

    rat: str
    channel: int

    def __str__(self) -> str:
        return f"{self.rat} ch{self.channel}"


@dataclass(frozen=True)
class LayerRule:
    """One outgoing transition rule of one cell's configuration.

    ``target`` may be a wildcard (:data:`ANY_CHANNEL` channel and/or
    :data:`ANY_LEGACY_RAT` RAT); edge construction expands wildcards
    over the layers actually deployed in the component.

    Attributes:
        target: Destination layer (possibly wildcard).
        mode: "idle" (reselection) or "active" (measurement event).
        kind: Rule flavor ("A3", "A5", "B1", "resel-higher", ...).
        serving_interval: Serving-cell RSRP under which the rule fires.
        target_interval: Target-cell RSRP under which the rule fires.
        margin_db: Relative separation the rule needs between target and
            serving (rank-based rules only; 0 for absolute thresholds).
        priority_delta: Target-layer priority minus serving priority
            (idle rules; 0 for active rules).
    """

    target: LayerRef
    mode: str
    kind: str
    serving_interval: Interval
    target_interval: Interval
    margin_db: float = 0.0
    priority_delta: int = 0


@dataclass(frozen=True)
class CellPolicy:
    """Everything the graph verifier needs from one cell's snapshot."""

    carrier: str
    gci: int
    city: str
    layer: LayerRef
    policy_digest: str
    serving_priority: int | None
    rules: tuple[LayerRule, ...]


@dataclass(frozen=True, slots=True)
class PolicyEdge:
    """One concrete (wildcard-expanded) edge of the layer graph.

    Slotted: components hold every edge for the whole graph pass.
    """

    src: LayerRef
    dst: LayerRef
    via_gci: int
    mode: str
    kind: str
    serving_interval: Interval
    target_interval: Interval
    margin_db: float
    priority_delta: int


@dataclass(frozen=True)
class ComponentGraph:
    """One connected component of one carrier's layer graph in one city.

    Self-contained and picklable so a :class:`GraphComponentUnit` can
    carry it to a pool worker.  ``edges`` (``component_edges(policies)``,
    sliced by :func:`build_components`) is the one copy of the
    component's edges; graph rules read it through a :class:`HopIndex`.
    """

    carrier: str
    city: str
    digest: str
    policies: tuple[CellPolicy, ...]
    edges: tuple[PolicyEdge, ...]

    @property
    def layers(self) -> tuple[LayerRef, ...]:
        """Deployed layers of the component, sorted."""
        return tuple(sorted({p.layer for p in self.policies}))


@dataclass(frozen=True)
class ComponentResult:
    """What analyzing one component produced (cache value)."""

    findings: tuple[Finding, ...]
    n_edges: int
    cycles_checked: int
    cycles_truncated: bool


@dataclass(frozen=True)
class GraphStats:
    """Deterministic counters of one graph analysis.

    Every field is independent of worker count and of wall-clock, so
    reports embedding these stats stay byte-identical across runs and
    ``--workers`` values.  ``components_cached`` is the incremental-
    analysis observable: a re-audit after mutating one cell re-analyzes
    exactly the dirty component and serves the rest from cache.
    """

    cells: int = 0
    layers: int = 0
    edges: int = 0
    components: int = 0
    components_analyzed: int = 0
    components_cached: int = 0
    cycles_checked: int = 0
    cycles_truncated: int = 0


# ---------------------------------------------------------------------------
# Policy extraction: snapshot -> CellPolicy


def snapshot_digest(snapshot: CellConfigSnapshot) -> str:
    """Content digest of one cell's configuration (dataclass reprs).

    Shared digest machinery: keys the per-component cache here and the
    per-cell digests of :class:`repro.lint.snapshot.ConfigSnapshot`, so
    the drift differ and the incremental graph verifier agree on what
    "unchanged" means.
    """
    text = repr((
        snapshot.carrier, snapshot.gci, snapshot.rat, snapshot.channel,
        snapshot.city, snapshot.lte_config, snapshot.legacy_config,
        snapshot.meas_config,
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _reselection_rule(
    kind: str,
    target: LayerRef,
    priority_delta: int,
    serving_interval: Interval,
    target_interval: Interval,
    margin_db: float = 0.0,
) -> LayerRule:
    return LayerRule(
        target=target, mode="idle", kind=kind,
        serving_interval=serving_interval, target_interval=target_interval,
        margin_db=margin_db, priority_delta=priority_delta,
    )


def _lte_idle_rules(config: LteCellConfig) -> Iterator[LayerRule]:
    """SIB5/6/7 reselection rules of one LTE cell (TS 36.304 shape).

    Levels are converted to absolute dBm against each layer's
    ``q_rx_lev_min`` so intervals compose with the absolute event
    thresholds along a loop.  SIB8 (CDMA) is skipped: band classes do
    not map onto channel numbers, so its targets cannot be resolved to
    deployed layers.
    """
    own = config.serving.cell_reselection_priority
    serving_floor = config.serving.q_rx_lev_min
    for layer in config.inter_freq_layers:
        target = LayerRef("LTE", layer.dl_carrier_freq)
        delta = layer.cell_reselection_priority - own
        if delta > 0:
            yield _reselection_rule(
                "resel-higher", target, delta, FULL_RSRP,
                Interval(layer.q_rx_lev_min + layer.thresh_x_high_p, RSRP_CEILING_DBM),
            )
        elif delta < 0:
            yield _reselection_rule(
                "resel-lower", target, delta,
                Interval(RSRP_FLOOR_DBM,
                         serving_floor + config.serving.thresh_serving_low_p),
                Interval(layer.q_rx_lev_min + layer.thresh_x_low_p, RSRP_CEILING_DBM),
            )
        else:
            # Equal priority: rank-based (R-criterion) — the target must
            # beat serving by Qhyst + Qoffset, a relative margin.
            yield _reselection_rule(
                "resel-equal", target, 0, FULL_RSRP, FULL_RSRP,
                margin_db=config.serving.q_hyst + layer.q_offset_freq,
            )
    for utra in config.utra_layers:
        target = LayerRef("UMTS", utra.carrier_freq)
        delta = utra.cell_reselection_priority - own
        if delta > 0:
            yield _reselection_rule(
                "resel-higher", target, delta, FULL_RSRP,
                Interval(utra.q_rx_lev_min + utra.thresh_x_high, RSRP_CEILING_DBM),
            )
        elif delta < 0:
            yield _reselection_rule(
                "resel-lower", target, delta,
                Interval(RSRP_FLOOR_DBM,
                         serving_floor + config.serving.thresh_serving_low_p),
                Interval(utra.q_rx_lev_min + utra.thresh_x_low, RSRP_CEILING_DBM),
            )
    for geran in config.geran_layers:
        for channel in geran.carrier_freqs:
            target = LayerRef("GSM", channel)
            delta = geran.cell_reselection_priority - own
            if delta > 0:
                yield _reselection_rule(
                    "resel-higher", target, delta, FULL_RSRP,
                    Interval(geran.q_rx_lev_min + geran.thresh_x_high,
                             RSRP_CEILING_DBM),
                )
            elif delta < 0:
                yield _reselection_rule(
                    "resel-lower", target, delta,
                    Interval(RSRP_FLOOR_DBM,
                             serving_floor + config.serving.thresh_serving_low_p),
                    Interval(geran.q_rx_lev_min + geran.thresh_x_low,
                             RSRP_CEILING_DBM),
                )


def _event_rules(events: Sequence[EventConfig]) -> Iterator[LayerRule]:
    """Active-mode rules from the armed measurement events.

    A3/A4/A5 candidates are *all* intra-RAT neighbors (any channel) and
    B1/B2 candidates all inter-RAT neighbors, mirroring
    :class:`repro.ue.reporting.EventMonitor`; targets are therefore
    wildcards expanded against the component's deployed layers.  Events
    triggered on RSRQ get unconstrained RSRP intervals — their
    thresholds constrain a different axis.
    """
    for config in events:
        rsrp = config.metric == "rsrp"
        if config.event in (EventType.A3, EventType.A6):
            yield LayerRule(
                target=LayerRef("LTE", ANY_CHANNEL), mode="active",
                kind=config.event.value,
                serving_interval=FULL_RSRP, target_interval=FULL_RSRP,
                margin_db=config.offset + config.hysteresis,
            )
        elif config.event is EventType.A4:
            yield LayerRule(
                target=LayerRef("LTE", ANY_CHANNEL), mode="active", kind="A4",
                serving_interval=FULL_RSRP,
                target_interval=a4_neighbor_interval(config) if rsrp else FULL_RSRP,
            )
        elif config.event is EventType.A5:
            yield LayerRule(
                target=LayerRef("LTE", ANY_CHANNEL), mode="active", kind="A5",
                serving_interval=a5_serving_interval(config) if rsrp else FULL_RSRP,
                target_interval=a5_neighbor_interval(config) if rsrp else FULL_RSRP,
            )
        elif config.event is EventType.B1:
            yield LayerRule(
                target=LayerRef(ANY_LEGACY_RAT, ANY_CHANNEL), mode="active",
                kind="B1",
                serving_interval=FULL_RSRP,
                target_interval=a4_neighbor_interval(config) if rsrp else FULL_RSRP,
            )
        elif config.event is EventType.B2:
            yield LayerRule(
                target=LayerRef(ANY_LEGACY_RAT, ANY_CHANNEL), mode="active",
                kind="B2",
                serving_interval=a5_serving_interval(config) if rsrp else FULL_RSRP,
                target_interval=a5_neighbor_interval(config) if rsrp else FULL_RSRP,
            )


def _umts_rules(config: UmtsCellConfig) -> Iterator[LayerRule]:
    """SIB19 EUTRA reselection rules of one UMTS cell.

    An empty ``eutra_freq_list`` is the wildcard "any EUTRA layer".
    """
    delta = config.priority_eutra - config.priority_serving
    targets = (
        [LayerRef("LTE", ch) for ch in config.eutra_freq_list]
        if config.eutra_freq_list
        else [LayerRef("LTE", ANY_CHANNEL)]
    )
    for target in targets:
        if delta > 0:
            yield _reselection_rule(
                "sib19-higher", target, delta, FULL_RSRP,
                Interval(config.q_rxlevmin_eutra + config.thresh_high_eutra,
                         RSRP_CEILING_DBM),
            )
        elif delta < 0:
            yield _reselection_rule(
                "sib19-lower", target, delta,
                Interval(RSRP_FLOOR_DBM,
                         config.q_rxlevmin + config.thresh_serving_low),
                Interval(config.q_rxlevmin_eutra + config.thresh_low_eutra,
                         RSRP_CEILING_DBM),
            )


def cell_policy(
    snapshot: CellConfigSnapshot, digest: str | None = None
) -> CellPolicy | None:
    """Extract the graph-relevant policy of one snapshot.

    Returns None for snapshots without a rebuilt configuration (an
    episode that ended before SIB3 arrived contributes nothing).  Cells
    of RATs with no cross-layer policy (GSM/EVDO/CDMA1x) still become
    nodes — they can be handoff *targets* — just without outgoing edges.
    ``digest`` is the snapshot's :func:`snapshot_digest` when the caller
    already has it.
    """
    rules: list[LayerRule] = []
    priority: int | None = None
    if snapshot.lte_config is not None:
        config = snapshot.lte_config
        priority = config.serving.cell_reselection_priority
        rules.extend(_lte_idle_rules(config))
        meas = snapshot.meas_config or config.measurement
        rules.extend(_event_rules(meas.events))
    elif isinstance(snapshot.legacy_config, UmtsCellConfig):
        priority = snapshot.legacy_config.priority_serving
        rules.extend(_umts_rules(snapshot.legacy_config))
    elif snapshot.legacy_config is None:
        return None
    return CellPolicy(
        carrier=snapshot.carrier,
        gci=snapshot.gci,
        city=snapshot.city,
        layer=LayerRef(snapshot.rat, snapshot.channel),
        policy_digest=snapshot_digest(snapshot) if digest is None else digest,
        serving_priority=priority,
        rules=tuple(rules),
    )


# ---------------------------------------------------------------------------
# Graph construction: policies -> components -> edges


def _expand_targets(
    rule_: LayerRule, layers: Sequence[LayerRef], own: LayerRef
) -> list[LayerRef]:
    """Concrete destination layers of one (possibly wildcard) rule."""
    target = rule_.target
    if target.rat == ANY_LEGACY_RAT:
        return [ly for ly in layers if ly.rat != "LTE"]
    if target.channel == ANY_CHANNEL:
        return [ly for ly in layers if ly.rat == target.rat and ly != own]
    return [ly for ly in layers if ly == target]


def component_edges(policies: Sequence[CellPolicy]) -> list[PolicyEdge]:
    """Every concrete edge of some policies, deterministically ordered.

    Wildcard targets expand over the layers those policies deploy.
    """
    layers = sorted({p.layer for p in policies})
    edges: list[PolicyEdge] = []
    for policy in policies:
        for rule_ in policy.rules:
            for dst in _expand_targets(rule_, layers, policy.layer):
                if dst == policy.layer:
                    continue
                edges.append(PolicyEdge(
                    src=policy.layer, dst=dst, via_gci=policy.gci,
                    mode=rule_.mode, kind=rule_.kind,
                    serving_interval=rule_.serving_interval,
                    target_interval=rule_.target_interval,
                    margin_db=rule_.margin_db,
                    priority_delta=rule_.priority_delta,
                ))
    edges.sort(key=lambda e: (e.src, e.dst, e.mode, e.kind, e.via_gci))
    return edges


def _connected_groups(
    nodes: Sequence[LayerRef], edges: Sequence[PolicyEdge]
) -> list[list[LayerRef]]:
    """Weakly connected components of the layer graph (deterministic)."""
    parent: dict[LayerRef, LayerRef] = {node: node for node in nodes}

    def find(node: LayerRef) -> LayerRef:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for edge in edges:
        a, b = find(edge.src), find(edge.dst)
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[LayerRef, list[LayerRef]] = defaultdict(list)
    for node in sorted(nodes):
        groups[find(node)].append(node)
    return [groups[root] for root in sorted(groups)]


def build_components(
    snapshots: Sequence[CellConfigSnapshot],
    digests: Sequence[str] | None = None,
) -> list[ComponentGraph]:
    """Partition an audit population into per-(carrier, city) components.

    Wildcard expansion happens against each (carrier, city) group's full
    layer population, so any two layers one cell can transition between
    always land in the same component; the component digest over member
    cells' policy digests is what makes re-analysis incremental.

    Each component keeps the group's edges whose source is a member
    layer.  That slice equals ``component_edges(members)``: an edge never
    leaves its source's component, and filtering a stably sorted list
    keeps its order, so the edges stay a function of what the digest keys.

    ``digests`` holds each snapshot's :func:`snapshot_digest`, in
    snapshot order, when the caller has computed them already.
    """
    known: Sequence[str | None] = (
        [None] * len(snapshots) if digests is None else digests
    )
    by_group: dict[tuple[str, str], list[CellPolicy]] = defaultdict(list)
    for snapshot, digest in zip(snapshots, known, strict=True):
        policy = cell_policy(snapshot, digest)
        if policy is not None:
            by_group[(policy.carrier, policy.city)].append(policy)
    components: list[ComponentGraph] = []
    for (carrier, city), policies in sorted(by_group.items()):
        policies.sort(key=lambda p: (p.layer, p.gci))
        edges = component_edges(policies)
        layers = sorted({p.layer for p in policies})
        for group in _connected_groups(layers, edges):
            member_layers = set(group)
            members = tuple(p for p in policies if p.layer in member_layers)
            digest = hashlib.sha256(
                ("\n".join(p.policy_digest for p in members)).encode()
            ).hexdigest()[:16]
            components.append(ComponentGraph(
                carrier=carrier, city=city, digest=digest, policies=members,
                edges=tuple(e for e in edges if e.src in member_layers),
            ))
    return components


# ---------------------------------------------------------------------------
# Cycle enumeration and feasibility


def _strongly_connected(
    adjacency: dict[LayerRef, set[LayerRef]]
) -> list[list[LayerRef]]:
    """Iterative Tarjan SCC, deterministic via sorted iteration."""
    index: dict[LayerRef, int] = {}
    lowlink: dict[LayerRef, int] = {}
    on_stack: set[LayerRef] = set()
    stack: list[LayerRef] = []
    components: list[list[LayerRef]] = []
    counter = 0
    for root in sorted(adjacency):
        if root in index:
            continue
        work = [(root, iter(sorted(adjacency.get(root, ()))))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, neighbors = work[-1]
            advanced = False
            for nxt in neighbors:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adjacency.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                members = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    members.append(member)
                    if member == node:
                        break
                components.append(sorted(members))
    return components


def _extend_cycles(
    node: LayerRef,
    start: LayerRef,
    successors: dict[LayerRef, list[LayerRef]],
    path: list[LayerRef],
    seen: set[LayerRef],
    cycles: list[tuple[LayerRef, ...]],
    limit: int,
) -> bool:
    """Append the cycles through ``path`` back to ``start``; False at ``limit``.

    A module-level function, not a closure: a nested function recursing
    through itself sits in its own closure cell, and that cycle keeps the
    walk's successor lists, path and seen sets alive until the cyclic
    collector runs.
    """
    for nxt in successors[node]:
        if nxt < start:
            continue
        if nxt == start and len(path) >= 2:
            if len(cycles) >= limit:
                return False
            cycles.append(tuple(path))
            continue
        if nxt in seen or len(path) >= MAX_CYCLE_LEN:
            continue
        seen.add(nxt)
        path.append(nxt)
        if not _extend_cycles(nxt, start, successors, path, seen, cycles, limit):
            return False
        path.pop()
        seen.discard(nxt)
    return True


def _enumerate_cycles(
    adjacency: dict[LayerRef, set[LayerRef]], limit: int
) -> tuple[list[tuple[LayerRef, ...]], bool]:
    """Simple cycles up to :data:`MAX_CYCLE_LEN`, canonically rotated.

    Within each SCC, DFS from the smallest node visiting only nodes that
    sort after it — each cycle is produced exactly once, starting at its
    smallest member.  Returns (cycles, truncated-at-limit flag).
    """
    cycles: list[tuple[LayerRef, ...]] = []
    for scc in _strongly_connected(adjacency):
        if len(scc) < 2:
            continue
        members = set(scc)
        # Each member's successors within the SCC, sorted once per SCC
        # rather than on every visit.
        successors = {
            node: sorted(nxt for nxt in adjacency.get(node, ()) if nxt in members)
            for node in scc
        }
        for start in scc:
            if not _extend_cycles(start, start, successors, [start], {start}, cycles, limit):
                return cycles, True
    return cycles, False


#: A handoff hop: (source layer, destination layer).
Hop = tuple[LayerRef, LayerRef]

#: A mode policy: the edge modes a loop rule considers, and the mode whose
#: candidates it prefers on a hop (None: no preference).
ModePolicy = tuple[tuple[str, ...], str | None]

#: HC201's policy, whose walk also gives the graph stats: both edge modes
#: (every edge is "idle" or "active"), active candidates preferred.
ALL_MODES: ModePolicy = (("idle", "active"), "active")

#: HC202's policy: idle reselection edges only.
IDLE_ONLY: ModePolicy = (("idle",), None)


def _pick_key(edge: PolicyEdge) -> tuple[float, float, str, str, int]:
    """Greedy hop order: most permissive first, deterministic tie-breaks."""
    return (
        edge.margin_db,
        -(edge.serving_interval.width + edge.target_interval.width),
        edge.kind, edge.mode, edge.via_gci,
    )


class ModeView:
    """One component's layer graph under one mode policy.

    Holds each hop's candidate pool (its edges in the policy's modes, in
    ``edges`` order), the one cycle walk over the hops that have a
    candidate, and each hop's greedy pick, made on first use: the most
    permissive candidate, among the preferred mode's when it offers any.
    """

    def __init__(self, hops: dict[Hop, list[PolicyEdge]], policy: ModePolicy) -> None:
        modes, self.prefer_mode = policy
        self.pools: dict[Hop, list[PolicyEdge]] = {}
        adjacency: dict[LayerRef, set[LayerRef]] = {}
        for hop, edges in hops.items():
            pool = [e for e in edges if e.mode in modes]
            if pool:
                self.pools[hop] = pool
                adjacency.setdefault(hop[0], set()).add(hop[1])
        self.cycles, self.truncated = _enumerate_cycles(
            adjacency, MAX_CYCLES_PER_COMPONENT
        )
        self._picks: dict[Hop, PolicyEdge] = {}

    def pick(self, hop: Hop) -> PolicyEdge:
        """The candidate edge a loop through ``hop`` is checked with."""
        picked = self._picks.get(hop)
        if picked is None:
            pool = self.pools[hop]
            preferred = [e for e in pool if e.mode == self.prefer_mode]
            picked = self._picks[hop] = min(preferred or pool, key=_pick_key)
        return picked


class HopIndex:
    """A component's edges grouped by hop: the one adjacency graph rules read.

    ``hops`` maps each (source, destination) layer pair to its edges in
    ``component.edges`` order.  :meth:`view` builds a mode policy's
    :class:`ModeView` once, so the graph stats and HC201 share the
    all-modes walk and HC202 walks the idle graph once.
    :func:`analyze_component` builds one index per component and drops it
    with the component's analysis.
    """

    def __init__(self, component: ComponentGraph) -> None:
        self.component = component
        self.hops: dict[Hop, list[PolicyEdge]] = {}
        for edge in component.edges:
            self.hops.setdefault((edge.src, edge.dst), []).append(edge)
        self._views: dict[ModePolicy, ModeView] = {}

    def view(self, policy: ModePolicy) -> ModeView:
        """The component's graph under ``policy`` (built on first use)."""
        view = self._views.get(policy)
        if view is None:
            view = self._views[policy] = ModeView(self.hops, policy)
        return view


@dataclass(frozen=True)
class CycleFeasibility:
    """Verdict of the interval/margin check on one hop assignment."""

    feasible: bool
    guaranteed: bool
    margin_sum_db: float
    hops: tuple[PolicyEdge, ...]
    common_window: Interval


def check_cycle(cycle: tuple[LayerRef, ...], view: ModeView) -> CycleFeasibility:
    """Interval-compatibility check of one cycle of ``view``'s walk.

    Takes each hop's greedy pick (:meth:`ModeView.pick`), then requires
    every node's RSRP window — incoming hop's target constraint
    intersected with outgoing hop's serving constraint — to be
    non-empty, and the summed relative margin of rank-based hops to fit
    the shadow-fading band (``<= 0``: the loop needs no fading at all
    and is *guaranteed*).
    """
    hops = [
        view.pick((src, cycle[(i + 1) % len(cycle)])) for i, src in enumerate(cycle)
    ]
    windows: list[Interval] = []
    for i in range(len(cycle)):
        incoming = hops[i - 1]
        outgoing = hops[i]
        windows.append(incoming.target_interval.intersect(outgoing.serving_interval))
    if any(w.empty for w in windows):
        return CycleFeasibility(False, False, 0.0, tuple(hops), FULL_RSRP)
    margin_sum = sum(h.margin_db for h in hops)
    feasible = margin_sum <= LOOP_FADING_BAND_DB
    guaranteed = margin_sum <= 0.0
    common = windows[0]
    for window in windows[1:]:
        common = common.intersect(window)
    return CycleFeasibility(feasible, guaranteed, margin_sum, tuple(hops), common)


def _cycle_message(
    cycle: tuple[LayerRef, ...], verdict: CycleFeasibility, mode_word: str
) -> str:
    """Deterministic human-readable loop description.

    Names the full cell cycle (via the cells whose configurations carry
    each hop) and the satisfying RSRP interval.
    """
    steps = [f"cell {hop.via_gci} ({cycle[i]})" for i, hop in enumerate(verdict.hops)]
    steps.append(f"cell {verdict.hops[0].via_gci} ({cycle[0]})")
    route = " -> ".join(steps)
    kinds = "/".join(sorted({h.kind for h in verdict.hops}))
    if verdict.common_window.empty:
        window = "per-hop RSRP windows individually satisfiable"
    else:
        window = f"satisfying RSRP window {verdict.common_window}"
    strength = (
        "needs no fading (guaranteed)"
        if verdict.guaranteed
        else (f"within the {LOOP_FADING_BAND_DB:g} dB fading band "
              f"(summed margin {verdict.margin_sum_db:g} dB)")
    )
    return (
        f"persistent {mode_word} handoff loop over {len(cycle)} layers: "
        f"{route} via {kinds}; {window}; {strength}"
    )


def _cycle_subject(cycle: tuple[LayerRef, ...]) -> str:
    return "<->".join(f"{ly.rat}:{ly.channel}" for ly in cycle)


# ---------------------------------------------------------------------------
# Graph-scope rules (registered for metadata/reporting; executed per
# component over its HopIndex by analyze_component, not by the snapshot
# pass)


@rule("HC201", "k-cell-loop-active", scope="graph", severity="problem",
      summary="Persistent k-cell handoff loop feasible in connected mode")
def loop_active(index: HopIndex) -> Iterator[Issue]:
    for cycle, verdict in _feasible_cycles(index.view(ALL_MODES)):
        if not any(h.mode == "active" for h in verdict.hops):
            continue
        yield Issue(
            _cycle_message(cycle, verdict, "active-mode"),
            carrier=index.component.carrier,
            gci=verdict.hops[0].via_gci,
            channel=cycle[0].channel,
            subject=_cycle_subject(cycle),
        )


@rule("HC202", "k-cell-loop-idle", scope="graph", severity="problem",
      summary="Persistent k-cell reselection loop feasible in idle mode")
def loop_idle(index: HopIndex) -> Iterator[Issue]:
    for cycle, verdict in _feasible_cycles(index.view(IDLE_ONLY)):
        yield Issue(
            _cycle_message(cycle, verdict, "idle-mode"),
            carrier=index.component.carrier,
            gci=verdict.hops[0].via_gci,
            channel=cycle[0].channel,
            subject=_cycle_subject(cycle),
        )


@rule("HC203", "dead-target-layer", scope="graph", severity="warning",
      summary="Configured neighbor layer undeployed or threshold unsatisfiable")
def dead_target(index: HopIndex) -> Iterator[Issue]:
    component = index.component
    deployed = set(component.layers)
    for policy in component.policies:
        for rule_ in policy.rules:
            target = rule_.target
            explicit = target.channel != ANY_CHANNEL and target.rat != ANY_LEGACY_RAT
            if explicit and target not in deployed:
                yield Issue(
                    f"{rule_.kind} rule targets {target}, which no audited "
                    f"{component.carrier} cell in {component.city} deploys: "
                    "devices measure a layer that is never there",
                    carrier=policy.carrier,
                    gci=policy.gci,
                    channel=policy.layer.channel,
                    subject=f"{target.rat}:{target.channel}",
                )
            if rule_.serving_interval.empty or rule_.target_interval.empty:
                yield Issue(
                    f"{rule_.kind} rule toward {target} can never fire: its "
                    "trigger interval is empty (inverted thresholds)",
                    carrier=policy.carrier,
                    gci=policy.gci,
                    channel=policy.layer.channel,
                    subject=f"dead:{rule_.kind}:{target.rat}:{target.channel}",
                )


@rule("HC204", "cross-rat-priority-inversion", scope="graph", severity="warning",
      summary="Strictly-higher-priority preference cycle spanning RATs")
def priority_inversion(index: HopIndex) -> Iterator[Issue]:
    adjacency: dict[LayerRef, set[LayerRef]] = {}
    for (src, dst), edges in index.hops.items():
        if any(e.mode == "idle" and e.priority_delta > 0 for e in edges):
            adjacency.setdefault(src, set()).add(dst)
    for scc in _strongly_connected(adjacency):
        if len(scc) < 2 or len({ly.rat for ly in scc}) < 2:
            continue
        route = " -> ".join(str(ly) for ly in scc)
        yield Issue(
            f"cross-RAT priority inversion: layers {route} each defer to "
            "the next with strictly higher reselection priority — the "
            "preference order cannot be satisfied",
            carrier=index.component.carrier,
            channel=scc[0].channel,
            subject=_cycle_subject(tuple(scc)),
        )


def _feasible_cycles(view: ModeView) -> list[tuple[tuple[LayerRef, ...], CycleFeasibility]]:
    """Feasible cycles of a component's walk under one mode policy."""
    results = []
    for cycle in view.cycles:
        verdict = check_cycle(cycle, view)
        if verdict.feasible:
            results.append((cycle, verdict))
    return results


# ---------------------------------------------------------------------------
# Per-component execution (pipeline work unit) and the analyzer


def graph_rules(codes: Sequence[str] | None = None) -> tuple[RegisteredRule, ...]:
    """The registered graph-scope rules, optionally filtered by code."""
    return tuple(
        r for r in select_rules(list(codes) if codes is not None else None)
        if r.scope == "graph"
    )


def analyze_component(
    component: ComponentGraph, codes: tuple[str, ...]
) -> ComponentResult:
    """Run the graph-scope rules over one component (picklable entry).

    The rules read one :class:`HopIndex`; the stats count the all-modes
    walk HC201 checks.
    """
    index = HopIndex(component)
    walk = index.view(ALL_MODES)
    findings: list[Finding] = []
    for registered in graph_rules(codes):
        for issue in registered.func(index):
            findings.append(registered.stamp(issue))
    return ComponentResult(
        findings=tuple(sort_findings(findings)),
        n_edges=len(component.edges),
        cycles_checked=len(walk.cycles),
        cycles_truncated=walk.truncated,
    )


@dataclass(frozen=True)
class GraphComponentUnit(WorkUnit):
    """One component analysis as a :mod:`repro.pipeline` work unit."""

    unit_id: int
    component: ComponentGraph
    codes: tuple[str, ...]

    def run(self) -> ComponentResult:
        return analyze_component(self.component, self.codes)


class GraphAnalyzer:
    """Incremental whole-network analyzer with a per-component cache.

    Results are keyed by ``(component digest, rule codes)``: re-auditing
    a world where one cell's configuration changed re-analyzes exactly
    the component containing that cell and serves every other component
    from cache.  The analyzer is cheap to construct; callers that want
    incrementality across audits hold on to one instance (``diff_lint``
    shares one between its two captures).
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[str, tuple[str, ...]], ComponentResult] = {}

    def analyze(
        self,
        snapshots: Sequence[CellConfigSnapshot],
        codes: Sequence[str] | None = None,
        workers: int | None = None,
        digests: Sequence[str] | None = None,
    ) -> tuple[list[Finding], GraphStats]:
        """Verify an audit population; returns (findings, stats).

        Findings are deterministically sorted and independent of
        ``workers`` (components are self-contained and merged in
        canonical order).  ``digests`` are the snapshots'
        :func:`snapshot_digest` values when the caller has them (an
        audit that also runs coverage hashes each cell once).
        """
        rule_codes = tuple(r.code for r in graph_rules(codes))
        components = build_components(snapshots, digests)
        results, cached, analyzed = run_cached(
            self._cache,
            (((c.digest, rule_codes), c) for c in components),
            lambda unit_id, component: GraphComponentUnit(
                unit_id=unit_id, component=component, codes=rule_codes
            ),
            workers,
        )
        findings: list[Finding] = []
        edges = cycles = truncated = 0
        for component in components:
            result = results[(component.digest, rule_codes)]
            findings.extend(result.findings)
            edges += result.n_edges
            cycles += result.cycles_checked
            truncated += int(result.cycles_truncated)
        stats = GraphStats(
            cells=sum(len(c.policies) for c in components),
            layers=sum(len(c.layers) for c in components),
            edges=edges,
            components=len(components),
            components_analyzed=analyzed,
            components_cached=cached,
            cycles_checked=cycles,
            cycles_truncated=truncated,
        )
        return sort_findings(findings), stats
