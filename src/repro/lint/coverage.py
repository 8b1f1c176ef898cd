"""Signal-space coverage analyzer (HC401-HC405).

The paper's Q2 analysis shows that handoff failures are often baked into
the *configuration*: threshold gaps between serving-leave and
target-entry conditions produce handoff-too-late radio-link failures,
shadowed events never fire, and hysteresis/TTT windows mismatched to
fading oscillate.  The per-cell rules (HC0xx) catch parameter-local
smells and the graph verifier (HC2xx) cross-cell loops; this module
reasons about the *continuous signal space* of one cell: which serving-
RSRP regions are handled by which armed event, and which by none.

Each armed event contributes a :class:`FireRegion` — the interval of
serving RSRP where its trigger condition can complete, derived from the
TS 36.331 entry algebra of :mod:`repro.lint.pingpong` and clipped by the
s-Measure gate (neighbor-triggered events cannot fire while the serving
cell is above s-Measure, :class:`repro.ue.reporting.EventMonitor`).  The
per-layer partition those regions induce yields five rules:

* **HC401** dead zone: a sub-band of the critical region
  [:data:`RLF_RSRP_DBM`, :data:`ACCEPTABLE_SERVICE_DBM`] that no
  handoff-capable event covers — a UE degrading through it has no
  configured escape until the link fails (handoff-too-late).
* **HC402** shadowed event: an absolute-threshold event whose entry
  region another same-family event fully subsumes with an equal-or-
  shorter TTT — the subsumed event can never be the decisive one.
* **HC403** measurement-gap hole: A2 arms measurement only below a
  serving level at which the target-entry thresholds would require a
  physically implausible neighbor advantage.
* **HC404** TTT-vs-fading contradiction: the time-to-trigger exceeds
  the dwell time physically possible inside the fire region at the
  configured edge-decay rate — the event cannot complete before RLF.
* **HC405** leave/entry overlap: the serving-leave and target-entry
  thresholds overlap, opening a symbolic ping-pong window (the k=2
  interval counterpart of HC009/HC010's margin heuristics).

Every finding carries a :class:`~repro.lint.witness.CoverageWitness`
(:mod:`repro.lint.witness`): a synthesized trajectory that replayed
through the drive simulator exhibits the predicted failure.

Analysis shards per cell over :mod:`repro.pipeline` workers, and a
:class:`CoverageAnalyzer` caches per-cell results keyed by the shared
content digest of :func:`repro.lint.graph.snapshot_digest` — re-auditing
a world where one cell changed re-analyzes only that cell, and reports
are byte-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from repro.config.events import EventConfig, EventType
from repro.core.crawler import CellConfigSnapshot
from repro.lint.findings import Finding, sort_findings
from repro.lint.graph import snapshot_digest
from repro.lint.pingpong import (
    A5_RISK_TTT_MS,
    FULL_RSRP,
    RSRP_CEILING_DBM,
    RSRP_FLOOR_DBM,
    Interval,
    a3_separation_band,
    a4_neighbor_interval,
    a5_neighbor_interval,
    a5_serving_interval,
)
from repro.lint.rules import Issue, RegisteredRule, get_rule, rule, select_rules
from repro.lint.witness import (
    ACCEPTABLE_SERVICE_DBM,
    RLF_RSRP_DBM,
    CoverageWitness,
    WITNESS_SPEED_MPS,
)
from repro.pipeline import WorkUnit, run_cached

#: Minimum width (dB) of an uncovered critical sub-band worth reporting;
#: sub-dB slivers are measurement noise, not dead zones.
DEAD_ZONE_MIN_DB = 2.0

#: Largest neighbor-over-serving advantage (dB) treated as physically
#: plausible when HC403 relates the A2 measurement gate to target-entry
#: floors: a target >25 dB above a cell-edge serving signal would have
#: been the serving cell long before.
MAX_NEIGHBOR_ADVANTAGE_DB = 25.0

#: Serving-edge decay rate (dB/s) HC404 assumes when converting a fire
#: region's width into the dwell time available to a time-to-trigger —
#: vehicular movement through a suburban cell edge loses roughly this.
EDGE_DECAY_DB_PER_S = 2.0

#: HC405 escalates to problem severity at this window width when the
#: TTT is within :data:`~repro.lint.pingpong.A5_RISK_TTT_MS`.
PINGPONG_PROBLEM_DB = 6.0

#: The periodic-report margin of the handover controller
#: (:data:`repro.ue.handover._PERIODIC_DECISION_MARGIN_DB`): periodic
#: reports only cause handoffs when a candidate beats serving by this.
PERIODIC_MARGIN_DB = 4.0

#: Walk witnesses start this far (dB) above the failing region.
_ENTRY_MARGIN_DB = 12.0

#: Ping-pong park witnesses hold this long (s); long enough for two
#: flips at the slowest standardized TTT (5120 ms).
_PINGPONG_HOLD_S = 60.0

#: The critical band: serving levels between "service unacceptable" and
#: "link lost", where a handoff-capable event must be able to fire.
CRITICAL_BAND = Interval(RLF_RSRP_DBM, ACCEPTABLE_SERVICE_DBM)


@dataclass(frozen=True)
class FireRegion:
    """Where one armed trigger can fire, in serving-RSRP space.

    Attributes:
        label: Stable trigger label, e.g. ``"A5[0]"``, ``"periodic"``,
            ``"resel-lower"`` (event labels carry the armed-event index
            so duplicate events stay distinguishable).
        mode: "active" (measurement event) or "idle" (reselection).
        handoff: Whether completing the trigger can change the serving
            cell (A1/A2 reports alone never do).
        serving: Serving-RSRP interval where the trigger can fire,
            already clipped by the s-Measure measurement gate for
            neighbor-triggered events.
        neighbor: Neighbor-RSRP requirement (absolute-threshold events;
            :data:`~repro.lint.pingpong.FULL_RSRP` otherwise).
        relative: Trigger compares neighbor *against serving* rather
            than an absolute threshold (A3/A6, periodic, rank-based
            reselection).
        margin_db: Required neighbor-over-serving margin of relative
            triggers (0 for absolute ones).
        time_to_trigger_ms: The trigger's TTT (0 when not applicable).
    """

    label: str
    mode: str
    handoff: bool
    serving: Interval
    neighbor: Interval
    relative: bool = False
    margin_db: float = 0.0
    time_to_trigger_ms: int = 0


def _event_label(event: EventConfig, index: int) -> str:
    return f"{event.event.value}[{index}]"


def fire_regions(snapshot: CellConfigSnapshot) -> tuple[FireRegion, ...]:
    """The fire-region partition of one LTE cell's armed trigger set.

    Non-LTE snapshots contribute no regions (their reselection policy
    lives on the graph verifier's axis).  Events triggered on RSRQ get
    unconstrained serving intervals — their thresholds constrain a
    different axis, so treating them as always able to fire avoids
    false dead zones.
    """
    config = snapshot.lte_config
    if config is None:
        return ()
    meas = snapshot.meas_config or config.measurement
    # Neighbor measurement gate: open while serving RSRP <= s-Measure.
    gate = Interval(RSRP_FLOOR_DBM, meas.s_measure)
    regions: list[FireRegion] = []
    for index, event in enumerate(meas.events):
        label = _event_label(event, index)
        rsrp = event.metric == "rsrp"
        ttt = event.time_to_trigger_ms
        hys = event.hysteresis
        if event.event is EventType.A1:
            assert event.threshold1 is not None
            serving = (
                Interval(event.threshold1 + hys, RSRP_CEILING_DBM, lo_open=True)
                if rsrp else FULL_RSRP
            )
            regions.append(FireRegion(
                label=label, mode="active", handoff=False,
                serving=serving, neighbor=FULL_RSRP, time_to_trigger_ms=ttt,
            ))
        elif event.event is EventType.A2:
            assert event.threshold1 is not None
            serving = (
                Interval(RSRP_FLOOR_DBM, event.threshold1 - hys, hi_open=True)
                if rsrp else FULL_RSRP
            )
            regions.append(FireRegion(
                label=label, mode="active", handoff=False,
                serving=serving, neighbor=FULL_RSRP, time_to_trigger_ms=ttt,
            ))
        elif event.event in (EventType.A3, EventType.A6):
            regions.append(FireRegion(
                label=label, mode="active", handoff=True,
                serving=FULL_RSRP.intersect(gate), neighbor=FULL_RSRP,
                relative=True, margin_db=event.offset + hys,
                time_to_trigger_ms=ttt,
            ))
        elif event.event in (EventType.A4, EventType.B1):
            neighbor = a4_neighbor_interval(event) if rsrp else FULL_RSRP
            regions.append(FireRegion(
                label=label, mode="active", handoff=True,
                serving=gate, neighbor=neighbor, time_to_trigger_ms=ttt,
            ))
        elif event.event in (EventType.A5, EventType.B2):
            serving = a5_serving_interval(event) if rsrp else FULL_RSRP
            neighbor = a5_neighbor_interval(event) if rsrp else FULL_RSRP
            regions.append(FireRegion(
                label=label, mode="active", handoff=True,
                serving=serving.intersect(gate), neighbor=neighbor,
                time_to_trigger_ms=ttt,
            ))
    if meas.periodic is not None:
        regions.append(FireRegion(
            label="periodic", mode="active", handoff=True,
            serving=gate, neighbor=FULL_RSRP,
            relative=True, margin_db=PERIODIC_MARGIN_DB,
        ))
    # Idle reselection regions (documented in the partition and stats;
    # HC401 deliberately ignores them — a *connected* UE cannot be
    # rescued by idle reselection until RRC release).
    serving_cfg = config.serving
    regions.append(FireRegion(
        label="resel-intra", mode="idle", handoff=True,
        serving=FULL_RSRP, neighbor=FULL_RSRP,
        relative=True, margin_db=serving_cfg.q_hyst,
    ))
    own = serving_cfg.cell_reselection_priority
    lower_layers = (
        [ly.cell_reselection_priority for ly in config.inter_freq_layers]
        + [ly.cell_reselection_priority for ly in config.utra_layers]
        + [ly.cell_reselection_priority for ly in config.geran_layers]
    )
    if any(priority < own for priority in lower_layers):
        regions.append(FireRegion(
            label="resel-lower", mode="idle", handoff=True,
            serving=Interval(
                RSRP_FLOOR_DBM,
                serving_cfg.q_rx_lev_min + serving_cfg.thresh_serving_low_p,
            ),
            neighbor=FULL_RSRP,
        ))
    return tuple(regions)


def _rescue_regions(regions: Sequence[FireRegion]) -> list[FireRegion]:
    """Active-mode regions that can actually change the serving cell.

    Absolute-threshold events with an empty neighbor requirement are
    dead (HC011's territory) and rescue nothing.
    """
    return [
        r for r in regions
        if r.mode == "active" and r.handoff
        and (r.relative or not r.neighbor.empty)
    ]


def _subtract(band: Interval, covered: Sequence[Interval]) -> list[Interval]:
    """The parts of ``band`` no interval of ``covered`` reaches."""
    gaps = [band]
    for interval in sorted(
        (iv for iv in covered if not iv.empty),
        key=lambda iv: (iv.lo, iv.lo_open),
    ):
        remaining: list[Interval] = []
        for gap in gaps:
            meet = gap.intersect(interval)
            if meet.empty:
                remaining.append(gap)
                continue
            left = Interval(gap.lo, meet.lo, gap.lo_open, not meet.lo_open)
            if not left.empty:
                remaining.append(left)
            right = Interval(meet.hi, gap.hi, not meet.hi_open, gap.hi_open)
            if not right.empty:
                remaining.append(right)
        gaps = remaining
    return gaps


def coverage_gaps(regions: Sequence[FireRegion]) -> tuple[Interval, ...]:
    """Critical-band sub-intervals no handoff-capable event covers."""
    covered = [r.serving for r in _rescue_regions(regions)]
    return tuple(_subtract(CRITICAL_BAND, covered))


# ---------------------------------------------------------------------------
# Witness construction helpers


def _cell_config(snapshot: CellConfigSnapshot):
    """The effective configuration a connected UE would run under."""
    config = snapshot.lte_config
    assert config is not None
    meas = snapshot.meas_config or config.measurement
    return replace(config, measurement=meas)


def _neighbor_channel(snapshot: CellConfigSnapshot) -> int:
    """Witness neighbor EARFCN: the first inter-freq layer, else own."""
    config = snapshot.lte_config
    assert config is not None
    for layer in config.inter_freq_layers:
        if layer.dl_carrier_freq != snapshot.channel:
            return layer.dl_carrier_freq
    return snapshot.channel


def _walk_witness(
    code: str,
    snapshot: CellConfigSnapshot,
    region_hi: float,
    region_lo: float,
    kind: str,
    note: str,
    subject_event: str = "",
) -> CoverageWitness:
    """A drive-outward witness through [region_lo, region_hi]."""
    config = _cell_config(snapshot)
    entry = min(-60.0, region_hi + _ENTRY_MARGIN_DB)
    exit_ = max(RSRP_FLOOR_DBM + 2.0, min(region_lo - 1.0, RLF_RSRP_DBM))
    return CoverageWitness(
        code=code,
        kind=kind,
        carrier=snapshot.carrier,
        gci=snapshot.gci,
        channel=snapshot.channel,
        neighbor_channel=_neighbor_channel(snapshot),
        config=config,
        neighbor_config=config,
        entry_dbm=entry,
        exit_dbm=exit_,
        speed_mps=WITNESS_SPEED_MPS,
        subject_event=subject_event,
        note=note,
    )


def _park_witness(
    code: str,
    snapshot: CellConfigSnapshot,
    level_dbm: float,
    note: str,
    subject_event: str = "",
) -> CoverageWitness:
    """A stationary ping-pong witness parked at ``level_dbm``."""
    config = _cell_config(snapshot)
    return CoverageWitness(
        code=code,
        kind="ping-pong",
        carrier=snapshot.carrier,
        gci=snapshot.gci,
        channel=snapshot.channel,
        neighbor_channel=_neighbor_channel(snapshot),
        config=config,
        neighbor_config=config,
        entry_dbm=level_dbm,
        exit_dbm=level_dbm,
        hold_s=_PINGPONG_HOLD_S,
        speed_mps=0.0,
        subject_event=subject_event,
        note=note,
    )


# ---------------------------------------------------------------------------
# Coverage-scope rules: each body takes one cell with its fire regions and
# critical-band gaps and yields issues that carry their witness; the
# engine routes coverage audits through CoverageAnalyzer


def _issue(snapshot: CellConfigSnapshot, message: str, subject: str,
           witness: CoverageWitness, severity: str | None = None) -> Issue:
    return Issue(
        message=message,
        severity=severity,
        carrier=snapshot.carrier,
        gci=snapshot.gci,
        channel=snapshot.channel,
        subject=subject,
        witness=witness,
    )


@rule("HC401", "dead-zone", scope="coverage", severity="problem",
      summary="Critical serving-RSRP band where no handoff event can fire")
def dead_zone(
    snapshot: CellConfigSnapshot,
    regions: Sequence[FireRegion],
    gaps: Sequence[Interval],
) -> Iterator[Issue]:
    rescuers = _rescue_regions(regions)
    for gap in gaps:
        if gap.width < DEAD_ZONE_MIN_DB:
            continue
        armed = ", ".join(r.label for r in rescuers) or "none"
        message = (
            f"dead zone {gap}: no handoff-capable event fires anywhere in "
            f"this sub-band of the critical region "
            f"[{RLF_RSRP_DBM:g}, {ACCEPTABLE_SERVICE_DBM:g}] dBm — a "
            "connected UE degrading through it has no configured escape "
            f"before radio-link failure (handoff-capable triggers: {armed})"
        )
        witness = _walk_witness(
            "HC401", snapshot, gap.hi, gap.lo, "missed-handoff",
            note=(
                f"drive from {min(-60.0, gap.hi + _ENTRY_MARGIN_DB):g} dBm "
                f"down through the uncovered band {gap}; no event rescues "
                "the UE, so service degrades into an outage/RLF that a "
                "covering configuration avoids by handing off near "
                f"{ACCEPTABLE_SERVICE_DBM + 8.0:g} dBm"
            ),
        )
        yield _issue(snapshot, message, f"gap:{gap.lo:g}:{gap.hi:g}", witness)


#: Event families whose absolute entry regions can shadow each other
#: (intra-RAT vs inter-RAT targets never compete for the same report).
_SHADOW_FAMILIES = (
    (EventType.A4, EventType.A5),
    (EventType.B1, EventType.B2),
)


@rule("HC402", "shadowed-event", scope="coverage", severity="warning",
      summary="Event entry region fully subsumed by a faster event")
def shadowed_event(
    snapshot: CellConfigSnapshot,
    regions: Sequence[FireRegion],
    gaps: Sequence[Interval],
) -> Iterator[Issue]:
    by_label = {r.label: r for r in regions}
    meas = snapshot.meas_config
    config = snapshot.lte_config
    if meas is None and config is not None:
        meas = config.measurement
    if meas is None:
        return
    events = list(enumerate(meas.events))
    for family in _SHADOW_FAMILIES:
        members = [
            (i, e) for i, e in events
            if e.event in family and e.metric == "rsrp"
        ]
        for i, shadowed in members:
            shadowed_region = by_label.get(_event_label(shadowed, i))
            if shadowed_region is None or shadowed_region.serving.empty:
                continue  # dead events are HC011's finding, not a shadow
            for j, dominating in members:
                if i == j or dominating.event is shadowed.event:
                    continue  # same-type duplicates are HC012's finding
                dom_region = by_label.get(_event_label(dominating, j))
                if dom_region is None:
                    continue
                if not (
                    dom_region.serving.covers(shadowed_region.serving)
                    and dom_region.neighbor.covers(shadowed_region.neighbor)
                    and dom_region.time_to_trigger_ms
                    <= shadowed_region.time_to_trigger_ms
                ):
                    continue
                message = (
                    f"{shadowed_region.label} is unreachable: "
                    f"{dom_region.label} covers its entire entry region "
                    f"(serving {shadowed_region.serving}, neighbor "
                    f"{shadowed_region.neighbor}) with an equal-or-shorter "
                    f"TTT ({dom_region.time_to_trigger_ms} vs "
                    f"{shadowed_region.time_to_trigger_ms} ms), so the "
                    "shadowed event is never the decisive trigger"
                )
                witness = _walk_witness(
                    "HC402", snapshot,
                    shadowed_region.serving.hi, shadowed_region.serving.lo,
                    "shadowed-event",
                    note=(
                        f"drive through {shadowed_region.label}'s entire "
                        f"entry region; every handoff is decided by "
                        f"{dom_region.label.split('[', 1)[0]}, never by "
                        f"{shadowed_region.label.split('[', 1)[0]}"
                    ),
                    subject_event=shadowed_region.label,
                )
                yield _issue(
                    snapshot, message,
                    f"shadow:{shadowed_region.label}:{dom_region.label}",
                    witness,
                )
                break  # one dominating event per shadowed event suffices


@rule("HC403", "measurement-gap-hole", scope="coverage", severity="warning",
      summary="A2 arms measurement after entry thresholds are unreachable")
def measurement_gap_hole(
    snapshot: CellConfigSnapshot,
    regions: Sequence[FireRegion],
    gaps: Sequence[Interval],
) -> Iterator[Issue]:
    meas = snapshot.meas_config
    config = snapshot.lte_config
    if meas is None and config is not None:
        meas = config.measurement
    if meas is None:
        return
    a2_gates = [
        (i, e.threshold1 - e.hysteresis)
        for i, e in enumerate(meas.events)
        if e.event is EventType.A2 and e.metric == "rsrp"
        and e.threshold1 is not None
    ]
    if not a2_gates:
        return
    by_label = {r.label: r for r in regions}
    for i, event in enumerate(meas.events):
        if event.event not in (EventType.A4, EventType.A5,
                               EventType.B1, EventType.B2):
            continue
        if event.metric != "rsrp":
            continue
        region = by_label.get(_event_label(event, i))
        if region is None or region.neighbor.empty:
            continue
        required_floor = region.neighbor.lo
        for j, gate_level in a2_gates:
            advantage = required_floor - gate_level
            if advantage <= MAX_NEIGHBOR_ADVANTAGE_DB:
                continue
            a2_label = _event_label(meas.events[j], j)
            message = (
                f"measurement-gap hole: {a2_label} arms measurement only "
                f"below {gate_level:g} dBm serving, but {region.label} "
                f"needs a neighbor above {required_floor:g} dBm — a "
                f"{advantage:g} dB advantage over a cell-edge serving "
                "signal, so by the time measurement starts the entry "
                "threshold is already unreachable"
            )
            witness = _walk_witness(
                "HC403", snapshot, gate_level, RLF_RSRP_DBM,
                "missed-handoff",
                note=(
                    f"drive below the {a2_label} measurement gate at "
                    f"{gate_level:g} dBm; no neighbor within "
                    f"{MAX_NEIGHBOR_ADVANTAGE_DB:g} dB of serving can "
                    f"satisfy {region.label}'s floor of "
                    f"{required_floor:g} dBm, so the handoff never comes"
                ),
                subject_event=region.label,
            )
            yield _issue(
                snapshot, message, f"hole:{a2_label}:{region.label}", witness,
            )
            break  # the tightest gate already proves the hole


@rule("HC404", "ttt-exceeds-dwell", scope="coverage", severity="warning",
      summary="Time-to-trigger exceeds the dwell possible in the fire region")
def ttt_exceeds_dwell(
    snapshot: CellConfigSnapshot,
    regions: Sequence[FireRegion],
    gaps: Sequence[Interval],
) -> Iterator[Issue]:
    for region in _rescue_regions(regions):
        if region.serving.empty or region.relative:
            continue
        ceiling = region.serving.hi
        if ceiling > ACCEPTABLE_SERVICE_DBM:
            continue
        width = ceiling - RLF_RSRP_DBM
        if width <= 0.0:
            continue
        dwell_ms = width / EDGE_DECAY_DB_PER_S * 1000.0
        if region.time_to_trigger_ms <= dwell_ms:
            continue
        message = (
            f"TTT-vs-fading contradiction: {region.label} can only fire "
            f"with serving inside {region.serving}, a {width:g} dB band "
            f"above link failure; at {EDGE_DECAY_DB_PER_S:g} dB/s edge "
            f"decay that is {dwell_ms:g} ms of dwell, but the entry "
            f"condition must hold for {region.time_to_trigger_ms} ms — "
            "the trigger cannot complete before the link is lost"
        )
        witness = _walk_witness(
            "HC404", snapshot, ceiling, RLF_RSRP_DBM, "missed-handoff",
            note=(
                f"drive through {region.label}'s fire region at "
                f"{WITNESS_SPEED_MPS:g} m/s; the {width:g} dB band passes "
                f"faster than the {region.time_to_trigger_ms} ms TTT, so "
                "the handoff arrives only after a long outage (if at all)"
            ),
            subject_event=region.label,
        )
        yield _issue(snapshot, message, f"dwell:{region.label}", witness)


@rule("HC405", "leave-entry-overlap", scope="coverage", severity="warning",
      summary="Serving-leave and target-entry thresholds overlap (ping-pong)")
def leave_entry_overlap(
    snapshot: CellConfigSnapshot,
    regions: Sequence[FireRegion],
    gaps: Sequence[Interval],
) -> Iterator[Issue]:
    meas = snapshot.meas_config
    config = snapshot.lte_config
    if meas is None and config is not None:
        meas = config.measurement
    if meas is None or config is None:
        return
    gate = Interval(RSRP_FLOOR_DBM, meas.s_measure)
    for i, event in enumerate(meas.events):
        label = _event_label(event, i)
        if (
            event.event in (EventType.A5, EventType.B2)
            and event.metric == "rsrp"
        ):
            # Both cells of a pair inside this window satisfy the
            # serving clause *and* (as each other's neighbor) the entry
            # clause — the reverse event arms the instant a handoff
            # completes.
            window = (
                a5_serving_interval(event)
                .intersect(a5_neighbor_interval(event))
                .intersect(gate)
            )
            if window.empty:
                continue
            severity = (
                "problem"
                if window.width >= PINGPONG_PROBLEM_DB
                and event.time_to_trigger_ms <= A5_RISK_TTT_MS
                else None
            )
            mid = (window.lo + window.hi) / 2.0
            message = (
                f"leave/entry overlap: {label}'s serving-leave and "
                f"target-entry thresholds overlap in {window} — two cells "
                "both inside the window hand the UE back and forth, with "
                f"only the {event.time_to_trigger_ms} ms TTT damping the "
                "loop"
            )
            witness = _park_witness(
                "HC405", snapshot, mid,
                note=(
                    f"park between two cells whose levels sit at the "
                    f"window midpoint ({mid:g} dBm); both directions of "
                    f"{label.split('[', 1)[0]} stay armed and the UE "
                    "oscillates"
                ),
                subject_event=label,
            )
            yield _issue(
                snapshot, message, f"overlap:{label}", witness,
                severity=severity,
            )
        elif event.event in (EventType.A3, EventType.A6):
            overlap = -a3_separation_band(event)
            if overlap <= 0.0:
                continue
            window = Interval(0.0, overlap)
            message = (
                f"leave/entry overlap: {label}'s forward and reverse "
                f"trigger regions overlap by {overlap:g} dB (offset + "
                "hysteresis is negative) — comparable cells hand the UE "
                "back and forth without any fading"
            )
            witness = _park_witness(
                "HC405", snapshot, -100.0,
                note=(
                    "park between two comparable cells at -100 dBm; the "
                    f"negative {label.split('[', 1)[0]} margin keeps both "
                    "directions armed and the UE oscillates"
                ),
                subject_event=label,
            )
            yield _issue(snapshot, message, f"overlap:{label}", witness)


def coverage_rules(codes: Sequence[str] | None = None) -> tuple[RegisteredRule, ...]:
    """The registered coverage-scope rules, optionally filtered by code."""
    return tuple(
        r for r in select_rules(list(codes) if codes is not None else None)
        if r.scope == "coverage"
    )


# ---------------------------------------------------------------------------
# Per-cell execution (pipeline work unit) and the analyzer


@dataclass(frozen=True)
class CellCoverageResult:
    """What analyzing one cell produced (cache value)."""

    findings: tuple[Finding, ...]
    witnesses: tuple[tuple[str, CoverageWitness], ...]
    regions: int
    gaps: int


@dataclass(frozen=True)
class CoverageStats:
    """Deterministic counters of one coverage analysis.

    Independent of worker count and wall-clock, so embedding reports
    stay byte-identical; ``cells_cached`` is the incremental-analysis
    observable (a re-audit after mutating one cell re-analyzes exactly
    that cell).
    """

    cells: int = 0
    cells_analyzed: int = 0
    cells_cached: int = 0
    regions: int = 0
    gaps: int = 0
    witnesses: int = 0


def analyze_cell(
    snapshot: CellConfigSnapshot, codes: tuple[str, ...]
) -> CellCoverageResult:
    """Run the coverage rules over one cell (picklable entry point)."""
    regions = fire_regions(snapshot)
    gaps = coverage_gaps(regions) if regions else ()
    findings: list[Finding] = []
    witnesses: list[tuple[str, CoverageWitness]] = []
    for code in codes:
        registered = get_rule(code)
        for issue in registered.func(snapshot, regions, gaps):
            assert issue.witness is not None
            finding = registered.stamp(issue)
            findings.append(finding)
            witnesses.append((finding.fingerprint, issue.witness))
    return CellCoverageResult(
        findings=tuple(sort_findings(findings)),
        witnesses=tuple(witnesses),
        regions=len(regions),
        gaps=len(gaps),
    )


@dataclass(frozen=True)
class CellCoverageUnit(WorkUnit):
    """One cell analysis as a :mod:`repro.pipeline` work unit."""

    unit_id: int
    snapshot: CellConfigSnapshot
    codes: tuple[str, ...]

    def run(self) -> CellCoverageResult:
        return analyze_cell(self.snapshot, self.codes)


class CoverageAnalyzer:
    """Incremental signal-space analyzer with a per-cell digest cache.

    Results are keyed by ``(cell config digest, rule codes)`` — the same
    :func:`~repro.lint.graph.snapshot_digest` the graph verifier and the
    drift differ use, so all three layers agree on what "unchanged"
    means.  Callers wanting incrementality across audits hold one
    instance.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[str, tuple[str, ...]], CellCoverageResult] = {}

    def analyze(
        self,
        snapshots: Sequence[CellConfigSnapshot],
        codes: Sequence[str] | None = None,
        workers: int | None = None,
        digests: Sequence[str] | None = None,
    ) -> tuple[list[Finding], CoverageStats, dict[str, CoverageWitness]]:
        """Analyze an audit population.

        Returns ``(findings, stats, witnesses)`` where ``witnesses``
        maps each finding's fingerprint to its replayable counterexample.
        Findings are deterministically sorted and independent of
        ``workers`` (cells are self-contained and merged in canonical
        order).  ``digests`` are the snapshots'
        :func:`~repro.lint.graph.snapshot_digest` values when the caller
        has them (an audit that also runs the graph pass hashes each
        cell once).
        """
        rule_codes = tuple(r.code for r in coverage_rules(codes))
        if digests is None:
            digests = [snapshot_digest(s) for s in snapshots]
        keys = [(digest, rule_codes) for digest in digests]
        results, cached, analyzed = run_cached(
            self._cache,
            zip(keys, snapshots, strict=True),
            lambda unit_id, snapshot: CellCoverageUnit(
                unit_id=unit_id, snapshot=snapshot, codes=rule_codes
            ),
            workers,
        )
        findings: list[Finding] = []
        witnesses: dict[str, CoverageWitness] = {}
        regions = gaps = 0
        for key in keys:
            result = results[key]
            findings.extend(result.findings)
            witnesses.update(result.witnesses)
            regions += result.regions
            gaps += result.gaps
        stats = CoverageStats(
            cells=len(snapshots),
            cells_analyzed=analyzed,
            cells_cached=cached,
            regions=regions,
            gaps=gaps,
            witnesses=len(witnesses),
        )
        return sort_findings(findings), stats, witnesses
