"""Reference oracle for the handoff-graph verifier's hop-index pass.

``repro.lint.graph`` groups each component's edges by hop once
(``HopIndex``), walks each mode policy's graph once and makes each hop's
greedy pick once.  This module keeps the per-rule mechanisms that
replaced, as the oracle they are held to:

* every rule rebuilds its own adjacency and candidate lists from
  ``component.edges``;
* the stats, HC201 and HC202 each enumerate their own cycles;
* ``check_cycle`` filters and picks each hop's candidates on every
  cycle through it.

The cycle walk itself (``_enumerate_cycles``), the component partition
(``build_components``) and the message formatting are shared: they are
the inputs and outputs both passes must agree on.  The tests require
equal ``ComponentResult``s per component and equal findings and
``GraphStats`` per audit, on hypothesis populations (wildcard targets,
tied pick keys, components past the cycle cap, idle-only and
active-only hops) and on the D2 world at 60 cells per carrier.
``compare_graph`` also runs over the whole default world (every cell,
config seeds 2018 and 2019) in CI; it returns the number of components
compared.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config.events import EventConfig, EventType
from repro.config.legacy import GsmCellConfig, UmtsCellConfig
from repro.config.lte import (
    InterFreqLayerConfig,
    InterRatGeranConfig,
    InterRatUtraConfig,
    LteCellConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.core.crawler import CellConfigSnapshot
from repro.lint import graph as graph_module
from repro.lint.findings import Finding, sort_findings
from repro.lint.graph import (
    LOOP_FADING_BAND_DB,
    MAX_CYCLES_PER_COMPONENT,
    ComponentGraph,
    ComponentResult,
    CycleFeasibility,
    GraphAnalyzer,
    GraphStats,
    HopIndex,
    LayerRef,
    PolicyEdge,
    _cycle_message,
    _cycle_subject,
    _enumerate_cycles,
    _strongly_connected,
    analyze_component,
    build_components,
    graph_rules,
)
from repro.lint.pingpong import FULL_RSRP, Interval
from repro.lint.rules import Issue, get_rule
from repro.rrc.broadcast import ConfigServer


# ---------------------------------------------------------------------------
# The reference: per-rule adjacency, candidates and walks


def _pick_candidate(candidates: list[PolicyEdge]) -> PolicyEdge:
    """Most permissive hop candidate, with deterministic tie-breaks."""
    return min(candidates, key=lambda e: (
        e.margin_db,
        -(e.serving_interval.width + e.target_interval.width),
        e.kind, e.mode, e.via_gci,
    ))


def check_cycle(
    cycle: tuple[LayerRef, ...],
    candidates: dict[tuple[LayerRef, LayerRef], list[PolicyEdge]],
    modes: tuple[str, ...],
    prefer_mode: str | None = None,
) -> CycleFeasibility | None:
    """One candidate per hop (in ``modes``, ``prefer_mode`` first when
    offered); every node's window non-empty and the margin sum within
    the fading band.  None when some hop has no candidate."""
    hops: list[PolicyEdge] = []
    for i, src in enumerate(cycle):
        dst = cycle[(i + 1) % len(cycle)]
        pool = [e for e in candidates.get((src, dst), ()) if e.mode in modes]
        if not pool:
            return None
        preferred = [e for e in pool if e.mode == prefer_mode]
        hops.append(_pick_candidate(preferred or pool))
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


def _feasible_cycles(
    component: ComponentGraph,
    modes: tuple[str, ...],
    prefer_mode: str | None,
) -> list[tuple[tuple[LayerRef, ...], CycleFeasibility]]:
    """Feasible cycles of a component under a mode policy."""
    adjacency: dict[LayerRef, set[LayerRef]] = defaultdict(set)
    candidates: dict[tuple[LayerRef, LayerRef], list[PolicyEdge]] = defaultdict(list)
    for edge in component.edges:
        if edge.mode not in modes:
            continue
        adjacency[edge.src].add(edge.dst)
        candidates[(edge.src, edge.dst)].append(edge)
    cycles, _ = _enumerate_cycles(dict(adjacency), MAX_CYCLES_PER_COMPONENT)
    results = []
    for cycle in cycles:
        verdict = check_cycle(cycle, candidates, modes, prefer_mode)
        if verdict is not None and verdict.feasible:
            results.append((cycle, verdict))
    return results


def loop_active(component: ComponentGraph) -> Iterator[Issue]:
    for cycle, verdict in _feasible_cycles(component, ("idle", "active"), "active"):
        if not any(h.mode == "active" for h in verdict.hops):
            continue
        yield Issue(
            _cycle_message(cycle, verdict, "active-mode"),
            carrier=component.carrier,
            gci=verdict.hops[0].via_gci,
            channel=cycle[0].channel,
            subject=_cycle_subject(cycle),
        )


def loop_idle(component: ComponentGraph) -> Iterator[Issue]:
    for cycle, verdict in _feasible_cycles(component, ("idle",), None):
        yield Issue(
            _cycle_message(cycle, verdict, "idle-mode"),
            carrier=component.carrier,
            gci=verdict.hops[0].via_gci,
            channel=cycle[0].channel,
            subject=_cycle_subject(cycle),
        )


def priority_inversion(component: ComponentGraph) -> Iterator[Issue]:
    adjacency: dict[LayerRef, set[LayerRef]] = defaultdict(set)
    for edge in component.edges:
        if edge.mode == "idle" and edge.priority_delta > 0:
            adjacency[edge.src].add(edge.dst)
    for scc in _strongly_connected(dict(adjacency)):
        if len(scc) < 2 or len({ly.rat for ly in scc}) < 2:
            continue
        route = " -> ".join(str(ly) for ly in scc)
        yield Issue(
            f"cross-RAT priority inversion: layers {route} each defer to "
            "the next with strictly higher reselection priority — the "
            "preference order cannot be satisfied",
            carrier=component.carrier,
            channel=scc[0].channel,
            subject=_cycle_subject(tuple(scc)),
        )


def dead_target(component: ComponentGraph) -> Iterator[Issue]:
    # HC203 reads no adjacency: the module's body over a fresh index.
    return get_rule("HC203").func(HopIndex(component))


_REFERENCE_BODIES = {
    "HC201": loop_active,
    "HC202": loop_idle,
    "HC203": dead_target,
    "HC204": priority_inversion,
}


def reference_analyze_component(
    component: ComponentGraph, codes: tuple[str, ...]
) -> ComponentResult:
    """The graph rules over one component, each walking on its own."""
    adjacency: dict[LayerRef, set[LayerRef]] = defaultdict(set)
    for edge in component.edges:
        adjacency[edge.src].add(edge.dst)
    cycles, truncated = _enumerate_cycles(dict(adjacency), MAX_CYCLES_PER_COMPONENT)
    findings: list[Finding] = []
    for registered in graph_rules(codes):
        for issue in _REFERENCE_BODIES[registered.code](component):
            findings.append(registered.stamp(issue))
    return ComponentResult(
        findings=tuple(sort_findings(findings)),
        n_edges=len(component.edges),
        cycles_checked=len(cycles),
        cycles_truncated=truncated,
    )


def reference_analyze(
    snapshots: Sequence[CellConfigSnapshot], codes: Sequence[str] | None = None
) -> tuple[list[Finding], GraphStats]:
    """What a fresh ``GraphAnalyzer().analyze`` returns, by the reference."""
    rule_codes = tuple(r.code for r in graph_rules(codes))
    components = build_components(snapshots)
    results: dict[str, ComponentResult] = {}
    for component in components:
        if component.digest not in results:
            results[component.digest] = reference_analyze_component(component, rule_codes)
    findings: list[Finding] = []
    edges = cycles = truncated = 0
    for component in components:
        result = results[component.digest]
        findings.extend(result.findings)
        edges += result.n_edges
        cycles += result.cycles_checked
        truncated += int(result.cycles_truncated)
    stats = GraphStats(
        cells=sum(len(c.policies) for c in components),
        layers=sum(len(c.layers) for c in components),
        edges=edges,
        components=len(components),
        components_analyzed=len(results),
        components_cached=0,
        cycles_checked=cycles,
        cycles_truncated=truncated,
    )
    return sort_findings(findings), stats


def compare_graph(
    snapshots: Sequence[CellConfigSnapshot], codes: Sequence[str] | None = None
) -> int:
    """Hold the hop-index pass to the reference on one audit population.

    Compares every component's result, then the whole analysis (findings
    and stats).  Raises ``AssertionError`` at the first difference;
    returns the number of components compared.
    """
    rule_codes = tuple(r.code for r in graph_rules(codes))
    components = build_components(snapshots)
    for component in components:
        expected = reference_analyze_component(component, rule_codes)
        actual = analyze_component(component, rule_codes)
        assert actual == expected, (component.carrier, component.city, component.layers)
    assert GraphAnalyzer().analyze(snapshots, codes=codes) == reference_analyze(
        snapshots, codes
    )
    return len(components)


# ---------------------------------------------------------------------------
# Random populations


_LTE_CHANNELS = (100, 200, 300, 400, 500, 600, 700, 800)
_UMTS_CHANNELS = (4385, 4410)
_GSM_CHANNELS = (128, 190)
#: A configured layer no cell deploys (HC203's explicit dead target).
_UNDEPLOYED = 9999


@st.composite
def _events(draw):
    events = []
    for kind in draw(st.lists(st.sampled_from(("A3", "A4", "A5", "B1", "B2")), max_size=3)):
        metric = draw(st.sampled_from(("rsrp", "rsrp", "rsrq")))
        hysteresis = draw(st.sampled_from((0.0, 1.0)))
        event = EventType(kind)
        if kind == "A3":
            events.append(EventConfig(
                event=event, metric=metric, hysteresis=hysteresis,
                offset=draw(st.sampled_from((-2.0, 0.0, 1.0, 3.0))),
            ))
        elif kind in ("A4", "B1"):
            events.append(EventConfig(
                event=event, metric=metric, hysteresis=hysteresis,
                threshold1=draw(st.sampled_from((-110.0, -95.0))),
            ))
        else:
            events.append(EventConfig(
                event=event, metric=metric, hysteresis=hysteresis,
                threshold1=draw(st.sampled_from((-110.0, -95.0, -44.0))),
                threshold2=draw(st.sampled_from((-112.0, -100.0, -43.0))),
            ))
    if events and draw(st.booleans()):
        events.append(events[0])  # an exact duplicate: fully tied pick keys
    return events


@st.composite
def _lte_cell(draw, gci, channels, city):
    layers = tuple(
        InterFreqLayerConfig(
            dl_carrier_freq=draw(st.sampled_from(channels + (_UNDEPLOYED,))),
            cell_reselection_priority=draw(st.integers(0, 7)),
            thresh_x_high_p=draw(st.sampled_from((0.0, 12.0))),
            thresh_x_low_p=draw(st.sampled_from((0.0, 6.0))),
            q_offset_freq=draw(st.sampled_from((-4.0, 0.0))),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    utra = tuple(
        InterRatUtraConfig(
            carrier_freq=draw(st.sampled_from(_UMTS_CHANNELS)),
            cell_reselection_priority=draw(st.integers(0, 7)),
        )
        for _ in range(draw(st.integers(0, 1)))
    )
    geran = tuple(
        InterRatGeranConfig(
            carrier_freqs=tuple(draw(st.lists(
                st.sampled_from(_GSM_CHANNELS), min_size=1, max_size=2, unique=True
            ))),
            cell_reselection_priority=draw(st.integers(0, 7)),
        )
        for _ in range(draw(st.integers(0, 1)))
    )
    config = LteCellConfig(
        serving=ServingCellConfig(
            cell_reselection_priority=draw(st.integers(0, 7)),
            q_hyst=draw(st.sampled_from((0.0, 4.0))),
            thresh_serving_low_p=draw(st.sampled_from((6.0, 62.0))),
        ),
        inter_freq_layers=layers,
        utra_layers=utra,
        geran_layers=geran,
        measurement=MeasurementConfig(events=tuple(draw(_events()))),
    )
    return CellConfigSnapshot(
        carrier="A", gci=gci, rat="LTE", channel=draw(st.sampled_from(channels)),
        city=city, first_seen_ms=0, lte_config=config, meas_config=config.measurement,
    )


@st.composite
def _populations(draw):
    channels = _LTE_CHANNELS[:draw(st.integers(2, len(_LTE_CHANNELS)))]
    snapshots = []
    for gci in range(1, draw(st.integers(1, 14)) + 1):
        city = draw(st.sampled_from(("X", "X", "Y")))
        kind = draw(st.sampled_from(("LTE", "LTE", "LTE", "UMTS", "GSM")))
        if kind == "LTE":
            snapshots.append(draw(_lte_cell(gci, channels, city)))
        elif kind == "UMTS":
            explicit = draw(st.lists(st.sampled_from(channels), max_size=2, unique=True))
            snapshots.append(CellConfigSnapshot(
                carrier="A", gci=gci, rat="UMTS",
                channel=draw(st.sampled_from(_UMTS_CHANNELS)), city=city,
                first_seen_ms=0, legacy_config=UmtsCellConfig(
                    priority_eutra=draw(st.integers(0, 7)),
                    priority_serving=draw(st.integers(0, 7)),
                    eutra_freq_list=tuple(explicit),  # empty: any EUTRA layer
                ),
            ))
        else:
            snapshots.append(CellConfigSnapshot(
                carrier="A", gci=gci, rat="GSM",
                channel=draw(st.sampled_from(_GSM_CHANNELS)), city=city,
                first_seen_ms=0, legacy_config=GsmCellConfig(),
            ))
    return snapshots


def _lte(gci, channel, layers=(), events=(), priority=3, serving_low=6.0):
    config = LteCellConfig(
        serving=ServingCellConfig(
            cell_reselection_priority=priority, thresh_serving_low_p=serving_low,
        ),
        inter_freq_layers=tuple(
            InterFreqLayerConfig(
                dl_carrier_freq=ch, cell_reselection_priority=pr, thresh_x_high_p=0.0,
            )
            for ch, pr in layers
        ),
        measurement=MeasurementConfig(events=tuple(events)),
    )
    return CellConfigSnapshot(
        carrier="A", gci=gci, rat="LTE", channel=channel, city="X",
        first_seen_ms=0, lte_config=config, meas_config=config.measurement,
    )


_A3 = EventConfig(event=EventType.A3, offset=0.0, hysteresis=1.0)


def _capped_population():
    """A complete A3 graph over eight layers (560 simple cycles up to
    length 4, past the cap of 200) with an idle loop between the two
    highest layers: the all-modes walk stops before it reaches them."""
    snapshots = [_lte(gci, ch, events=[_A3]) for gci, ch in enumerate(_LTE_CHANNELS[:6], 1)]
    snapshots.append(_lte(7, 700, layers=[(800, 5)], events=[_A3], priority=3))
    snapshots.append(_lte(8, 800, layers=[(700, 3)], events=[_A3], priority=5,
                          serving_low=62.0))
    return snapshots


def _mixed_hop_population():
    """Hops with idle and active candidates: HC201 prefers the active
    A3 edge although the idle reselection edge sorts first."""
    return [
        _lte(1, 100, layers=[(200, 5)], events=[_A3], priority=3),
        _lte(2, 200, layers=[(100, 3)], events=[_A3], priority=5, serving_low=62.0),
    ]


def test_capped_population_exercises_the_cap():
    components = build_components(_capped_population())
    assert len(components) == 1
    walk = HopIndex(components[0]).view(graph_module.ALL_MODES)
    assert walk.truncated and len(walk.cycles) == MAX_CYCLES_PER_COMPONENT
    idle = HopIndex(components[0]).view(graph_module.IDLE_ONLY)
    assert idle.cycles and not set(idle.cycles) & set(walk.cycles)


@settings(max_examples=80, deadline=None)
@given(_populations())
@example(_capped_population())
@example(_mixed_hop_population())
def test_hop_index_pass_equals_reference_on_random_populations(snapshots):
    compare_graph(snapshots)
    compare_graph(snapshots, codes=["HC202", "HC204"])


@pytest.fixture(scope="module")
def d2_env():
    from repro.datasets.d2 import d2_world

    return d2_world().env


@pytest.mark.parametrize("seed", [2018, 2019])
def test_hop_index_pass_equals_reference_on_d2_world(d2_env, seed):
    from repro.lint.engine import world_snapshots

    snapshots = world_snapshots(
        d2_env, ConfigServer(d2_env, seed=seed), max_cells_per_carrier=60
    )
    assert compare_graph(snapshots) > 30


# ---------------------------------------------------------------------------
# Byte-identity arguments of the hop-index pass


@dataclass(frozen=True, order=True)
class _DataclassLayerRef:
    """``LayerRef`` as a frozen, ordered dataclass: the type it replaced."""

    rat: str
    channel: int

    def __str__(self) -> str:
        return f"{self.rat} ch{self.channel}"


def test_layer_ref_behaves_as_the_dataclass_on_every_d2_layer(d2_env):
    pairs = sorted({(c.rat.value, c.channel) for c in d2_env.registry})
    pairs += [("LTE", graph_module.ANY_CHANNEL), (graph_module.ANY_LEGACY_RAT, -1)]
    new = [LayerRef(rat, ch) for rat, ch in pairs]
    old = [_DataclassLayerRef(rat, ch) for rat, ch in pairs]
    assert len(new) > 100
    for a, b in zip(new, old):
        assert hash(a) == hash(b)
        assert str(a) == str(b) == f"{a}"
        assert repr(a) == repr(b).replace("_DataclassLayerRef", "LayerRef")
        assert a == (b.rat, b.channel)
        restored = pickle.loads(pickle.dumps(a))
        assert type(restored) is LayerRef and restored == a and hash(restored) == hash(a)
    # Ordering: both sort the shuffled layers the same way, and every
    # pairwise comparison agrees.
    shuffled = list(range(len(pairs)))[::-1]
    assert [pairs[i] for i in sorted(shuffled, key=lambda i: new[i])] == [
        pairs[i] for i in sorted(shuffled, key=lambda i: old[i])
    ]
    for i in range(0, len(new), 7):
        for j in range(len(new)):
            assert (new[i] < new[j]) == (old[i] < old[j])
            assert (new[i] == new[j]) == (old[i] == old[j])


def test_one_cycle_walk_per_component_and_mode_policy(d2_env, monkeypatch):
    from repro.lint.engine import world_snapshots

    walks = []

    def counting(adjacency, limit):
        walks.append(len(adjacency))
        return _enumerate_cycles(adjacency, limit)

    monkeypatch.setattr(graph_module, "_enumerate_cycles", counting)
    snapshots = world_snapshots(
        d2_env, ConfigServer(d2_env, seed=2018), max_cells_per_carrier=60
    )
    _, stats = GraphAnalyzer().analyze(snapshots)
    # The stats and HC201 share the all-modes walk; HC202 walks idle.
    assert len(walks) == 2 * stats.components_analyzed
    walks.clear()
    _, stats = GraphAnalyzer().analyze(snapshots, codes=["HC203", "HC204"])
    assert len(walks) == stats.components_analyzed


def test_one_greedy_pick_per_component_policy_and_hop(d2_env, monkeypatch):
    from repro.lint.engine import world_snapshots

    picks = []
    original = graph_module.ModeView.pick

    def counting(view, hop):
        if hop not in view._picks:
            picks.append((view, hop))  # holds the view: no id is reused
        return original(view, hop)

    monkeypatch.setattr(graph_module.ModeView, "pick", counting)
    snapshots = world_snapshots(
        d2_env, ConfigServer(d2_env, seed=2018), max_cells_per_carrier=60
    )
    GraphAnalyzer().analyze(snapshots)
    assert picks and len(picks) == len(set(picks))
