"""Tests for the symbolic handoff-graph verifier (HC201-HC204)."""

import gc
import inspect
import json
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config.events import EventConfig, EventType
from repro.config.legacy import UmtsCellConfig
from repro.config.lte import (
    InterFreqLayerConfig,
    InterRatUtraConfig,
    LteCellConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.core.crawler import CellConfigSnapshot
from repro.lint import (
    FULL_RSRP,
    ConfigLintWarning,
    GraphAnalyzer,
    Interval,
    build_components,
    lint_world,
    render_json,
    render_sarif,
    render_text,
    warn_before_run,
    world_snapshots,
)
from repro.lint import graph as graph_module
from repro.lint.engine import world_digest
from repro.lint.fixtures import dead_zone_fixture, loop_fixture
from repro.lint.graph import cell_policy, component_edges
from repro.lint.pingpong import (
    a5_neighbor_interval,
    a5_serving_interval,
)
from repro.rrc.broadcast import ConfigServer

SARIF_SUBSET_SCHEMA = Path(__file__).parent / "data" / "sarif-2.1.0-subset.schema.json"


# ---------------------------------------------------------------------------
# Interval algebra


def test_interval_basics():
    a = Interval(-110.0, -80.0)
    b = Interval(-90.0, -60.0)
    assert not a.empty
    assert a.width == 30.0
    assert a.intersect(b) == Interval(-90.0, -80.0)
    assert a.contains(-100.0) and not a.contains(-70.0)
    assert str(a) == "[-110, -80] dBm"


def test_interval_empty_and_disjoint():
    a = Interval(-110.0, -100.0)
    b = Interval(-90.0, -60.0)
    gap = a.intersect(b)
    assert gap.empty
    assert gap.width == 0.0
    assert str(gap) == "(empty)"
    assert FULL_RSRP.intersect(a) == a


def test_a5_interval_helpers():
    config = EventConfig(
        event=EventType.A5, threshold1=-100.0, threshold2=-95.0, hysteresis=2.0
    )
    assert a5_serving_interval(config).hi == -102.0
    assert a5_neighbor_interval(config).lo == -93.0


# ---------------------------------------------------------------------------
# Constructed-snapshot helpers


def _lte_snapshot(gci, channel, city="X", carrier="A", layers=(), events=(),
                  priority=3, utra_layers=()):
    config = LteCellConfig(
        serving=ServingCellConfig(cell_reselection_priority=priority),
        inter_freq_layers=tuple(
            InterFreqLayerConfig(dl_carrier_freq=ch, cell_reselection_priority=pr)
            for ch, pr in layers
        ),
        utra_layers=tuple(utra_layers),
        measurement=MeasurementConfig(events=tuple(events)),
    )
    return CellConfigSnapshot(
        carrier=carrier, gci=gci, rat="LTE", channel=channel, city=city,
        first_seen_ms=0, lte_config=config, meas_config=config.measurement,
    )


def _umts_snapshot(gci, channel=4385, city="X", carrier="A", **overrides):
    return CellConfigSnapshot(
        carrier=carrier, gci=gci, rat="UMTS", channel=channel, city=city,
        first_seen_ms=0, legacy_config=UmtsCellConfig(**overrides),
    )


def _analyze(snapshots, codes=None):
    return GraphAnalyzer().analyze(snapshots, codes=codes)


# ---------------------------------------------------------------------------
# The loop fixture: HC201/HC202 fire, the corrected twin is clean


def test_loop_fixture_reports_hc201_with_cycle_and_interval():
    scenario = loop_fixture(misconfigured=True)
    report = lint_world(scenario.env, scenario.server, graph=True)
    loops = [f for f in report.findings if f.code == "HC201"]
    assert loops, "misconfigured fixture must produce an active-mode loop"
    full_ring = [f for f in loops if f.subject == "LTE:850<->LTE:1975<->LTE:2000"]
    assert len(full_ring) == 1
    message = full_ring[0].message
    # The full cell cycle, hop by hop, closing on the starting cell...
    assert (
        "cell 1 (LTE ch850) -> cell 2 (LTE ch1975) -> "
        "cell 3 (LTE ch2000) -> cell 1 (LTE ch850)" in message
    )
    # ...plus the satisfying RSRP window and the trigger that carries it.
    assert "satisfying RSRP window (-111, -45) dBm" in message
    assert "via A5" in message
    assert full_ring[0].severity == "problem"


def test_loop_fixture_reports_idle_loop_too():
    scenario = loop_fixture(misconfigured=True)
    report = lint_world(scenario.env, scenario.server, graph=True)
    idle = [f for f in report.findings if f.code == "HC202"]
    assert len(idle) == 1
    assert "resel-higher" in idle[0].message
    assert idle[0].subject == "LTE:850<->LTE:1975<->LTE:2000"


def test_corrected_fixture_has_no_graph_findings():
    scenario = loop_fixture(misconfigured=False)
    report = lint_world(scenario.env, scenario.server, graph=True)
    assert [f for f in report.findings if f.code.startswith("HC2")] == []
    assert report.graph_stats is not None
    assert report.graph_stats.cycles_checked > 0  # checked, none feasible


# ---------------------------------------------------------------------------
# HC203 / HC204 on constructed snapshots


def test_hc203_flags_undeployed_target_layer():
    snapshots = [
        _lte_snapshot(1, 850, layers=[(9999, 7)]),
        _lte_snapshot(2, 1975),
    ]
    findings, _ = _analyze(snapshots, codes=["HC203"])
    dead = [f for f in findings if f.subject == "LTE:9999"]
    assert len(dead) == 1
    assert dead[0].gci == 1
    assert "no audited A cell in X deploys" in dead[0].message


def test_hc203_flags_unsatisfiable_trigger_interval():
    # A5 with threshold2 above the reporting ceiling: the neighbor clause
    # can never be met, so the rule is statically dead.
    event = EventConfig(
        event=EventType.A5, threshold1=-60.0, threshold2=-43.0, hysteresis=2.0
    )
    snapshots = [
        _lte_snapshot(1, 850, events=[event]),
        _lte_snapshot(2, 1975),
    ]
    findings, _ = _analyze(snapshots, codes=["HC203"])
    dead = [f for f in findings if f.subject.startswith("dead:A5")]
    assert len(dead) == 1
    assert "can never fire" in dead[0].message


def test_hc204_cross_rat_priority_inversion():
    # The LTE cell defers to UMTS (priority 5 > own 3); the UMTS cell's
    # SIB19 defers back to any EUTRA layer (priority 5 > serving 2).
    snapshots = [
        _lte_snapshot(
            1, 850,
            utra_layers=[InterRatUtraConfig(carrier_freq=4385,
                                            cell_reselection_priority=5)],
        ),
        _umts_snapshot(2, 4385, priority_eutra=5, priority_serving=2),
    ]
    findings, _ = _analyze(snapshots, codes=["HC204"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.code == "HC204"
    assert "LTE ch850" in finding.message and "UMTS ch4385" in finding.message
    assert "cannot be satisfied" in finding.message


def test_hc204_requires_multiple_rats():
    # A same-RAT priority cycle is HC103's business, not HC204's.
    snapshots = [
        _lte_snapshot(1, 850, layers=[(1975, 5)]),
        _lte_snapshot(2, 1975, layers=[(850, 5)]),
    ]
    findings, _ = _analyze(snapshots, codes=["HC204"])
    assert findings == []


# ---------------------------------------------------------------------------
# Determinism: byte-identical reports across runs and worker counts


def test_reports_byte_identical_across_runs_and_workers():
    scenario = loop_fixture(misconfigured=True)

    def render_all(workers):
        report = lint_world(scenario.env, scenario.server, graph=True,
                            workers=workers)
        return (render_text(report, verbose=True), render_json(report),
                render_sarif(report))

    serial_once = render_all(None)
    serial_again = render_all(None)
    pooled = render_all(2)
    assert serial_once == serial_again
    assert serial_once == pooled


# ---------------------------------------------------------------------------
# Incremental re-analysis


def _two_city_population(mutated=False):
    """Two independent components (cities X and Y), one cell mutable."""
    x_priority = 6 if mutated else 5
    return [
        _lte_snapshot(1, 850, city="X", layers=[(1975, x_priority)]),
        _lte_snapshot(2, 1975, city="X", layers=[(850, 5)]),
        _lte_snapshot(3, 850, city="Y", layers=[(1975, 5)]),
        _lte_snapshot(4, 1975, city="Y", layers=[(850, 5)]),
    ]


def test_incremental_reanalysis_touches_only_dirty_component():
    analyzer = GraphAnalyzer()
    first, stats = analyzer.analyze(_two_city_population())
    assert stats.components == 2
    assert stats.components_analyzed == 2 and stats.components_cached == 0

    again, stats = analyzer.analyze(_two_city_population())
    assert stats.components_analyzed == 0 and stats.components_cached == 2
    assert again == first

    mutated, stats = analyzer.analyze(_two_city_population(mutated=True))
    assert stats.components_analyzed == 1 and stats.components_cached == 1


def test_component_partitioning_groups_by_carrier_and_reachability():
    snapshots = [
        _lte_snapshot(1, 850, carrier="A", layers=[(1975, 5)]),
        _lte_snapshot(2, 1975, carrier="A"),
        _lte_snapshot(3, 850, carrier="T"),  # no rules: isolated node
        _lte_snapshot(4, 2000, carrier="T"),
    ]
    components = build_components(snapshots)
    keys = [(c.carrier, c.layers) for c in components]
    # Carrier A's two layers connect via the SIB5 rule; carrier T's two
    # layers share no transition and stay separate components.
    assert len(components) == 3
    assert keys[0][0] == "A" and len(keys[0][1]) == 2
    assert [k[0] for k in keys[1:]] == ["T", "T"]


# ---------------------------------------------------------------------------
# One edge build per (carrier, city) group: components carry their slice


def _population(name):
    if name == "two-city":
        return _two_city_population()
    if name == "d2-world":
        from repro.datasets.d2 import d2_world

        world = d2_world()
        return world_snapshots(world.env, world.server, max_cells_per_carrier=60)
    make = {"loop-fixture": loop_fixture, "dead-zone-fixture": dead_zone_fixture}[name]
    scenario = make(misconfigured=True)
    return world_snapshots(scenario.env, scenario.server)


def _assert_components_carry_exact_edges(snapshots):
    components = build_components(snapshots)
    assert components
    for component in components:
        assert component.edges == tuple(component_edges(component.policies))
        layers = set(component.layers)
        assert all(e.src in layers and e.dst in layers for e in component.edges)


@pytest.mark.parametrize(
    "population", ["loop-fixture", "dead-zone-fixture", "two-city", "d2-world"]
)
def test_component_edges_equal_a_rebuild_from_member_policies(population):
    _assert_components_carry_exact_edges(_population(population))


_CHANNELS = (850, 1975, 2000, 5110, 5780)


@st.composite
def _random_events(draw):
    events = []
    for kind in draw(st.lists(st.sampled_from(("A3", "A4", "A5")), max_size=2)):
        metric = draw(st.sampled_from(("rsrp", "rsrq")))
        hysteresis = draw(st.sampled_from((0.0, 1.0, 3.0)))
        if kind == "A3":
            events.append(EventConfig(
                event=EventType.A3, metric=metric, hysteresis=hysteresis,
                offset=draw(st.sampled_from((-2.0, 0.0, 3.0))),
            ))
        elif kind == "A4":
            events.append(EventConfig(
                event=EventType.A4, metric=metric, hysteresis=hysteresis,
                threshold1=draw(st.sampled_from((-110.0, -95.0))),
            ))
        else:
            events.append(EventConfig(
                event=EventType.A5, metric=metric, hysteresis=hysteresis,
                threshold1=draw(st.sampled_from((-110.0, -95.0, -60.0))),
                threshold2=draw(st.sampled_from((-112.0, -100.0, -43.0))),
            ))
    return events


@st.composite
def _random_populations(draw):
    snapshots = []
    for gci in range(1, draw(st.integers(1, 10)) + 1):
        snapshots.append(_lte_snapshot(
            gci,
            draw(st.sampled_from(_CHANNELS)),
            city=draw(st.sampled_from(("X", "Y"))),
            carrier=draw(st.sampled_from(("A", "T"))),
            layers=draw(st.lists(
                st.tuples(st.sampled_from(_CHANNELS + (9999,)), st.integers(0, 7)),
                max_size=2,
            )),
            events=draw(_random_events()) if draw(st.booleans()) else (),
            priority=draw(st.integers(0, 7)),
        ))
    return snapshots


@settings(max_examples=60, deadline=None)
@given(_random_populations())
@example([  # one group, two components, both with edges
    _lte_snapshot(1, 850, layers=[(1975, 5)]),
    _lte_snapshot(2, 1975),
    _lte_snapshot(3, 2000, layers=[(5110, 2)]),
    _lte_snapshot(4, 5110),
])
def test_component_edges_equal_a_rebuild_on_random_populations(snapshots):
    _assert_components_carry_exact_edges(snapshots)


def test_graph_analysis_builds_each_groups_edges_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return component_edges(*args)

    monkeypatch.setattr(graph_module, "component_edges", counting)
    snapshots = _population("d2-world") + _population("loop-fixture")
    _, stats = GraphAnalyzer().analyze(snapshots)
    groups = {(s.carrier, s.city) for s in snapshots if cell_policy(s) is not None}
    assert stats.components > len(groups)
    assert len(calls) == len(groups)


def test_graph_pass_leaves_no_function_cycles_behind():
    # A recursive closure sits in its own cell: the cycle keeps the walk's
    # sets alive until the cyclic collector runs, which saves it here.
    snapshots = _population("loop-fixture")
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _, stats = GraphAnalyzer().analyze(snapshots)
        gc.collect()
        leaked = [
            obj for obj in gc.garbage
            if inspect.isfunction(obj) and obj.__module__ == graph_module.__name__
        ]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert stats.cycles_checked > 0
    assert leaked == []


def test_world_digest_tracks_content_and_seed():
    a = loop_fixture(misconfigured=True)
    b = loop_fixture(misconfigured=True)
    assert world_digest(a.env, 2018) == world_digest(b.env, 2018)
    assert world_digest(a.env, 2018) != world_digest(a.env, 2019)


# ---------------------------------------------------------------------------
# Preflight integration


def test_preflight_graph_report_memoized_across_servers():
    # The preflight runs no graph pass (`repro lint --graph` is the
    # graph audit), and its report is memoized by world content.
    first_scenario = loop_fixture(misconfigured=True)
    with pytest.warns(ConfigLintWarning):
        first = warn_before_run(first_scenario.env, first_scenario.server, "A")
    assert first.graph_stats is None
    assert first.findings
    # Fresh profile-configured servers over an identical world reuse the
    # finished audit (same object out of the content-digest memo) and
    # still warn.  The fixture's static servers inject configurations
    # the digest cannot see, so they never share it.
    reports = []
    for _ in range(2):
        fresh = loop_fixture(misconfigured=True)
        with pytest.warns(ConfigLintWarning):
            reports.append(warn_before_run(
                fresh.env, ConfigServer(fresh.env, seed=2018), "A"
            ))
    assert reports[1] is reports[0]
    assert reports[0] is not first


def test_graph_codes_in_rules_run_only_when_graph_runs():
    scenario = loop_fixture(misconfigured=True)
    snapshots = world_snapshots(scenario.env, scenario.server)
    from repro.lint import lint_snapshots

    plain = lint_snapshots(snapshots)
    assert "HC201" not in plain.rules_run
    graphed = lint_snapshots(snapshots, graph=True)
    assert {"HC201", "HC202", "HC203", "HC204"} <= set(graphed.rules_run)


# ---------------------------------------------------------------------------
# SARIF structural validation (offline, against the committed subset schema)


def test_sarif_report_validates_against_schema_fixture():
    scenario = loop_fixture(misconfigured=True)
    report = lint_world(scenario.env, scenario.server, graph=True)
    payload = json.loads(render_sarif(report))
    schema = json.loads(SARIF_SUBSET_SCHEMA.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    jsonschema.Draft7Validator(schema).validate(payload)
    ids = {rule["id"] for rule in payload["runs"][0]["tool"]["driver"]["rules"]}
    assert "HC201" in ids


# ---------------------------------------------------------------------------
# Simulator cross-check: the static verdicts match dynamic behavior


def _drive(scenario, seed=3, duration_s=90.0):
    from repro.simulate import DriveSimulator, static_position
    from repro.simulate.traffic import Speedtest

    simulator = DriveSimulator(
        scenario.env, scenario.server, "A", seed=seed, config_lint=False
    )
    trajectory = static_position(scenario.centroid, duration_s=duration_s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulator.run(trajectory, traffic=Speedtest())


def test_simulator_loops_where_hc201_fires():
    scenario = loop_fixture(misconfigured=True)
    report = lint_world(scenario.env, scenario.server, graph=True)
    assert any(f.code == "HC201" for f in report.findings)

    result = _drive(scenario)
    # A stationary device handing off dozens of times is the loop.
    assert len(result.handoffs) > 20
    # It cycles through all three cells, round and round.
    visited = {handoff.target.gci for handoff in result.handoffs}
    assert visited == {1, 2, 3}


def test_simulator_stable_where_graph_is_clean():
    scenario = loop_fixture(misconfigured=False)
    report = lint_world(scenario.env, scenario.server, graph=True)
    assert not any(f.code in ("HC201", "HC202") for f in report.findings)

    result = _drive(scenario)
    assert result.handoffs == []
