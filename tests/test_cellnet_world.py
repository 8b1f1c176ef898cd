"""Tests for the radio environment."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.deployment import DeploymentPlan
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT
from repro.cellnet.world import RadioEnvironment
from repro.config.profiles import ConfigContext
from repro.rrc.broadcast import ConfigServer


def test_cells_near_filters(env, scenario):
    origin = scenario.cities[0].origin
    all_near = env.cells_near(origin, radius_m=2000.0)
    att = env.cells_near(origin, carrier="A", radius_m=2000.0)
    lte = env.cells_near(origin, carrier="A", rat=RAT.LTE, radius_m=2000.0)
    assert len(all_near) >= len(att) >= len(lte) > 0
    assert all(c.carrier == "A" for c in att)
    assert all(c.rat is RAT.LTE for c in lte)


def test_cells_near_radius_respected(env, scenario):
    origin = scenario.cities[0].origin
    for cell in env.cells_near(origin, radius_m=1500.0):
        assert cell.location.distance_to(origin) <= 1500.0


def test_measure_all_sorted_strongest_first(env, scenario):
    origin = scenario.cities[0].origin
    measurements = env.measure_all(origin, "A")
    rsrps = [m.rsrp_dbm for m in measurements]
    assert rsrps == sorted(rsrps, reverse=True)


def test_strongest_cell(env, scenario):
    origin = scenario.cities[0].origin
    best = env.strongest_cell(origin, "A")
    assert best is not None
    measurements = env.measure_all(origin, "A")
    assert best.cell_id == measurements[0].cell.cell_id


def test_snapshot_matches_measure_all(env, scenario):
    origin = scenario.cities[0].origin
    snap = env.snapshot(origin, "A")
    for cell in snap.cells[:10]:
        direct = env.radio.rsrp_dbm(cell, origin)
        assert snap.rsrp(cell) == pytest.approx(direct)


def test_snapshot_metric_arrays_consistent(env, scenario):
    origin = scenario.cities[0].origin
    snap = env.snapshot(origin, "A")
    rsrp, rsrq, sinr = snap.metric_arrays()
    assert len(rsrp) == len(snap.cells)
    for i, cell in enumerate(snap.cells[:8]):
        m = snap.measure(cell)
        assert m.rsrp_dbm == pytest.approx(float(rsrp[i]))
        assert m.rsrq_db == pytest.approx(float(rsrq[i]), abs=1e-6)
        assert m.sinr_db == pytest.approx(float(sinr[i]), abs=1e-6)


def test_snapshot_cache_is_location_stable(env, scenario):
    origin = scenario.cities[0].origin
    a = env.snapshot(origin, "A")
    b = env.snapshot(origin.offset(1.0, 0.0), "A")
    # Same 200 m grid square: the same prepared cell list is reused.
    assert [c.cell_id for c in a.cells] == [c.cell_id for c in b.cells]


def test_snapshot_strongest_by_rat(env, scenario):
    origin = scenario.cities[0].origin
    snap = env.snapshot(origin, "A")
    best_lte = snap.strongest(rat=RAT.LTE)
    assert best_lte is not None and best_lte.rat is RAT.LTE


def test_co_channel_interferers_same_channel_only(env, scenario):
    origin = scenario.cities[0].origin
    cell = env.cells_near(origin, carrier="A", rat=RAT.LTE)[0]
    for interferer in env.co_channel_interferers(cell, origin):
        assert interferer.channel == cell.channel
        assert interferer.rat is cell.rat
        assert interferer.cell_id != cell.cell_id


def _brute_near(env, location, radius, carrier=None, rat=None):
    return sorted(
        (
            c
            for c in env.registry
            if c.location.distance_to(location) <= radius
            and (carrier is None or c.carrier == carrier)
            and (rat is None or c.rat is rat)
        ),
        key=lambda c: c.cell_id,
    )


def _query_points(scenario, n, seed=11):
    rng = np.random.default_rng(seed)
    cells = scenario.plan.registry.all_cells()
    points = []
    for _ in range(n):
        anchor = cells[int(rng.integers(len(cells)))].location
        points.append(anchor.offset(*rng.uniform(-2500.0, 2500.0, size=2)))
    return points


def test_co_channel_interferers_match_bruteforce(env, scenario):
    """co_channel_interferers uses the same index as cells_near and
    returns exactly the brute-force same-RAT, same-channel set."""
    origin = scenario.cities[0].origin
    queries = [(origin, cell) for cell in env.cells_near(origin, carrier="A")[:5]]
    for location in _query_points(scenario, 12, seed=3):
        queries += [(location, cell) for cell in env.cells_near(location, radius_m=2000.0)[::7]]
    for location, cell in queries:
        expected = [
            c
            for c in _brute_near(env, location, env.audible_radius_m)
            if c.rat is cell.rat
            and c.channel == cell.channel
            and c.cell_id != cell.cell_id
        ]
        assert env.co_channel_interferers(cell, location) == expected


def _fresh_env(scenario, cache_size):
    from repro.cellnet.world import RadioEnvironment

    env = RadioEnvironment(scenario.plan)
    env.snapshot_cache_size = cache_size
    return env


def _far_apart_points(scenario, n):
    origin = scenario.cities[0].origin
    # 400 m apart: each lands in its own 200 m snapshot-cache square.
    return [origin.offset(400.0 * i, 0.0) for i in range(n)]


def test_snapshot_cache_evicts_least_recently_used(scenario):
    env = _fresh_env(scenario, cache_size=2)
    a, b, c = _far_apart_points(scenario, 3)
    env.snapshot(a, "A")
    env.snapshot(b, "A")
    key_a, key_b = list(env._snapshot_cache)
    env.snapshot(c, "A")
    # Oldest entry (a) evicted, not the whole cache.
    assert key_a not in env._snapshot_cache
    assert key_b in env._snapshot_cache
    assert len(env._snapshot_cache) == 2


def test_snapshot_cache_hit_refreshes_entry(scenario):
    env = _fresh_env(scenario, cache_size=2)
    a, b, c = _far_apart_points(scenario, 3)
    env.snapshot(a, "A")
    env.snapshot(b, "A")
    key_a, key_b = list(env._snapshot_cache)
    env.snapshot(a, "A")  # Hit: a becomes most recently used.
    env.snapshot(c, "A")  # Evicts b, the now-least-recent entry.
    assert key_a in env._snapshot_cache
    assert key_b not in env._snapshot_cache


def test_snapshot_cache_hit_reuses_prepared(scenario):
    env = _fresh_env(scenario, cache_size=8)
    origin = scenario.cities[0].origin
    first = env.snapshot(origin, "A")
    second = env.snapshot(origin.offset(1.0, 0.0), "A")
    assert second.prepared is first.prepared


def test_get_cell_roundtrip(env, scenario):
    cell = next(iter(scenario.plan.registry))
    assert env.get_cell(cell.cell_id) is cell


def test_cells_near_matches_bruteforce_scan(env, scenario):
    """The cell index returns exactly a distance_to scan of the
    registry, in cell_id order, with and without filters; an unknown
    carrier gets no cells."""
    carriers = sorted({c.carrier for c in env.registry})
    radii = (1500.0, 2750.0, 4000.0, 6000.0)
    for i, location in enumerate(_query_points(scenario, 24)):
        radius = radii[i % len(radii)]
        for carrier in [None, *carriers, "no-such-carrier"]:
            for rat in (None, RAT.LTE, RAT.UMTS):
                assert env.cells_near(
                    location, carrier=carrier, rat=rat, radius_m=radius
                ) == _brute_near(env, location, radius, carrier, rat)


def test_cells_near_radius_edge_is_inclusive(env, scenario):
    """A radius set exactly to a cell's distance keeps that cell (the
    ``<=`` edge), one ulp less drops it, and membership still equals
    the brute-force scan."""
    for location in _query_points(scenario, 8, seed=5):
        for k, cell in enumerate(_brute_near(env, location, env.audible_radius_m)):
            radius = cell.location.distance_to(location)
            near = env.cells_near(location, carrier=cell.carrier, radius_m=radius)
            assert cell in near
            below = float(np.nextafter(radius, 0.0))
            assert cell not in env.cells_near(location, carrier=cell.carrier, radius_m=below)
            if k % 25 == 0:
                assert near == _brute_near(env, location, radius, cell.carrier)
                assert env.cells_near(location, radius_m=radius) == _brute_near(
                    env, location, radius
                )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="prepared_for builds a grid square's cell set from the square's "
    "first query point, so the set depends on query order (ROADMAP open item)",
)
def test_prepared_set_independent_of_query_order(scenario):
    # Opposite corners of the 200 m grid square around the city origin,
    # queried in opposite orders on two fresh environments.
    origin = scenario.cities[0].origin
    low, high = origin.offset(-99.0, -99.0), origin.offset(99.0, 99.0)
    first = RadioEnvironment(scenario.plan)
    second = RadioEnvironment(scenario.plan)
    first.prepared_for(low, "A")
    assert first.prepared_for(high, "A").cells == second.prepared_for(high, "A").cells


#: Channels of the random worlds below, few per RAT so that carriers
#: share some and not others; EVDO and CDMA1X channels map onto the same
#: band classes (0 and 1), so their band numbers collide across RATs.
_WORLD_CHANNELS = {
    RAT.LTE: (850, 1975, 5110, 9820),
    RAT.UMTS: (4385, 4435, 9800),
    RAT.GSM: (128, 190, 600),
    RAT.EVDO: (50, 900),
    RAT.CDMA1X: (75, 1000),
}
_CONTEXT_RADIUS_M = 4000.0
_CITIES = ("Gary", "Peoria")


@st.composite
def _worlds(draw):
    """A small world: 2-5 carriers, every RAT, random and edge sites.

    Besides random sites, cells sit at exactly the context radius from
    the origin site and one ulp inside and outside it, and one carrier
    has two co-located cells in two cities.
    """
    carriers = draw(st.lists(st.sampled_from("ABCDE"), min_size=2, max_size=5, unique=True))
    coordinates = st.floats(min_value=-6000.0, max_value=6000.0, allow_nan=False)
    ulp_below = float(np.nextafter(_CONTEXT_RADIUS_M, 0.0))
    ulp_above = float(np.nextafter(_CONTEXT_RADIUS_M, np.inf))
    sites = [Point(0.0, 0.0), Point(_CONTEXT_RADIUS_M, 0.0), Point(0.0, ulp_below),
             Point(-ulp_above, 0.0), Point(2400.0, -3200.0)]
    sites += [Point(draw(coordinates), draw(coordinates)) for _ in range(draw(st.integers(1, 5)))]
    layers = st.sampled_from([(rat, ch) for rat, chs in _WORLD_CHANNELS.items() for ch in chs])
    cells = [
        (site, draw(st.sampled_from(carriers)), *draw(layers), draw(st.sampled_from(_CITIES)))
        for site in sites
        for _ in range(draw(st.integers(1, 4)))
    ]
    for rat, channels in _WORLD_CHANNELS.items():
        cells.append((draw(st.sampled_from(sites)), draw(st.sampled_from(carriers)), rat,
                      draw(st.sampled_from(channels)), draw(st.sampled_from(_CITIES))))
    site, (rat, channel) = draw(st.sampled_from(sites)), draw(layers)
    cells += [(site, carriers[0], rat, channel, city) for city in _CITIES]
    plan = DeploymentPlan()
    for location, carrier, rat, channel, city in cells:
        gci = plan.next_gci(carrier)
        plan.registry.add(Cell(
            cell_id=CellId(carrier, gci), rat=rat, channel=channel, pci=gci % 504,
            location=location, city=city,
        ))
    return plan, carriers


def _brute_layers(env, location, carrier, radius):
    channels: dict = {}
    for c in _brute_near(env, location, radius, carrier):
        channels.setdefault(c.rat, set()).add(c.channel)
    return {rat: tuple(sorted(values)) for rat, values in channels.items()}


def _scan_context(env, cell):
    """The per-cell context formula: a neighbour scan and one set
    comprehension per layer kind."""
    nearby = _brute_near(env, cell.location, _CONTEXT_RADIUS_M, cell.carrier)
    return ConfigContext(
        city=cell.city,
        lte_channels=tuple(sorted({c.channel for c in nearby if c.rat is RAT.LTE})),
        utra_channels=tuple(sorted({c.channel for c in nearby if c.rat is RAT.UMTS})),
        geran_channels=tuple(sorted({c.channel for c in nearby if c.rat is RAT.GSM})),
        cdma_bands=tuple(sorted({
            c.band_number for c in nearby if c.rat in (RAT.EVDO, RAT.CDMA1X)
        })),
    )


@settings(max_examples=60, deadline=None)
@given(world=_worlds())
def test_layer_channels_and_contexts_match_a_scan(world):
    """On random small worlds the per-RAT channel query equals a
    ``distance_to`` scan (radius edges included: each distance to
    another cell, and one ulp either side of it), and every cell's
    context, memoized per site, equals the per-cell scan formula."""
    plan, carriers = world
    env = RadioEnvironment(plan)
    cells = plan.registry.all_cells()
    for location in sorted({c.location for c in cells}, key=lambda p: (p.x, p.y)):
        radii = {_CONTEXT_RADIUS_M}
        for other in cells[:6]:
            d = other.location.distance_to(location)
            radii |= {d, float(np.nextafter(d, 0.0)), float(np.nextafter(d, np.inf))}
        for carrier in [*carriers, "no-such-carrier"]:
            for radius in sorted(radii):
                assert env.layer_channels(location, carrier, radius) == _brute_layers(
                    env, location, carrier, radius
                )
    server = ConfigServer(env)
    for cell in cells:
        assert server.context_for(cell) == _scan_context(env, cell), cell
