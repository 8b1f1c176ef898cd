"""Tests for the deployment generator."""

import pytest

from repro.cellnet.carrier import CARRIERS, us_carriers
from repro.cellnet.deployment import (
    DeploymentPlan,
    US_CITIES,
    build_us_deployment,
    build_world_deployment,
    city_by_name,
    deploy_city,
    deploy_highway,
)
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT


def test_paper_cities_present():
    names = {c.name for c in US_CITIES}
    assert names == {"Chicago", "LA", "Indianapolis", "Columbus", "Lafayette"}


def test_city_sizes_follow_paper_order():
    """Chicago > LA > Indianapolis > Columbus > Lafayette (cell counts)."""
    rings = [c.rings for c in US_CITIES]
    assert rings == sorted(rings, reverse=True)


def test_city_by_name():
    assert city_by_name("Chicago").country == "US"
    with pytest.raises(KeyError):
        city_by_name("Atlantis")


def test_deploy_city_deterministic():
    plan_a = DeploymentPlan()
    plan_b = DeploymentPlan()
    cells_a = deploy_city(city_by_name("Lafayette"), plan_a, seed=9)
    cells_b = deploy_city(city_by_name("Lafayette"), plan_b, seed=9)
    assert [(c.cell_id, c.channel, c.location) for c in cells_a] == [
        (c.cell_id, c.channel, c.location) for c in cells_b
    ]


def test_deploy_city_seed_changes_layout():
    plan_a = DeploymentPlan()
    plan_b = DeploymentPlan()
    cells_a = deploy_city(city_by_name("Lafayette"), plan_a, seed=9)
    cells_b = deploy_city(city_by_name("Lafayette"), plan_b, seed=10)
    assert [c.location for c in cells_a] != [c.location for c in cells_b]


def test_deploy_city_only_local_carriers():
    plan = DeploymentPlan()
    cells = deploy_city(city_by_name("Seoul"), plan, seed=9)
    carriers = {c.carrier for c in cells}
    assert carriers <= {"KT", "SK"}


def test_cells_carry_city_name():
    plan = DeploymentPlan()
    cells = deploy_city(city_by_name("Lafayette"), plan, seed=9)
    assert all(c.city == "Lafayette" for c in cells)


def test_cdma_only_at_cdma_family_carriers():
    plan = build_us_deployment(seed=9)
    for cell in plan.registry:
        if cell.rat in (RAT.EVDO, RAT.CDMA1X):
            assert cell.carrier in ("V", "S")


def test_lte_dominates_deployment():
    plan = build_us_deployment(seed=9)
    cells = list(plan.registry)
    lte = sum(1 for c in cells if c.rat is RAT.LTE)
    assert lte / len(cells) > 0.6


def test_highway_corridor():
    plan = DeploymentPlan()
    cells = deploy_highway(
        Point(0, 0), Point(20_000, 0), plan, seed=9, carriers=us_carriers()
    )
    assert cells
    for cell in cells:
        assert -2000 <= cell.location.y <= 2000
        assert cell.city == "highway"


def test_world_deployment_scales_with_extra_rings():
    small = build_world_deployment(seed=9, extra_rings=0)
    # Just one extra ring balloons the cell count noticeably.
    big_city = city_by_name("Lafayette")
    plan = DeploymentPlan()
    deploy_city(
        type(big_city)(
            name=big_city.name, country=big_city.country,
            rings=big_city.rings + 2, site_spacing_m=big_city.site_spacing_m,
            origin=big_city.origin,
        ),
        plan,
        seed=9,
    )
    small_lafayette = [c for c in small.registry if c.city == "Lafayette"]
    assert len(plan.registry) > len(small_lafayette)


def test_gci_unique_per_carrier():
    plan = build_us_deployment(seed=9)
    seen = set()
    for cell in plan.registry:
        key = (cell.carrier, cell.cell_id.gci)
        assert key not in seen
        seen.add(key)


def test_world_deployment_covers_all_countries():
    plan = build_world_deployment(seed=9)
    countries_deployed = {
        CARRIERS[c.carrier].country for c in plan.registry
    }
    assert len(countries_deployed) >= 14
