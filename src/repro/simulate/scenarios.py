"""Canned measurement scenarios.

The paper's Type-II experiments cover three US cities (Chicago,
Indianapolis, Lafayette) and the highways between them.  A
:class:`DriveScenario` bundles a deployment, its radio environment and
configuration server for one of those settings, so examples, dataset
builders and benchmarks all start from the same reproducible world.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cellnet.carrier import us_carriers
from repro.cellnet.deployment import (
    City,
    DeploymentPlan,
    city_by_name,
    deploy_city,
    deploy_highway,
)
from repro.cellnet.geo import Point
from repro.cellnet.world import RadioEnvironment
from repro.pipeline.context import process_cached
from repro.rrc.broadcast import ConfigServer
from repro.simulate.mobility import Trajectory, grid_drive, highway_drive

#: The Type-II cities of the paper (Section 4 experimental settings).
TYPE2_CITIES = ("Chicago", "Indianapolis", "Lafayette")

#: Carriers every drive scenario deploys.
SCENARIO_CARRIERS = tuple(carrier.acronym for carrier in us_carriers())


@dataclass(frozen=True)
class ScenarioSpec:
    """The picklable recipe of a :func:`drive_scenario` world.

    Work units carry the spec instead of the scenario itself: a worker
    process rebuilds (and caches) the identical world from the recipe,
    so one scenario crosses process boundaries as a few ints and a
    string.
    """

    name: str = "indianapolis"
    seed: int = 7
    config_seed: int = 2018
    with_highway: bool = False

    def build(self) -> "DriveScenario":
        """The scenario this spec describes, cached per process."""
        return process_cached(
            ("drive-scenario", self),
            lambda: drive_scenario(
                self.name,
                seed=self.seed,
                config_seed=self.config_seed,
                with_highway=self.with_highway,
            ),
        )


@dataclass
class DriveScenario:
    """One ready-to-drive world: deployment + environment + configs."""

    name: str
    cities: list[City]
    plan: DeploymentPlan
    env: RadioEnvironment
    server: ConfigServer
    highway_endpoints: tuple[Point, Point] | None = None
    #: Recipe to rebuild this scenario in another process; ``None`` for
    #: hand-assembled scenarios, which then only run with ``workers=1``.
    spec: ScenarioSpec | None = None

    def urban_trajectory(
        self, rng: np.random.Generator, city_name: str | None = None,
        duration_s: float = 600.0, speed_kmh: float = 40.0,
    ) -> Trajectory:
        """A local drive in one of the scenario's cities."""
        city = self.cities[0]
        if city_name is not None:
            city = next(c for c in self.cities if c.name == city_name)
        return grid_drive(city, rng, duration_s=duration_s, speed_kmh=speed_kmh)

    def highway_trajectory(
        self, rng: np.random.Generator, speed_kmh: float = 105.0
    ) -> Trajectory:
        """A highway run along the scenario's corridor (if deployed)."""
        if self.highway_endpoints is None:
            raise ValueError(f"scenario {self.name!r} has no highway corridor")
        start, end = self.highway_endpoints
        return highway_drive(start, end, rng, speed_kmh=speed_kmh)


def scenario_cities(name: str) -> list[City]:
    """The cities drive scenario ``name`` deploys.

    ``"tri-city"`` is the three Type-II cities; any other name is one
    catalogued city, lower-case.  Raises ``ValueError`` for a name that
    names no scenario.
    """
    if name == "tri-city":
        return [city_by_name(c) for c in TYPE2_CITIES]
    try:
        return [city_by_name(name.capitalize())]
    except KeyError:
        raise ValueError(f"unknown drive scenario {name!r}") from None


def drive_scenario(
    name: str = "indianapolis",
    seed: int = 7,
    config_seed: int = 2018,
    with_highway: bool = False,
) -> DriveScenario:
    """Build a Type-II scenario.

    Args:
        name: One of "chicago", "indianapolis", "lafayette" (single
            city) or "tri-city" (all three plus a highway corridor).
        seed: Deployment seed.
        config_seed: Configuration-profile seed.
        with_highway: Deploy a highway corridor out of the single city.
    """
    carriers = us_carriers()
    plan = DeploymentPlan()
    cities = scenario_cities(name)
    if name == "tri-city":
        for city in cities:
            deploy_city(city, plan, seed, carriers=carriers)
        start = cities[1].origin  # Indianapolis -> Lafayette corridor.
        corridor_start = start.offset(cities[1].rings * cities[1].site_spacing_m, 0.0)
        corridor_end = corridor_start.offset(40_000.0, 0.0)
        deploy_highway(corridor_start, corridor_end, plan, seed, carriers, name="I-65")
        endpoints = (corridor_start, corridor_end)
    else:
        city = cities[0]
        deploy_city(city, plan, seed, carriers=carriers)
        endpoints = None
        if with_highway:
            edge = city.origin.offset(city.rings * city.site_spacing_m, 0.0)
            far = edge.offset(40_000.0, 0.0)
            deploy_highway(edge, far, plan, seed, carriers, name=f"{city.name}-hwy")
            endpoints = (edge, far)
    env = RadioEnvironment(plan)
    server = ConfigServer(env, seed=config_seed)
    return DriveScenario(
        name=name,
        cities=cities,
        plan=plan,
        env=env,
        server=server,
        highway_endpoints=endpoints,
        spec=ScenarioSpec(
            name=name, seed=seed, config_seed=config_seed, with_highway=with_highway
        ),
    )
