"""Dataset D2: large-scale configuration samples via crowdsourcing.

The paper's D2 holds 7,996,149 configuration samples from 32,033 unique
cells across 30 carriers in 15 countries, collected by the authors and
35+ volunteers running MMLab Type-I between Oct 2016 and May 2018.

The builder simulates that collection process:

* a world deployment stands in for the carriers' networks;
* each volunteer's sessions visit stops near their home-city anchors;
* at each stop, MMLab's proactive cell switching (Section 3.1) lets the
  phone camp on several nearby cells of the volunteer's carrier and
  record each one's SIB sequence; when the phone happens to have a data
  burst, the serving cell's measConfig is logged too — that is where
  D2's active-state samples come from;
* every session becomes one binary diag log, which MMLab's crawler then
  parses into :class:`~repro.datasets.records.ConfigSample` rows.

Configurations are only ever learned through the logs, and repeated
observations of the same cell across sessions/days carry the temporal
churn the Fig. 13 analysis measures.

Sessions are independent of each other (different volunteers never
share state, and a volunteer's rounds are separately seeded), so the
build fans each session out as one :class:`D2SessionUnit` over
:mod:`repro.pipeline` workers.  Each unit collects *and crawls* its own
log, streaming back ``ConfigSample`` rows instead of raw log bytes —
the archive of binary logs is never materialized.  ``D2Options.workers``
says where the sessions run; sessions take no radio snapshots, so the
result is bit-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cellnet.deployment import City, DeploymentPlan, build_world_deployment
from repro.cellnet.geo import Point
from repro.cellnet.world import RadioEnvironment
from repro.core.crawler import crawl_config_samples
from repro.datasets.records import ConfigSample
from repro.datasets.store import ConfigSampleStore
from repro.datasets.volunteers import Volunteer, volunteer_population
from repro.pipeline import WorkUnit, process_cached, resolve_backend
from repro.rrc.broadcast import ConfigServer
from repro.rrc.diag import DiagWriter


@dataclass(frozen=True)
class D2Options:
    """Build options for dataset D2.

    The defaults give a laptop-scale build (a few thousand cells).
    ``extra_rings=3`` with ``n_volunteers=35`` (``paper_scale_d2_options``)
    builds 6,653 cells and 2.64M samples at config seed 2018, against
    the paper's 32,033 cells and 7,996,149 samples.
    """

    seed: int = 7
    config_seed: int = 2018
    volunteer_seed: int = 11
    n_volunteers: int = 35
    extra_rings: int = 0
    include_dense: bool = True
    coverage_radius_m: float = 1100.0
    cells_per_stop: int = 10
    #: Probability that an observed cell's measConfig gets logged
    #: (the phone had background traffic at that stop).
    active_observation_rate: float = 0.5
    #: Worker processes for the build (1 = serial in-process).  Any
    #: worker count produces bit-identical stores.
    workers: int = 1


@dataclass
class D2Build:
    """The result of one D2 build."""

    store: ConfigSampleStore
    plan: DeploymentPlan
    env: RadioEnvironment
    server: ConfigServer
    n_sessions: int = 0
    n_logs_bytes: int = 0


@dataclass
class D2Context:
    """Shared read-only context of one D2 build (cached per process)."""

    plan: DeploymentPlan
    env: RadioEnvironment
    server: ConfigServer
    volunteers: list[Volunteer]


@dataclass
class D2World:
    """A deployed world plus its configuration oracle."""

    plan: DeploymentPlan
    env: RadioEnvironment
    server: ConfigServer


def d2_world(seed: int = 7, config_seed: int = 2018, extra_rings: int = 0) -> D2World:
    """The deployed world behind a D2 build (cached per process).

    Shared by the dataset builder and ``repro lint``: auditing "the D2
    fleet" means auditing exactly this deployment, and the cache means a
    build followed by an audit (or preflighted simulations over the same
    scenario) constructs the world once.
    """
    key = ("d2-world", seed, config_seed, extra_rings)

    def build() -> D2World:
        plan = build_world_deployment(seed=seed, extra_rings=extra_rings)
        env = RadioEnvironment(plan)
        server = ConfigServer(env, seed=config_seed)
        return D2World(plan=plan, env=env, server=server)

    return process_cached(key, build)


def d2_context(options: D2Options) -> D2Context:
    """The world + volunteer population behind ``options``.

    Cached per process on the fields that shape the context, so the
    parent and each pool worker pay for the deployment exactly once no
    matter how many sessions they execute.
    """
    key = (
        "d2-context",
        options.seed,
        options.config_seed,
        options.volunteer_seed,
        options.n_volunteers,
        options.extra_rings,
        options.include_dense,
    )

    def build() -> D2Context:
        world = d2_world(
            seed=options.seed,
            config_seed=options.config_seed,
            extra_rings=options.extra_rings,
        )
        volunteers = volunteer_population(
            seed=options.volunteer_seed, n_volunteers=options.n_volunteers
        )
        if not options.include_dense:
            volunteers = [v for v in volunteers if not v.dense]
        return D2Context(
            plan=world.plan, env=world.env, server=world.server, volunteers=volunteers
        )

    return process_cached(key, build)


def _dense_stops(city: City, partial: bool) -> list[Point]:
    """Grid of stops for the authors' dense city sweeps (Section 5.4.2).

    Main-road grid 500 m - 1 km apart covering the whole city (or half
    the extent for the partially covered big cities).
    """
    extent = city.rings * city.site_spacing_m * (0.45 if partial else 0.8)
    stops = []
    x = -extent
    step = 850.0
    while x <= extent:
        y = -extent
        while y <= extent:
            stops.append(city.origin.offset(x, y))
            y += step
        x += step
    return stops


def _collect_session(
    env: RadioEnvironment,
    server: ConfigServer,
    volunteer: Volunteer,
    stops: list[Point],
    day: float,
    options: D2Options,
    rng: np.random.Generator,
) -> bytes:
    """One collection session -> one binary diag log."""
    writer = DiagWriter.in_memory()
    t_ms = 0
    seen: set = set()
    for stop in stops:
        cells = env.cells_near(
            stop, carrier=volunteer.carrier, radius_m=options.coverage_radius_m
        )
        cells.sort(key=lambda c: (c.location.distance_to(stop), c.cell_id))
        fresh = [c for c in cells if c.cell_id not in seen]
        for cell in fresh[: options.cells_per_stop]:
            seen.add(cell.cell_id)
            for message in server.sib_messages(cell, obs_rng=rng, days_since_first=day):
                writer.write(t_ms, message)
                t_ms += 20
            if cell.rat.value == "LTE" and rng.random() < options.active_observation_rate:
                writer.write(t_ms, server.connection_reconfiguration(cell, obs_rng=rng))
                t_ms += 20
        t_ms += 5_000
    return writer.getvalue()


@dataclass(frozen=True)
class D2SessionResult:
    """What one collection session contributes to the build."""

    unit_id: int
    n_log_bytes: int
    samples: tuple[ConfigSample, ...]


@dataclass(frozen=True)
class D2SessionUnit(WorkUnit):
    """One volunteer session: collect a diag log and crawl it.

    Self-seeded from ``(options.seed, 0xD2, volunteer_id, round_index)``
    exactly as the historical serial loop was, so the session's samples
    do not depend on which process executes it.
    """

    unit_id: int
    options: D2Options
    volunteer_index: int
    round_index: int

    def run(self) -> D2SessionResult:
        context = d2_context(self.options)
        volunteer = context.volunteers[self.volunteer_index]
        session = volunteer.sessions[self.round_index]
        options = self.options
        rng = np.random.default_rng(
            (options.seed, 0xD2, volunteer.volunteer_id, self.round_index)
        )
        if volunteer.dense:
            partial = volunteer.city.name in ("Chicago", "LA")
            stops = _dense_stops(volunteer.city, partial)
            # Each round covers a subset of the grid (real drives do
            # not retrace every road every time), which keeps the
            # per-cell sample counts near the paper's distribution.
            stops = [s for s in stops if rng.random() < 0.6]
        else:
            stops = [
                session.anchor.offset(
                    float(rng.uniform(-1500.0, 1500.0)),
                    float(rng.uniform(-1500.0, 1500.0)),
                )
                for _ in range(session.n_stops)
            ]
        log = _collect_session(
            context.env, context.server, volunteer, stops, session.day, options, rng
        )
        samples = crawl_config_samples(
            log, observed_day=session.day, round_index=self.round_index
        )
        return D2SessionResult(
            unit_id=self.unit_id, n_log_bytes=len(log), samples=tuple(samples)
        )


def d2_work_units(options: D2Options) -> list[D2SessionUnit]:
    """Every session of the build, in canonical (serial) order."""
    context = d2_context(options)
    units: list[D2SessionUnit] = []
    for volunteer_index, volunteer in enumerate(context.volunteers):
        for round_index in range(len(volunteer.sessions)):
            units.append(
                D2SessionUnit(
                    unit_id=len(units),
                    options=options,
                    volunteer_index=volunteer_index,
                    round_index=round_index,
                )
            )
    return units


def build_d2(options: D2Options = D2Options()) -> D2Build:
    """Build dataset D2 end-to-end through the device-side pipeline.

    ``options.workers`` says where the sessions run: in-process at 1, a
    process pool above.
    """
    context = d2_context(options)
    store = ConfigSampleStore()
    build = D2Build(
        store=store, plan=context.plan, env=context.env, server=context.server
    )
    units = d2_work_units(options)
    for result in resolve_backend(options.workers).run(units):
        build.n_sessions += 1
        build.n_logs_bytes += result.n_log_bytes
        store.extend(result.samples)
    return build
