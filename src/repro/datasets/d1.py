"""Dataset D1: handoff instances from Type-II drives.

The paper's D1 holds 14,510 active and 4,263 idle 4G -> 4G handoff
instances from four weeks of driving in three US cities and the
highways between them, across all four top US carriers (speedtest and
constant-rate iPerf primarily on AT&T and T-Mobile).

This builder reproduces the *pipeline* at a configurable scale: it runs
drive simulations, lets MMLab's collector write the diag logs, extracts
instances with the crawler-side logic, and aligns them with the traffic
logs.  ``D1Options.scale`` multiplies the number of drives; the default
build is laptop-sized (hundreds of instances) and the shapes of all
derived figures are stable well below the paper's instance counts.

Drives are independent runs (each seeds its own RNGs from the build
seed and its drive index), so the build fans each drive out as one
:class:`D1DriveUnit` over :mod:`repro.pipeline` workers.  Each unit
extracts its own handoff instances in the worker — the harvest streams
back as rows, not raw logs.  ``D1Options.workers`` says where the
drives run.  A drive's output still depends on which earlier drives
warmed its process's prepared-cell LRU
(:meth:`~repro.cellnet.world.RadioEnvironment.prepared_for`), so a pool
of cold workers can differ from a serial build; see ROADMAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.mmlab import MMLab
from repro.datasets.records import HandoffInstance
from repro.datasets.store import HandoffInstanceStore
from repro.pipeline import WorkUnit, process_cached, resolve_backend
from repro.simulate.runner import DriveResult, DriveSimulator
from repro.simulate.scenarios import DriveScenario, drive_scenario
from repro.simulate.traffic import ConstantRate, NoTraffic, Ping, Speedtest, TrafficModel


@dataclass(frozen=True)
class D1Options:
    """Build options for dataset D1.

    Attributes:
        seed: Deployment seed.
        config_seed: Configuration-profile seed.
        scenario: Scenario name ("indianapolis", "lafayette", "chicago"
            or "tri-city").
        active_drives: Per-carrier number of active (with-traffic)
            drives, before scaling.
        idle_drives: Per-carrier number of idle drives, before scaling.
        drive_duration_s: Length of each drive.
        scale: Multiplies both drive counts (1 = laptop default).
        carriers: Carriers to drive; the paper's speedtest/iPerf runs
            were "primarily in AT&T and T-Mobile only".
        highway_drives: Per-carrier highway runs (90-120 km/h) along a
            corridor out of the city, as in the paper's between-city
            drives.  0 disables the corridor deployment entirely.
        workers: Worker processes for the build (1 = serial in-process).
    """

    seed: int = 7
    config_seed: int = 2018
    scenario: str = "indianapolis"
    active_drives: int = 4
    idle_drives: int = 2
    drive_duration_s: float = 600.0
    scale: float = 1.0
    carriers: tuple[str, ...] = ("A", "T", "V", "S")
    highway_drives: int = 1
    workers: int = 1


def _traffic_for(carrier: str, drive_index: int) -> TrafficModel:
    """The paper's service mix: speedtest/iPerf on A and T, ping on all."""
    if carrier in ("A", "T"):
        cycle = drive_index % 3
        if cycle == 0:
            return Speedtest()
        if cycle == 1:
            return ConstantRate(rate_bps=1_000_000.0)
        return ConstantRate(rate_bps=5_000.0)
    return Ping()


@dataclass
class D1Build:
    """The result of one D1 build."""

    store: HandoffInstanceStore
    scenario: DriveScenario
    drives: list[DriveResult] = field(default_factory=list)


def d1_scenario(options: D1Options) -> DriveScenario:
    """The drive scenario behind ``options``, cached per process."""
    with_highway = options.highway_drives > 0 and options.scenario != "tri-city"
    key = ("d1-scenario", options.scenario, options.seed, options.config_seed, with_highway)
    return process_cached(
        key,
        lambda: drive_scenario(
            options.scenario,
            seed=options.seed,
            config_seed=options.config_seed,
            with_highway=with_highway,
        ),
    )


@dataclass(frozen=True)
class D1DriveResult:
    """What one drive contributes to the build."""

    unit_id: int
    drive: DriveResult
    instances: tuple[HandoffInstance, ...]


@dataclass(frozen=True)
class D1DriveUnit(WorkUnit):
    """One Type-II drive: simulate, log, and extract instances.

    ``kind`` selects the paper's drive modes: "active" (urban with a
    data service), "highway" (corridor run with a data service) or
    "idle" (urban, no traffic).  All RNGs derive from the build seed
    plus the drive's identity, matching the historical serial loop.
    """

    unit_id: int
    options: D1Options
    carrier: str
    kind: str
    drive_index: int

    def run(self) -> D1DriveResult:
        options = self.options
        scenario = d1_scenario(options)
        sim = DriveSimulator(
            scenario.env, scenario.server, self.carrier, seed=options.seed * 13 + 1
        )
        mmlab = MMLab()
        if self.kind == "active":
            rng = np.random.default_rng((options.seed, 0xD1, 1, self.drive_index))
            trajectory = scenario.urban_trajectory(
                rng,
                duration_s=options.drive_duration_s,
                speed_kmh=float(rng.uniform(30.0, 50.0)),
            )
            result = sim.run(
                trajectory,
                _traffic_for(self.carrier, self.drive_index),
                run_index=self.drive_index,
            )
        elif self.kind == "highway":
            rng = np.random.default_rng((options.seed, 0xD1, 3, self.drive_index))
            trajectory = scenario.highway_trajectory(
                rng, speed_kmh=float(rng.uniform(90.0, 120.0))
            )
            result = sim.run(
                trajectory,
                _traffic_for(self.carrier, self.drive_index),
                run_index=2000 + self.drive_index,
            )
        elif self.kind == "idle":
            rng = np.random.default_rng((options.seed, 0xD1, 2, self.drive_index))
            trajectory = scenario.urban_trajectory(
                rng,
                duration_s=options.drive_duration_s,
                speed_kmh=float(rng.uniform(30.0, 50.0)),
            )
            result = sim.run(trajectory, NoTraffic(), run_index=1000 + self.drive_index)
        else:
            raise ValueError(f"unknown drive kind {self.kind!r}")
        if self.kind == "idle":
            instances = mmlab.extract_handoffs(result.diag_log, self.carrier)
            kept = tuple(i for i in instances if i.kind == "idle")
        else:
            instances = mmlab.extract_handoffs(
                result.diag_log,
                self.carrier,
                throughput_series=result.throughput_series(bin_ms=1000),
            )
            kept = tuple(i for i in instances if i.kind == "active")
        return D1DriveResult(unit_id=self.unit_id, drive=result, instances=kept)


def d1_work_units(options: D1Options, scenario: DriveScenario) -> list[D1DriveUnit]:
    """Every drive of the build, in canonical (serial) order."""
    n_active = max(int(round(options.active_drives * options.scale)), 1)
    n_idle = max(int(round(options.idle_drives * options.scale)), 1)
    units: list[D1DriveUnit] = []

    def add(carrier: str, kind: str, drive_index: int) -> None:
        units.append(
            D1DriveUnit(
                unit_id=len(units),
                options=options,
                carrier=carrier,
                kind=kind,
                drive_index=drive_index,
            )
        )

    for carrier in options.carriers:
        for drive_index in range(n_active):
            add(carrier, "active", drive_index)
        if scenario.highway_endpoints is not None:
            for drive_index in range(options.highway_drives):
                add(carrier, "highway", drive_index)
        for drive_index in range(n_idle):
            add(carrier, "idle", drive_index)
    return units


def build_d1(options: D1Options = D1Options()) -> D1Build:
    """Build dataset D1 end-to-end through the device-side pipeline.

    ``options.workers`` says where the drives run: in-process at 1, a
    process pool above.
    """
    scenario = d1_scenario(options)
    store = HandoffInstanceStore()
    build = D1Build(store=store, scenario=scenario)
    units = d1_work_units(options, scenario)
    for result in resolve_backend(options.workers).run(units):
        build.drives.append(result.drive)
        store.extend(result.instances)
    return build
