"""MMLab's server-side orchestration (paper Fig. 4).

The measurement infrastructure has two halves: participating devices
running the MMLab app, and MMLab servers that (1) push experimentation
"patches" to devices on the fly, (2) collect the resulting logs, and
(3) feed configuration characterization and performance assessment.

``MMLabServer`` reproduces that control loop over simulated devices:

* **register** a participant (a carrier subscription in some scenario);
* **push** an :class:`ExperimentPatch` — a Type-I collection walk or a
  Type-II guided drive ("we run experiments around certain cells or
  routes with configurations of interest");
* **execute** pending patches; every run's diag log lands in the
  server's archive.  Execution goes through :mod:`repro.pipeline`:
  each queued patch becomes one :class:`ServerPatchUnit`, so a server
  with ``workers > 1`` runs participants' patches concurrently while
  the archive keeps the exact serial order;
* **harvest** the archive into configuration samples and handoff
  instances, ready for the analysis toolkit.  The ``iter_*`` harvesters
  crawl log-by-log, so consumers can stream rows into a store without
  a second full-archive materialization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.collector import MMLabCollector
from repro.core.crawler import crawl_config_samples
from repro.core.handoffs import extract_handoff_instances
from repro.core.scanner import proactive_scan
from repro.datasets.records import ConfigSample, HandoffInstance
from repro.pipeline import WorkUnit, resolve_backend
from repro.simulate.mobility import Trajectory
from repro.simulate.runner import DriveSimulator
from repro.simulate.scenarios import DriveScenario, ScenarioSpec
from repro.simulate.traffic import TrafficModel
from repro.ue.device import UserEquipment


@dataclass(frozen=True)
class ExperimentPatch:
    """One experiment spec the server pushes to a participant.

    Attributes:
        patch_id: Server-assigned identifier.
        kind: "type1" (configuration collection at given stops) or
            "type2" (guided drive with a data service).
        stops: Scan locations for Type-I patches.
        trajectory: Drive path for Type-II patches.
        traffic: Data service for Type-II patches.
        observed_day: Logical collection day recorded on the samples.
    """

    patch_id: int
    kind: str
    stops: tuple = ()
    trajectory: Trajectory | None = None
    traffic: TrafficModel | None = None
    observed_day: float = 0.0


@dataclass
class Participant:
    """One registered device."""

    participant_id: int
    carrier: str
    pending: deque[ExperimentPatch] = field(default_factory=deque)


@dataclass
class CollectedLog:
    """One harvested run: who ran what, and the resulting log."""

    participant_id: int
    carrier: str
    patch: ExperimentPatch
    log_bytes: bytes
    throughput_series: list = field(default_factory=list)


def execute_patch(
    scenario: DriveScenario,
    seed: int,
    participant_id: int,
    carrier: str,
    patch: ExperimentPatch,
) -> CollectedLog:
    """Run one patch on one participant's device; pure in its inputs.

    Both the in-process path and :class:`ServerPatchUnit` call this, so
    the archive content is identical no matter where a patch executes.
    """
    if patch.kind == "type1":
        ue = UserEquipment(
            scenario.env, scenario.server, carrier,
            seed=seed * 10_000 + participant_id * 100 + patch.patch_id,
            sib_obs_rng=np.random.default_rng((seed, participant_id, patch.patch_id)),
        )
        ue.days_since_epoch = patch.observed_day
        collector = MMLabCollector(mode="type1")
        ue.add_listener(collector)
        t_ms = 0
        for stop in patch.stops:
            proactive_scan(ue, stop, start_ms=t_ms)
            t_ms += 60_000
        return CollectedLog(
            participant_id=participant_id,
            carrier=carrier,
            patch=patch,
            log_bytes=collector.log_bytes(),
        )
    if patch.kind == "type2":
        sim = DriveSimulator(
            scenario.env, scenario.server, carrier,
            seed=seed * 101 + participant_id,
        )
        result = sim.run(patch.trajectory, patch.traffic, run_index=patch.patch_id)
        return CollectedLog(
            participant_id=participant_id,
            carrier=carrier,
            patch=patch,
            log_bytes=result.diag_log,
            throughput_series=result.throughput_series(bin_ms=1000),
        )
    raise ValueError(f"unknown patch kind {patch.kind!r}")


class ServerPatchUnit(WorkUnit):
    """One queued patch as a pipeline work unit.

    Spec-built scenarios (anything from :func:`drive_scenario`) cross
    process boundaries as their :class:`ScenarioSpec`; the live scenario
    object is dropped on pickling and rebuilt (process-cached) in the
    worker.  Hand-assembled scenarios without a spec only run on a
    serial (``workers=1``) server.
    """

    def __init__(
        self,
        unit_id: int,
        seed: int,
        participant_id: int,
        carrier: str,
        patch: ExperimentPatch,
        spec: ScenarioSpec | None = None,
        scenario: DriveScenario | None = None,
    ):
        self.unit_id = unit_id
        self.seed = seed
        self.participant_id = participant_id
        self.carrier = carrier
        self.patch = patch
        self.spec = spec
        self.scenario = scenario

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if state["spec"] is not None:
            # Workers rebuild from the spec; never ship a live world.
            state["scenario"] = None
        return state

    def run(self) -> CollectedLog:
        scenario = self.scenario
        if scenario is None:
            if self.spec is None:
                raise RuntimeError(
                    "ServerPatchUnit has neither a scenario nor a spec; "
                    "scenarios without a ScenarioSpec only run with workers=1"
                )
            scenario = self.spec.build()
        return execute_patch(
            scenario, self.seed, self.participant_id, self.carrier, self.patch
        )


class MMLabServer:
    """Coordinates participants, patches and log harvesting.

    Args:
        scenario: The world the participants live in.
        seed: Seeds every patch execution (combined with participant
            and patch ids).
        workers: Worker processes that execute pending patches
            (1 = serial in-process).
    """

    def __init__(self, scenario: DriveScenario, seed: int = 0, workers: int = 1):
        self.scenario = scenario
        self.seed = seed
        self.workers = workers
        self._participants: dict[int, Participant] = {}
        self._next_participant = 0
        self._next_patch = 0
        self.archive: list[CollectedLog] = []

    # -- enrolment and scheduling ----------------------------------------

    def register(self, carrier: str) -> int:
        """Enrol a new participant; returns its id."""
        participant_id = self._next_participant
        self._next_participant += 1
        self._participants[participant_id] = Participant(
            participant_id=participant_id, carrier=carrier
        )
        return participant_id

    def push_type1(self, participant_id: int, stops, observed_day: float = 0.0) -> int:
        """Queue a Type-I collection patch (scan at each stop)."""
        patch = ExperimentPatch(
            patch_id=self._next_patch, kind="type1", stops=tuple(stops),
            observed_day=observed_day,
        )
        self._next_patch += 1
        self._participants[participant_id].pending.append(patch)
        return patch.patch_id

    def push_type2(
        self, participant_id: int, trajectory: Trajectory, traffic: TrafficModel,
        observed_day: float = 0.0,
    ) -> int:
        """Queue a Type-II guided drive."""
        patch = ExperimentPatch(
            patch_id=self._next_patch, kind="type2", trajectory=trajectory,
            traffic=traffic, observed_day=observed_day,
        )
        self._next_patch += 1
        self._participants[participant_id].pending.append(patch)
        return patch.patch_id

    def pending_count(self, participant_id: int) -> int:
        return len(self._participants[participant_id].pending)

    # -- execution -----------------------------------------------------------

    def _drain_units(self, participant_ids: list[int]) -> list[ServerPatchUnit]:
        """Dequeue every pending patch as work units, in FIFO order."""
        units: list[ServerPatchUnit] = []
        for participant_id in participant_ids:
            participant = self._participants[participant_id]
            while participant.pending:
                patch = participant.pending.popleft()
                units.append(
                    ServerPatchUnit(
                        unit_id=len(units),
                        seed=self.seed,
                        participant_id=participant.participant_id,
                        carrier=participant.carrier,
                        patch=patch,
                        spec=self.scenario.spec,
                        scenario=self.scenario,
                    )
                )
        return units

    def _execute(self, units: list[ServerPatchUnit]) -> int:
        self.archive.extend(resolve_backend(self.workers).run(units))
        return len(units)

    def run_pending(self, participant_id: int) -> int:
        """Execute the participant's queued patches; returns run count."""
        return self._execute(self._drain_units([participant_id]))

    def run_all_pending(self) -> int:
        """Execute every participant's queue as one batch of units."""
        return self._execute(self._drain_units(sorted(self._participants)))

    # -- harvesting ------------------------------------------------------------

    def iter_config_samples(self) -> Iterator[ConfigSample]:
        """Stream configuration samples, crawling the archive log-by-log."""
        for log in self.archive:
            yield from crawl_config_samples(
                log.log_bytes,
                observed_day=log.patch.observed_day,
                round_index=log.patch.patch_id,
            )

    def iter_handoff_instances(self) -> Iterator[HandoffInstance]:
        """Stream handoff instances from Type-II runs, log-by-log."""
        for log in self.archive:
            if log.patch.kind != "type2":
                continue
            yield from extract_handoff_instances(
                log.log_bytes,
                log.carrier,
                throughput_series=log.throughput_series,
            )

    def harvest_config_samples(self) -> list[ConfigSample]:
        """All configuration samples crawled from the archive."""
        return list(self.iter_config_samples())

    def harvest_handoff_instances(self) -> list[HandoffInstance]:
        """All handoff instances extracted from Type-II runs."""
        return list(self.iter_handoff_instances())
