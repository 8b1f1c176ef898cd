"""The four end-to-end workloads: set-up, timed body, outputs.

Each workload is what one user CLI invocation pays after its world is
built, at a fixed input size.  ``--seed`` is the carriers'
configuration-profile seed (``config_seed``): the deployment, the
volunteer population, the drive routes and the fleet population keep
their default seeds, so the amount of work in an iteration does not
depend on the seed while every configuration value does.

Three sizes: ``bench`` is what a benchmark run measures, ``smoke`` is
the tests' seconds-long version, and ``full`` is the repository-default
size each ``bench`` body is cut down from, kept runnable so that the
per-layer shares of the two can be compared (see README.md).

Set-up (imports, plus the process-cached world or scenario) is timed
apart from the body.  Lazy per-run costs stay in the body, because
every CLI run pays them again: ``ConfigServer.lte_config`` generation,
the prepared-neighbourhood LRU, the codec caches and the lint preflight
memo all start cold in each iteration's fresh process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.datasets import d1 as d1_module
from repro.datasets import d2 as d2_module
from repro.datasets.store import ConfigSampleStore
from repro.experiments import registry
from repro.experiments.common import DEFAULT_D1_OPTIONS
from repro.lint import engine as lint_engine
from repro.lint import report as lint_report
from repro.rrc.broadcast import ConfigServer
from repro.simulate import fleet as fleet_module
from repro.simulate.scenarios import ScenarioSpec

#: The repository's default configuration seed, and one held out from
#: every calibration; both have recorded output digests.
DEFAULT_SEED = 2018
HELD_OUT_SEED = 2019

D2_DRIVERS = (
    "tab04", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "fig18", "fig19", "fig20", "fig21", "fig22", "ext-policies",
)
D1_DRIVERS = ("fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "ext-instability")
#: fig07 runs its own controlled drives instead of reading D1.
_STANDALONE_DRIVERS = ("fig07",)


@dataclass
class Body:
    """What one timed body produced.

    ``units`` is the workload's work count (samples, UE-ticks or
    cells); ``attempted`` counts work units, drivers and lint passes.
    ``verify`` runs after the clock stops and returns the outputs to
    digest plus the named correctness checks.
    """

    units: int
    attempted: int
    verify: Callable[[], tuple[list[bytes], dict[str, bool]]]


def digest(outputs: list[bytes]) -> str:
    hasher = hashlib.sha256()
    for chunk in outputs:
        hasher.update(hashlib.sha256(chunk).digest())
    return hasher.hexdigest()


def _formatted(results) -> bytes:
    return "\n".join(result.formatted() for result in results).encode()


class D2Crowdsource:
    """D2: collect, crawl and save, reload, then the 14 D2 drivers."""

    name = "d2-crowdsource"

    def __init__(self, seed: int, size: str):
        volunteers = {"smoke": 1, "bench": 8, "full": 35}[size]
        self.options = d2_module.D2Options(
            n_volunteers=volunteers, include_dense=False, config_seed=seed
        )

    def setup(self) -> None:
        d2_module.d2_context(self.options)

    @property
    def env(self):
        return d2_module.d2_context(self.options).env

    def body(self, tracer, workdir: Path) -> Body:
        with tracer.span("datasets.build"):
            build = d2_module.build_d2(self.options)
        path = workdir / "d2.jsonl"
        build.store.save(path)
        reloaded = replace(build, store=ConfigSampleStore.load(path))
        results = [registry.run(exp_id, d2=reloaded) for exp_id in D2_DRIVERS]

        def verify():
            saved = path.read_bytes()
            # JSONL is the store's canonical form (lists reload as tuples).
            again = "".join(sample.to_json() + "\n" for sample in reloaded.store)
            return [saved, _formatted(results)], {"store round trip": again.encode() == saved}

        return Body(
            units=len(reloaded.store),
            attempted=build.n_sessions + len(results),
            verify=verify,
        )


class D1Drives:
    """D1: drive, extract handoffs and save, then the 7 D1 drivers."""

    name = "d1-drives"

    def __init__(self, seed: int, size: str):
        options = replace(DEFAULT_D1_OPTIONS, config_seed=seed)
        if size == "bench":
            # A quarter of the default build with the same mix: carrier
            # A drives exactly the routes it drives in the full build,
            # its highway run included (23 % of the UE-ticks in both).
            options = replace(options, carriers=("A",))
        elif size == "smoke":
            options = replace(
                options, carriers=("A",), active_drives=1, idle_drives=1,
                drive_duration_s=30.0, highway_drives=0,
            )
        self.options = options

    def setup(self) -> None:
        d1_module.d1_scenario(self.options)

    @property
    def env(self):
        return d1_module.d1_scenario(self.options).env

    def body(self, tracer, workdir: Path) -> Body:
        with tracer.span("datasets.build"):
            build = d1_module.build_d1(self.options)
        path = workdir / "d1.jsonl"
        build.store.save(path)
        results = [
            registry.run(exp_id) if exp_id in _STANDALONE_DRIVERS
            else registry.run(exp_id, d1=build)
            for exp_id in D1_DRIVERS
        ]
        return Body(
            units=sum(len(drive.samples) for drive in build.drives),
            attempted=len(build.drives) + len(results),
            verify=lambda: ([path.read_bytes(), _formatted(results)], {}),
        )


class FleetCity:
    """A fleet of UEs over Indianapolis, default population mix."""

    name = "fleet-city"

    def __init__(self, seed: int, size: str):
        n_ues, duration_s = {"smoke": (20, 10.0), "bench": (300, 45.0), "full": (300, 300.0)}[size]
        self.options = fleet_module.FleetOptions(
            scenario=ScenarioSpec(config_seed=seed), n_ues=n_ues, duration_s=duration_s
        )

    def setup(self) -> None:
        self.options.scenario.build()

    @property
    def env(self):
        return self.options.scenario.build().env

    def body(self, tracer, workdir: Path) -> Body:
        options = self.options
        result = fleet_module.run_fleet(options, workers=1)
        # The report ``repro fleet`` writes (wall-clock stays out of it).
        report = {
            "options": {
                "scenario": options.scenario.name,
                "seed": options.scenario.seed,
                "config_seed": options.scenario.config_seed,
                "fleet_seed": options.fleet_seed,
                "n_ues": options.n_ues,
                "duration_s": options.duration_s,
                "tick_ms": options.tick_ms,
                "carriers": list(options.carriers),
                "traffic": options.traffic,
            },
            "aggregates": result.aggregates.to_dict(),
            "ues": [ue.summary_row() for ue in result.ues],
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        return Body(
            units=result.aggregates.total_ticks,
            attempted=len(result.ues),
            verify=lambda: ([text.encode()], {}),
        )


class LintAudit:
    """Static audit of the D2 world: rules, graph and coverage passes."""

    name = "lint-audit"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        # 0: every cell of the world.
        self.max_cells = {"smoke": 10, "bench": 150, "full": 0}[size]

    def setup(self) -> None:
        d2_module.d2_world()

    @property
    def env(self):
        return d2_module.d2_world().env

    def body(self, tracer, workdir: Path) -> Body:
        # A fresh ConfigServer, so every lte_config is generated as in a
        # CLI run.
        report = lint_engine.lint_world(
            self.env, ConfigServer(self.env, seed=self.seed),
            max_cells_per_carrier=self.max_cells, graph=True, coverage=True,
        )
        with tracer.span("lint.report"):
            as_json = lint_report.render_json(report)
            as_sarif = lint_report.render_sarif(report)
        n_findings = len(report.findings)

        def verify():
            checks = {
                "json findings": len(json.loads(as_json)["findings"]) == n_findings,
                "sarif results": len(json.loads(as_sarif)["runs"][0]["results"]) == n_findings,
            }
            return [as_json.encode(), as_sarif.encode()], checks

        return Body(
            units=report.snapshots_audited,
            attempted=6,  # snapshots, rules, graph, coverage, JSON, SARIF
            verify=verify,
        )


WORKLOADS = {w.name: w for w in (D2Crowdsource, D1Drives, FleetCity, LintAudit)}


def probe(name: str, seed: int, size: str) -> dict[str, bool]:
    """Oracle probes, run after the timed window: fast path vs reference.

    Reuses the existing microbenchmarks' oracles unmodified: the scalar
    vs vectorized drive of ``bench_tick_loop`` and the fleet-member vs
    solo-drive check of ``bench_fleet``.  ``seed`` is the probe drive's
    UE seed (d1) or the fleet's configuration seed (fleet).
    """
    if name == D1Drives.name:
        from bench_tick_loop import run_drive

        duration_s = 20.0 if size == "smoke" else 120.0
        scalar, _ = run_drive(False, duration_s, seed)
        vector, _ = run_drive(True, duration_s, seed)
        same = scalar.samples == vector.samples and scalar.diag_log == vector.diag_log
        return {"vectorized drive equals scalar drive": same}
    if name == FleetCity.name:
        from bench_fleet import assert_solo_parity

        try:
            assert_solo_parity(FleetCity(seed, size).options, probe_index=2)
        except AssertionError:
            return {"fleet member equals solo drive": False}
        return {"fleet member equals solo drive": True}
    return {}
