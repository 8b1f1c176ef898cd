"""Command-line interface.

Lets a user regenerate any of the paper's tables/figures without
writing code::

    python -m repro list
    python -m repro run fig06
    python -m repro run fig06 --scale 2      # bigger D1 build
    python -m repro run tab04 fig11 fig22    # several at once
    python -m repro run tab04 --workers 4    # parallel dataset build

The first ``run`` of a D1- or D2-backed experiment builds the shared
dataset (a minute or two); subsequent experiments in the same
invocation reuse it.

``build-d1`` / ``build-d2`` build a dataset standalone and write it to
a JSONL file, fanning work units over a process pool with
``--workers``::

    python -m repro build-d2 --workers 4 --out d2.jsonl
    python -m repro build-d1 --workers 4 --scale 2 --out d1.jsonl

Worker count changes only wall-clock time for ``build-d2``: its output
file is byte-identical for any ``--workers`` value.  ``build-d1`` and
``fleet`` drives read a prepared-cell LRU that each worker process
warms differently, so their outputs can differ between worker counts
(a ROADMAP open item).

``lint`` audits deployed cell configurations statically (no
simulation) with the :mod:`repro.lint` rule engine::

    python -m repro lint                       # world fleet, text report
    python -m repro lint --format json         # machine-readable
    python -m repro lint --city Chicago --carriers T V
    python -m repro lint --baseline lint-baseline.json --fail-on problem
    python -m repro lint --graph --workers 4   # + handoff-graph verifier
    python -m repro lint --coverage            # + signal-space analyzer
    python -m repro lint --graph --update-baseline
    python -m repro lint --baseline lint-baseline.json --prune-baseline
    python -m repro lint --explain             # document every rule
    python -m repro lint --explain HC401 HC405 # document specific rules

``snapshot`` captures a fleet's configuration state to a versioned
file, and ``lint --diff`` gates on what changed between captures —
reporting only findings *introduced* between them, each blamed on the
configuration change that made it appear::

    python -m repro snapshot --out capture-000.json --label before
    python -m repro snapshot --out capture-001.json --label after
    python -m repro lint --diff capture-000.json capture-001.json --fail-on any

``fleet`` simulates a whole population of UEs (parked phones, walkers,
transit riders, drivers) over one city with batched physics, sharded
over ``--workers`` processes; the JSON report keeps wall-clock time
out, so two runs' reports can be ``cmp``-ed::

    python -m repro fleet --ues 500 --duration 600 --out fleet.json
    python -m repro fleet --ues 100 --workers 4 --traffic ping

``evolve`` generates synthetic multi-capture timelines (retuning
campaigns, patch rollouts, a deliberate loop regression) for drift-rule
fixtures and CI::

    python -m repro evolve --scenario loop-regression --steps 2 --out timeline/
    python -m repro lint --diff timeline/snapshot-000.json timeline/snapshot-001.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments import registry
from repro.experiments.common import default_d1, default_d2

#: Which backing dataset each experiment needs.
_NEEDS_D1 = {"fig05", "fig06", "fig08", "fig09", "fig10", "ext-instability"}
_NEEDS_D2 = {
    "tab04", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "ext-policies",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the IMC'18 handoff study",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiment ids")
    run_parser = subparsers.add_parser("run", help="run experiment drivers")
    run_parser.add_argument("experiments", nargs="+", metavar="EXP",
                            help="experiment ids (e.g. fig06 tab04), or 'all'")
    run_parser.add_argument("--scale", type=float, default=1.0,
                            help="D1 drive-count multiplier (default 1.0)")
    run_parser.add_argument("--workers", type=int, default=None, metavar="N",
                            help="worker processes for dataset builds "
                                 "(default: REPRO_WORKERS or 1)")
    d1_parser = subparsers.add_parser(
        "build-d1", help="build dataset D1 (handoff instances) to a JSONL file"
    )
    d1_parser.add_argument("--out", default="d1.jsonl", metavar="PATH",
                           help="output JSONL path (default d1.jsonl)")
    d1_parser.add_argument("--workers", type=int, default=None, metavar="N",
                           help="worker processes (default: REPRO_WORKERS or 1)")
    d1_parser.add_argument("--scenario", default="indianapolis",
                           help="drive scenario (default indianapolis)")
    d1_parser.add_argument("--scale", type=float, default=1.0,
                           help="drive-count multiplier (default 1.0)")
    d1_parser.add_argument("--active-drives", type=int, default=4, metavar="N",
                           help="active drives per carrier before scaling (default 4)")
    d1_parser.add_argument("--idle-drives", type=int, default=2, metavar="N",
                           help="idle drives per carrier before scaling (default 2)")
    d1_parser.add_argument("--duration", type=float, default=600.0, metavar="S",
                           help="drive duration in seconds (default 600)")
    d1_parser.add_argument("--carriers", nargs="*", default=None, metavar="C",
                           help="carriers to drive (default: A T V S)")
    d1_parser.add_argument("--highway-drives", type=int, default=1, metavar="N",
                           help="highway runs per carrier (default 1)")
    d1_parser.add_argument("--seed", type=int, default=7,
                           help="deployment seed (default 7)")
    d1_parser.add_argument("--config-seed", type=int, default=2018,
                           help="configuration-profile seed (default 2018)")
    d2_parser = subparsers.add_parser(
        "build-d2", help="build dataset D2 (config samples) to a JSONL file"
    )
    d2_parser.add_argument("--out", default="d2.jsonl", metavar="PATH",
                           help="output JSONL path (default d2.jsonl)")
    d2_parser.add_argument("--workers", type=int, default=None, metavar="N",
                           help="worker processes (default: REPRO_WORKERS or 1)")
    d2_parser.add_argument("--volunteers", type=int, default=35, metavar="N",
                           help="volunteer count (default 35)")
    d2_parser.add_argument("--extra-rings", type=int, default=0, metavar="K",
                           help="extra deployment rings (default 0; 3 nears "
                                "the paper's 32k-cell scale)")
    d2_parser.add_argument("--no-dense", action="store_true",
                           help="skip the authors' dense city sweeps")
    d2_parser.add_argument("--seed", type=int, default=7,
                           help="deployment seed (default 7)")
    d2_parser.add_argument("--config-seed", type=int, default=2018,
                           help="configuration-profile seed (default 2018)")
    lint_parser = subparsers.add_parser(
        "lint", help="statically audit cell configurations for misconfigurations"
    )
    lint_parser.add_argument("--city", default="world", metavar="NAME",
                             help="'world' (default), 'us', a city name "
                                  "(e.g. Chicago), 'loop-fixture' (the "
                                  "synthetic 3-cell handoff-loop scenario), or "
                                  "'dead-zone-fixture' (the 2-cell coverage "
                                  "dead-zone scenario)")
    lint_parser.add_argument("--carriers", nargs="*", default=None, metavar="C",
                             help="restrict the audit to these carriers")
    lint_parser.add_argument("--rules", nargs="*", default=None, metavar="CODE",
                             help="run only these rule codes (e.g. HC002 HC103)")
    lint_parser.add_argument("--format", choices=("text", "json", "sarif"),
                             default="text", help="report format (default text)")
    lint_parser.add_argument("--diff", nargs="+", default=None, metavar="SNAP",
                             help="differential mode: 2+ snapshot files "
                                  "(oldest first); audits the last two and "
                                  "reports only findings introduced between "
                                  "them, blamed on the responsible change; "
                                  "earlier files feed the timeline rules "
                                  "(HC303)")
    lint_parser.add_argument("--baseline", default=None, metavar="PATH",
                             help="suppress findings recorded in this baseline file")
    lint_parser.add_argument("--write-baseline", default=None, metavar="PATH",
                             help="write all current findings to a baseline file")
    lint_parser.add_argument("--update-baseline", action="store_true",
                             help="rewrite the suppression baseline in place "
                                  "(--baseline path, default lint-baseline.json) "
                                  "with all current findings")
    lint_parser.add_argument("--prune-baseline", action="store_true",
                             help="drop suppressions that no current finding "
                                  "matches from the --baseline file and save "
                                  "it back")
    lint_parser.add_argument("--graph", action="store_true",
                             help="also run the handoff-graph verifier "
                                  "(HC2xx: persistent loops, dead layers, "
                                  "priority inversions)")
    lint_parser.add_argument("--coverage", action="store_true",
                             help="also run the signal-space coverage "
                                  "analyzer (HC4xx: dead zones, shadowed "
                                  "events, TTT contradictions; every finding "
                                  "carries a replayable witness)")
    lint_parser.add_argument("--explain", nargs="*", default=None,
                             metavar="CODE",
                             help="print rule documentation (description, "
                                  "severity, scope, minimal triggering "
                                  "config) for the given codes — or every "
                                  "registered rule with no codes — and exit")
    lint_parser.add_argument("--workers", type=int, default=None, metavar="N",
                             help="worker processes for the graph/coverage "
                                  "passes (default serial; reports are "
                                  "byte-identical at any worker count)")
    lint_parser.add_argument("--extra-rings", type=int, default=0, metavar="K",
                             help="extra deployment rings for world audits "
                                  "(default 0, matching the D2 build)")
    lint_parser.add_argument("--max-cells", type=int, default=60, metavar="N",
                             help="audit at most N cells per carrier, 0 = all "
                                  "(default 60)")
    lint_parser.add_argument("--seed", type=int, default=7,
                             help="deployment seed (default 7)")
    lint_parser.add_argument("--config-seed", type=int, default=2018,
                             help="configuration-profile seed (default 2018)")
    lint_parser.add_argument("--fail-on",
                             choices=("never", "any", "info", "warning",
                                      "problem"),
                             default="never",
                             help="exit non-zero at this severity; 'any' fails "
                                  "on every non-baselined finding "
                                  "(default never)")
    lint_parser.add_argument("--verbose", action="store_true",
                             help="list every finding in text reports")
    snap_parser = subparsers.add_parser(
        "snapshot", help="capture a fleet's configuration state to a file"
    )
    snap_parser.add_argument("--out", default="snapshot.json", metavar="PATH",
                             help="output snapshot path (default snapshot.json)")
    snap_parser.add_argument("--label", default="", metavar="NAME",
                             help="capture label (default: the output filename)")
    snap_parser.add_argument("--captured-day", type=float, default=0.0,
                             metavar="D",
                             help="observation day of the capture (default 0)")
    snap_parser.add_argument("--city", default="world", metavar="NAME",
                             help="'world' (default), 'us', a city name, or "
                                  "'loop-fixture'")
    snap_parser.add_argument("--carriers", nargs="*", default=None, metavar="C",
                             help="restrict the capture to these carriers")
    snap_parser.add_argument("--extra-rings", type=int, default=0, metavar="K",
                             help="extra deployment rings for world captures")
    snap_parser.add_argument("--max-cells", type=int, default=60, metavar="N",
                             help="capture at most N cells per carrier, 0 = all "
                                  "(default 60)")
    snap_parser.add_argument("--seed", type=int, default=7,
                             help="deployment seed (default 7)")
    snap_parser.add_argument("--config-seed", type=int, default=2018,
                             help="configuration-profile seed (default 2018)")
    evolve_parser = subparsers.add_parser(
        "evolve", help="generate a synthetic configuration-evolution timeline"
    )
    evolve_parser.add_argument("--scenario", default="retune",
                               choices=("retune", "patch-rollout",
                                        "loop-regression", "clean", "flapping"),
                               help="evolution scenario (default retune)")
    evolve_parser.add_argument("--steps", type=int, default=3, metavar="N",
                               help="captures in the timeline (default 3)")
    evolve_parser.add_argument("--out", default="timeline", metavar="DIR",
                               help="output directory (default timeline/)")
    evolve_parser.add_argument("--interval-days", type=float, default=30.0,
                               metavar="D",
                               help="days between captures (default 30)")
    evolve_parser.add_argument("--config-seed", type=int, default=2018,
                               help="configuration-profile seed (default 2018)")
    fleet_parser = subparsers.add_parser(
        "fleet", help="simulate a multi-UE fleet with batched physics"
    )
    fleet_parser.add_argument("--ues", type=int, default=100, metavar="N",
                              help="fleet population (default 100)")
    fleet_parser.add_argument("--duration", type=float, default=600.0, metavar="S",
                              help="per-UE simulated seconds (default 600)")
    fleet_parser.add_argument("--scenario", default="indianapolis",
                              help="drive scenario city (default indianapolis)")
    fleet_parser.add_argument("--carriers", nargs="*", default=None, metavar="C",
                              help="subscriptions, assigned round-robin "
                                   "(default: A)")
    fleet_parser.add_argument("--traffic", default="speedtest",
                              choices=("speedtest", "iperf", "ping", "idle"),
                              help="data service every UE runs (default "
                                   "speedtest)")
    fleet_parser.add_argument("--tick-ms", type=int, default=200,
                              help="simulation step in ms (default 200)")
    fleet_parser.add_argument("--fleet-seed", type=int, default=2024,
                              help="root of the per-UE seed tree (default 2024)")
    fleet_parser.add_argument("--seed", type=int, default=7,
                              help="deployment seed (default 7)")
    fleet_parser.add_argument("--config-seed", type=int, default=2018,
                              help="configuration-profile seed (default 2018)")
    fleet_parser.add_argument("--workers", type=int, default=None, metavar="N",
                              help="worker processes for fleet shards "
                                   "(default: REPRO_WORKERS or 1)")
    fleet_parser.add_argument("--out", default=None, metavar="PATH",
                              help="write the JSON report here (default: "
                                   "stdout)")
    return parser


def _resolve_fleet(args: argparse.Namespace):
    """Deploy the fleet ``--city``/seeds select: ``(env, server)`` or None.

    Shared by ``lint`` and ``snapshot`` so both commands audit/capture
    exactly the same populations.  Prints to stderr and returns None for
    an unknown city.
    """
    from repro.cellnet.deployment import (
        DeploymentPlan,
        build_us_deployment,
        city_by_name,
        deploy_city,
    )
    from repro.cellnet.world import RadioEnvironment
    from repro.datasets.d2 import d2_world
    from repro.rrc.broadcast import ConfigServer

    if args.city == "world":
        # The exact deployment the D2 dataset builder audits/collects
        # from (and a shared process-level cache with it).
        world = d2_world(
            seed=args.seed,
            config_seed=args.config_seed,
            extra_rings=args.extra_rings,
        )
        return world.env, world.server
    if args.city == "loop-fixture":
        from repro.lint.fixtures import loop_fixture

        scenario = loop_fixture(misconfigured=True)
        return scenario.env, scenario.server
    if args.city == "dead-zone-fixture":
        from repro.lint.fixtures import dead_zone_fixture

        dead_zone = dead_zone_fixture(misconfigured=True)
        return dead_zone.env, dead_zone.server
    if args.city == "dead-zone-fixture-corrected":
        from repro.lint.fixtures import dead_zone_fixture

        dead_zone = dead_zone_fixture(misconfigured=False)
        return dead_zone.env, dead_zone.server
    if args.city == "us":
        plan = build_us_deployment(seed=args.seed)
    else:
        try:
            city = city_by_name(args.city)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return None
        plan = DeploymentPlan()
        deploy_city(city, plan, args.seed)
    env = RadioEnvironment(plan)
    return env, ConfigServer(env, seed=args.config_seed)


def _run_lint_diff(args: argparse.Namespace) -> int:
    """Differential audit of two (or a timeline of) snapshot files."""
    from repro.lint import Baseline, ConfigSnapshot, diff_lint, exit_code
    from repro.lint.report import DIFF_RENDERERS, render_diff_text

    if len(args.diff) < 2:
        print("--diff needs at least two snapshot files", file=sys.stderr)
        return 2
    try:
        timeline = [ConfigSnapshot.load(path) for path in args.diff]
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    baseline = Baseline.load(args.baseline) if args.baseline else None
    report = diff_lint(
        timeline[-2],
        timeline[-1],
        timeline=timeline,
        codes=args.rules,
        baseline=baseline,
        workers=args.workers,
    )
    if args.format == "text":
        print(render_diff_text(report, verbose=args.verbose))
    else:
        print(DIFF_RENDERERS[args.format](report))
    return exit_code(report.findings, args.fail_on)


def _run_lint(args: argparse.Namespace) -> int:
    """Deploy the requested fleet and audit it with the lint engine."""
    from repro.lint import Baseline, exit_code, lint_world, render_text
    from repro.lint.report import RENDERERS

    if args.explain is not None:
        from repro.lint.explain import render_explain

        try:
            print(render_explain(args.explain or None))
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        return 0
    if args.diff is not None:
        return _run_lint_diff(args)
    fleet = _resolve_fleet(args)
    if fleet is None:
        return 2
    env, server = fleet
    baseline_path = args.baseline
    if args.update_baseline and baseline_path is None:
        baseline_path = "lint-baseline.json"
    baseline = None
    # Regeneration audits fresh (suppressing against the stale file
    # would only relabel findings, not change what gets written).
    if baseline_path and not args.update_baseline:
        baseline = Baseline.load(baseline_path)
    try:
        report = lint_world(
            env,
            server,
            carriers=tuple(args.carriers) if args.carriers else None,
            max_cells_per_carrier=args.max_cells,
            codes=args.rules,
            baseline=baseline,
            graph=args.graph,
            coverage=args.coverage,
            workers=args.workers,
        )
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if baseline is not None:
        # Scope staleness to the rules this audit actually ran: a
        # non---graph run must not flag (or prune!) HC2xx suppressions
        # it could never have re-confirmed.
        matched = report.findings + report.suppressed
        stale = baseline.unused(matched, rules_run=report.rules_run)
        if stale and args.prune_baseline:
            pruned = baseline.prune(matched, rules_run=report.rules_run)
            baseline.save(baseline_path)
            print(
                f"# pruned {len(pruned)} stale suppressions from "
                f"{baseline_path} ({len(baseline)} remain)",
                file=sys.stderr,
            )
        elif stale:
            print(
                f"# {len(stale)} baseline suppressions no longer match any "
                "finding; run with --prune-baseline to drop them",
                file=sys.stderr,
            )
    write_path = args.write_baseline
    if args.update_baseline:
        write_path = baseline_path
    if write_path:
        captured = Baseline.from_findings(report.findings + report.suppressed)
        captured.save(write_path)
        print(
            f"# wrote {len(captured)} suppressions to {write_path}",
            file=sys.stderr,
        )
    if args.format == "text":
        print(render_text(report, verbose=args.verbose))
    else:
        print(RENDERERS[args.format](report))
    return exit_code(report.findings, args.fail_on)


def _run_snapshot(args: argparse.Namespace) -> int:
    """Capture the selected fleet's configuration state to a file."""
    from repro.lint import ConfigSnapshot

    fleet = _resolve_fleet(args)
    if fleet is None:
        return 2
    env, server = fleet
    label = args.label or Path(args.out).name
    snapshot = ConfigSnapshot.capture_world(
        env,
        server,
        label=label,
        carriers=tuple(args.carriers) if args.carriers else None,
        max_cells_per_carrier=args.max_cells,
        captured_day=args.captured_day,
    )
    snapshot.save(args.out)
    print(
        f"# snapshot {label!r}: {len(snapshot)} cells "
        f"(fleet digest {snapshot.fleet_digest}) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _run_evolve(args: argparse.Namespace) -> int:
    """Generate a synthetic evolution timeline of snapshot files."""
    from repro.datasets.evolve import EvolveOptions, evolve_timeline

    options = EvolveOptions(
        scenario=args.scenario,
        steps=args.steps,
        interval_days=args.interval_days,
        seed=args.config_seed,
    )
    timeline = evolve_timeline(options)
    paths = timeline.save(args.out)
    print(
        f"# {options.scenario} timeline: {len(paths)} captures of "
        f"{len(timeline.snapshots[0])} cells -> "
        f"{paths[0]} .. {paths[-1]}",
        file=sys.stderr,
    )
    return 0


def _run_build_d1(args: argparse.Namespace) -> int:
    """Build D1 over the work-unit pipeline and save it as JSONL."""
    import time

    from repro.datasets.d1 import D1Options, build_d1
    from repro.pipeline import default_workers

    options = D1Options(
        seed=args.seed,
        config_seed=args.config_seed,
        scenario=args.scenario,
        active_drives=args.active_drives,
        idle_drives=args.idle_drives,
        drive_duration_s=args.duration,
        scale=args.scale,
        carriers=tuple(args.carriers) if args.carriers else ("A", "T", "V", "S"),
        highway_drives=args.highway_drives,
        workers=args.workers if args.workers is not None else default_workers(),
    )
    start = time.perf_counter()
    build = build_d1(options)
    elapsed = time.perf_counter() - start
    build.store.save(args.out)
    print(
        f"# D1: {len(build.store)} instances "
        f"({len(build.store.active())} active, {len(build.store.idle())} idle) "
        f"from {len(build.drives)} drives in {elapsed:.1f}s "
        f"(workers={options.workers}) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _run_build_d2(args: argparse.Namespace) -> int:
    """Build D2 over the work-unit pipeline and save it as JSONL."""
    import time

    from repro.datasets.d2 import D2Options, build_d2
    from repro.pipeline import default_workers

    options = D2Options(
        seed=args.seed,
        config_seed=args.config_seed,
        n_volunteers=args.volunteers,
        extra_rings=args.extra_rings,
        include_dense=not args.no_dense,
        workers=args.workers if args.workers is not None else default_workers(),
    )
    start = time.perf_counter()
    build = build_d2(options)
    elapsed = time.perf_counter() - start
    build.store.save(args.out)
    print(
        f"# D2: {len(build.store)} samples from {len(build.store.unique_cells())} "
        f"cells over {build.n_sessions} sessions in {elapsed:.1f}s "
        f"(workers={options.workers}) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _run_fleet_sim(args: argparse.Namespace) -> int:
    """Simulate a multi-UE fleet and emit a deterministic JSON report.

    The report (options echo, fleet aggregates, one summary row per UE)
    is deterministic — wall-clock timing and cache statistics go to
    stderr so the file can be ``cmp``-ed.  Shards in cold worker
    processes can still differ from a serial run (see
    :mod:`repro.pipeline`).
    """
    import json

    from repro.simulate.fleet import FleetOptions, run_fleet
    from repro.simulate.scenarios import ScenarioSpec

    try:
        options = FleetOptions(
            scenario=ScenarioSpec(
                name=args.scenario, seed=args.seed, config_seed=args.config_seed
            ),
            fleet_seed=args.fleet_seed,
            n_ues=args.ues,
            duration_s=args.duration,
            tick_ms=args.tick_ms,
            carriers=tuple(args.carriers) if args.carriers else ("A",),
            traffic=args.traffic,
        )
    except ValueError as error:
        print(f"repro fleet: error: {error}", file=sys.stderr)
        return 2
    result = run_fleet(options, workers=args.workers)
    report = {
        "options": {
            "scenario": args.scenario,
            "seed": args.seed,
            "config_seed": args.config_seed,
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
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
    cache = result.snapshot_cache
    print(
        f"# fleet: {options.n_ues} UEs x {options.duration_s:.0f}s in "
        f"{result.elapsed_s:.1f}s ({result.ue_ticks_per_s:,.0f} UE-ticks/s), "
        f"snapshot cache hit rate {cache.get('hit_rate', 0.0):.3f}"
        + (f" -> {args.out}" if args.out else ""),
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for exp_id in registry.all_experiment_ids():
            print(exp_id)
        return 0
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "snapshot":
        return _run_snapshot(args)
    if args.command == "evolve":
        return _run_evolve(args)
    if args.command == "build-d1":
        return _run_build_d1(args)
    if args.command == "build-d2":
        return _run_build_d2(args)
    if args.command == "fleet":
        return _run_fleet_sim(args)
    wanted = list(args.experiments)
    if wanted == ["all"]:
        wanted = registry.all_experiment_ids()
    unknown = [e for e in wanted if e not in registry.EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(registry.all_experiment_ids())}", file=sys.stderr)
        return 2
    d1 = d2 = None
    for exp_id in wanted:
        kwargs = {}
        if exp_id in _NEEDS_D1:
            if d1 is None:
                print("# building dataset D1...", file=sys.stderr)
                d1 = default_d1(scale=args.scale, workers=args.workers)
            kwargs["d1"] = d1
        elif exp_id in _NEEDS_D2:
            if d2 is None:
                print("# building dataset D2...", file=sys.stderr)
                d2 = default_d2(workers=args.workers)
            kwargs["d2"] = d2
        result = registry.run(exp_id, **kwargs)
        result.print()
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
