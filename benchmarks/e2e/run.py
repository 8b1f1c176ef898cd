"""End-to-end benchmark of the paper pipelines, with per-layer tracing.

Runs one workload (or all four, serially) for ``--seconds``: iteration
after iteration, each in a fresh single-threaded-workload subprocess,
then the workload's oracle probe.  Prints every metric by name with its
unit and, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--workload all`` that line merges the four workloads' results,
its metric names prefixed with the workload (``fleet-city.wall_s``).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates traced and untraced iterations and reports the
per-layer metrics, including the tracing overhead.

Usage (from the repository root):

    python3 benchmarks/e2e/run.py                               # all workloads
    python3 benchmarks/e2e/run.py --workload d2-crowdsource --seed 2019
    python3 benchmarks/e2e/run.py --workload fleet-city --trace 1 --json runs.jsonl
    python3 benchmarks/e2e/run.py --workload lint-audit --size full --seconds 0

``--json`` appends the result plus per-iteration records to a JSONL
file, the input of ``compare.py``; a traced iteration's record carries
its coarse spans and per-(parent, name) time tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A workload's run must end within 180 s; no iteration outlives this.
DEADLINE_S = 165.0

WORKLOADS = ("d2-crowdsource", "d1-drives", "fleet-city", "lint-audit")
#: Input sizes (see workloads.py); digests are recorded for ``bench``.
SIZES = ("bench", "smoke", "full")
#: The reference kernel's time at the host's nominal speed (roughly its
#: median on the calibration VM of README.md).  Reported times are
#: scaled to it; only ratios between runs on one host matter.
NOMINAL_KERNEL_S = 0.040
#: Workloads with an oracle probe after the timed window.
PROBED = ("d1-drives", "fleet-city")

BUSY_LAYERS = (
    "cellnet.snapshot", "cellnet.cells_near", "config.lte_config", "rrc.broadcast",
    "rrc.codec.encode", "rrc.codec.decode", "rrc.diag.write", "ue.device",
    "ue.measurement", "ue.events", "simulate.runner", "simulate.fleet", "core.crawler",
    "core.handoffs", "datasets.build", "datasets.store.extend", "datasets.store.save",
    "datasets.store.load", "lint.snapshots", "lint.rules", "lint.graph", "lint.coverage",
    "lint.report", "lint.preflight",
)
ANALYSIS_DRIVERS = (
    "tab04", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19", "fig20", "fig21", "fig22", "ext-policies",
    "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "ext-instability",
)
CALLS = (
    "cellnet.snapshot", "config.lte_config", "rrc.codec.encode", "rrc.codec.decode",
    "ue.device", "ue.measurement",
)
COUNTS = {
    "rrc.diag.bytes": "bytes", "core.crawler.samples": "count",
    "core.handoffs.instances": "count", "datasets.store.bytes": "bytes",
    "lint.graph.components": "count", "lint.graph.cycles_checked": "count",
    "lint.coverage.cells_analyzed": "count", "lint.findings": "count",
    "pipeline.result_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in BENCHMARK.json order."""
    units = {f"{layer}.busy_pct": "%" for layer in BUSY_LAYERS}
    units.update({f"analysis.{exp_id}.busy_pct": "%" for exp_id in ANALYSIS_DRIVERS})
    units.update({f"{layer}.calls": "count" for layer in CALLS})
    units.update(COUNTS)
    units.update({
        "cellnet.prepared_cache.hit_rate": "ratio",
        "ue.device.quiet_ratio": "ratio",
        "pipeline.units": "count",
        "pipeline.unit_p50_ms": "ms",
        "pipeline.unit_p90_ms": "ms",
        "trace.wall_s": "s",
        "trace.unattributed_pct": "%",
        "trace.overhead_frac": "ratio",
    })
    return units


def layer_values(trace: dict) -> dict[str, float]:
    """One traced iteration's per-layer values (``per_layer`` adds the
    ``trace.wall_s`` and ``trace.overhead_frac`` of the run)."""
    wall = trace["wall_s"]
    self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]
    values = {f"{layer}.busy_pct": 100.0 * self_s.get(layer, 0.0) / wall for layer in BUSY_LAYERS}
    for exp_id in ANALYSIS_DRIVERS:
        values[f"analysis.{exp_id}.busy_pct"] = (
            100.0 * self_s.get(f"analysis.{exp_id}", 0.0) / wall
        )
    values.update({f"{layer}.calls": calls.get(layer, 0) for layer in CALLS})
    values.update({name: counters.get(name, 0) for name in COUNTS})
    cache = trace["prepared_cache"]
    lookups = cache["hits"] + cache["misses"]
    ticks = calls.get("ue.device", 0)
    unit_ms = sorted(trace["unit_ms"])
    values.update({
        "cellnet.prepared_cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "ue.device.quiet_ratio": counters.get("ue.device.quiet", 0) / ticks if ticks else 0.0,
        "pipeline.units": len(unit_ms),
        "pipeline.unit_p50_ms": statistics.median(unit_ms) if unit_ms else 0.0,
        "pipeline.unit_p90_ms": _p90(unit_ms),
        "trace.unattributed_pct": 100.0 * self_s.get("workload", 0.0) / wall,
    })
    return values


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def scaled(record: dict, key: str) -> float:
    """One iteration's time ``key`` at the host's nominal speed.

    The host's speed drifts by tens of percent over minutes, and the
    reference kernel timed around the body slows down with it, so the
    ratio of the two is steadier than either (README.md, "Host speed").
    """
    return record[key] * NOMINAL_KERNEL_S / record["kernel_s"]


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Medians over untraced iterations, times at nominal host speed."""
    return {
        "setup_s": statistics.median(scaled(r, "setup_s") for r in records),
        "wall_s": statistics.median(scaled(r, "wall_s") for r in records),
        "throughput_per_s": statistics.median(r["units"] / scaled(r, "wall_s") for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Medians over traced iterations, plus traced-vs-untraced overhead."""
    rows = [layer_values(r["trace"]) for r in traced]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    wall = statistics.median(scaled(r, "wall_s") for r in traced)
    values["trace.wall_s"] = wall
    values["trace.overhead_frac"] = (
        wall / statistics.median(scaled(r, "wall_s") for r in untraced) - 1.0
    )
    return values


def spawn(args: list[str], timeout: float) -> dict | None:
    """Run ``iteration.py`` with ``args``; its JSON record, or None on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # Fixed string hashing, so set/dict iteration order (and its cost)
    # repeats from run to run.
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "iteration.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the child.
        print(f"# iteration timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Iterate ``name`` for ``seconds``, probe it, check it, reduce it."""
    workdir = ROOT / ".bench_build" / "e2e" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir),
              "--size", size]
    records: list[dict] = []
    failures: list[str] = []
    checks = 0
    start = perf_counter()
    try:
        while True:
            traced = trace and len(records) % 2 == 0
            remaining = DEADLINE_S - (perf_counter() - start)
            record = spawn(common + (["--trace"] if traced else []), remaining)
            if record is None:
                checks += 1  # the failed iteration itself was an attempt
                failures.append(f"iteration {len(records) + 1} failed")
                break
            record["traced"] = traced
            records.append(record)
            elapsed = perf_counter() - start
            print(
                f"# {name} seed {seed} iteration {len(records)}"
                f"{' (traced)' if traced else ''}: setup {record['setup_s']:.3f} s, "
                f"wall {record['wall_s']:.3f} s, digest {record['digest'][:16]}",
                file=sys.stderr,
            )
            # Stop once another iteration would end more than half an
            # iteration past the window, so runs end near ``seconds``.
            enough = len(records) >= (2 if trace else 1)
            if enough and elapsed + 0.5 * elapsed / len(records) >= seconds:
                break
        if records:
            for record in records:
                for check, ok in record["checks"].items():
                    checks += 1
                    if not ok:
                        failures.append(f"check failed: {check}")
            checks += 1
            if len({r["digest"] for r in records}) != 1:
                failures.append("outputs differ between iterations of one seed")
            expected = recorded_digest(name, seed) if size == "bench" else None
            if expected is None:
                print(f"# no recorded digest for {name} at seed {seed}, size {size}: digest "
                      "check skipped (iterations still checked against each other)",
                      file=sys.stderr)
            else:
                checks += 1
                if records[0]["digest"] != expected:
                    failures.append(f"digest {records[0]['digest']} != recorded {expected}")
        if name in PROBED and not failures:
            remaining = DEADLINE_S - (perf_counter() - start)
            probe = spawn(common + ["--probe"], remaining)
            if probe is None:
                failures.append("oracle probe failed to run")
            else:
                for check, ok in probe["checks"].items():
                    checks += 1
                    print(f"# probe: {check}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
                    if not ok:
                        failures.append(f"probe failed: {check}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    traced_records = [r for r in records if r["traced"]]
    plain_records = [r for r in records if not r["traced"]]
    metrics: dict[str, float] = {}
    if trace and traced_records and plain_records:
        metrics = per_layer(traced_records, plain_records)
    elif not trace and plain_records:
        metrics = end_to_end(plain_records)
    attempted = sum(r["attempted"] for r in records) + checks
    return {
        "records": records,
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def merged(results: dict[str, dict]) -> dict:
    """One result for several workloads; metric names gain a workload prefix."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2018,
                        help="configuration-profile seed (default 2018; 2019 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="bench (default); smoke: seconds per workload, for tests; "
                             "full: the repository-default sizes bench is cut from")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="append each result with its iterations (traced ones with "
                             "their spans and time tree) to this JSONL file")
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and
    # reaps the running iteration instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in ("src/repro", "benchmarks/bench_tick_loop.py",
                           "benchmarks/bench_fleet.py", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"not a repository checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    units = declared("per_layer" if args.trace else "end_to_end")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results: dict[str, dict] = {}
    for name in names:
        run = run_workload(name, args.seed, seconds, bool(args.trace), args.size)
        result = run["result"]
        for failure in run["failures"]:
            print(f"# FAILED {name}: {failure}", file=sys.stderr)
        for metric, value in result["metrics"].items():
            print(f"# {name} {metric} = {value:.6g} {units[metric]}", flush=True)
        result["metrics"] = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in result["metrics"].items()
        }
        if args.json is not None:
            with open(args.json, "a") as handle:
                handle.write(json.dumps({
                    "workload": name, "seed": args.seed, "trace": args.trace,
                    "size": args.size, "result": result, "iterations": run["records"],
                }) + "\n")
        results[name] = result
    final = results[args.workload] if args.workload in results else merged(results)
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
