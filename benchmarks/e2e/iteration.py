"""One benchmark iteration in a fresh process (spawned by ``run.py``).

A fresh process per iteration is what makes the timed body equal to one
CLI invocation: module-level and lazy caches start cold, set-up is paid
(and timed) again, and ``ru_maxrss`` is this iteration's peak.

    python benchmarks/e2e/iteration.py --workload W --seed N --workdir DIR \
        --size {smoke,bench,full} [--trace] [--probe]

Prints one JSON object on stdout.  ``--probe`` runs the workload's
scalar-reference oracle instead of an iteration.

Right before and right after the body the iteration also times a fixed
reference kernel (``kernel_s``): a gauge of how fast the host runs at
that moment, which ``run.py`` divides every time metric by.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

KERNEL_REPEATS = 5


def _kernel() -> int:
    """Fixed interpreter and numpy work that allocates almost nothing."""
    import numpy as np

    table: dict[int, int] = {}
    acc = 0
    for i in range(160_000):
        key = i & 1023
        table[key] = table.get(key, 0) + 1
        acc ^= key * 31
    a = np.arange(1.0, 4097.0)
    b = np.empty_like(a)
    for _ in range(1600):
        np.multiply(a, a, out=b)
        np.add(b, 1.0, out=b)
        np.sqrt(b, out=a)
    return acc


def kernel_s() -> float:
    """Median time of the reference kernel.

    The collector is off meanwhile, so the size of the workload's heap
    cannot slow the kernel down: its time depends on the host alone.
    """
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_REPEATS):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def iterate(name: str, seed: int, size: str, traced: bool, workdir: Path) -> dict:
    import tracer as tracing
    import workloads
    from repro.lint.engine import ConfigLintWarning

    # Preflight findings are the same on every run; keep stderr readable.
    warnings.simplefilter("ignore", ConfigLintWarning)
    workload = workloads.WORKLOADS[name](seed, size)
    workload.setup()
    setup_s = perf_counter() - STARTED
    kernel_before = kernel_s()
    tracer = tracing.Tracer(f"{name}:{seed}") if traced else tracing.NullTracer()
    if traced:
        tracing.install(tracer)
    start = perf_counter()
    try:
        body = workload.body(tracer, workdir)
    finally:
        wall_s = perf_counter() - start
        if traced:
            tracer.finish()
            tracer.restore()
    record = {
        "kernel_s": (kernel_before + kernel_s()) / 2,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "units": body.units,
        "attempted": body.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        record["trace"] = asdict(tracing.reduce(tracer))
        record["trace"]["prepared_cache"] = workload.env.snapshot_cache_stats()
    outputs, checks = body.verify()
    record["digest"] = workloads.digest(outputs)
    record["checks"] = checks
    return record


def probe(name: str, seed: int, size: str) -> dict:
    """The workload's oracle probe: fast path against scalar reference."""
    import workloads

    # The probes reuse the oracles of the microbenchmarks beside us.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    return {"checks": workloads.probe(name, seed, size)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        record = probe(args.workload, args.seed, args.size)
    else:
        record = iterate(args.workload, args.seed, args.size, args.trace, args.workdir)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
