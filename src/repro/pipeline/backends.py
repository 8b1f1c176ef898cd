"""Execution backends: where work units run.

Both backends present the same contract: ``run(units)`` yields one
result per unit, **ordered by** ``unit_id`` and **streamed** — a result
is yielded as soon as it (and everything before it) is available, so
consumers can ingest while later units are still executing.

:class:`ProcessPoolBackend` merges results in the order
:class:`SerialBackend` yields them: units are chunked in canonical
order, chunks are submitted to a :class:`concurrent.futures` process
pool with a bounded in-flight window (memory stays proportional to
``workers``, not to the build size), and results are merged back in
chunk order.  The stream is therefore identical whenever each unit's
result is a function of the unit alone.

:func:`run_cached` runs only the units a caller-held result cache
misses; the lint analyzers key it by content digest.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar, cast

from repro.pipeline.unit import WorkUnit

K = TypeVar("K", bound=Hashable)
P = TypeVar("P")
R = TypeVar("R")

#: Entries one :func:`run_cached` cache may hold before it restarts
#: cold.  A full default world holds a few thousand cells, so eviction
#: only triggers on pathological churn.
RESULT_CACHE_LIMIT = 16384


class SerialBackend:
    """Run every unit in the calling process, one after another."""

    def run(self, units: Sequence[WorkUnit]) -> Iterator[object]:
        for unit in sorted(units, key=lambda u: u.unit_id):
            yield unit.run()


def _run_chunk(units: list[WorkUnit]) -> list[object]:
    """Worker-side entry point: execute one chunk of units in order."""
    return [unit.run() for unit in units]


class ProcessPoolBackend:
    """Fan units out over ``workers`` processes (default: every CPU).

    Units go out in chunks of ``ceil(units / (4 * workers))``, about
    four tasks per worker, and at most ``2 * workers`` chunks are queued
    or running at once, which bounds both scheduler memory and the
    reorder buffer.
    """

    def __init__(self, workers: int | None = None):
        self.workers = max(workers if workers is not None else os.cpu_count() or 1, 1)

    def run(self, units: Sequence[WorkUnit]) -> Iterator[object]:
        ordered = sorted(units, key=lambda u: u.unit_id)
        if not ordered:
            return
        if self.workers == 1 and len(ordered) <= 1:
            # Nothing to parallelize; skip the pool entirely.
            yield from SerialBackend().run(ordered)
            return
        size = -(-len(ordered) // (4 * self.workers))
        chunks = [ordered[i : i + size] for i in range(0, len(ordered), size)]
        window = 2 * self.workers
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            inflight: dict[int, Future] = {}
            next_submit = 0
            for next_yield in range(len(chunks)):
                while next_submit < len(chunks) and len(inflight) < window:
                    inflight[next_submit] = pool.submit(_run_chunk, chunks[next_submit])
                    next_submit += 1
                # Blocking on the next-in-order chunk *is* the ordered
                # merge: later chunks keep executing meanwhile, and their
                # finished futures wait in the window until their turn.
                for result in inflight.pop(next_yield).result():
                    yield result


def resolve_backend(workers: int | None = None) -> SerialBackend | ProcessPoolBackend:
    """The backend for ``workers``: serial at ``None`` or ``<= 1``, else a pool."""
    if workers is None or workers <= 1:
        return SerialBackend()
    return ProcessPoolBackend(workers=workers)


def default_workers() -> int:
    """Worker count from the ``REPRO_WORKERS`` env var, or 1 (serial)."""
    try:
        return max(int(os.environ.get("REPRO_WORKERS", "1")), 1)
    except ValueError:
        return 1


def run_cached(
    cache: dict[K, R],
    items: Iterable[tuple[K, P]],
    make_unit: Callable[[int, P], WorkUnit],
    workers: int | None = None,
) -> tuple[dict[K, R], int, int]:
    """Every item's result: cached keys served, the rest run as units.

    Args:
        cache: Caller-held ``{key: result}`` memo, updated in place.
        items: ``(key, payload)`` pairs; a repeated key runs once.
        make_unit: Builds the unit for a missing ``payload`` from its
            ``unit_id``; its result is stored under the item's key.
        workers: Worker processes (``None``/1 = serial in-process).

    Returns:
        ``(results, cached, analyzed)``: results by key, the number of
        items served from ``cache`` and the number of units run.
    """
    results: dict[K, R] = {}
    pending: dict[K, WorkUnit] = {}
    cached = 0
    for key, payload in items:
        hit = cache.get(key)
        if hit is not None:
            results[key] = hit
            cached += 1
        elif key not in pending:
            pending[key] = make_unit(len(pending), payload)
    stream = resolve_backend(workers).run(list(pending.values()))
    for result, key in zip(stream, pending):
        if len(cache) >= RESULT_CACHE_LIMIT:
            cache.clear()
        cache[key] = results[key] = cast(R, result)
    return results, cached, len(pending)
