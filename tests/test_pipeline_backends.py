"""Tests for the work-unit execution backends."""

import re
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.pipeline import (
    ProcessPoolBackend,
    SerialBackend,
    WorkUnit,
    clear_process_cache,
    default_workers,
    process_cached,
    resolve_backend,
    run_cached,
)


@dataclass(frozen=True)
class SquareUnit(WorkUnit):
    """Toy unit: picklable, deterministic, order-revealing."""

    unit_id: int
    value: int

    def run(self) -> int:
        return self.value * self.value


@dataclass(frozen=True)
class SlowFirstUnit(WorkUnit):
    """Unit 0 finishes last, exercising the reorder buffer."""

    unit_id: int

    def run(self) -> int:
        if self.unit_id == 0:
            time.sleep(0.2)
        return self.unit_id


@dataclass(frozen=True)
class FailingUnit(WorkUnit):
    unit_id: int

    def run(self) -> int:
        raise RuntimeError(f"unit {self.unit_id} failed")


def test_serial_backend_orders_by_unit_id():
    units = [SquareUnit(unit_id=i, value=i) for i in (3, 0, 2, 1)]
    assert list(SerialBackend().run(units)) == [0, 1, 4, 9]


def test_serial_backend_streams():
    units = [SquareUnit(unit_id=i, value=i) for i in range(3)]
    stream = SerialBackend().run(units)
    assert next(stream) == 0  # results available before full consumption


def test_process_pool_matches_serial():
    units = [SquareUnit(unit_id=i, value=i + 1) for i in range(20)]
    serial = list(SerialBackend().run(units))
    pooled = list(ProcessPoolBackend(workers=2).run(units))
    assert pooled == serial


# Two workers chunk n units by ceil(n / 8) under a window of 4 chunks:
# 1 unit is one chunk, 3 are three, 7 are seven (past the window) and
# 100 are eight chunks of 13.
@pytest.mark.parametrize("n_units", [1, 3, 7, 100])
def test_process_pool_chunking_preserves_order(n_units):
    units = [SquareUnit(unit_id=i, value=i) for i in reversed(range(n_units))]
    backend = ProcessPoolBackend(workers=2)
    assert list(backend.run(units)) == [i * i for i in range(n_units)]


def test_process_pool_reorders_out_of_order_completions():
    # Six units on two workers run as six one-unit chunks.
    units = [SlowFirstUnit(unit_id=i) for i in range(6)]
    backend = ProcessPoolBackend(workers=2)
    assert list(backend.run(units)) == list(range(6))


def test_process_pool_empty_batch():
    assert list(ProcessPoolBackend(workers=2).run([])) == []


def test_process_pool_propagates_unit_errors():
    units = [FailingUnit(unit_id=0)]
    with pytest.raises(RuntimeError, match="unit 0 failed"):
        list(ProcessPoolBackend(workers=2).run(units))


def test_resolve_backend():
    assert isinstance(resolve_backend(), SerialBackend)
    assert isinstance(resolve_backend(1), SerialBackend)
    pool = resolve_backend(3)
    assert isinstance(pool, ProcessPoolBackend)
    assert pool.workers == 3


@pytest.mark.parametrize(
    "value, expected", [(None, 1), ("3", 3), ("0", 1), ("-2", 1), ("many", 1)]
)
def test_default_workers_reads_env(monkeypatch, value, expected):
    if value is None:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", value)
    assert default_workers() == expected


#: An environment read: ``os.environ``/``os.getenv``, or either
#: imported from ``os`` by name.
_ENV_READ = re.compile(r"\bos\.(?:environ|getenv)\b|from os import [^\n]*\b(?:environ|getenv)\b")


def test_only_default_workers_reads_the_environment():
    # A run is shaped by its arguments plus REPRO_WORKERS, a deployment
    # setting: no other module may let the environment pick a code path.
    package = Path(repro.__file__).parent
    readers = sorted(
        path.relative_to(package.parent).as_posix()
        for path in package.rglob("*.py")
        if _ENV_READ.search(path.read_text(encoding="utf-8"))
    )
    assert readers == ["repro/pipeline/backends.py"]
    body = (package / "pipeline" / "backends.py").read_text(encoding="utf-8")
    assert len(_ENV_READ.findall(body)) == 1


def _square(unit_id: int, value: int) -> SquareUnit:
    return SquareUnit(unit_id=unit_id, value=value)


@pytest.mark.parametrize("workers", [None, 2])
def test_run_cached_runs_only_misses(workers):
    cache: dict = {}
    items = [("a", 2), ("b", 3), ("a", 2)]
    results, cached, analyzed = run_cached(cache, items, _square, workers)
    assert results == {"a": 4, "b": 9}
    assert (cached, analyzed) == (0, 2)
    assert cache == {"a": 4, "b": 9}
    results, cached, analyzed = run_cached(cache, [("b", 3), ("c", 4)], _square, workers)
    assert results == {"b": 9, "c": 16}
    assert (cached, analyzed) == (1, 1)


def test_run_cached_restarts_cold_at_the_bound(monkeypatch):
    import repro.pipeline.backends as backends

    monkeypatch.setattr(backends, "RESULT_CACHE_LIMIT", 2)
    cache: dict = {}
    run_cached(cache, [("a", 1), ("b", 2), ("c", 3)], _square)
    assert cache == {"c": 9}


def test_process_cached_builds_once():
    clear_process_cache()
    calls = []

    def factory():
        calls.append(1)
        return object()

    first = process_cached(("test-key", 1), factory)
    second = process_cached(("test-key", 1), factory)
    assert first is second
    assert len(calls) == 1
    clear_process_cache()
    third = process_cached(("test-key", 1), factory)
    assert third is not first
    clear_process_cache()
