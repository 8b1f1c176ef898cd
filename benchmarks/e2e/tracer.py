"""Outside-in per-layer tracing for the end-to-end benchmark.

The tracer wraps public entry points of each ``repro`` layer from the
benchmark's side; it never edits ``src/``.  Rules it follows:

* names are patched where callers look them up (a class attribute for
  methods, the importing module's global for ``from x import f``
  names), and every patch is undone by :meth:`Tracer.restore`;
* coarse boundaries (work units, drivers, lint passes, store I/O) keep
  a full span record: name, start, end, parent and the run id;
* per-tick boundaries keep only aggregated calls and times per
  (parent, name), which bounds memory on the ~10^5 fleet lane-ticks;
* a layer's self time is its spans' duration minus the part covered by
  child spans, so self times of all layers sum to at most the wall time;
* generator entry points are drained inside their span, so the span
  covers the work and not just the generator's creation;
* everything stays in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import pickle
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

ROOT = "workload"


class Tracer:
    """A span stack with per-(parent, name) aggregates and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.started = perf_counter()
        # Frames are [name, start, child_time, span_index]; the root
        # frame collects the time no layer span covers.
        self._stack: list[list] = [[ROOT, self.started, 0.0, -1]]
        #: (parent name, name) -> [calls, total seconds, self seconds].
        self.aggregates: dict[tuple[str, str], list] = {}
        #: Full records of coarse spans.
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        #: Durations (ms) of individual pipeline work units.
        self.unit_ms: list[float] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.wall_s = 0.0

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str, coarse: bool) -> None:
        index = -1
        if coarse:
            index = len(self.spans)
            # The parent record is the nearest coarse ancestor (-1: root).
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            self.spans.append({"run": self.run_id, "name": name, "parent": parent})
        self._stack.append([name, perf_counter(), 0.0, index])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, index = self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[2] += duration
        key = (parent[0], name)
        entry = self.aggregates.get(key)
        if entry is None:
            self.aggregates[key] = [1, duration, duration - child]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
        if index >= 0:
            record = self.spans[index]
            record["start"] = start - self.started
            record["end"] = end - self.started

    @contextlib.contextmanager
    def span(self, name: str):
        """A coarse span opened by the benchmark around its own calls."""
        self.enter(name, True)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def finish(self) -> None:
        """Close the root frame; its self time is the unattributed time."""
        end = perf_counter()
        name, start, child, _ = self._stack[0]
        self.wall_s = end - start
        self.aggregates[("", ROOT)] = [1, self.wall_s, self.wall_s - child]

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original_function)``.

        Class- and static-methods are unwrapped and rewrapped so the
        descriptor type survives; :meth:`restore` puts back the exact
        original object (or deletes the attribute if it was inherited).
        """
        original = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def traced(
        self,
        name: str,
        coarse: bool = False,
        drain: bool = False,
        on_result: Callable[["Tracer", object], None] | None = None,
        counter: str | None = None,
    ) -> Callable[[Callable], Callable]:
        """Wrapper factory for :meth:`patch`."""

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                self.enter(name, coarse)
                try:
                    result = func(*args, **kwargs)
                    if drain:
                        result = list(result)
                finally:
                    self.exit()
                if counter is not None:
                    self.count(counter)
                if on_result is not None:
                    on_result(self, result)
                return iter(result) if drain else result

            return wrapper

        return make

    def timed_units(self, func: Callable) -> Callable:
        """Wrap a backend's ``run`` generator: time each unit, size each result.

        Each ``next()`` on :meth:`SerialBackend.run` executes exactly one
        unit, so its duration is that unit's.  No span is opened: unit
        time stays with the layer spans inside it and the enclosing
        stage, and a generator suspended inside a span would corrupt the
        stack.
        """

        @functools.wraps(func)
        def run(backend, units):
            stream = func(backend, units)
            while True:
                start = perf_counter()
                try:
                    result = next(stream)
                except StopIteration:
                    return
                self.unit_ms.append((perf_counter() - start) * 1000.0)
                # Sizing is tracing overhead: its own span keeps it out
                # of the enclosing stage's self time.
                self.enter("trace.pickle", False)
                size = len(pickle.dumps(result))
                self.exit()
                self.count("pipeline.result_bytes", size)
                yield result

        return run


class NullTracer:
    """The untraced run's stand-in: stage spans cost one no-op ``with``."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


# ---------------------------------------------------------------------------
# What gets wrapped


def _count_len(name: str) -> Callable[[Tracer, object], None]:
    def on_result(tracer: Tracer, result) -> None:
        tracer.count(name, len(result))

    return on_result


def _count_graph(tracer: Tracer, result) -> None:
    _, stats = result
    tracer.count("lint.graph.components", stats.components)
    tracer.count("lint.graph.cycles_checked", stats.cycles_checked)


def _count_coverage(tracer: Tracer, result) -> None:
    tracer.count("lint.coverage.cells_analyzed", result[1].cells_analyzed)


def _count_findings(tracer: Tracer, result) -> None:
    tracer.count("lint.findings", len(result.findings))


def _saved_bytes(func: Callable, tracer: Tracer) -> Callable:
    inner = tracer.traced("datasets.store.save", coarse=True)(func)

    @functools.wraps(func)
    def save(store, path):
        inner(store, path)
        tracer.count("datasets.store.bytes", os.path.getsize(path))

    return save


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of ``repro`` (undo: ``restore``)."""
    from repro.cellnet.world import RadioEnvironment
    from repro.core.crawler import ConfigCrawler
    from repro.core.mmlab import MMLab
    from repro.datasets import d2 as d2_module
    from repro.datasets.store import ConfigSampleStore, HandoffInstanceStore
    from repro.experiments import registry
    from repro.lint import engine as lint_engine
    from repro.lint.coverage import CoverageAnalyzer
    from repro.lint.graph import GraphAnalyzer
    from repro.lint.rules import RegisteredRule
    from repro.pipeline.backends import SerialBackend
    from repro.rrc import diag as diag_module
    from repro.rrc.broadcast import ConfigServer
    from repro.simulate.fleet import FleetSimulator
    from repro.simulate.runner import DriveSimulator
    from repro.ue.device import UserEquipment
    from repro.ue.measurement import BatchMeasurementState, MeasurementEngine
    from repro.ue.reporting import EventMonitor

    t = tracer.traced
    fine = [
        (RadioEnvironment, "snapshot", t("cellnet.snapshot")),
        (RadioEnvironment, "snapshot_batch", t("cellnet.snapshot")),
        (RadioEnvironment, "cells_near", t("cellnet.cells_near")),
        (ConfigServer, "lte_config", t("config.lte_config")),
        (ConfigServer, "sib_messages", t("rrc.broadcast")),
        (ConfigServer, "connection_reconfiguration", t("rrc.broadcast")),
        (diag_module, "encode_message", t("rrc.codec.encode")),
        (diag_module, "decode_message", t("rrc.codec.decode")),
        (diag_module.DiagWriter, "write", t("rrc.diag.write")),
        (diag_module.DiagWriter, "getvalue", t("rrc.diag.write", on_result=_count_len("rrc.diag.bytes"))),
        (UserEquipment, "tick", t("ue.device")),
        (UserEquipment, "quiet_tick", t("ue.device", counter="ue.device.quiet")),
        (MeasurementEngine, "step", t("ue.measurement")),
        (BatchMeasurementState, "step", t("ue.measurement")),
        (EventMonitor, "step", t("ue.events")),
        (EventMonitor, "step_round", t("ue.events")),
        (ConfigSampleStore, "extend", t("datasets.store.extend")),
        (HandoffInstanceStore, "extend", t("datasets.store.extend")),
    ]
    coarse = [
        (DriveSimulator, "run", t("simulate.runner", coarse=True)),
        (FleetSimulator, "simulate", t("simulate.fleet", coarse=True)),
        (ConfigCrawler, "crawl", t("core.crawler", coarse=True)),
        (d2_module, "crawl_config_samples",
         t("core.crawler", coarse=True, on_result=_count_len("core.crawler.samples"))),
        (MMLab, "extract_handoffs",
         t("core.handoffs", coarse=True, on_result=_count_len("core.handoffs.instances"))),
        (ConfigSampleStore, "load", t("datasets.store.load", coarse=True)),
        (lint_engine, "world_snapshots", t("lint.snapshots", coarse=True)),
        (lint_engine, "lint_snapshots", t("lint.rules", coarse=True, on_result=_count_findings)),
        (lint_engine, "warn_before_run", t("lint.preflight", coarse=True)),
        (RegisteredRule, "check", t("lint.rules", coarse=True, drain=True)),
        (GraphAnalyzer, "analyze", t("lint.graph", coarse=True, on_result=_count_graph)),
        (CoverageAnalyzer, "analyze", t("lint.coverage", coarse=True, on_result=_count_coverage)),
    ]
    for owner, attr, make in fine + coarse:
        tracer.patch(owner, attr, make)
    for store in (ConfigSampleStore, HandoffInstanceStore):
        tracer.patch(store, "save", lambda func: _saved_bytes(func, tracer))
    tracer.patch(SerialBackend, "run", tracer.timed_units)

    def driver_span(func: Callable) -> Callable:
        @functools.wraps(func)
        def run(exp_id: str, **kwargs):
            with tracer.span(f"analysis.{exp_id}"):
                return func(exp_id, **kwargs)

        return run

    tracer.patch(registry, "run", driver_span)


@dataclass
class Trace:
    """A finished trace, JSON-ready.

    ``self_s`` and ``calls`` are summed per span name; ``tree`` keeps
    the per-(parent, name) rows ``[parent, name, calls, total_s,
    self_s]`` and ``spans`` the coarse span records.
    """

    wall_s: float
    self_s: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, float]
    unit_ms: list[float]
    tree: list[list]
    spans: list[dict]


def reduce(tracer: Tracer) -> Trace:
    """Sum self time and calls per span name over all parents."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (_, name), (n, _, own) in tracer.aggregates.items():
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + n
    return Trace(
        wall_s=tracer.wall_s,
        self_s=self_s,
        calls=calls,
        counters=dict(tracer.counters),
        unit_ms=list(tracer.unit_ms),
        tree=[[parent, name, *row] for (parent, name), row in tracer.aggregates.items()],
        spans=list(tracer.spans),
    )
