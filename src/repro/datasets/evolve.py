"""Synthetic configuration-evolution timelines for the drift analyzer.

The paper's longitudinal observations (Section 5.3, Fig. 22) are about
networks *changing*: parameters retuned over months-long campaigns,
measurement profiles migrated in patch rollouts, and the occasional
regression that ships a handoff loop.  This module manufactures those
histories deterministically on top of the 3-cell loop-fixture world
(:mod:`repro.lint.fixtures`), producing a sequence of
:class:`~repro.lint.snapshot.ConfigSnapshot` captures that
``repro lint --diff`` can gate on and the HC3xx drift rules can test
against.

Scenarios:

``retune``
    A gradual campaign: ``thresh_x_high_p`` walks down 2 dB per capture
    (monotonic — deliberately *not* flapping).
``patch-rollout``
    The final capture swaps the armed A5 coverage event for a benign A2
    serving-only event: a measurement-profile migration that introduces
    no findings.
``loop-regression``
    The final capture ships the misconfigured loop-fixture configs —
    the priority ring plus ceiling-threshold A5 whose handoff graph
    contains a guaranteed 3-layer loop (HC201).  The drift gate must
    fail this one.
``clean``
    The final capture bumps ``q_hyst`` by 2 dB: a harmless change the
    gate must pass.
``flapping``
    ``q_hyst`` alternates between two values on every capture — the
    dueling-retunes churn HC303 exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.config.events import EventConfig, EventType
from repro.config.lte import LteCellConfig
from repro.lint.fixtures import StaticConfigServer, loop_fixture
from repro.lint.snapshot import ConfigSnapshot

#: Every generator scenario, in documentation order.
SCENARIOS = ("retune", "patch-rollout", "loop-regression", "clean", "flapping")

#: The benign serving-only event the patch rollout migrates to.
_PATCH_EVENT = EventConfig(
    event=EventType.A2,
    threshold1=-110.0,
    hysteresis=2.0,
    time_to_trigger_ms=640,
)


@dataclass(frozen=True)
class EvolveOptions:
    """Parameters of one generated timeline.

    Attributes:
        scenario: One of :data:`SCENARIOS`.
        steps: Number of captures in the timeline (>= 2).
        interval_days: Observation-day spacing between captures.
        seed: Config-server seed (affects only profile-derived cells,
            of which the fixture world has none — kept for parity with
            the other dataset builders).
    """

    scenario: str = "retune"
    steps: int = 3
    interval_days: float = 30.0
    seed: int = 2018

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r} (choose from {SCENARIOS})"
            )
        if self.steps < 2:
            raise ValueError("a timeline needs at least 2 captures")


@dataclass
class SnapshotTimeline:
    """An ordered sequence of captures of one evolving world."""

    scenario: str
    snapshots: tuple[ConfigSnapshot, ...]

    def __len__(self) -> int:
        return len(self.snapshots)

    def save(self, out_dir: str | Path) -> list[Path]:
        """Write ``snapshot-000.json`` ... into ``out_dir`` (created)."""
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for index, snapshot in enumerate(self.snapshots):
            path = directory / f"snapshot-{index:03d}.json"
            snapshot.save(path)
            paths.append(path)
        return paths


def _with_q_hyst(config: LteCellConfig, q_hyst: float) -> LteCellConfig:
    return replace(config, serving=replace(config.serving, q_hyst=q_hyst))


def _with_thresh_x_high(config: LteCellConfig, value: float) -> LteCellConfig:
    layers = tuple(
        replace(layer, thresh_x_high_p=value)
        for layer in config.inter_freq_layers
    )
    return replace(config, inter_freq_layers=layers)


def _with_patch_profile(config: LteCellConfig) -> LteCellConfig:
    return replace(config, measurement=replace(config.measurement, events=(_PATCH_EVENT,)))


def evolve_timeline(options: EvolveOptions = EvolveOptions()) -> SnapshotTimeline:
    """Generate one deterministic multi-capture timeline.

    Same options, same timeline: the fixture world is deterministic and
    every capture is a pure function of (scenario, step).
    """
    base = loop_fixture(misconfigured=False)
    broken = loop_fixture(misconfigured=True)
    snapshots = []
    for step in range(options.steps):
        final = step == options.steps - 1
        if options.scenario == "loop-regression" and final:
            configs = dict(broken.server.configs)
        else:
            configs = {}
            for cell_id, config in base.server.configs.items():
                if options.scenario == "retune":
                    config = _with_thresh_x_high(config, 12.0 - 2.0 * step)
                elif options.scenario == "patch-rollout" and final:
                    config = _with_patch_profile(config)
                elif options.scenario == "clean" and final:
                    config = _with_q_hyst(config, 6.0)
                elif options.scenario == "flapping":
                    config = _with_q_hyst(config, 4.0 if step % 2 == 0 else 6.0)
                configs[cell_id] = config
        server = StaticConfigServer(base.env, configs, seed=options.seed)
        snapshots.append(
            ConfigSnapshot.capture_world(
                base.env,
                server,
                label=f"{options.scenario}-{step:03d}",
                captured_day=step * options.interval_days,
            )
        )
    return SnapshotTimeline(scenario=options.scenario, snapshots=tuple(snapshots))
