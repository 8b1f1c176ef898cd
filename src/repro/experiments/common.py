"""Shared experiment infrastructure.

The paper's figures draw from two datasets; building them is the
expensive part, so the default builds are process-cached and shared by
every driver and benchmark.  Scale knobs:

* ``default_d1()`` — a laptop-scale D1 (hundreds of instances); the
  figures' shapes are stable at this size.
* ``default_d2()`` — a mid-scale D2 (thousands of cells, ~1M samples).
* ``paper_scale_d2_options()`` — the largest D2 recipe here (6,653
  cells and 2.64M samples at config seed 2018), still a fifth of the
  paper's 32,033 cells.

Both default builds run on the work-unit pipeline; pass ``workers=N``
(or set ``REPRO_WORKERS``) to fan sessions/drives out over a process
pool.  Worker count never changes D2; D1 drives can differ in a pool
of cold workers (see :mod:`repro.pipeline`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from repro.datasets.d1 import D1Build, D1Options, build_d1
from repro.datasets.d2 import D2Build, D2Options, build_d2
from repro.pipeline import default_workers
from repro.simulate.scenarios import DriveScenario, drive_scenario


@dataclass
class ExperimentResult:
    """Printable result of one experiment driver.

    Attributes:
        exp_id: Experiment id ("fig06", "tab04", ...).
        title: Human-readable title matching the paper's artifact.
        rows: Printable rows — tuples of (label, *values).
        notes: Free-form remarks (sample sizes, caveats).
    """

    exp_id: str
    title: str
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *row) -> None:
        self.rows.append(tuple(row))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def formatted(self) -> str:
        lines = [f"== {self.exp_id}: {self.title} =="]
        for row in self.rows:
            cells = []
            for value in row:
                if isinstance(value, float):
                    cells.append(f"{value:.3f}")
                else:
                    cells.append(str(value))
            lines.append("  " + "  ".join(cells))
        for note in self.notes:
            lines.append(f"  # {note}")
        return "\n".join(lines)

    def print(self) -> None:
        print(self.formatted())


#: Default D1 scale: all four carriers, a few drives each.
DEFAULT_D1_OPTIONS = D1Options(
    seed=7,
    config_seed=2018,
    scenario="indianapolis",
    active_drives=4,
    idle_drives=3,
    drive_duration_s=600.0,
    carriers=("A", "T", "V", "S"),
)

#: Default D2 scale: full volunteer population plus the dense sweeps
#: over the default world (~10k deployed cells).
DEFAULT_D2_OPTIONS = D2Options(
    seed=7,
    config_seed=2018,
    n_volunteers=35,
    extra_rings=0,
    include_dense=True,
)


def paper_scale_d2_options() -> D2Options:
    """The largest D2 recipe: three extra deployment rings, dense cities.

    At config seed 2018 it builds 6,653 cells and 2,640,114 samples,
    against the paper's 32,033 cells and 7,996,149 samples (Section 5):
    about a fifth of the cells and a third of the samples.
    """
    return D2Options(
        seed=7,
        config_seed=2018,
        n_volunteers=35,
        extra_rings=3,
        include_dense=True,
    )


def default_d1(scale: float = 1.0, workers: int | None = None) -> D1Build:
    """The shared default D1 build (cached per process).

    ``workers`` defaults to ``REPRO_WORKERS`` (else 1).
    """
    return _default_d1_cached(scale, workers if workers is not None else default_workers())


@functools.lru_cache(maxsize=2)
def _default_d1_cached(scale: float, workers: int) -> D1Build:
    options = replace(DEFAULT_D1_OPTIONS, scale=scale, workers=workers)
    return build_d1(options)


def default_d2(workers: int | None = None) -> D2Build:
    """The shared default D2 build (cached per process).

    ``workers`` defaults to ``REPRO_WORKERS`` (else 1).
    """
    return _default_d2_cached(workers if workers is not None else default_workers())


@functools.lru_cache(maxsize=1)
def _default_d2_cached(workers: int) -> D2Build:
    return build_d2(replace(DEFAULT_D2_OPTIONS, workers=workers))


@functools.lru_cache(maxsize=1)
def default_scenario() -> DriveScenario:
    """The shared Type-II scenario for controlled experiments."""
    return drive_scenario("indianapolis", seed=7, config_seed=2018)
