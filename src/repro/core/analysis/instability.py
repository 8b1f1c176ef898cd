"""Runtime handoff-instability analysis.

The paper's prior work ([22] "Instability in Distributed Mobility
Management", [24], [27]) proves that conflicting configurations cause
*persistent handoff loops*; Section 5.4.1 finds the preconditions (multi-
valued priorities) are "not as rare as we anticipated".  This module
closes the loop at runtime: given a trace's handoff instances, find the
oscillations, and relate them to the static findings of
:mod:`repro.lint` (priority conflicts HC101, priority loops HC103).

Two runtime patterns are detected:

* **ping-pong** — A -> B -> A within a short window: normal radio
  dynamics (damped by hysteresis/TTT) or an equal-priority conflict;
* **loop** — a cycle over >= 2 cells traversed at least twice in
  succession (A -> B -> A -> B, or A -> B -> C -> A -> B -> C): the
  signature of conflicting priority configurations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.datasets.records import HandoffInstance
from repro.simulate.fleet import count_ping_pongs


@dataclass(frozen=True)
class HandoffLoop:
    """One detected oscillation."""

    cells: tuple[int, ...]
    start_ms: int
    end_ms: int
    traversals: int

    @property
    def period_ms(self) -> float:
        """Mean time for one traversal of the cycle."""
        return (self.end_ms - self.start_ms) / max(self.traversals, 1)


@dataclass
class InstabilityReport:
    """Trace-level instability summary."""

    n_handoffs: int = 0
    n_ping_pongs: int = 0
    loops: list[HandoffLoop] = field(default_factory=list)
    #: (source, target) pair -> traversal count, for hot-pair spotting.
    pair_counts: Counter = field(default_factory=Counter)

    @property
    def ping_pong_rate(self) -> float:
        if self.n_handoffs <= 1:
            return 0.0
        return self.n_ping_pongs / (self.n_handoffs - 1)

    @property
    def looping_cells(self) -> set[int]:
        cells: set[int] = set()
        for loop in self.loops:
            cells.update(loop.cells)
        return cells


def detect_instability(
    instances: list[HandoffInstance],
    max_cycle_length: int = 3,
    min_traversals: int = 2,
) -> InstabilityReport:
    """Analyze one trace's handoff sequence for oscillations.

    Instances must come from a single device trace (they are ordered by
    time).  A cycle of length L is reported when the same L-cell
    sequence repeats ``min_traversals`` times back-to-back.
    """
    ordered = sorted(instances, key=lambda i: i.time_ms)
    report = InstabilityReport(n_handoffs=len(ordered))
    report.pair_counts.update((i.source_gci, i.target_gci) for i in ordered)
    report.n_ping_pongs = count_ping_pongs(
        (i.source_gci, i.target_gci, i.time_ms) for i in ordered
    )
    # Cycle detection over the serving-cell sequence.
    sequence = [ordered[0].source_gci] + [i.target_gci for i in ordered] if ordered else []
    times = [ordered[0].time_ms] + [i.time_ms for i in ordered] if ordered else []
    for length in range(2, max_cycle_length + 1):
        i = 0
        while i + length * (min_traversals + 1) <= len(sequence):
            window = sequence[i : i + length]
            traversals = 0
            j = i + length
            while (
                j + length <= len(sequence)
                and sequence[j : j + length] == window
            ):
                traversals += 1
                j += length
            if traversals >= min_traversals and len(set(window)) == length:
                report.loops.append(
                    HandoffLoop(
                        cells=tuple(window),
                        start_ms=times[i],
                        end_ms=times[min(j, len(times) - 1)],
                        traversals=traversals + 1,
                    )
                )
                i = j
            else:
                i += 1
    return report


def correlate_with_conflicts(
    report: InstabilityReport, conflicted_channels_cells: set[int]
) -> float:
    """Fraction of looping cells that sit on conflicted channels.

    ``conflicted_channels_cells`` comes from the static verification
    side (cells on channels with multiple priority values); a high
    overlap is the paper's argued causal link between configuration
    conflicts and runtime instability.
    """
    looping = report.looping_cells
    if not looping:
        return 0.0
    return len(looping & conflicted_channels_cells) / len(looping)
