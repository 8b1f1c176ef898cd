"""Handoff-policy inference from crawled configurations (Section 6).

The paper closes by asking how to "learn the handoff policies" behind
the observed configurations, and sketches the axis its Section 4.1
discussion sets up: *performance-driven* policies hand off early (the
permissive A5 serving threshold, small A3 offsets), while
*overhead-driven* ones defer handoffs to save signaling (strict A5
thresholds, large offsets, long time-to-trigger).

``classify_policy`` scores one measConfig along that axis and labels
it; ``carrier_policy_profile`` aggregates labels per carrier, which is
the kind of per-operator fingerprint the paper envisions inferring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.config.events import EventConfig, EventType
from repro.config.lte import MeasurementConfig

#: Label boundaries on the eagerness score.
_EAGER_BOUND = 0.25
_RELUCTANT_BOUND = -0.25


@dataclass(frozen=True)
class PolicyLabel:
    """The inferred policy of one cell's active-state configuration.

    Attributes:
        label: "performance-driven", "balanced" or "overhead-driven".
        eagerness: Score in [-1, 1]; positive = hands off early.
        trigger: The policy-defining event type ("A3", "A5", "P", or
            "none" when only serving-only events are armed).
    """

    label: str
    eagerness: float
    trigger: str


def _a3_eagerness(event: EventConfig) -> float:
    """Small offsets and short TTT hand off early."""
    offset_term = (4.0 - event.offset) / 8.0           # 0 dB -> +0.5, 12 dB -> -1
    ttt_term = (640.0 - event.time_to_trigger_ms) / 2560.0
    return max(min(offset_term + ttt_term, 1.0), -1.0)


def _a5_eagerness(event: EventConfig) -> float:
    """A permissive serving threshold hands off early (paper 4.1)."""
    if event.metric == "rsrp":
        threshold = event.threshold1 if event.threshold1 is not None else -110.0
        # -44 (no requirement) -> +1; -120 (strict) -> -1.
        serving_term = (threshold + 82.0) / 38.0
    else:
        threshold = event.threshold1 if event.threshold1 is not None else -14.0
        serving_term = (threshold + 14.0) / 4.0
    return max(min(serving_term, 1.0), -1.0)


def classify_policy(meas_config: MeasurementConfig) -> PolicyLabel:
    """Label one measConfig on the performance/overhead axis."""
    trigger = "none"
    eagerness = 0.0
    for event in meas_config.events:
        if event.event is EventType.A3:
            trigger = "A3"
            eagerness = _a3_eagerness(event)
            break
        if event.event is EventType.A5:
            trigger = "A5"
            eagerness = _a5_eagerness(event)
            break
    else:
        if meas_config.periodic is not None:
            trigger = "P"
            # Short periodic intervals surface candidates sooner.
            eagerness = (5120.0 - meas_config.periodic.report_interval_ms) / 10240.0
    if eagerness > _EAGER_BOUND:
        label = "performance-driven"
    elif eagerness < _RELUCTANT_BOUND:
        label = "overhead-driven"
    else:
        label = "balanced"
    return PolicyLabel(label=label, eagerness=eagerness, trigger=trigger)


def carrier_policy_profile(snapshots) -> dict[str, dict]:
    """Aggregate policy labels per carrier over crawled snapshots.

    Returns, per carrier: label shares, mean eagerness and the trigger
    mix — an operator-level policy fingerprint.
    """
    per_carrier: dict[str, list[PolicyLabel]] = {}
    for snapshot in snapshots:
        if snapshot.meas_config is None:
            continue
        per_carrier.setdefault(snapshot.carrier, []).append(
            classify_policy(snapshot.meas_config)
        )
    out: dict[str, dict] = {}
    for carrier, labels in sorted(per_carrier.items()):
        counts = Counter(policy.label for policy in labels)
        triggers = Counter(policy.trigger for policy in labels)
        total = len(labels)
        out[carrier] = {
            "n": total,
            "labels": {k: v / total for k, v in counts.items()},
            "triggers": {k: v / total for k, v in triggers.items()},
            "mean_eagerness": sum(policy.eagerness for policy in labels) / total,
        }
    return out
