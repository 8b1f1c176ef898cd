"""MMLab: the paper's device-centric measurement system.

MMLab crawls handoff configurations from the signaling messages a phone
already receives, assesses handoff performance from the device side, and
analyzes the result — all without operator assistance.  This package is
the reproduction of that system:

* :mod:`repro.core.collector` — the on-device trace collector
  (MobileInsight's role): listens to the UE's message stream and writes
  the binary diag log.
* :mod:`repro.core.crawler` — parses diag logs back into per-cell
  configuration snapshots and flat configuration samples (dataset D2's
  unit).
* :mod:`repro.core.handoffs` — extracts handoff instances (dataset D1's
  unit) from the same logs, including each instance's decisive event
  and before/after radio quality.
* :mod:`repro.core.mmlab` — the facade tying collection, crawling and
  analysis together.
* :mod:`repro.core.analysis` — the study's analysis toolkit (diversity
  metrics, temporal/spatial/frequency dependence, performance impacts,
  prediction); configuration verification is :mod:`repro.lint`.
"""

from repro.core.collector import MMLabCollector
from repro.core.crawler import ConfigCrawler, CellConfigSnapshot
from repro.core.handoffs import extract_handoff_instances
from repro.core.mmlab import MMLab
from repro.core.scanner import proactive_scan
from repro.core.server import MMLabServer, ExperimentPatch

__all__ = [
    "MMLabCollector",
    "ConfigCrawler",
    "CellConfigSnapshot",
    "extract_handoff_instances",
    "MMLab",
    "proactive_scan",
    "MMLabServer",
    "ExperimentPatch",
]
