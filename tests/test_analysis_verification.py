"""Configuration verification (paper Section 6) through ``repro.lint``.

The paper's automated verification tool is the lint rule engine; these
cases audit hand-built snapshots with the rules each finding belongs to.
"""

from repro.config.events import EventConfig, EventType
from repro.config.lte import (
    InterFreqLayerConfig,
    LteCellConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.core.crawler import CellConfigSnapshot
from repro.lint.engine import lint_snapshots
from repro.lint.findings import summarize
from repro.lint.rules import all_rules


def _snapshot(gci=1, channel=850, serving=None, layers=(), meas=None):
    config = LteCellConfig(
        serving=serving or ServingCellConfig(),
        inter_freq_layers=tuple(layers),
    )
    return CellConfigSnapshot(
        carrier="A", gci=gci, rat="LTE", channel=channel, city="X",
        first_seen_ms=0, lte_config=config, meas_config=meas,
    )


def test_clean_snapshot_minimal_findings():
    snapshot = _snapshot(
        serving=ServingCellConfig(
            s_intra_search_p=30.0, s_non_intra_search_p=8.0,
            thresh_serving_low_p=6.0,
        )
    )
    cell_codes = [r.code for r in all_rules() if r.scope == "cell"]
    assert lint_snapshots([snapshot], codes=cell_codes).findings == []


def test_negative_a3_offset_flagged():
    meas = MeasurementConfig(events=(
        EventConfig(event=EventType.A3, offset=-1.0, hysteresis=1.0),
    ))
    findings = lint_snapshots([_snapshot(meas=meas)], codes=["HC002"]).findings
    flagged = [f for f in findings if f.code == "HC002"]
    assert flagged and flagged[0].name == "a3-negative-offset"


def test_a5_no_serving_requirement_flagged():
    meas = MeasurementConfig(events=(
        EventConfig(event=EventType.A5, threshold1=-44.0, threshold2=-114.0),
    ))
    findings = lint_snapshots([_snapshot(meas=meas)], codes=["HC003", "HC004"]).findings
    codes = {f.code for f in findings}
    assert "HC003" in codes
    assert "HC004" in codes


def test_premature_measurement_flagged():
    snapshot = _snapshot(
        serving=ServingCellConfig(
            s_intra_search_p=62.0, s_non_intra_search_p=8.0,
            thresh_serving_low_p=6.0,
        )
    )
    findings = lint_snapshots([snapshot], codes=["HC006"]).findings
    assert any(f.code == "HC006" for f in findings)


def test_late_nonintra_flagged():
    snapshot = _snapshot(
        serving=ServingCellConfig(
            s_intra_search_p=20.0, s_non_intra_search_p=2.0,
            thresh_serving_low_p=6.0,
        )
    )
    findings = lint_snapshots([snapshot], codes=["HC007"]).findings
    assert any(f.code == "HC007" for f in findings)


def test_nonintra_above_intra_is_problem():
    snapshot = _snapshot(
        serving=ServingCellConfig(
            s_intra_search_p=8.0, s_non_intra_search_p=20.0,
            thresh_serving_low_p=6.0,
        )
    )
    findings = lint_snapshots([snapshot], codes=["HC005"]).findings
    problem = [f for f in findings if f.code == "HC005"]
    assert problem and problem[0].severity == "problem"


def test_priority_conflict_detection():
    snapshots = [
        _snapshot(gci=1, channel=850,
                  serving=ServingCellConfig(cell_reselection_priority=3)),
        _snapshot(gci=2, channel=850,
                  serving=ServingCellConfig(cell_reselection_priority=4)),
    ]
    findings = lint_snapshots(snapshots, codes=["HC101"]).findings
    assert len(findings) == 1
    assert findings[0].code == "HC101"


def test_priority_loop_detection():
    """Cell on 850 prefers 1975; cell on 1975 prefers 850: a loop."""
    snapshots = [
        _snapshot(
            gci=1, channel=850,
            serving=ServingCellConfig(cell_reselection_priority=3),
            layers=[InterFreqLayerConfig(dl_carrier_freq=1975,
                                         cell_reselection_priority=5)],
        ),
        _snapshot(
            gci=2, channel=1975,
            serving=ServingCellConfig(cell_reselection_priority=3),
            layers=[InterFreqLayerConfig(dl_carrier_freq=850,
                                         cell_reselection_priority=5)],
        ),
    ]
    findings = lint_snapshots(snapshots, codes=["HC103"]).findings
    assert any(f.code == "HC103" for f in findings)
    assert findings[0].severity == "problem"


def test_no_loop_with_consistent_priorities():
    snapshots = [
        _snapshot(
            gci=1, channel=850,
            serving=ServingCellConfig(cell_reselection_priority=3),
            layers=[InterFreqLayerConfig(dl_carrier_freq=1975,
                                         cell_reselection_priority=5)],
        ),
        _snapshot(
            gci=2, channel=1975,
            serving=ServingCellConfig(cell_reselection_priority=5),
            layers=[InterFreqLayerConfig(dl_carrier_freq=850,
                                         cell_reselection_priority=3)],
        ),
    ]
    assert lint_snapshots(snapshots, codes=["HC103"]).findings == []


def test_summarize_counts():
    meas = MeasurementConfig(events=(
        EventConfig(event=EventType.A3, offset=-1.0, hysteresis=1.0),
    ))
    snapshots = [_snapshot(meas=meas), _snapshot(gci=2, meas=meas)]
    summary = summarize(lint_snapshots(snapshots, codes=["HC002"]).findings)
    assert summary["HC002"] == 2


def test_audit_real_population(tiny_d2, server):
    """The synthetic carriers should trip some of the paper's findings."""
    from repro.core.crawler import ConfigCrawler

    snapshots = []
    from repro.cellnet.rat import RAT
    from repro.rrc.diag import DiagWriter

    cells = [c for c in tiny_d2.plan.registry.by_carrier("A")
             if c.rat is RAT.LTE][:200]
    writer = DiagWriter.in_memory()
    for cell in cells:
        for message in tiny_d2.server.sib_messages(cell):
            writer.write(0, message)
        writer.write(0, tiny_d2.server.connection_reconfiguration(cell))
    snapshots = ConfigCrawler.crawl(writer.getvalue())
    findings = lint_snapshots(snapshots, codes=["HC006"]).findings
    codes = {f.code for f in findings}
    assert "HC006" in codes
