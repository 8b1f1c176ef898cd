"""End-to-end integration tests: the full MMLab pipeline and the paper's
headline shape findings on the shared dataset builds.
"""

import numpy as np

from repro.core import MMLab
from repro.core.analysis.events import event_mix
from repro.core.analysis.performance import idle_rsrp_change, rsrp_change_by_event
from repro.core.analysis.thresholds import threshold_gaps
from repro.simulate.runner import DriveSimulator
from repro.simulate.traffic import Speedtest


def test_full_pipeline_drive_to_analysis(scenario):
    """One Type-II run through every stage: drive -> diag log -> crawl ->
    instances -> analysis, never touching simulator internals."""
    sim = DriveSimulator(scenario.env, scenario.server, "A", seed=31)
    trajectory = scenario.urban_trajectory(np.random.default_rng(71), duration_s=360.0)
    result = sim.run(trajectory, Speedtest())
    mmlab = MMLab()
    snapshots = mmlab.crawl(result.diag_log)
    assert snapshots
    instances = mmlab.extract_handoffs(
        result.diag_log, "A", throughput_series=result.throughput_series()
    )
    # Cross-check: the crawled snapshots cover exactly the camped cells.
    camped = {s.gci for s in snapshots}
    for instance in instances:
        assert instance.source_gci in camped
        assert instance.target_gci in camped


def test_finding_a3_dominates_and_improves(tiny_d1):
    """Finding 2a-ish: A3 handoffs overwhelmingly improve RSRP."""
    report = rsrp_change_by_event(tiny_d1.store, "A")
    if report.scatter["A3"]:
        assert report.improved["A3"] > 0.8


def test_finding_a5_weaker_targets_exist(tiny_d1):
    """Fig. 6: A5 is the event that produces weaker-target handoffs."""
    report = rsrp_change_by_event(tiny_d1.store, "A")
    if len(report.scatter["A5"]) >= 5:
        assert report.improved["A5"] < report.improved["A3"]


def test_finding_idle_equal_always_improves(tiny_d1):
    classes = idle_rsrp_change(tiny_d1.store)
    for cls in ("intra", "non-intra(E)"):
        if classes[cls]["n"] >= 3:
            assert classes[cls]["improved"] == 1.0


def test_finding_threshold_ordering(tiny_d2):
    """Fig. 11: Theta_intra >= Theta_nonintra over the population."""
    report = threshold_gaps(tiny_d2.store)
    assert report.intra_minus_nonintra
    assert report.violation_fraction == 0.0
    assert min(report.intra_minus_nonintra) >= 0.0


def test_finding_event_mix_matches_profiles(tiny_d1):
    """The decisive-event mix should echo the carrier policy mix."""
    report = event_mix(tiny_d1.store, "A")
    if report.n_instances >= 20:
        assert report.share("A3") + report.share("A5") > 0.6
        assert report.share("A3") > 0.3
        assert report.share("A4") < 0.2


def test_d2_is_collected_through_logs_only(tiny_d2):
    """Every sample's cell must exist in the deployment, with matching
    channel — evidence the crawler reconstructed identity correctly."""
    from repro.cellnet.cell import CellId

    checked = 0
    for sample in tiny_d2.store:
        cell = tiny_d2.plan.registry.get(CellId(sample.carrier, sample.gci))
        assert cell.rat.value == sample.rat
        assert cell.city == sample.city
        checked += 1
        if checked > 2000:
            break


def test_crawled_priorities_match_profiles(tiny_d2):
    """Serving priorities in D2 equal what the profile would generate."""
    from repro.cellnet.cell import CellId

    count = 0
    for sample in tiny_d2.store:
        if sample.parameter != "cell_reselection_priority":
            continue
        cell = tiny_d2.plan.registry.get(CellId(sample.carrier, sample.gci))
        base = tiny_d2.server.lte_config(cell)
        # Temporal churn can move a few values; the base must match for
        # the overwhelming majority.
        if base.serving.cell_reselection_priority == sample.value:
            count += 1
        if count > 300:
            break
    assert count > 250
