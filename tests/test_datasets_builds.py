"""Tests for the D1/D2 dataset builders (using the session fixtures)."""

from collections import Counter

from repro.cellnet.rat import RAT


# -- D1 -----------------------------------------------------------------------

def test_d1_has_both_kinds(tiny_d1):
    assert len(tiny_d1.store.active()) > 0
    assert len(tiny_d1.store.idle()) > 0


def test_d1_instances_are_lte_only(tiny_d1):
    env = tiny_d1.scenario.env
    from repro.cellnet.cell import CellId

    for instance in tiny_d1.store:
        source = env.get_cell(CellId(instance.carrier, instance.source_gci))
        target = env.get_cell(CellId(instance.carrier, instance.target_gci))
        assert source.rat is RAT.LTE
        assert target.rat is RAT.LTE


def test_d1_active_instances_have_decisive_events(tiny_d1):
    events = Counter(i.decisive_event for i in tiny_d1.store.active())
    assert None not in events
    assert events  # at least one event type observed
    assert set(events) <= {"A1", "A2", "A3", "A4", "A5", "P"}


def test_d1_a3_dominates(tiny_d1):
    """Fig. 5's headline: A3 is the most popular decisive event."""
    events = Counter(i.decisive_event for i in tiny_d1.store.active())
    assert events.most_common(1)[0][0] == "A3"


def test_d1_report_latency_in_paper_band(tiny_d1):
    latencies = [
        i.report_to_handover_ms
        for i in tiny_d1.store.active()
        if i.report_to_handover_ms is not None
    ]
    assert latencies
    assert all(80 <= latency <= 230 for latency in latencies)


def test_d1_idle_instances_classified(tiny_d1):
    classes = Counter(i.priority_class for i in tiny_d1.store.idle())
    assert set(classes) <= {"higher", "equal", "lower", None}
    assert classes.get("equal", 0) > 0


def test_d1_active_instances_carry_radio_context(tiny_d1):
    with_rsrp = [
        i for i in tiny_d1.store.active()
        if i.rsrp_before is not None and i.rsrp_after is not None
    ]
    assert len(with_rsrp) >= 0.8 * len(tiny_d1.store.active())


def test_d1_throughput_metric_present_for_traffic_drives(tiny_d1):
    with_throughput = [
        i for i in tiny_d1.store.active()
        if i.min_throughput_before_bps is not None
    ]
    assert with_throughput


# -- D2 -----------------------------------------------------------------------

def test_d2_covers_multiple_carriers(tiny_d2):
    carriers = {s.carrier for s in tiny_d2.store}
    assert {"A", "T", "V", "S"} <= carriers


def test_d2_covers_multiple_rats(tiny_d2):
    rats = {s.rat for s in tiny_d2.store}
    assert "LTE" in rats and "UMTS" in rats


def test_d2_lte_dominates(tiny_d2):
    """Table 4: LTE contributes ~72% of cells."""
    cells = {}
    for sample in tiny_d2.store:
        cells[(sample.carrier, sample.gci)] = sample.rat
    shares = Counter(cells.values())
    assert shares["LTE"] / sum(shares.values()) > 0.5


def test_d2_parameter_names_resolve(tiny_d2):
    from repro.config.parameters import spec_by_name

    seen = set()
    for sample in tiny_d2.store:
        key = (sample.rat, sample.parameter)
        if key in seen:
            continue
        seen.add(key)
        spec_by_name(RAT(sample.rat), sample.parameter)  # must not raise


def test_d2_has_repeated_observations(tiny_d2):
    from repro.core.analysis.temporal import multi_sample_cell_fraction

    assert multi_sample_cell_fraction(tiny_d2.store) > 0.2


def test_d2_store_reloads_equal_to_the_built_store(tmp_path):
    """List parameters are built as tuples, the form a reload reads, so
    the samples compare equal across save + load and all hash."""
    from repro.datasets.d2 import D2Options, build_d2
    from repro.datasets.store import ConfigSampleStore

    build = build_d2(D2Options(n_volunteers=2, include_dense=False))
    path = tmp_path / "d2.jsonl"
    build.store.save(path)
    assert list(ConfigSampleStore.load(path)) == list(build.store)
    assert {s.parameter for s in build.store if isinstance(s.value, tuple)} >= {
        "intra_freq_black_cell_list", "eutra_freq_list",
    }
    for sample in build.store:
        hash(sample)


def test_d2_deterministic():
    from repro.datasets.d2 import D2Options, build_d2

    options = D2Options(n_volunteers=2, include_dense=False)
    a = build_d2(options)
    b = build_d2(options)
    assert len(a.store) == len(b.store)
    assert a.store.unique_cells() == b.store.unique_cells()
