"""Tests for the configuration crawler.

The central faithfulness property: what the crawler recovers from the
binary log must equal what the network actually configured.
"""

import pytest

from repro.cellnet.rat import RAT
from repro.core.crawler import ConfigCrawler, crawl_config_samples
from repro.core.collector import MMLabCollector
from repro.rrc.diag import DiagWriter
from repro.ue.device import UserEquipment


@pytest.fixture(scope="module")
def camped_log(env, server, scenario):
    """A log from camping on a few cells plus one connection."""
    ue = UserEquipment(env, server, "A", seed=19)
    collector = MMLabCollector(mode="type2")
    ue.add_listener(collector)
    cells = [c for c in scenario.plan.registry.by_carrier("A") if c.rat is RAT.LTE]
    for i, cell in enumerate(cells[:4]):
        ue.camp_on(cell, i * 1000)
    ue.connect(4000)
    return collector.log_bytes(), cells[:4], ue


def test_crawler_recovers_all_cells(camped_log, server):
    log, cells, _ = camped_log
    snapshots = ConfigCrawler.crawl(log)
    assert [s.gci for s in snapshots] == [c.cell_id.gci for c in cells]


def test_crawled_config_matches_broadcast(camped_log, server):
    log, cells, _ = camped_log
    snapshots = ConfigCrawler.crawl(log)
    for snapshot, cell in zip(snapshots, cells):
        truth = server.lte_config(cell)
        assert snapshot.lte_config.serving == truth.serving
        assert snapshot.lte_config.inter_freq_layers == truth.inter_freq_layers
        assert snapshot.lte_config.utra_layers == truth.utra_layers


def test_meas_config_attached_to_last_cell(camped_log, server):
    log, cells, ue = camped_log
    snapshots = ConfigCrawler.crawl(log)
    assert snapshots[-1].meas_config is not None
    assert snapshots[-1].meas_config == ue.monitor.meas_config
    for snapshot in snapshots[:-1]:
        assert snapshot.meas_config is None


def test_config_samples_carry_metadata(camped_log):
    log, cells, _ = camped_log
    samples = crawl_config_samples(log, observed_day=42.0, round_index=3)
    assert samples
    assert all(s.observed_day == 42.0 and s.round_index == 3 for s in samples)
    assert all(s.carrier == "A" for s in samples)


def test_idle_only_episode_has_no_active_samples(camped_log):
    log, cells, _ = camped_log
    samples = crawl_config_samples(log)
    first_cell_samples = [s for s in samples if s.gci == cells[0].cell_id.gci]
    names = {s.parameter for s in first_cell_samples}
    assert "a3_offset" not in names
    assert "s_measure" not in names
    assert "cell_reselection_priority" in names


def test_legacy_cell_crawled(env, server, scenario):
    legacy = next(
        c for c in scenario.plan.registry.by_carrier("A") if c.rat is RAT.UMTS
    )
    writer = DiagWriter.in_memory()
    for message in server.sib_messages(legacy):
        writer.write(0, message)
    snapshots = ConfigCrawler.crawl(writer.getvalue())
    assert len(snapshots) == 1
    assert snapshots[0].rat == "UMTS"
    assert snapshots[0].legacy_config is not None
    samples = snapshots[0].to_config_samples()
    assert len(samples) == 64  # the UMTS registry size


def test_empty_log():
    assert ConfigCrawler.crawl(b"") == []


def test_incremental_feed_equals_batch(camped_log):
    from repro.rrc.diag import DiagReader

    log, _, _ = camped_log
    crawler = ConfigCrawler()
    for record in DiagReader(log):
        crawler.feed(record)
    incremental = crawler.finish()
    batch = ConfigCrawler.crawl(log)
    assert [s.gci for s in incremental] == [s.gci for s in batch]
