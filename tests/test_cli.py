"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.experiments import registry


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == registry.all_experiment_ids()


def test_run_dataset_free_experiment(capsys):
    assert main(["run", "tab02"]) == 0
    out = capsys.readouterr().out
    assert "tab02" in out
    assert "q_hyst" in out


def test_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_build_d2_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "d2.jsonl"
    assert main([
        "build-d2", "--volunteers", "2", "--no-dense",
        "--workers", "2", "--out", str(out),
    ]) == 0
    err = capsys.readouterr().err
    assert "workers=2" in err
    from repro.datasets.store import ConfigSampleStore

    assert len(ConfigSampleStore.load(out)) > 0


def test_build_d1_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "d1.jsonl"
    assert main([
        "build-d1", "--scenario", "lafayette", "--carriers", "A",
        "--active-drives", "1", "--idle-drives", "1", "--duration", "120",
        "--highway-drives", "0", "--out", str(out),
    ]) == 0
    err = capsys.readouterr().err
    assert "D1:" in err
    from repro.datasets.store import HandoffInstanceStore

    HandoffInstanceStore.load(out)  # must parse back


def test_snapshot_default_label_is_the_file_name(tmp_path, capsys):
    """Captures of one world into two directories are byte-identical:
    the default label is the output's file name, not its path."""
    from repro.lint import ConfigSnapshot

    paths = [tmp_path / name / "snap.json" for name in ("a", "b")]
    for path in paths:
        path.parent.mkdir()
        assert main(["snapshot", "--max-cells", "3", "--out", str(path)]) == 0
    assert "'snap.json'" in capsys.readouterr().err
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert ConfigSnapshot.load(paths[0]).label == "snap.json"
