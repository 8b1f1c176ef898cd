"""Saved files get the permission bits a plain ``open`` would give them.

Every save (both dataset stores, and ``write_json`` behind configuration
snapshots and lint baselines) writes a temp file and renames it over the
target.  A new file must come out with ``0o666`` less the umask, as
``open(path, "w")`` makes it, and a re-save must keep an existing file's
bits; a failed save leaves the old file, bits included, and no temp file.
"""

import os
import stat

import pytest

from repro.datasets.records import ConfigSample, HandoffInstance
from repro.datasets.store import ConfigSampleStore, HandoffInstanceStore
from repro.lint.jsontext import write_json

_SAMPLE = ConfigSample(
    carrier="A", gci=1, rat="LTE", channel=850, city="X", parameter="q_hyst",
    value=4.0,
)
_INSTANCE = HandoffInstance(
    kind="active", carrier="A", time_ms=0, source_gci=1, target_gci=2,
    source_channel=850, target_channel=850, intra_freq=True,
)
_SAVERS = {
    "d2-store": lambda path: ConfigSampleStore([_SAMPLE]).save(path),
    "d1-store": lambda path: HandoffInstanceStore([_INSTANCE]).save(path),
    "write-json": lambda path: write_json(path, {"a": [1, 2.5, None]}),
}


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.fixture(params=[0o022, 0o027], ids=["umask-022", "umask-027"])
def umask(request):
    old = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(old)


@pytest.mark.parametrize("save", _SAVERS.values(), ids=_SAVERS)
def test_a_new_file_gets_the_mode_open_gives(tmp_path, umask, save):
    with open(tmp_path / "plain", "w"):
        pass
    save(tmp_path / "saved")
    assert _mode(tmp_path / "saved") == _mode(tmp_path / "plain") == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o600], ids=oct)
@pytest.mark.parametrize("save", _SAVERS.values(), ids=_SAVERS)
def test_a_resave_keeps_the_existing_mode(tmp_path, umask, save, mode):
    target = tmp_path / "saved"
    save(target)
    os.chmod(target, mode)
    save(target)
    assert _mode(target) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["saved"]


def test_a_failed_save_leaves_the_old_file_and_no_temp_file(tmp_path, umask):
    target = tmp_path / "d2.jsonl"
    ConfigSampleStore([_SAMPLE]).save(target)
    os.chmod(target, 0o644)
    before = target.read_bytes()
    # The second sample's value is not JSON: the save fails mid-file.
    with pytest.raises(TypeError):
        ConfigSampleStore([_SAMPLE, ConfigSample(
            carrier="A", gci=2, rat="LTE", channel=850, city="X",
            parameter="q_hyst", value=object(),
        )]).save(target)
    assert target.read_bytes() == before
    assert _mode(target) == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["d2.jsonl"]
