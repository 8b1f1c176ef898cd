"""Property tests: a batched physics row does not depend on its batch.

Every radio snapshot comes out of ``RadioEnvironment.snapshot_batch``'s
one pass per shared prepared cell set (``snapshot`` is its one-spot
form), so a spot's RSRP/RSRQ/SINR row must be the same bits whatever
else shares its pass: alone, in a batch, or in the same batch reversed.
The drive-parity tests only see this through whole drives; here it is
checked row by row over random spot lists around one city.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulate.scenarios import SCENARIO_CARRIERS, drive_scenario

#: The neighbour radius the UE measurement engine snapshots with.
_RADIUS_M = 2500.0

#: Offsets span a 1 km square around the city origin: five or six
#: 200 m prepared-cell grid squares per axis.
_offset = st.floats(min_value=-500.0, max_value=500.0)

#: East offset of a point no cell reaches (an empty neighbourhood).
_SILENT_DX = 1.0e6


@pytest.fixture(scope="module")
def world():
    """A world of its own: the prepared-cell LRU this test warms (and
    whose contents depend on query order) is shared with no other test."""
    return drive_scenario("lafayette", seed=7, config_seed=2018)


def _bits(measurement) -> bytes:
    return struct.pack("<3d", measurement.rsrp_dbm, measurement.rsrq_db, measurement.sinr_db)


@st.composite
def _spot_lists(draw, origin):
    """1-40 (location, carrier) spots with repeats, sometimes a silent one."""
    pool = draw(st.lists(
        st.tuples(_offset, _offset, st.sampled_from(SCENARIO_CARRIERS)),
        min_size=1, max_size=12,
    ))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    spots = [(origin.offset(dx, dy), carrier) for dx, dy, carrier in picks]
    if len(spots) < 40 and draw(st.booleans()):
        silent = (origin.offset(_SILENT_DX, 0.0), draw(st.sampled_from(SCENARIO_CARRIERS)))
        spots.insert(draw(st.integers(min_value=0, max_value=len(spots))), silent)
    return spots


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_row_matches_one_spot_pass_and_reversed_batch(world, data):
    env = world.env
    origin = world.cities[0].origin
    spots = data.draw(_spot_lists(origin))
    # Both batches run before anything is compared: the first query of a
    # grid square fixes its prepared cell set (the LRU's query-order
    # defect), so every later pass below must reuse those sets.
    forward = env.snapshot_batch(spots, radius_m=_RADIUS_M)
    backward = env.snapshot_batch(spots[::-1], radius_m=_RADIUS_M)[::-1]
    for (location, carrier), snap, reversed_snap in zip(spots, forward, backward):
        alone = env.snapshot(location, carrier, radius_m=_RADIUS_M)
        for other in (alone, reversed_snap):
            assert other.prepared is snap.prepared
            for mine, theirs in zip(snap.metric_arrays(), other.metric_arrays()):
                assert mine.tobytes() == theirs.tobytes()
            for cell in snap.cells:
                assert _bits(other.measure(cell)) == _bits(snap.measure(cell))
        for cell in snap.cells:
            assert snap.rsrp(cell) == pytest.approx(env.radio.rsrp_dbm(cell, location))
        if location.x > origin.x + _SILENT_DX / 2:
            assert not env.cells_near(location, carrier=carrier)
            assert not snap.cells
            assert snap.strongest() is None
