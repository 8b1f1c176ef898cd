"""Tests for planar geometry helpers."""

import pytest

from repro.cellnet.geo import (
    Point,
    bounding_box,
    distance_m,
    hex_grid,
    points_within,
    walk_segment,
)


def test_distance():
    assert distance_m(Point(0, 0), Point(3, 4)) == 5.0


def test_offset_and_towards():
    p = Point(1.0, 2.0).offset(2.0, -1.0)
    assert (p.x, p.y) == (3.0, 1.0)
    mid = Point(0, 0).towards(Point(10, 0), 0.5)
    assert mid == Point(5.0, 0.0)


def test_towards_extrapolates():
    beyond = Point(0, 0).towards(Point(10, 0), 1.5)
    assert beyond.x == 15.0


def test_points_within():
    pts = [Point(0, 0), Point(1, 0), Point(10, 0)]
    close = points_within(Point(0, 0), 2.0, pts)
    assert Point(10, 0) not in close
    assert len(close) == 2


def test_walk_segment_endpoints():
    pts = list(walk_segment(Point(0, 0), Point(10, 0), 3.0))
    assert pts[0] == Point(0, 0)
    assert pts[-1] == Point(10, 0)
    for a, b in zip(pts, pts[1:]):
        assert a.distance_to(b) <= 3.0 + 1e-9


def test_walk_segment_zero_length():
    assert list(walk_segment(Point(1, 1), Point(1, 1), 5.0)) == [Point(1, 1)]


def test_walk_segment_requires_positive_step():
    with pytest.raises(ValueError):
        list(walk_segment(Point(0, 0), Point(1, 0), 0.0))


@pytest.mark.parametrize("rings,expected", [(0, 1), (1, 7), (2, 19), (3, 37)])
def test_hex_grid_site_count(rings, expected):
    assert len(hex_grid(Point(0, 0), 1000.0, rings)) == expected


def test_hex_grid_ring_distance():
    sites = hex_grid(Point(0, 0), 1000.0, 1)
    ring = sites[1:]
    for site in ring:
        assert site.distance_to(Point(0, 0)) == pytest.approx(1000.0)


def test_hex_grid_negative_rings_raises():
    with pytest.raises(ValueError):
        hex_grid(Point(0, 0), 1000.0, -1)


def test_bounding_box():
    lo, hi = bounding_box([Point(1, 5), Point(-2, 3), Point(4, -1)])
    assert (lo.x, lo.y) == (-2, -1)
    assert (hi.x, hi.y) == (4, 5)


def test_bounding_box_empty_raises():
    with pytest.raises(ValueError):
        bounding_box([])
