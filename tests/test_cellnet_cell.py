"""Tests for cells and the cell registry."""

import pytest

from repro.cellnet.cell import Cell, CellId, CellRegistry
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT


def _cell(gci=1, carrier="A", rat=RAT.LTE, channel=850, x=0.0, y=0.0, city="X"):
    return Cell(
        cell_id=CellId(carrier, gci),
        rat=rat,
        channel=channel,
        pci=gci % 504,
        location=Point(x, y),
        city=city,
    )


def test_cell_id_ordering_and_str():
    assert CellId("A", 1) < CellId("A", 2) < CellId("B", 1)
    assert str(CellId("A", 7)) == "A/7"


def test_frequency_and_band_from_catalog():
    cell = _cell(channel=9820)
    assert cell.band_number == 30
    assert cell.frequency_mhz == pytest.approx(2355.0)


def test_intra_frequency_classification():
    a = _cell(gci=1, channel=850)
    b = _cell(gci=2, channel=850)
    c = _cell(gci=3, channel=5780)
    d = _cell(gci=4, rat=RAT.UMTS, channel=4385)
    assert a.is_intra_frequency(b)
    assert not a.is_intra_frequency(c)
    assert not a.is_intra_frequency(d)
    assert a.is_inter_rat(d)
    assert not a.is_inter_rat(c)


def test_registry_add_and_lookup():
    registry = CellRegistry()
    cell = _cell()
    registry.add(cell)
    assert registry.get(cell.cell_id) is cell
    assert cell.cell_id in registry
    assert len(registry) == 1


def test_registry_rejects_duplicates():
    registry = CellRegistry()
    registry.add(_cell())
    with pytest.raises(ValueError, match="duplicate"):
        registry.add(_cell())


def test_registry_filters():
    registry = CellRegistry()
    registry.add(_cell(gci=1, carrier="A", city="X"))
    registry.add(_cell(gci=2, carrier="A", city="Y", rat=RAT.UMTS, channel=4385))
    registry.add(_cell(gci=1, carrier="T", city="X", channel=5035))
    assert len(registry.by_carrier("A")) == 2
    assert len(registry.by_city("X")) == 2
    assert len(registry.by_rat(RAT.UMTS)) == 1


def test_registry_deterministic_order():
    registry = CellRegistry()
    registry.add(_cell(gci=2))
    registry.add(_cell(gci=1))
    assert [c.cell_id.gci for c in registry.all_cells()] == [1, 2]


def _fresh_sort(registry, keep):
    return sorted((c for c in registry if keep(c)), key=lambda c: c.cell_id)


def _assert_views_equal_a_fresh_sort(registry):
    assert registry.all_cells() == _fresh_sort(registry, lambda c: True)
    for carrier in ("A", "T", "Z"):
        assert registry.by_carrier(carrier) == _fresh_sort(
            registry, lambda c: c.carrier == carrier
        )
    for city in ("X", "Y"):
        assert registry.by_city(city) == _fresh_sort(registry, lambda c: c.city == city)
    for rat in RAT:
        assert registry.by_rat(rat) == _fresh_sort(registry, lambda c: c.rat is rat)
    for cell in registry:
        assert registry.neighbors_of(cell, 150.0) == _fresh_sort(
            registry,
            lambda c: c.carrier == cell.carrier and c.cell_id != cell.cell_id
            and c.location.distance_to(cell.location) <= 150.0,
        )


def test_registry_views_track_adds_after_reads():
    registry = CellRegistry()
    cells = [
        _cell(gci=gci, carrier=carrier, city=city, x=40.0 * gci, rat=rat,
              channel=4385 if rat is RAT.UMTS else 850)
        for gci, carrier, city, rat in [
            (5, "T", "X", RAT.LTE), (3, "A", "Y", RAT.UMTS), (9, "A", "X", RAT.LTE),
            (1, "T", "Y", RAT.LTE), (4, "A", "X", RAT.LTE), (2, "A", "Y", RAT.UMTS),
        ]
    ]
    for cell in cells:
        registry.add(cell)
        _assert_views_equal_a_fresh_sort(registry)
    # A caller may mutate what it was handed without touching the registry.
    registry.all_cells().clear()
    registry.by_carrier("A").clear()
    _assert_views_equal_a_fresh_sort(registry)
    assert len(registry.all_cells()) == len(cells)


def test_neighbors_of_same_carrier_only():
    registry = CellRegistry()
    center = _cell(gci=1, carrier="A", x=0.0)
    registry.add(center)
    registry.add(_cell(gci=2, carrier="A", x=500.0))
    registry.add(_cell(gci=3, carrier="A", x=5000.0))
    registry.add(_cell(gci=1, carrier="T", x=100.0, channel=5035))
    neighbors = registry.neighbors_of(center, radius_m=1000.0)
    assert [n.cell_id.gci for n in neighbors] == [2]
