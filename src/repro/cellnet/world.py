"""The radio environment: deployment + propagation, queryable by UEs.

``RadioEnvironment`` is what a simulated device "sees": given a location
and a carrier subscription, it answers which cells are audible, how
strong each is, and which co-channel cells interfere.  A numpy cell
index answers each neighbor query with one vectorized distance pass,
fast enough for the long drive simulations behind datasets D1/D2.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np

from repro.cellnet.cell import Cell, CellId, CellRegistry
from repro.cellnet.deployment import DeploymentPlan
from repro.cellnet.geo import Point
from repro.cellnet.radio import (
    Measurement,
    PreparedCells,
    RadioModel,
    RadioSnapshot,
    compute_metrics_batch,
)
from repro.cellnet.rat import RAT

#: Integer code of each RAT in the index's ``rat`` column, and back.
_RAT_CODES = {rat: code for code, rat in enumerate(RAT)}
_RATS = tuple(RAT)


class _CellIndex:
    """Cell coordinates as numpy columns, rows sorted by ``cell_id``.

    ``CellId`` orders by carrier first, so each carrier's cells form one
    contiguous row range: a carrier query scans only its range, and
    every selection comes out already in ``cell_id`` order.

    Membership is exactly ``cell.location.distance_to(location) <=
    radius_m`` (``math.hypot``).  The vector distance decides every row
    outside a relative band of ``EDGE`` around the radius; rows inside
    the band, where it may differ from ``math.hypot`` in the last bit,
    are decided by ``distance_to`` itself.
    """

    EDGE = 1e-9

    def __init__(self, cells: list[Cell]):
        self.cells = sorted(cells, key=lambda c: c.cell_id)
        self._xs = np.array([c.location.x for c in self.cells], dtype=float)
        self._ys = np.array([c.location.y for c in self.cells], dtype=float)
        self._rats = np.array([_RAT_CODES[c.rat] for c in self.cells], dtype=np.int8)
        self._channels = np.array([c.channel for c in self.cells], dtype=np.int64)
        self._ranges: dict[str, tuple[int, int]] = {}
        for row, cell in enumerate(self.cells):
            start, _ = self._ranges.get(cell.carrier, (row, row))
            self._ranges[cell.carrier] = (start, row + 1)

    def rows(
        self,
        location: Point,
        radius_m: float,
        carrier: str | None = None,
        rat: RAT | None = None,
        channel: int | None = None,
    ) -> np.ndarray:
        """Rows of the cells within ``radius_m`` of ``location``,
        optionally of one carrier, RAT and channel, ascending (so in
        ``cell_id`` order)."""
        if carrier is None:
            start, stop = 0, len(self.cells)
        elif carrier in self._ranges:
            start, stop = self._ranges[carrier]
        else:
            return np.empty(0, dtype=np.intp)
        dist = np.hypot(self._xs[start:stop] - location.x, self._ys[start:stop] - location.y)
        keep = dist <= radius_m * (1.0 + self.EDGE)
        if rat is not None:
            keep &= self._rats[start:stop] == _RAT_CODES[rat]
        if channel is not None:
            keep &= self._channels[start:stop] == channel
        rows = np.flatnonzero(keep)
        if (dist[rows] >= radius_m * (1.0 - self.EDGE)).any():
            cells = self.cells
            exact = [
                cells[row].location.distance_to(location) <= radius_m
                for row in (rows + start).tolist()
            ]
            rows = rows[np.array(exact, dtype=bool)]
        return rows + start

    def near(
        self,
        location: Point,
        radius_m: float,
        carrier: str | None = None,
        rat: RAT | None = None,
        channel: int | None = None,
    ) -> list[Cell]:
        """Indexed cells within ``radius_m`` of ``location``, optionally
        of one carrier, RAT and channel, in ``cell_id`` order."""
        cells = self.cells
        rows = self.rows(location, radius_m, carrier, rat, channel)
        return [cells[row] for row in rows.tolist()]

    def layer_channels(
        self, location: Point, radius_m: float, carrier: str
    ) -> dict[RAT, tuple[int, ...]]:
        """Sorted distinct channels of each RAT among ``carrier``'s cells
        within ``radius_m`` of ``location`` (the :meth:`rows`
        membership), read from the ``rat`` and ``channel`` columns."""
        rows = self.rows(location, radius_m, carrier)
        layers = sorted(set(zip(self._rats[rows].tolist(), self._channels[rows].tolist())))
        channels: dict[RAT, list[int]] = {}
        for code, channel in layers:
            channels.setdefault(_RATS[code], []).append(channel)
        return {rat: tuple(values) for rat, values in channels.items()}


class RadioEnvironment:
    """Queryable world model combining deployment and propagation.

    Args:
        plan: The deployment to expose.
        radio: Propagation model; a default seeded model is built when
            omitted.
        audible_radius_m: Cells farther than this are never returned —
            beyond a few kilometres RSRP falls below the -140 dBm floor
            anyway, so this is purely a performance cutoff.
    """

    def __init__(
        self,
        plan: DeploymentPlan,
        radio: RadioModel | None = None,
        audible_radius_m: float = 6000.0,
    ):
        self.plan = plan
        self.radio = radio or RadioModel(seed=1)
        self.audible_radius_m = audible_radius_m
        #: Prepared-neighborhood LRU: hits move to the back, inserts past
        #: ``snapshot_cache_size`` evict the least recently used entry, so
        #: long multi-city sweeps keep their working set warm instead of
        #: periodically re-preparing every neighborhood.
        self.snapshot_cache_size = 4096
        self._snapshot_cache: OrderedDict = OrderedDict()
        #: Prepared-cache hit/miss counters; surfaced by fleet results
        #: (``FleetResult.snapshot_cache``).
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0

    @property
    def registry(self) -> CellRegistry:
        """The cell registry backing this environment."""
        return self.plan.registry

    def cells_near(
        self,
        location: Point,
        carrier: str | None = None,
        rat: RAT | None = None,
        radius_m: float | None = None,
    ) -> list[Cell]:
        """Audible cells around ``location``, optionally filtered.

        Results are sorted by (carrier, gci) for determinism.
        """
        radius = radius_m if radius_m is not None else self.audible_radius_m
        return self._index.near(location, radius, carrier=carrier, rat=rat)

    def layer_channels(
        self, location: Point, carrier: str, radius_m: float
    ) -> dict[RAT, tuple[int, ...]]:
        """The sorted distinct channels per RAT that ``carrier`` runs
        within ``radius_m`` of ``location``.

        Covers exactly the cells ``cells_near(location, carrier,
        radius_m=radius_m)`` returns; a RAT with no such cell is absent.
        """
        return self._index.layer_channels(location, radius_m, carrier)

    def co_channel_interferers(self, cell: Cell, location: Point) -> list[Cell]:
        """Other same-channel cells audible at ``location``.

        Served from the cell index (bounded by the audible radius)
        rather than by scanning the deployment's full per-(RAT, channel)
        cell list; sorted by cell id for determinism.
        """
        return [
            c
            for c in self._index.near(
                location, self.audible_radius_m, rat=cell.rat, channel=cell.channel
            )
            if c.cell_id != cell.cell_id
        ]

    @functools.cached_property
    def _index(self) -> _CellIndex:
        """The registry's cell index, built on the first neighbor query."""
        return _CellIndex(list(self.plan.registry))

    def measure(self, cell: Cell, location: Point) -> Measurement:
        """Measure one cell at a location, with co-channel interference."""
        return self.radio.measure(
            cell, location, co_channel=self.co_channel_interferers(cell, location)
        )

    def measure_all(
        self,
        location: Point,
        carrier: str,
        rat: RAT | None = None,
        radius_m: float | None = None,
    ) -> list[Measurement]:
        """Measurements of all audible cells of one carrier.

        Sorted strongest-first by RSRP, which is the order a modem's
        cell-search reports candidates.
        """
        measurements = [
            self.measure(cell, location)
            for cell in self.cells_near(location, carrier=carrier, rat=rat, radius_m=radius_m)
        ]
        measurements.sort(key=lambda m: (-m.rsrp_dbm, m.cell.cell_id))
        return measurements

    def strongest_cell(
        self, location: Point, carrier: str, rat: RAT | None = None
    ) -> Cell | None:
        """The strongest audible cell of ``carrier`` at ``location``."""
        measurements = self.measure_all(location, carrier, rat=rat)
        return measurements[0].cell if measurements else None

    def snapshot(
        self,
        location: Point,
        carrier: str,
        radius_m: float = 3000.0,
    ) -> RadioSnapshot:
        """Radio snapshot of one carrier's nearby cells at one spot.

        A one-spot pass of :meth:`snapshot_batch`'s physics, equal bit
        for bit to that method's entry for ``(location, carrier)``.
        """
        prepared = self.prepared_for(location, carrier, radius_m)
        return self._snapshot_rows(prepared, [location])[0]

    def prepared_for(
        self, location: Point, carrier: str, radius_m: float = 3000.0
    ) -> PreparedCells:
        """The prepared audible-cell set covering ``location`` (LRU).

        Cached on a 200 m location grid: a moving UE re-queries nearly
        identical neighborhoods tick after tick.  Each square's set is
        ``cells_near`` of the *first* point queried in it, widened by a
        200 m guard band.  Two points of one square can lie 283 m apart,
        so the set is not always a superset of the exact query, and it
        depends on which point came first: outputs depend on what warmed
        the LRU (a ROADMAP open item).
        """
        key = (round(location.x / 200.0), round(location.y / 200.0), carrier, radius_m)
        cache = self._snapshot_cache
        prepared = cache.get(key)
        if prepared is None:
            self.snapshot_cache_misses += 1
            cells = self.cells_near(location, carrier=carrier, radius_m=radius_m + 200.0)
            prepared = self.radio.prepare(cells)
            while len(cache) >= self.snapshot_cache_size:
                cache.popitem(last=False)
            cache[key] = prepared
        else:
            self.snapshot_cache_hits += 1
            cache.move_to_end(key)
        return prepared

    def snapshot_batch(
        self, spots: list[tuple[Point, str]], radius_m: float = 3000.0
    ) -> list[RadioSnapshot]:
        """Snapshots of many (location, carrier) spots, batched physics.

        Spots are grouped by prepared neighborhood, looked up in list
        order (the prepared-cell LRU sees them as it would see one
        :meth:`snapshot` call each), and each group runs one RSRP pass
        (:meth:`RadioModel.rsrp_prepared_batch`) and one RSRQ/SINR pass
        (:func:`~repro.cellnet.radio.compute_metrics_batch`), whatever
        its size.  A row depends on its own spot alone, so entry ``j``
        equals ``snapshot(*spots[j])`` bit for bit.  RSRQ/SINR come with
        the RSRP rows rather than on demand, since every measurement
        round reads them.
        """
        groups: dict[int, tuple[PreparedCells, list[int]]] = {}
        for j, (location, carrier) in enumerate(spots):
            prepared = self.prepared_for(location, carrier, radius_m)
            entry = groups.get(id(prepared))
            if entry is None:
                groups[id(prepared)] = (prepared, [j])
            else:
                entry[1].append(j)
        out: list[RadioSnapshot | None] = [None] * len(spots)
        for prepared, idxs in groups.values():
            snaps = self._snapshot_rows(prepared, [spots[j][0] for j in idxs])
            for j, snap in zip(idxs, snaps):
                out[j] = snap
        return out

    def _snapshot_rows(
        self, prepared: PreparedCells, locations: list[Point]
    ) -> list[RadioSnapshot]:
        """Snapshots of ``prepared``'s cells at ``locations``, one pass.

        The one physics body of :meth:`snapshot` and
        :meth:`snapshot_batch`, which must not call each other: a
        profiler wrapping both public names would count one pass twice.
        """
        count = len(locations)
        xs = np.fromiter((location.x for location in locations), float, count=count)
        ys = np.fromiter((location.y for location in locations), float, count=count)
        radio = self.radio
        rsrp = radio.rsrp_prepared_batch(prepared, xs, ys)
        rsrq, sinr, power_mw, own_totals = compute_metrics_batch(prepared, rsrp)
        return [
            RadioSnapshot(radio, prepared, location, rp, rq, sn, pw, own)
            for location, rp, rq, sn, pw, own in zip(
                locations, rsrp, rsrq, sinr, power_mw, own_totals
            )
        ]

    def reserve_snapshot_capacity(self, occupied_keys: int) -> None:
        """Grow the prepared-cache capacity to fit a fleet's working set.

        A fleet occupying ``occupied_keys`` distinct (grid cell, carrier)
        keys per tick would thrash an LRU smaller than that count; the
        capacity is raised (never shrunk) to twice the occupancy plus
        slack, so every occupied neighborhood stays resident between
        ticks.
        """
        needed = 2 * occupied_keys + 64
        if needed > self.snapshot_cache_size:
            self.snapshot_cache_size = needed

    def snapshot_cache_stats(self) -> dict:
        """Hit/miss counters and sizing of the prepared-neighborhood LRU."""
        hits, misses = self.snapshot_cache_hits, self.snapshot_cache_misses
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
            "entries": len(self._snapshot_cache),
            "capacity": self.snapshot_cache_size,
        }

    def get_cell(self, cell_id: CellId) -> Cell:
        """Resolve a cell identity to its :class:`Cell`."""
        return self.plan.registry.get(cell_id)
