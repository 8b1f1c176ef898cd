"""Cell sites.

A *cell* in the paper's terminology is one sector of a base station on
one frequency channel of one RAT ("each cell further operates over a
given frequency channel", Section 2).  Cells are the unit at which
handoff configurations live: dataset D2 counts 32,033 unique cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cellnet.bands import earfcn_to_band, earfcn_to_frequency_mhz
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT


@dataclass(frozen=True, order=True)
class CellId:
    """Globally unique cell identity.

    Mirrors the (PLMN, cell identity) pair a phone observes: we key by
    carrier acronym plus a global cell identity integer.  Frozen and
    ordered so it can be used as a dict key and sorted deterministically.
    """

    carrier: str
    gci: int

    def __post_init__(self) -> None:
        # Cell identities key nearly every hot dict in the simulator
        # (prepared-cell indexes, measurement memos, load shares,
        # occupancy counters); the generated dataclass __hash__ would
        # rebuild and hash a field tuple per lookup.  The cached value
        # is exactly the generated one, so set/dict behavior (including
        # iteration order) is unchanged.
        object.__setattr__(self, "_hash", hash((self.carrier, self.gci)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.carrier}/{self.gci}"


@dataclass(frozen=True)
class Cell:
    """One deployed cell: identity, radio parameters and location.

    Attributes:
        cell_id: Unique identity (carrier + global cell id).
        rat: Radio access technology.
        channel: Channel number (EARFCN for LTE, UARFCN/ARFCN otherwise).
        pci: Physical-layer identity (PCI for LTE, PSC for UMTS, BSIC for
            GSM); only unique locally, as in real networks.
        location: Site position on the city plane.
        tx_power_dbm: Reference-signal transmit power (EPRE for LTE).
        city: Name of the city/region the cell belongs to.
        bandwidth_mhz: Carrier bandwidth, used by the throughput model.
    """

    cell_id: CellId
    rat: RAT
    channel: int
    pci: int
    location: Point
    tx_power_dbm: float = 30.0
    city: str = ""
    bandwidth_mhz: float = 10.0

    @property
    def carrier(self) -> str:
        """Acronym of the operating carrier."""
        return self.cell_id.carrier

    @property
    def frequency_mhz(self) -> float:
        """Downlink carrier frequency from the band catalog."""
        return earfcn_to_frequency_mhz(self.channel, self.rat)

    @property
    def band_number(self) -> int:
        """Operating band number from the band catalog."""
        return earfcn_to_band(self.channel, self.rat).number

    def is_intra_frequency(self, other: "Cell") -> bool:
        """Whether a handoff between self and ``other`` is intra-freq.

        Intra-freq means same RAT and same channel (paper Section 2);
        same RAT but different channel is inter-freq, different RAT is
        inter-RAT.  Both legs of the comparison are symmetric.
        """
        return self.rat is other.rat and self.channel == other.channel

    def is_inter_rat(self, other: "Cell") -> bool:
        """Whether a handoff between self and ``other`` crosses RATs."""
        return self.rat is not other.rat


@dataclass
class CellRegistry:
    """Index of cells by identity, carrier, channel and city.

    The registry is the simulator-side stand-in for "the network": the
    deployment generator fills it, the radio environment queries it, and
    the crawler's output is compared against it in tests.
    """

    _by_id: dict[CellId, Cell] = field(default_factory=dict)
    #: Every cell in identity order; sorted on the first read after an
    #: ``add`` (None until then).
    _ordered: list[Cell] | None = field(default=None, repr=False, compare=False)

    def add(self, cell: Cell) -> None:
        """Register a cell; identities must be unique."""
        if cell.cell_id in self._by_id:
            raise ValueError(f"duplicate cell id {cell.cell_id}")
        self._by_id[cell.cell_id] = cell
        self._ordered = None

    def _in_order(self) -> list[Cell]:
        if self._ordered is None:
            self._ordered = [self._by_id[k] for k in sorted(self._by_id)]
        return self._ordered

    def get(self, cell_id: CellId) -> Cell:
        """Look up a cell by identity (KeyError if absent)."""
        return self._by_id[cell_id]

    def __contains__(self, cell_id: CellId) -> bool:
        return cell_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def all_cells(self) -> list[Cell]:
        """All registered cells in deterministic (identity) order."""
        return list(self._in_order())

    def by_carrier(self, carrier: str) -> list[Cell]:
        """All cells operated by ``carrier``, in identity order."""
        return [c for c in self._in_order() if c.carrier == carrier]

    def by_city(self, city: str) -> list[Cell]:
        """All cells located in ``city``, in identity order."""
        return [c for c in self._in_order() if c.city == city]

    def by_rat(self, rat: RAT) -> list[Cell]:
        """All cells of technology ``rat``, in identity order."""
        return [c for c in self._in_order() if c.rat is rat]

    def neighbors_of(self, cell: Cell, radius_m: float) -> list[Cell]:
        """Cells of the same carrier within ``radius_m`` of ``cell``.

        The serving cell itself is excluded.  This is the candidate set
        the deployment generator uses to build neighbor lists.
        """
        return [
            c
            for c in self._in_order()
            if c.carrier == cell.carrier
            and c.cell_id != cell.cell_id
            and c.location.distance_to(cell.location) <= radius_m
        ]
