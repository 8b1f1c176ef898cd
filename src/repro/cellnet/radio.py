"""Radio propagation and signal-quality model.

Produces the RSRP/RSRQ/SINR values the handoff state machines act on:

* **Path loss** — log-distance with a frequency term (COST-231-Hata
  shaped): ``PL = PL0 + 10*n*log10(d/d0) + 21*log10(f/f0)``.  Lower
  bands propagate further, which is why operators' priority choices
  between 700 MHz and 2300 MHz layers (paper Fig. 18) have performance
  consequences.
* **Shadowing** — spatially correlated log-normal shadowing realised as
  a deterministic per-cell sum of sinusoids (a standard correlated-
  field construction).  The same (cell, location) always sees the same
  shadowing value, so repeated drives are reproducible, while
  decorrelation over tens of metres provides the signal dynamics that
  trigger measurement events.  The construction is vectorizable across
  cells, which keeps long drive simulations fast.
* **RSRQ / SINR** — computed from the co-channel interference of all
  other audible cells on the same channel plus thermal noise.

Fast fading / measurement noise is *not* added here; the UE measurement
layer (``repro.ue.measurement``) adds per-sample noise and applies L3
filtering, mirroring where that happens in a real modem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.cellnet.cell import Cell
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT, clamp_rsrp, clamp_rsrq
from repro.util import stable_hash

#: Thermal noise over one LTE PRB (dBm): -174 dBm/Hz + 10*log10(180 kHz).
NOISE_PER_PRB_DBM = -121.4

#: Reference distance (m) and frequency (MHz) of the path-loss model.
_REF_DISTANCE_M = 10.0
_REF_FREQUENCY_MHZ = 700.0


def _dbm_to_mw(dbm):
    return 10.0 ** (np.asarray(dbm) / 10.0)


def _mw_to_dbm(mw: float) -> float:
    if mw <= 0:
        return -math.inf
    return 10.0 * math.log10(mw)


@dataclass(frozen=True)
class Measurement:
    """One instantaneous radio measurement of a cell at a location.

    ``rsrp_dbm``/``rsrq_db`` are the LTE names; for legacy RATs the same
    fields carry RSCP/EcNo (UMTS), RSSI (GSM) or pilot strength (CDMA),
    which keeps the event-evaluation code RAT-agnostic the same way the
    3GPP measurement model does.
    """

    cell: Cell
    rsrp_dbm: float
    rsrq_db: float
    sinr_db: float

    def metric(self, name: str) -> float:
        """Access a metric by configuration name ("rsrp" or "rsrq")."""
        if name == "rsrp":
            return self.rsrp_dbm
        if name == "rsrq":
            return self.rsrq_db
        raise ValueError(f"unknown metric {name!r}")


class ShadowingField:
    """Deterministic, spatially correlated log-normal shadowing.

    Each cell gets its own field built from ``n_components`` plane-wave
    sinusoids whose directions, wavelengths and phases come from an RNG
    seeded by (field seed, cell identity).  The resulting field has
    (approximately) unit variance before scaling by ``sigma_db`` and
    decorrelates over roughly ``decorrelation_m`` metres.
    """

    def __init__(
        self,
        seed: int,
        sigma_db: float = 6.0,
        decorrelation_m: float = 60.0,
        n_components: int = 8,
    ):
        if sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if decorrelation_m <= 0:
            raise ValueError("decorrelation_m must be positive")
        self._seed = seed
        self.sigma_db = sigma_db
        self.decorrelation_m = decorrelation_m
        self.n_components = n_components
        # (kx, ky, phase) arrays per cell, built lazily.
        self._coefficients: dict = {}

    def _coeffs(self, cell: Cell) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = cell.cell_id
        cached = self._coefficients.get(key)
        if cached is not None:
            return cached
        rng = np.random.default_rng(
            (self._seed, stable_hash(key.carrier) & 0xFFFF, key.gci)
        )
        angles = rng.uniform(0.0, 2.0 * math.pi, self.n_components)
        # Mix of spatial frequencies around the decorrelation scale.
        wavelengths = self.decorrelation_m * rng.uniform(0.7, 2.5, self.n_components)
        magnitude = 2.0 * math.pi / wavelengths
        kx = magnitude * np.cos(angles)
        ky = magnitude * np.sin(angles)
        phase = rng.uniform(0.0, 2.0 * math.pi, self.n_components)
        self._coefficients[key] = (kx, ky, phase)
        return self._coefficients[key]

    def sample_db(self, cell: Cell, location: Point) -> float:
        """Shadowing in dB for ``cell`` as seen at ``location``."""
        if self.sigma_db == 0:
            return 0.0
        kx, ky, phase = self._coeffs(cell)
        value = np.cos(kx * location.x + ky * location.y + phase).sum()
        return float(value * self.sigma_db * math.sqrt(2.0 / self.n_components))

    def stacked_coeffs(self, cells: list[Cell]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kx, ky, phase) arrays stacked over ``cells`` (shape N x K)."""
        if not cells:
            empty = np.zeros((0, self.n_components))
            return empty, empty, empty
        kx = np.stack([self._coeffs(c)[0] for c in cells])
        ky = np.stack([self._coeffs(c)[1] for c in cells])
        phase = np.stack([self._coeffs(c)[2] for c in cells])
        return kx, ky, phase


class RadioModel:
    """Computes received signal metrics for cells at locations."""

    def __init__(
        self,
        seed: int = 0,
        path_loss_exponent: float = 3.5,
        reference_loss_db: float = 62.0,
        shadowing_sigma_db: float = 4.5,
        shadowing_decorrelation_m: float = 200.0,
    ):
        self.path_loss_exponent = path_loss_exponent
        self.reference_loss_db = reference_loss_db
        self.shadowing = ShadowingField(
            seed, sigma_db=shadowing_sigma_db, decorrelation_m=shadowing_decorrelation_m
        )

    def path_loss_db(self, cell: Cell, location: Point) -> float:
        """Distance- and frequency-dependent path loss in dB."""
        distance = max(cell.location.distance_to(location), _REF_DISTANCE_M)
        return (
            self.reference_loss_db
            + 10.0 * self.path_loss_exponent * math.log10(distance / _REF_DISTANCE_M)
            + 21.0 * math.log10(cell.frequency_mhz / _REF_FREQUENCY_MHZ)
        )

    def rsrp_dbm(self, cell: Cell, location: Point) -> float:
        """Reference-signal received power at ``location`` (shadowed)."""
        raw = (
            cell.tx_power_dbm
            - self.path_loss_db(cell, location)
            + self.shadowing.sample_db(cell, location)
        )
        return clamp_rsrp(raw)

    def prepare(self, cells: list[Cell]) -> "PreparedCells":
        """Precompute the static per-cell arrays used by ``rsrp_prepared_batch``.

        The drive simulation snapshots the same neighborhood thousands of
        times; preparing once amortizes the array construction.
        """
        xs = np.array([c.location.x for c in cells])
        ys = np.array([c.location.y for c in cells])
        tx = np.array([c.tx_power_dbm for c in cells])
        freq_term = 21.0 * np.log10(
            np.array([c.frequency_mhz for c in cells]) / _REF_FREQUENCY_MHZ
        ) if cells else np.zeros(0)
        kx, ky, phase = self.shadowing.stacked_coeffs(cells)
        return PreparedCells(cells=cells, xs=xs, ys=ys, tx=tx, freq_term=freq_term,
                             kx=kx, ky=ky, phase=phase)

    def rsrp_prepared_batch(
        self, prepared: "PreparedCells", xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """RSRP rows for many locations over one prepared cell set.

        Row ``s`` holds every prepared cell's RSRP at ``(xs[s], ys[s])``
        and depends on that location alone: each step is elementwise,
        broadcast over a leading location axis, and the shadow-fading
        reduction sums each (location, cell) component row contiguously,
        so its summation order is the same in any batch.  A one-row call
        is the single-location case.
        """
        if not prepared.cells:
            return np.zeros((len(xs), 0))
        xcol = xs[:, None]
        ycol = ys[:, None]
        out = np.subtract(prepared.xs, xcol)
        pl = np.subtract(prepared.ys, ycol)
        np.hypot(out, pl, out=pl)
        np.maximum(pl, _REF_DISTANCE_M, out=pl)
        np.divide(pl, _REF_DISTANCE_M, out=pl)
        np.log10(pl, out=pl)
        np.multiply(pl, 10.0 * self.path_loss_exponent, out=pl)
        np.add(pl, self.reference_loss_db, out=pl)
        np.add(pl, prepared.freq_term, out=pl)
        wave = np.multiply(prepared.kx, xs[:, None, None])
        wave2 = np.multiply(prepared.ky, ys[:, None, None])
        np.add(wave, wave2, out=wave)
        np.add(wave, prepared.phase, out=wave)
        np.cos(wave, out=wave)
        shadow = np.sum(wave, axis=2)
        np.multiply(shadow, self.shadowing.sigma_db, out=shadow)
        np.multiply(shadow, math.sqrt(2.0 / self.shadowing.n_components), out=shadow)
        np.subtract(prepared.tx, pl, out=out)
        np.add(out, shadow, out=out)
        return np.clip(out, -140.0, -44.0, out=out)

    def rsrp_many(self, cells: list[Cell], location: Point) -> np.ndarray:
        """Vectorized RSRP of many cells at one location (a one-row batch)."""
        return self.rsrp_prepared_batch(
            self.prepare(cells),
            np.array([location.x], dtype=float),
            np.array([location.y], dtype=float),
        )[0]

    def measure(
        self, cell: Cell, location: Point, co_channel: list[Cell] | None = None
    ) -> Measurement:
        """Full measurement (RSRP, RSRQ, SINR) of ``cell`` at ``location``.

        ``co_channel`` lists the *other* cells transmitting on the same
        channel; their received power forms the interference term of
        RSRQ and SINR.  Passing None treats the cell as
        interference-free, which is adequate for sparse rural layouts.
        """
        rsrp = self.rsrp_dbm(cell, location)
        others = [c for c in (co_channel or []) if c.cell_id != cell.cell_id]
        interference_mw = float(_dbm_to_mw(self.rsrp_many(others, location)).sum()) if others else 0.0
        return self._finish_measurement(cell, rsrp, interference_mw)

    def _finish_measurement(self, cell: Cell, rsrp: float, interference_mw: float) -> Measurement:
        signal_mw = float(_dbm_to_mw(rsrp))
        noise_mw = float(_dbm_to_mw(NOISE_PER_PRB_DBM))
        sinr_db = _mw_to_dbm(signal_mw) - _mw_to_dbm(interference_mw + noise_mw)
        # RSRQ = N * RSRP / RSSI.  With uniform loading, RSSI over N PRBs
        # is N * 12 * (S + I + noise) per resource element, so the N
        # cancels and the 12-subcarrier aggregation leaves an ~-10.8 dB
        # ceiling in the interference-free case, as in real networks.
        rsrq = rsrp - _mw_to_dbm(12.0 * (signal_mw + interference_mw + noise_mw))
        return Measurement(
            cell=cell, rsrp_dbm=rsrp, rsrq_db=clamp_rsrq(rsrq), sinr_db=sinr_db
        )


@dataclass
class PreparedCells:
    """Static per-cell arrays for repeated vectorized RSRP queries.

    Beyond the propagation inputs, a prepared set carries the derived
    structures every per-tick consumer needs — the cell-id index, the
    (RAT, channel) interference groups, and RAT/intra-frequency masks.
    All are built lazily and cached: one snapshot-cache entry serves
    thousands of ticks, so the cost amortizes to zero while cheap
    one-shot users (``rsrp_many``) never pay it.
    """

    cells: list[Cell]
    xs: np.ndarray
    ys: np.ndarray
    tx: np.ndarray
    freq_term: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    phase: np.ndarray
    _rat_masks: dict = field(default_factory=dict, repr=False)
    _intra_masks: dict = field(default_factory=dict, repr=False)

    @cached_property
    def cell_ids(self) -> list:
        """Cell identities aligned with ``cells``."""
        return [c.cell_id for c in self.cells]

    @cached_property
    def index(self) -> dict:
        """cell_id -> position map over ``cells``."""
        return {cid: i for i, cid in enumerate(self.cell_ids)}

    @cached_property
    def gci(self) -> np.ndarray:
        """Global cell identities aligned with ``cells`` (sort tiebreak)."""
        return np.array([c.cell_id.gci for c in self.cells], dtype=np.int64)

    @cached_property
    def channel_groups(self) -> tuple[np.ndarray, int]:
        """(group index per cell, group count) over (RAT, channel)."""
        groups: dict = {}
        group_index = np.empty(len(self.cells), dtype=int)
        for i, cell in enumerate(self.cells):
            key = (cell.rat, cell.channel)
            group_index[i] = groups.setdefault(key, len(groups))
        return group_index, len(groups)

    def rat_mask(self, rat: RAT) -> np.ndarray:
        """Boolean mask of cells whose RAT is ``rat``."""
        mask = self._rat_masks.get(rat)
        if mask is None:
            mask = np.array([c.rat is rat for c in self.cells], dtype=bool)
            self._rat_masks[rat] = mask
        return mask

    def intra_mask(self, rat: RAT, channel: int) -> np.ndarray:
        """Boolean mask of cells co-channel with a (rat, channel) serving."""
        key = (rat, channel)
        mask = self._intra_masks.get(key)
        if mask is None:
            mask = np.array(
                [c.rat is rat and c.channel == channel for c in self.cells],
                dtype=bool,
            )
            self._intra_masks[key] = mask
        return mask


class RadioSnapshot:
    """All of one carrier's audible cells measured at one (time, place).

    Built only by :meth:`repro.cellnet.world.RadioEnvironment.snapshot_batch`
    and its one-spot form ``snapshot``, which compute every metric row of
    the snapshots sharing a prepared cell set in one batched pass: a
    snapshot arrives with its RSRP, RSRQ and SINR arrays plus the
    per-cell power and co-channel totals :meth:`measure` reads.  Nothing
    is computed lazily; only the per-cell :class:`Measurement` objects
    are memoized.
    """

    def __init__(
        self,
        model: RadioModel,
        prepared: PreparedCells,
        location: Point,
        rsrp: np.ndarray,
        rsrq: np.ndarray,
        sinr: np.ndarray,
        power_mw: np.ndarray,
        own_totals: np.ndarray,
    ):
        self._model = model
        self.prepared = prepared
        self.location = location
        self._rsrp = rsrp
        self._rsrq = rsrq
        self._sinr = sinr
        self._power_mw = power_mw
        self._own_totals = own_totals
        #: Per-cell :class:`Measurement` memo — parked/co-located UEs ask
        #: the same snapshot for the same serving cell tick after tick.
        self._measure_memo: dict = {}

    @property
    def cells(self) -> list[Cell]:
        """The snapshot's audible cells (shared with the prepared set)."""
        return self.prepared.cells

    def __contains__(self, cell: Cell) -> bool:
        return cell.cell_id in self.prepared.index

    def rsrp(self, cell: Cell) -> float:
        """RSRP of one snapshot cell (KeyError if not audible)."""
        return float(self._rsrp[self.prepared.index[cell.cell_id]])

    def metric_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rsrp, rsrq, sinr) arrays over all snapshot cells.

        Interference for cell i is the co-channel power sum of the other
        snapshot cells on i's (RAT, channel) minus i's own power.
        """
        return self._rsrp, self._rsrq, self._sinr

    def measure(self, cell: Cell) -> Measurement:
        """Full measurement of one snapshot cell (memoized per cell)."""
        memo = self._measure_memo
        measurement = memo.get(cell.cell_id)
        if measurement is None:
            i = self.prepared.index[cell.cell_id]
            rsrp = float(self._rsrp[i])
            interference_mw = max(float(self._own_totals[i]) - float(self._power_mw[i]), 0.0)
            measurement = self._model._finish_measurement(cell, rsrp, interference_mw)
            memo[cell.cell_id] = measurement
        return measurement

    def strongest(self, rat: RAT | None = None) -> Cell | None:
        """Strongest cell in the snapshot, optionally of one RAT."""
        if not self.cells:
            return None
        if rat is None:
            return self.cells[int(np.argmax(self._rsrp))]
        candidates = np.flatnonzero(self.prepared.rat_mask(rat))
        if not candidates.size:
            return None
        return self.cells[int(candidates[np.argmax(self._rsrp[candidates])])]


def compute_metrics_batch(
    prepared: PreparedCells, rsrp_mat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rsrq, sinr, power_mw, own_totals) for many snapshots at once.

    ``rsrp_mat`` stacks the RSRP rows of several snapshots over the same
    prepared cell list (snapshot x cell).  Row ``g`` of every returned
    array depends on ``rsrp_mat[g]`` alone: every operation is
    elementwise, and the batched ``np.add.at`` iterates its indices in
    row-major order, which keeps each row's per-group accumulation in
    cell order whatever the other rows hold.
    """
    power_mw = _dbm_to_mw(rsrp_mat)
    group_index, n_groups = prepared.channel_groups
    n_rows = rsrp_mat.shape[0]
    rows = np.arange(n_rows)[:, None]
    totals = np.zeros((n_rows, n_groups))
    np.add.at(totals, (rows, group_index[None, :]), power_mw)
    noise_mw = float(_dbm_to_mw(NOISE_PER_PRB_DBM))
    own_totals = totals[rows, group_index[None, :]]
    interference = np.maximum(own_totals - power_mw, 0.0)
    sinr = rsrp_mat - 10.0 * np.log10(interference + noise_mw)
    rsrq = rsrp_mat - 10.0 * np.log10(12.0 * (own_totals + noise_mw))
    rsrq = np.clip(rsrq, -19.5, -3.0)
    return rsrq, sinr, power_mw, own_totals
