"""UE measurement layer: L1 sampling noise and L3 filtering.

The modem samples each audible cell's reference signals, then an L3
IIR filter (TS 36.331 5.5.3.2) smooths the samples before they feed the
event-evaluation and reselection machinery::

    F_n = (1 - a) * F_{n-1} + a * M_n,    a = 1 / 2**(k / 4)

The paper leans on this twice: "3 dB measurement dynamics is common"
when interpreting delta-RSRP CDFs (Fig. 6), and time-to-trigger exists
precisely because single samples are noisy.

The engine's default *vectorized* path keeps filter state in numpy
arrays aligned with the snapshot cache's prepared cell list (one masked
array pass per round, stable cell-index maps, carry-over when the UE
crosses a cache-grid boundary) and serves every round a UE takes,
S-gated idle rounds included.  :class:`BatchMeasurementState` performs
the same full-measure connected rounds for a whole fleet shard at once,
in persistent (metric x UE x cell) matrices.  The *scalar* path is the
original per-cell loop, kept as the one reference oracle
(``vectorized=False``) — parity tests assert all three produce
bit-identical drives.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.radio import PreparedCells, RadioSnapshot
from repro.cellnet.rat import (
    RSRP_RANGE_DBM,
    RSRQ_RANGE_DB,
    clamp_rsrp,
    clamp_rsrq,
)
from repro.cellnet.world import RadioEnvironment


@dataclass(frozen=True)
class FilteredMeasurement:
    """L3-filtered measurement of one cell."""

    cell: Cell
    rsrp_dbm: float
    rsrq_db: float

    def metric(self, name: str) -> float:
        """Value of the named trigger quantity ("rsrp" or "rsrq")."""
        if name == "rsrp":
            return self.rsrp_dbm
        if name == "rsrq":
            return self.rsrq_db
        raise ValueError(f"unknown metric {name!r}")


class MeasurementRound(Mapping):
    """One measurement round, array-resident.

    Behaves like the ``dict[CellId, FilteredMeasurement]`` the scalar
    engine returns (same iteration order: snapshot order over measured
    cells), but the filtered values live in numpy arrays aligned with
    the snapshot's prepared cell list; :class:`FilteredMeasurement`
    dataclasses are only materialized for the few cells a consumer
    actually touches (serving cell, report neighbors).
    """

    __slots__ = ("prepared", "rsrp", "rsrq", "mask", "_order", "_fms", "_masks", "_splits")

    def __init__(
        self,
        prepared: PreparedCells,
        rsrp: np.ndarray,
        rsrq: np.ndarray,
        mask: np.ndarray,
    ):
        self.prepared = prepared
        #: Filtered metric arrays aligned with ``prepared.cells``; only
        #: positions where ``mask`` holds carry this round's values.
        self.rsrp = rsrp
        self.rsrq = rsrq
        self.mask = mask
        self._order: np.ndarray | None = None
        self._fms: dict[CellId, FilteredMeasurement] = {}
        self._masks: dict = {}
        self._splits: dict = {}

    @property
    def order(self) -> np.ndarray:
        """Measured positions in snapshot order (``flatnonzero(mask)``)."""
        if self._order is None:
            self._order = np.flatnonzero(self.mask)
        return self._order

    # -- Mapping protocol (scalar-dict compatibility) -----------------------

    def __iter__(self):
        ids = self.prepared.cell_ids
        return (ids[i] for i in self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, cell_id) -> bool:
        i = self.prepared.index.get(cell_id)
        return i is not None and bool(self.mask[i])

    def __getitem__(self, cell_id) -> FilteredMeasurement:
        i = self.prepared.index.get(cell_id)
        if i is None or not self.mask[i]:
            raise KeyError(cell_id)
        return self.measurement_at(i)

    def get(self, cell_id, default=None):
        i = self.prepared.index.get(cell_id)
        if i is None or not self.mask[i]:
            return default
        return self.measurement_at(i)

    # -- array-side accessors ----------------------------------------------

    def measurement_at(self, i: int) -> FilteredMeasurement:
        """The (cached) :class:`FilteredMeasurement` of snapshot position ``i``."""
        cell_id = self.prepared.cell_ids[i]
        fm = self._fms.get(cell_id)
        if fm is None:
            fm = FilteredMeasurement(
                cell=self.prepared.cells[i],
                rsrp_dbm=float(self.rsrp[i]),
                rsrq_db=float(self.rsrq[i]),
            )
            self._fms[cell_id] = fm
        return fm

    def metric_values(self, name: str) -> np.ndarray:
        """Filtered value array of the named metric (snapshot-aligned)."""
        if name == "rsrp":
            return self.rsrp
        if name == "rsrq":
            return self.rsrq
        raise ValueError(f"unknown metric {name!r}")

    def neighbor_masks(self, serving: Cell) -> tuple[np.ndarray, np.ndarray]:
        """(intra-RAT, inter-RAT) neighbor candidate masks, full length.

        Boolean arrays over ``prepared.cells``: measured this round, of
        the respective RAT class, serving cell excluded.  Cached per
        round — every armed event consults the same candidate classes.
        """
        key = serving.cell_id
        cached = self._masks.get(key)
        if cached is not None:
            return cached
        mask = self.mask.copy()
        si = self.prepared.index.get(key)
        if si is not None:
            mask[si] = False
        rat_mask = self.prepared.rat_mask(serving.rat)
        intra = mask & rat_mask
        inter = mask & ~rat_mask
        self._masks[key] = (intra, inter)
        return intra, inter

    def neighbor_order(self, serving: Cell) -> tuple[np.ndarray, np.ndarray]:
        """(intra-RAT, inter-RAT) neighbor positions, best-first.

        Sorted by (-filtered RSRP, cell id), exactly the scalar
        :meth:`MeasurementEngine.split_neighbors` order.  Computed (and
        cached) lazily: the vectorized event pass only needs the
        unsorted masks, so the sort is paid only when a report actually
        materializes neighbors or a shadow consumer splits the round.
        """
        key = serving.cell_id
        cached = self._splits.get(key)
        if cached is not None:
            return cached
        intra_mask, inter_mask = self.neighbor_masks(serving)
        intra = np.flatnonzero(intra_mask)
        inter = np.flatnonzero(inter_mask)
        gci = self.prepared.gci
        if intra.size:
            intra = intra[np.lexsort((gci[intra], -self.rsrp[intra]))]
        if inter.size:
            inter = inter[np.lexsort((gci[inter], -self.rsrp[inter]))]
        self._splits[key] = (intra, inter)
        return intra, inter


class MeasurementEngine:
    """Per-UE measurement state: noise injection plus L3 filtering.

    Args:
        env: Radio environment to sample from.
        rng: The UE's RNG (drives per-sample measurement noise).
        noise_std_db: L1 sample noise standard deviation.
        filter_k: TS 36.331 filterCoefficient (k = 4 gives a = 0.5).
        radius_m: Neighbor search radius per snapshot.
        vectorized: Take the array-resident fast path (default) or the
            scalar per-cell reference loop.
    """

    def __init__(
        self,
        env: RadioEnvironment,
        rng: np.random.Generator,
        noise_std_db: float = 1.8,
        filter_k: int = 4,
        radius_m: float = 2500.0,
        detection_floor_dbm: float = -126.0,
        vectorized: bool = True,
    ):
        self.env = env
        self.rng = rng
        self.noise_std_db = noise_std_db
        self.alpha = 1.0 / 2.0 ** (filter_k / 4.0)
        self.radius_m = radius_m
        #: Neighbors below this raw RSRP are undetectable and skipped —
        #: both a realism point (cell search has a sensitivity floor)
        #: and the measurement hot path's main cost saver.
        self.detection_floor_dbm = detection_floor_dbm
        self.vectorized = vectorized
        #: Scalar-path filter state (cell id -> (rsrp, rsrq)).
        self._filtered: dict[CellId, tuple[float, float]] = {}
        #: Vectorized-path filter state, aligned with ``_aligned.cells``.
        self._aligned: PreparedCells | None = None
        self._filt_rsrp: np.ndarray | None = None
        self._filt_rsrq: np.ndarray | None = None
        self._has_filt: np.ndarray | None = None
        #: Memo of the last snapshot taken, so every consumer inside one
        #: tick (measurement, idle gating, the runner's ground-truth
        #: sampling) shares a single vectorized RSRP computation.
        self._snap_key: tuple | None = None
        self._snap: RadioSnapshot | None = None
        #: A measurement round computed ahead of time by the fleet
        #: simulator's batched pass; the next :meth:`step` consumes it
        #: instead of recomputing (the batch already advanced this
        #: engine's RNG and filter state identically).
        self._pending_round: MeasurementRound | None = None
        #: Count of measurement rounds performed, split by kind — the
        #: measurement-efficiency analysis (Fig. 11) consumes these.
        self.intra_freq_rounds = 0
        self.non_intra_freq_rounds = 0
        #: Buffered standard-normal tap (see :meth:`_noise`).
        self._noise_buf: np.ndarray | None = None
        self._noise_pos = 0

    def _noise(self, m: int) -> np.ndarray:
        """``m`` standard normals from this engine's stream, buffered.

        ``Generator.standard_normal`` hands out elements sequentially
        from the bit stream, so any partition of draws into calls yields
        the same element sequence.  Serving slices of one large buffered
        draw is therefore bit-identical to ``m`` direct draws — leftover
        tail values are carried across refills, never discarded, keeping
        the served sequence exactly the unbuffered one.  Both vectorized
        measurement paths (:meth:`_step_vectorized` and the fleet's
        :class:`BatchMeasurementState`, one ``2n`` read per round each)
        draw through this tap, which is what keeps a fleet lane's stream
        aligned with the same UE simulated solo.
        """
        buf = self._noise_buf
        pos = self._noise_pos
        if buf is None or len(buf) - pos < m:
            keep = 0 if buf is None else len(buf) - pos
            new = np.empty(keep + max(4096, m))
            if keep:
                new[:keep] = buf[pos:]
            self.rng.standard_normal(out=new[keep:])
            self._noise_buf = buf = new
            pos = 0
        self._noise_pos = pos + m
        return buf[pos : pos + m]

    def reset(self) -> None:
        """Drop filter state (called after a handoff/reselection)."""
        self._filtered.clear()
        self._pending_round = None
        if self._has_filt is not None:
            self._has_filt = np.zeros(len(self._has_filt), dtype=bool)

    def snapshot(self, location, carrier: str) -> RadioSnapshot:
        """Raw vectorized snapshot of the carrier's audible cells.

        Memoized on (location, carrier): repeated calls within one tick
        reuse the same snapshot object, and the drive lane's ground-truth
        sampling reads this tick's snapshot from the memo.
        """
        key = (location.x, location.y, carrier)
        if key == self._snap_key:
            assert self._snap is not None
            return self._snap
        snap = self.env.snapshot(location, carrier, radius_m=self.radius_m)
        self._snap_key, self._snap = key, snap
        return snap

    def adopt_snapshot(self, location, carrier: str, snap: RadioSnapshot) -> None:
        """Install a snapshot taken by a co-located UE into the memo.

        The fleet simulator computes one physics pass per occupied spot
        per tick; every other UE at the same (location, carrier) adopts
        the identical snapshot instead of recomputing it.  Values are
        exactly what :meth:`snapshot` would have produced (the pass is
        deterministic in its inputs).
        """
        self._snap_key = (location.x, location.y, carrier)
        self._snap = snap

    def step(
        self,
        location,
        carrier: str,
        serving: Cell,
        measure_intra: bool = True,
        measure_non_intra: bool = True,
    ):
        """One measurement round; returns filtered values per cell.

        ``measure_intra`` / ``measure_non_intra`` implement the Eq. (1)
        gating: when a class of measurement is off, those neighbors are
        simply not sampled this round (their stale filter state is
        dropped, as a real modem ages measurements out).  The serving
        cell is always measured.

        Returns a mapping of cell id to filtered measurement: a plain
        dict on the scalar path, a :class:`MeasurementRound` on the
        vectorized one.
        """
        pending = self._pending_round
        if pending is not None:
            # The fleet's batched pass already performed this exact round
            # (same snapshot, serving and gating) and committed the
            # filter state; consuming it only needs the bookkeeping.
            self._pending_round = None
            if measure_intra:
                self.intra_freq_rounds += 1
            if measure_non_intra:
                self.non_intra_freq_rounds += 1
            return pending
        snap = self.snapshot(location, carrier)
        if measure_intra:
            self.intra_freq_rounds += 1
        if measure_non_intra:
            self.non_intra_freq_rounds += 1
        if self.vectorized:
            return self._step_vectorized(snap, serving, measure_intra, measure_non_intra)
        return self._step_scalar(snap, serving, measure_intra, measure_non_intra)

    # -- vectorized path -----------------------------------------------------

    def _realign(self, prepared: PreparedCells) -> None:
        """Carry filter state over to a new snapshot-cache cell list."""
        n = len(prepared.cells)
        rsrp = np.zeros(n)
        rsrq = np.zeros(n)
        has = np.zeros(n, dtype=bool)
        old = self._aligned
        if old is not None and self._has_filt is not None and self._has_filt.any():
            old_index = old.index
            old_rsrp, old_rsrq, old_has = self._filt_rsrp, self._filt_rsrq, self._has_filt
            for i, cell_id in enumerate(prepared.cell_ids):
                j = old_index.get(cell_id)
                if j is not None and old_has[j]:
                    has[i] = True
                    rsrp[i] = old_rsrp[j]
                    rsrq[i] = old_rsrq[j]
        self._aligned = prepared
        self._filt_rsrp, self._filt_rsrq, self._has_filt = rsrp, rsrq, has

    def _step_vectorized(
        self,
        snap: RadioSnapshot,
        serving: Cell,
        measure_intra: bool,
        measure_non_intra: bool,
    ) -> MeasurementRound:
        prepared = snap.prepared
        n = len(prepared.cells)
        rsrp_arr, rsrq_arr, _ = snap.metric_arrays()
        # The noise draws mirror the scalar path exactly: Generator.normal
        # consumes one standard normal per element and scales it, so one
        # combined 2n draw split and scaled yields bit-identical values
        # to the scalar path's two length-n draws while paying the
        # generator call overhead once (amortized further by the tap).
        z = self._noise(2 * n)
        noise_rsrp = z[:n] * self.noise_std_db
        noise_rsrq = z[n:] * (self.noise_std_db / 2.0)
        if self._aligned is not prepared:
            self._realign(prepared)
        eligible = rsrp_arr >= self.detection_floor_dbm
        if not (measure_intra and measure_non_intra):
            intra = prepared.intra_mask(serving.rat, serving.channel)
            if not measure_intra:
                eligible &= ~intra
            if not measure_non_intra:
                eligible &= intra
        serving_i = prepared.index.get(serving.cell_id)
        if serving_i is not None:
            eligible[serving_i] = True
        # minimum(maximum(...)) is the scalar clamp's exact op order.
        lo, hi = RSRP_RANGE_DBM
        noisy_rsrp = np.minimum(np.maximum(rsrp_arr + noise_rsrp, lo), hi)
        lo, hi = RSRQ_RANGE_DB
        noisy_rsrq = np.minimum(np.maximum(rsrq_arr + noise_rsrq, lo), hi)
        one_minus_alpha = 1.0 - self.alpha
        has = self._has_filt
        filt_rsrp = np.where(
            has, one_minus_alpha * self._filt_rsrp + self.alpha * noisy_rsrp, noisy_rsrp
        )
        filt_rsrq = np.where(
            has, one_minus_alpha * self._filt_rsrq + self.alpha * noisy_rsrq, noisy_rsrq
        )
        # Cells not measured this round age out (has-state drops), just
        # as the scalar path deletes their dict entries.
        self._filt_rsrp, self._filt_rsrq, self._has_filt = filt_rsrp, filt_rsrq, eligible
        return MeasurementRound(prepared, filt_rsrp, filt_rsrq, eligible)

    # -- scalar reference path ----------------------------------------------

    def _step_scalar(
        self,
        snap: RadioSnapshot,
        serving: Cell,
        measure_intra: bool,
        measure_non_intra: bool,
    ) -> dict[CellId, FilteredMeasurement]:
        measured: dict[CellId, FilteredMeasurement] = {}
        seen: set[CellId] = set()
        rsrp_arr, rsrq_arr, _ = snap.metric_arrays()
        n = len(snap.cells)
        noise_rsrp = self.rng.normal(0.0, self.noise_std_db, n)
        noise_rsrq = self.rng.normal(0.0, self.noise_std_db / 2.0, n)
        one_minus_alpha = 1.0 - self.alpha
        for i, cell in enumerate(snap.cells):
            is_serving = cell.cell_id == serving.cell_id
            if not is_serving:
                if rsrp_arr[i] < self.detection_floor_dbm:
                    continue
                intra = cell.rat is serving.rat and cell.channel == serving.channel
                if intra and not measure_intra:
                    continue
                if not intra and not measure_non_intra:
                    continue
            noisy_rsrp = clamp_rsrp(float(rsrp_arr[i]) + float(noise_rsrp[i]))
            noisy_rsrq = clamp_rsrq(float(rsrq_arr[i]) + float(noise_rsrq[i]))
            prev = self._filtered.get(cell.cell_id)
            if prev is None:
                filt = (noisy_rsrp, noisy_rsrq)
            else:
                filt = (
                    one_minus_alpha * prev[0] + self.alpha * noisy_rsrp,
                    one_minus_alpha * prev[1] + self.alpha * noisy_rsrq,
                )
            self._filtered[cell.cell_id] = filt
            seen.add(cell.cell_id)
            measured[cell.cell_id] = FilteredMeasurement(
                cell=cell, rsrp_dbm=filt[0], rsrq_db=filt[1]
            )
        # Age out cells that were not measured this round.
        for stale in [cid for cid in self._filtered if cid not in seen]:
            del self._filtered[stale]
        return measured

    # -- shared helpers ------------------------------------------------------

    @staticmethod
    def split_neighbors(
        measured, serving: Cell
    ) -> tuple[list[FilteredMeasurement], list[FilteredMeasurement]]:
        """(intra-RAT LTE neighbors, inter-RAT neighbors) of a round."""
        if isinstance(measured, MeasurementRound):
            intra_idx, inter_idx = measured.neighbor_order(serving)
            return (
                [measured.measurement_at(i) for i in intra_idx],
                [measured.measurement_at(i) for i in inter_idx],
            )
        intra_rat: list[FilteredMeasurement] = []
        inter_rat: list[FilteredMeasurement] = []
        for cid, fm in measured.items():
            if cid == serving.cell_id:
                continue
            if fm.cell.rat is serving.rat:
                intra_rat.append(fm)
            else:
                inter_rat.append(fm)
        intra_rat.sort(key=lambda m: (-m.rsrp_dbm, m.cell.cell_id))
        inter_rat.sort(key=lambda m: (-m.rsrp_dbm, m.cell.cell_id))
        return intra_rat, inter_rat


class BatchMeasurementState:
    """Persistent (metric x UE x cell) matrices for a lockstep fleet shard.

    One full-measure connected round for many engines at once.  Lanes
    may live in *different* snapshot-cache neighborhoods: row ``r``
    spans its own prepared cell list and is padded out to the widest
    row with :data:`_PAD` (ineligible by construction).  RSRP and RSRQ
    share a leading axis in every buffer, so one ufunc call updates
    both.  A row is *attached* from the first :meth:`step` that names
    it until :meth:`detach`, and every step advances every attached
    row.  For a fleet ticking the same UEs in lockstep most rows are
    unchanged tick over tick (a parked UE's raw snapshot never changes,
    and its filter state is exactly last tick's output), so the
    matrices stay alive across ticks and are updated **in place**:

    * A row named in ``rows`` gets the full check: its raw metrics are
      rewritten when its snapshot changed, its filter state is refreshed
      from its engine when the engine's arrays were rebuilt outside the
      batch (handover reset, realignment, a detach), and its serving
      column and neighbor masks when its serving cell or neighborhood
      changed.
    * An attached row that is not named is *steady*: the caller vouches
      that nothing the full check re-derives has changed since the
      row's last one.  A steady row in ``movers`` only has its raw
      metrics rewritten from its engine's snapshot memo, which must
      still span the row's prepared cell list (a lane in a new
      neighborhood is named instead); any other steady row costs no
      Python at all.
    * The previous-state and output matrices are the *same buffers*:
      the IIR update writes back into them, so the row views installed
      into each engine stay valid across ticks.
    * Each step reads every attached row's noise from its own engine's
      tap (:meth:`MeasurementEngine._noise`, one ``2n`` read, RSRP
      first), so the engine's own path continues exactly where the
      batch left its stream.
    * Serving-cell eligibility is forced with one fancy-index write
      from cached row/column arrays, rebuilt only when a serving cell,
      a neighborhood, or the set of attached rows changes.

    Because the buffers mutate in place, anything derived from row
    views — :class:`MeasurementRound` objects included — is only valid
    until the next :meth:`step`.  A lane that leaves the batch MUST
    :meth:`detach` its row before the next step: the full-matrix ufuncs
    would otherwise scribble over live engine state, and the row would
    go on drawing from the engine's stream.  The state holds its
    attached engines; an engine never refers back to the state, so a
    finished shard's state is freed by reference counting.

    Values are bit-identical to per-engine :meth:`_step_vectorized`
    rounds: every update is the same elementwise ufunc on the same
    operand values, and each engine's noise is its own tap's sequence
    in its own order (one ``2n`` tap read per tick, RSRP first).
    """

    #: Raw-metric value used to pad rows past a lane's own cell count:
    #: far below every detection floor, so padded positions are never
    #: eligible, and sliced away before anything is committed.
    _PAD = -1.0e9

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.max_n = 0
        self.n_attached = 0
        # Persistent inputs; prev/has double as the in-place outputs.
        self._raw: np.ndarray | None = None
        self._prev: np.ndarray | None = None
        self._has: np.ndarray | None = None
        #: (metric, row, cell) unit normals of this step.
        self._noise: np.ndarray | None = None
        #: [intra-RAT, inter-RAT] neighbor classes per row, serving
        #: cell excluded; candidates are these masks & eligibility.
        self._neighbors: np.ndarray | None = None
        self._candidates: np.ndarray | None = None
        # Elementwise scratch (noisy metrics, IIR terms).
        self._t1: np.ndarray | None = None
        self._t2: np.ndarray | None = None
        self._stds = np.zeros((2, n_rows, 1))
        self._floors = np.zeros((n_rows, 1))
        self._alpha = np.zeros((n_rows, 1))
        self._one_minus_alpha = np.zeros((n_rows, 1))
        self._lo = np.array([RSRP_RANGE_DBM[0], RSRQ_RANGE_DB[0]]).reshape(2, 1, 1)
        self._hi = np.array([RSRP_RANGE_DBM[1], RSRQ_RANGE_DB[1]]).reshape(2, 1, 1)
        #: The attached engine of each row (None: detached).
        self._engines: list = [None] * n_rows
        # Per-row validity bookkeeping (engine-array identity).
        self._last_snap: list = [None] * n_rows
        self._last_n = [0] * n_rows
        self._last_view: list = [None] * n_rows
        self._last_has_view: list = [None] * n_rows
        #: (serving cell, prepared, serving index) memo per row.
        self._serving_memo: list = [None] * n_rows
        self._serving_col = np.zeros(n_rows, dtype=np.intp)
        self._row_index = np.arange(n_rows)
        #: Serving-eligibility write targets (None: rebuild).
        self._sv_rows: np.ndarray | None = None
        self._sv_cols: np.ndarray | None = None

    def _grow(self, need_n: int) -> None:
        """(Re)allocate matrices for a larger cell axis; all rows stale."""
        self.max_n = need_n
        g = self.n_rows
        self._raw = np.full((2, g, need_n), self._PAD)
        self._prev = np.zeros((2, g, need_n))
        self._has = np.zeros((g, need_n), dtype=bool)
        self._noise = np.zeros((2, g, need_n))
        self._neighbors = np.zeros((2, g, need_n), dtype=bool)
        self._candidates = np.empty((2, g, need_n), dtype=bool)
        self._t1 = np.empty((2, g, need_n))
        self._t2 = np.empty((2, g, need_n))
        self._last_snap = [None] * g
        self._last_n = [0] * g
        self._last_view = [None] * g
        self._last_has_view = [None] * g
        self._serving_memo = [None] * g
        self._sv_rows = None

    def detach(self, row: int) -> None:
        """Release row ``row``: its engine leaves the batch.

        The engine gets private copies of its row views (the in-place
        update would otherwise mutate its live filter state).  The row
        drops every reference it held; if the engine returns, its next
        full check refreshes the row from it.
        """
        eng = self._engines[row]
        if eng is None:
            return
        eng._filt_rsrp = eng._filt_rsrp.copy()
        eng._filt_rsrq = eng._filt_rsrq.copy()
        eng._has_filt = eng._has_filt.copy()
        self._engines[row] = None
        self.n_attached -= 1
        self._last_snap[row] = None
        self._last_view[row] = None
        self._last_has_view[row] = None
        self._serving_memo[row] = None
        self._sv_rows = None

    def close(self) -> None:
        """Detach every attached row."""
        for row, eng in enumerate(self._engines):
            if eng is not None:
                self.detach(row)

    def _check(
        self, r: int, eng: MeasurementEngine, snap: RadioSnapshot, serving: Cell
    ) -> None:
        """The full row check: attach, then refresh what went stale."""
        prepared = snap.prepared
        n = len(prepared.cells)
        if self._engines[r] is None:
            self._engines[r] = eng
            self.n_attached += 1
        if snap is not self._last_snap[r]:
            rr, rq, _ = snap.metric_arrays()
            raw = self._raw
            raw[0, r, :n] = rr
            raw[1, r, :n] = rq
            if n < self._last_n[r]:
                raw[:, r, n : self._last_n[r]] = self._PAD
            self._last_snap[r] = snap
            self._last_n[r] = n
        if (
            eng._filt_rsrp is not self._last_view[r]
            or eng._has_filt is not self._last_has_view[r]
            or eng._aligned is not prepared
        ):
            # The engine's arrays were rebuilt outside the batch (reset,
            # realignment, detach): the engine is the source of truth —
            # refresh the row from it, then hand the engine stable views
            # into the in-place buffers.
            if eng._aligned is not prepared:
                eng._realign(prepared)
            prev, has = self._prev, self._has
            prev[0, r, :n] = eng._filt_rsrp
            prev[1, r, :n] = eng._filt_rsrq
            has[r, :n] = eng._has_filt
            has[r, n:] = False
            self._stds[0, r, 0] = eng.noise_std_db
            self._stds[1, r, 0] = eng.noise_std_db / 2.0
            self._floors[r, 0] = eng.detection_floor_dbm
            self._alpha[r, 0] = eng.alpha
            self._one_minus_alpha[r, 0] = 1.0 - eng.alpha
            view_rsrp = prev[0, r, :n]
            view_has = has[r, :n]
            eng._filt_rsrp = view_rsrp
            eng._filt_rsrq = prev[1, r, :n]
            eng._has_filt = view_has
            self._last_view[r] = view_rsrp
            self._last_has_view[r] = view_has
        memo = self._serving_memo[r]
        if memo is None or memo[0] is not serving or memo[1] is not prepared:
            i = prepared.index.get(serving.cell_id)
            self._serving_memo[r] = (serving, prepared, i)
            # MeasurementRound.neighbor_masks' classes, serving excluded.
            neighbors = self._neighbors
            intra = prepared.rat_mask(serving.rat)
            neighbors[0, r, :n] = intra
            np.logical_not(intra, out=neighbors[1, r, :n])
            neighbors[:, r, n:] = False
            if i is not None:
                neighbors[:, r, i] = False
            self._serving_col[r] = 0 if i is None else i
            self._sv_rows = None

    def step(
        self,
        rows: list[int],
        engines: list[MeasurementEngine],
        snaps: list[RadioSnapshot],
        servings: list[Cell],
        movers: list[int] = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """One batched connected round over every attached row.

        Row ``rows[k]`` (engine ``engines[k]``, this tick's snapshot
        ``snaps[k]``, serving cell ``servings[k]``) is attached if new
        and gets the full check; ``movers`` are steady rows whose
        snapshot may have moved within their prepared cell list.
        Advances every attached engine's filter state and noise stream
        and returns ``(filtered, eligible)``: the ``(2, rows, cells)``
        [RSRP, RSRQ] filter buffer and the ``(rows, cells)`` eligibility
        buffer, valid until the next call (detached rows hold garbage).
        No :class:`MeasurementRound` objects are created here —
        :meth:`round_at` materializes one for a lane that consumes it.
        """
        checks = list(zip(rows, engines, snaps, servings))
        attached, last_snap, last_n = self._engines, self._last_snap, self._last_n
        raw = self._raw
        for r in movers:
            snap = attached[r]._snap
            if snap is not last_snap[r]:
                n = last_n[r]
                rr, rq, _ = snap.metric_arrays()
                raw[0, r, :n] = rr
                raw[1, r, :n] = rq
                last_snap[r] = snap
        need_n = max(1, max((len(check[2].prepared.cells) for check in checks), default=0))
        if need_n > self.max_n:
            named = {check[0] for check in checks}
            checks.extend(
                (r, eng, eng._snap, self._serving_memo[r][0])
                for r, eng in enumerate(attached)
                if eng is not None and r not in named
            )
            self._grow(need_n)
        for r, eng, snap, serving in checks:
            self._check(r, eng, snap, serving)
        noise, last_n = self._noise, self._last_n
        for r, eng in enumerate(attached):
            if eng is not None:
                n = last_n[r]
                noise[:, r, :n] = eng._noise(2 * n).reshape(2, n)
        raw, prev, has = self._raw, self._prev, self._has
        t1, t2 = self._t1, self._t2
        # Scaling the unit draws is the same multiply the per-engine
        # path performs (z * std, z * (std / 2)), written into t1: the
        # noise buffer keeps its unit draws, so a detached row's stale
        # values stay bounded.
        np.multiply(self._noise, self._stds, out=t1)
        # minimum(maximum(...)) is the scalar clamp's exact op order.
        np.add(raw, t1, out=t1)
        np.maximum(t1, self._lo, out=t1)
        np.minimum(t1, self._hi, out=t1)
        # where(has, (1-a)*prev + a*noisy, noisy), written back into
        # prev: the IIR's prev term is materialized first, then noisy is
        # copied everywhere, scaled in place to a*noisy, and the sum
        # overwrites it where has holds — the same selected values
        # np.where produces.
        np.multiply(self._one_minus_alpha, prev, out=t2)
        np.copyto(prev, t1)
        np.multiply(self._alpha, t1, out=t1)
        np.add(t2, t1, out=t2)
        np.copyto(prev, t2, where=has)
        # Eligibility replaces has in place only after the IIR selection
        # consumed last tick's values, then serving cells are forced
        # eligible in one cached fancy-index write.
        np.greater_equal(raw[0], self._floors, out=has)
        if self._sv_rows is None:
            pairs = [
                (r, m[2])
                for r, m in enumerate(self._serving_memo)
                if m is not None and m[2] is not None
            ]
            self._sv_rows = np.array([p[0] for p in pairs], dtype=np.intp)
            self._sv_cols = np.array([p[1] for p in pairs], dtype=np.intp)
        has[self._sv_rows, self._sv_cols] = True
        return prev, has

    def serving_values(self) -> np.ndarray:
        """``(2, rows)`` [RSRP, RSRQ] of each row's serving cell this round.

        A row whose serving cell is not in its neighborhood reads
        column 0 (garbage); see :meth:`serving_index`.
        """
        return self._prev[:, self._row_index, self._serving_col]

    def serving_index(self, row: int) -> int | None:
        """Row ``row``'s serving-cell position (None: not audible)."""
        return self._serving_memo[row][2]

    def candidates(self) -> np.ndarray:
        """``(2, rows, cells)`` [intra-RAT, inter-RAT] neighbor candidates.

        Measured this round, of the serving cell's RAT class or not,
        serving cell excluded: :meth:`MeasurementRound.neighbor_masks`
        of every row at once (before the s-Measure gate).
        """
        return np.logical_and(self._neighbors, self._has, out=self._candidates)

    def round_at(self, row: int) -> MeasurementRound:
        """Row ``row``'s round, as views valid until the next step."""
        prepared = self._serving_memo[row][1]
        n = self._last_n[row]
        return MeasurementRound(
            prepared, self._prev[0, row, :n], self._prev[1, row, :n], self._has[row, :n]
        )
