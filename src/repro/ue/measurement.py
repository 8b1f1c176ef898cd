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
in persistent (UE x cell) matrices.  The *scalar* path is the original
per-cell loop, kept as the one reference oracle (``REPRO_SCALAR=1``) —
parity tests assert all three produce bit-identical drives.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.radio import PreparedCells, RadioSnapshot
from repro.cellnet.rat import (
    RAT,
    RSRP_RANGE_DBM,
    RSRQ_RANGE_DB,
    clamp_rsrp,
    clamp_rsrq,
)
from repro.cellnet.world import RadioEnvironment


def default_vectorized() -> bool:
    """Whether new engines take the vectorized path (REPRO_SCALAR=1 opts out)."""
    return os.environ.get("REPRO_SCALAR", "0") in ("", "0")


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
        vectorized: Take the array-resident fast path (default; honours
            ``REPRO_SCALAR=1``) or the scalar per-cell reference loop.
    """

    def __init__(
        self,
        env: RadioEnvironment,
        rng: np.random.Generator,
        noise_std_db: float = 1.8,
        filter_k: int = 4,
        radius_m: float = 2500.0,
        detection_floor_dbm: float = -126.0,
        vectorized: bool | None = None,
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
        self.vectorized = default_vectorized() if vectorized is None else vectorized
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
        :class:`BatchMeasurementState`) draw through this tap, which is
        what keeps a fleet lane's stream aligned with the same UE
        simulated solo.
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
    """Persistent (UE x cell) matrices for a lockstep fleet shard.

    One full-measure connected round for many engines at once.  Lanes
    may live in *different* snapshot-cache neighborhoods: row ``r``
    spans its own prepared cell list and is padded out to the widest
    row with :data:`_PAD` (ineligible by construction).  For a fleet
    ticking the same UEs in lockstep most rows are unchanged tick over
    tick (a parked UE's raw snapshot never changes, and its filter state
    is exactly last tick's output), so the matrices stay alive across
    ticks, only rows that went stale are refreshed, and the
    filter/eligibility matrices are updated **in place**:

    * Raw metric rows are rewritten only when a UE's snapshot object
      changed (movers every tick, parked UEs never).
    * The previous-state and output matrices are the *same buffers*:
      the IIR update writes back into them, so the row views installed
      into each engine stay valid across ticks and need no per-tick
      re-commit.  An engine whose arrays were rebuilt outside the batch
      (handover reset, realignment, a detach by the fleet loop) fails
      the identity check and gets its row refreshed from the engine,
      the single source of truth.
    * Serving-cell eligibility is forced with one fancy-index write
      from cached row/column arrays, rebuilt only when a serving cell,
      a neighborhood, or the set of batched rows changes.

    Because the buffers mutate in place, anything derived from row
    views — :class:`MeasurementRound` objects included — is only valid
    until the next :meth:`step`; the fleet consumes every round within
    its tick.  Callers whose engines hold batch row views MUST detach
    an engine (copy its arrays) before stepping the batch without it,
    or the full-matrix ufuncs would scribble over live engine state.

    Values are bit-identical to per-engine :meth:`_step_vectorized`
    rounds: every update is the same elementwise ufunc on the same
    operand values, and each engine's RNG draws its own noise in its
    own order (``standard_normal`` twice consumes the stream exactly as
    one ``normal(0, 1, 2n)`` draw does).
    """

    #: Raw-metric value used to pad rows past a lane's own cell count:
    #: far below every detection floor, so padded positions are never
    #: eligible, and sliced away before anything is committed.
    _PAD = -1.0e9

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self.max_n = 0
        # Persistent inputs; prev/has double as the in-place outputs.
        self._raw_rsrp: np.ndarray | None = None
        self._raw_rsrq: np.ndarray | None = None
        self._prev_rsrp: np.ndarray | None = None
        self._prev_rsrq: np.ndarray | None = None
        self._has: np.ndarray | None = None
        self._noise_rsrp: np.ndarray | None = None
        self._noise_rsrq: np.ndarray | None = None
        # Elementwise scratch (noisy metrics, IIR terms).
        self._t1: np.ndarray | None = None
        self._t2: np.ndarray | None = None
        self._t3: np.ndarray | None = None
        self._t4: np.ndarray | None = None
        #: Padded LTE rat-mask rows for the batched event pass (every
        #: batched lane serves LTE); refreshed with the raw rows.
        self._rat_lte: np.ndarray | None = None
        self._stds = np.zeros((n_rows, 1))
        self._stds_half = np.zeros((n_rows, 1))
        self._floors = np.zeros((n_rows, 1))
        self._alpha = np.zeros((n_rows, 1))
        self._one_minus_alpha = np.zeros((n_rows, 1))
        # Per-row validity bookkeeping (engine-array identity).
        self._last_snap: list = [None] * n_rows
        self._last_prepared: list = [None] * n_rows
        self._last_n = [0] * n_rows
        self._last_view: list = [None] * n_rows
        self._last_has_view: list = [None] * n_rows
        #: (serving cell, prepared, serving index) memo per row.
        self._serving_memo: list = [None] * n_rows
        #: Cached serving-eligibility write targets (see step()).
        self._sv_rows: np.ndarray | None = None
        self._sv_cols: np.ndarray | None = None
        self._sv_for_rows: list | None = None
        #: Optional ``REPRO_PROFILE`` stage-timing sink (the fleet
        #: simulator attaches its own profile dict here).
        self.profile: dict | None = None

    def _grow(self, need_n: int) -> None:
        """(Re)allocate matrices for a larger cell axis; all rows stale."""
        self.max_n = need_n
        g = self.n_rows
        pad = self._PAD
        self._raw_rsrp = np.full((g, need_n), pad)
        self._raw_rsrq = np.full((g, need_n), pad)
        self._prev_rsrp = np.zeros((g, need_n))
        self._prev_rsrq = np.zeros((g, need_n))
        self._has = np.zeros((g, need_n), dtype=bool)
        self._noise_rsrp = np.zeros((g, need_n))
        self._noise_rsrq = np.zeros((g, need_n))
        self._t1 = np.empty((g, need_n))
        self._t2 = np.empty((g, need_n))
        self._t3 = np.empty((g, need_n))
        self._t4 = np.empty((g, need_n))
        self._rat_lte = np.zeros((g, need_n), dtype=bool)
        self._last_snap = [None] * g
        self._last_prepared = [None] * g
        self._last_n = [0] * g
        self._last_view = [None] * g
        self._last_has_view = [None] * g
        self._sv_for_rows = None

    def detach(self, eng: MeasurementEngine) -> None:
        """Give ``eng`` private copies of its batch row views.

        Called by the fleet loop when a lane leaves the batch while the
        batch keeps stepping: the in-place matrix update would otherwise
        mutate the engine's live filter state under it.  The copies make
        the engine self-contained; if the lane returns, the identity
        check fails and its row is refreshed from the engine.
        """
        if eng._filt_rsrp is not None:
            eng._filt_rsrp = eng._filt_rsrp.copy()
            eng._filt_rsrq = eng._filt_rsrq.copy()
            eng._has_filt = eng._has_filt.copy()

    def step(
        self,
        rows: list[int],
        engines: list[MeasurementEngine],
        snaps: list[RadioSnapshot],
        servings: list[Cell],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One batched connected round; lane ``k`` lives in row ``rows[k]``.

        Advances every engine's filter state and RNG and returns the
        ``(filt_rsrp, filt_rsrq, eligible)`` matrices (the persistent
        in-place buffers, valid until the next call; rows not in
        ``rows`` hold garbage).  No :class:`MeasurementRound` objects
        are created here — the caller materializes them only for lanes
        that actually consume one.
        """
        profile = self.profile
        t0 = perf_counter() if profile is not None else 0.0
        pad = self._PAD
        need_n = max(len(snap.prepared.cells) for snap in snaps)
        if need_n > self.max_n:
            self._grow(need_n)
        raw_rsrp, raw_rsrq = self._raw_rsrp, self._raw_rsrq
        prev_rsrp, prev_rsrq, has = self._prev_rsrp, self._prev_rsrq, self._has
        noise_rsrp, noise_rsrq = self._noise_rsrp, self._noise_rsrq
        last_snap, last_n = self._last_snap, self._last_n
        last_view, last_has_view = self._last_view, self._last_has_view
        last_prepared = self._last_prepared
        serving_memo = self._serving_memo
        rat_lte = self._rat_lte
        sv_dirty = self._sv_for_rows is None or rows != self._sv_for_rows
        for k, r in enumerate(rows):
            eng, snap = engines[k], snaps[k]
            prepared = snap.prepared
            n = len(prepared.cells)
            # One buffered tap read of 2n consumes the stream exactly as
            # the per-engine path's normal(0, 1, 2n) draw (same values,
            # same order), copied into the contiguous noise row slices.
            z = eng._noise(2 * n)
            noise_rsrp[r, :n] = z[:n]
            noise_rsrq[r, :n] = z[n:]
            if snap is not last_snap[r]:
                rr, rq, _ = snap.metric_arrays()
                raw_rsrp[r, :n] = rr
                raw_rsrq[r, :n] = rq
                if n < last_n[r]:
                    raw_rsrp[r, n:last_n[r]] = pad
                    raw_rsrq[r, n:last_n[r]] = pad
                last_snap[r] = snap
                last_n[r] = n
                if prepared is not last_prepared[r]:
                    rat_lte[r, :n] = prepared.rat_mask(RAT.LTE)
                    rat_lte[r, n:] = False
                    last_prepared[r] = prepared
            if (
                eng._filt_rsrp is not last_view[r]
                or eng._has_filt is not last_has_view[r]
                or eng._aligned is not prepared
            ):
                # The engine's arrays were rebuilt outside the batch
                # (reset, realignment, detach): the engine is the source
                # of truth — refresh the row from it, then hand the
                # engine stable views into the in-place buffers.
                if eng._aligned is not prepared:
                    eng._realign(prepared)
                prev_rsrp[r, :n] = eng._filt_rsrp
                prev_rsrq[r, :n] = eng._filt_rsrq
                has[r, :n] = eng._has_filt
                has[r, n:] = False
                self._stds[r, 0] = eng.noise_std_db
                self._stds_half[r, 0] = eng.noise_std_db / 2.0
                self._floors[r, 0] = eng.detection_floor_dbm
                self._alpha[r, 0] = eng.alpha
                self._one_minus_alpha[r, 0] = 1.0 - eng.alpha
                view_rsrp = prev_rsrp[r, :n]
                view_has = has[r, :n]
                eng._filt_rsrp = view_rsrp
                eng._filt_rsrq = prev_rsrq[r, :n]
                eng._has_filt = view_has
                last_view[r] = view_rsrp
                last_has_view[r] = view_has
            serving = servings[k]
            memo = serving_memo[r]
            if memo is None or memo[0] is not serving or memo[1] is not prepared:
                serving_memo[r] = (serving, prepared, prepared.index.get(serving.cell_id))
                sv_dirty = True
        if profile is not None:
            now = perf_counter()
            profile["bs_loop"] = profile.get("bs_loop", 0.0) + now - t0
            t0 = now
        # Scaling the unit draws is the same multiply the per-engine
        # path performs (z * std, z * (std / 2)), written into t1/t2:
        # the noise rows keep their unit draws, so a row left out of
        # this batch never compounds its scaling tick over tick.
        t1, t2, t3, t4 = self._t1, self._t2, self._t3, self._t4
        np.multiply(noise_rsrp, self._stds, out=t1)
        np.multiply(noise_rsrq, self._stds_half, out=t2)
        # minimum(maximum(...)) is the scalar clamp's exact op order.
        lo, hi = RSRP_RANGE_DBM
        np.add(raw_rsrp, t1, out=t1)
        np.maximum(t1, lo, out=t1)
        np.minimum(t1, hi, out=t1)
        lo, hi = RSRQ_RANGE_DB
        np.add(raw_rsrq, t2, out=t2)
        np.maximum(t2, lo, out=t2)
        np.minimum(t2, hi, out=t2)
        # where(has, (1-a)*prev + a*noisy, noisy), written back into the
        # prev buffers: the IIR term is materialized first (it reads
        # prev), then noisy is copied everywhere and overwritten where
        # has holds — the same selected values np.where produces.
        np.multiply(self._one_minus_alpha, prev_rsrp, out=t3)
        np.multiply(self._alpha, t1, out=t4)
        np.add(t3, t4, out=t3)
        np.copyto(prev_rsrp, t1)
        np.copyto(prev_rsrp, t3, where=has)
        np.multiply(self._one_minus_alpha, prev_rsrq, out=t3)
        np.multiply(self._alpha, t2, out=t4)
        np.add(t3, t4, out=t3)
        np.copyto(prev_rsrq, t2)
        np.copyto(prev_rsrq, t3, where=has)
        # Eligibility replaces has in place only after the IIR selection
        # consumed last tick's values (exactly the allocating version's
        # dataflow), then serving cells are forced eligible in one
        # cached fancy-index write.
        np.greater_equal(raw_rsrp, self._floors, out=has)
        if profile is not None:
            now = perf_counter()
            profile["bs_matrix"] = profile.get("bs_matrix", 0.0) + now - t0
            t0 = now
        if sv_dirty:
            pairs = [
                (r, serving_memo[r][2])
                for r in rows
                if serving_memo[r][2] is not None
            ]
            self._sv_rows = np.fromiter(
                (p[0] for p in pairs), dtype=np.intp, count=len(pairs)
            )
            self._sv_cols = np.fromiter(
                (p[1] for p in pairs), dtype=np.intp, count=len(pairs)
            )
            self._sv_for_rows = list(rows)
        has[self._sv_rows, self._sv_cols] = True
        if profile is not None:
            profile["bs_sv"] = profile.get("bs_sv", 0.0) + perf_counter() - t0
        return prev_rsrp, prev_rsrq, has
