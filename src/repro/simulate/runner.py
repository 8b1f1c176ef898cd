"""The drive simulator: one device, one trajectory, one data service.

``DriveSimulator.run`` is the reproduction of one Type-II measurement
run: the UE ticks along the trajectory, its signaling is logged to a
diag buffer by the attached collector listener (exactly what MMLab does
on a rooted phone), and the traffic model converts the serving link's
capacity into delivered throughput (the role of tcpdump in the paper).

The per-tick body is :class:`DriveLane`, the one per-UE run body of the
simulator: a solo drive ticks one lane along its trajectory, and the
fleet simulator (:mod:`repro.simulate.fleet`) ticks many lanes in
lockstep.  Both draw each tick's location and radio snapshot from a
:class:`SnapshotFeed`, which computes a trajectory's physics ahead of
time in batched chunks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.cellnet.cell import CellId
from repro.cellnet.geo import Point
from repro.cellnet.radio import RadioSnapshot
from repro.cellnet.world import RadioEnvironment
from repro.rrc.broadcast import ConfigServer
from repro.rrc.diag import DiagWriter
from repro.simulate.mobility import Trajectory
from repro.simulate.throughput import ThroughputModel
from repro.simulate.traffic import NoTraffic, Ping, Speedtest, TrafficModel
from repro.ue.device import HandoffEvent, UserEquipment


@dataclass(frozen=True, slots=True)
class TickSample:
    """Per-tick ground truth: where the device was and what it got.

    Slotted: a drive that keeps its samples holds one per tick.
    """

    t_ms: int
    serving: CellId
    rsrp_dbm: float
    sinr_db: float
    capacity_bps: float
    delivered_bps: float
    interrupted: bool


@dataclass
class DriveResult:
    """Everything one simulated drive produces.

    ``diag_log`` is the device-side artifact MMLab parses; ``samples``
    and ``handoffs`` are simulator ground truth used for validation and
    for throughput alignment (the tcpdump side).
    """

    carrier: str
    tick_ms: int
    samples: list[TickSample] = field(default_factory=list)
    handoffs: list[HandoffEvent] = field(default_factory=list)
    diag_log: bytes = b""
    ping_rtts_ms: list[tuple[int, float | None]] = field(default_factory=list)

    def throughput_series(self, bin_ms: int = 1000) -> list[tuple[int, float]]:
        """(bin start, mean delivered bps) series at ``bin_ms`` bins.

        A single accumulation pass (running sum/count per bin) — long
        drives do not materialize a per-bin list of every sample.
        """
        if not self.samples:
            return []
        bins: dict[int, list[float]] = {}
        for sample in self.samples:
            acc = bins.get(sample.t_ms // bin_ms * bin_ms)
            if acc is None:
                bins[sample.t_ms // bin_ms * bin_ms] = [sample.delivered_bps, 1]
            else:
                acc[0] += sample.delivered_bps
                acc[1] += 1
        return [(start, total / count) for start, (total, count) in sorted(bins.items())]


class SnapshotFeed:
    """Look-ahead physics of one trajectory on one carrier.

    A trajectory's positions are a pure function of time, so the physics
    of its next :attr:`LOOKAHEAD_TICKS` tick positions runs as one
    :meth:`~repro.cellnet.world.RadioEnvironment.snapshot_batch` pass.
    Each snapshot is bit-identical to what ``env.snapshot`` builds at
    that (location, carrier); only when it is computed changes.  The
    batch queries its spots strictly in tick order, so the prepared-cell
    LRU sees the same first query point in every grid square as
    per-tick snapshots do.

    :meth:`location` hands a tick its position, from the current chunk
    when one covers the tick.  :meth:`snapshot` hands it its snapshot,
    starting a chunk at that tick when none covers it.  Callers ask for
    a snapshot only when the UE's snapshot memo does not already hold
    the location (it does at t = 0 after the initial camp, and for the
    whole of a parked trajectory), so a UE standing still starts no
    chunk.  Lanes riding one trajectory on one carrier share a feed.
    """

    #: Ticks of physics one chunk computes ahead.
    LOOKAHEAD_TICKS = 32

    __slots__ = (
        "env",
        "trajectory",
        "carrier",
        "tick_ms",
        "radius_m",
        "_anchor",
        "_locations",
        "_snaps",
    )

    def __init__(
        self,
        env: RadioEnvironment,
        trajectory: Trajectory,
        carrier: str,
        tick_ms: int,
        radius_m: float,
    ):
        self.env = env
        self.trajectory = trajectory
        self.carrier = carrier
        self.tick_ms = tick_ms
        self.radius_m = radius_m
        # The current chunk: tick positions from ``_anchor`` on, and
        # their snapshots (none until a tick asks for one).
        self._anchor = 0
        self._locations: list[Point] = []
        self._snaps: list[RadioSnapshot] = []

    def location(self, now_ms: int) -> Point:
        """The trajectory's position at tick ``now_ms``."""
        k = (now_ms - self._anchor) // self.tick_ms
        if 0 <= k < len(self._locations):
            return self._locations[k]
        location = self.trajectory.position(now_ms)
        self._anchor = now_ms
        self._locations = [location]
        self._snaps = []
        return location

    def snapshot(self, now_ms: int) -> RadioSnapshot:
        """The radio snapshot at tick ``now_ms``'s location."""
        k = (now_ms - self._anchor) // self.tick_ms
        if 0 <= k < len(self._snaps):
            return self._snaps[k]
        trajectory, tick_ms = self.trajectory, self.tick_ms
        horizon = max(
            min(self.LOOKAHEAD_TICKS, (trajectory.duration_ms - now_ms) // tick_ms + 1), 1
        )
        locations = [self.location(now_ms)]
        locations.extend(trajectory.position(now_ms + j * tick_ms) for j in range(1, horizon))
        snaps = self.env.snapshot_batch(
            [(location, self.carrier) for location in locations], radius_m=self.radius_m
        )
        self._anchor, self._locations, self._snaps = now_ms, locations, snaps
        return snaps[0]


class DriveLane:
    """One UE's drive: its wiring, its live state and its per-tick body.

    The UE is seeded with ``seed * 1009 + run_index`` and the throughput
    model draws from ``(seed, run_index, 0x7A)``, so a lane is the same
    device wherever it runs.  Each tick the caller assigns ``location``
    (from the lane's :class:`SnapshotFeed`), then calls :meth:`tick`
    (the UE's step; :meth:`quiet_tick` on a tick a fleet proved a
    no-op) and :meth:`sample` (ground truth, delivered traffic, ping
    probes).  A fleet front-loads work the tick would otherwise compute
    itself — shared snapshots, batched measurement rounds, quiet-tick
    proofs — never different work, so a fleet member's outputs equal
    its solo drive bit for bit.
    """

    __slots__ = (
        "trajectory",
        "feed",
        "carrier",
        "tick_ms",
        "traffic",
        "is_ping",
        "is_speedtest",
        "static",
        "ue",
        "writer",
        "throughput",
        "samples",
        "ping_rtts",
        "delivered_bits",
        "interrupted_ticks",
        "n_ticks",
        "location",
        "row",
        "batched",
        "_gt_snap",
        "_gt_serving",
        "_gt_rsrp",
        "_gt_sinr",
        "_cap_serving",
        "_cap_sinr",
        "_cap_epoch",
        "_cap_value",
        "_occupancy",
        "_occ_cell",
        "_occ_run",
    )

    def __init__(
        self,
        env: RadioEnvironment,
        server: ConfigServer,
        carrier: str,
        trajectory: Trajectory,
        traffic: TrafficModel,
        tick_ms: int,
        seed: int,
        run_index: int = 0,
        vectorized: bool = True,
        keep_samples: bool = True,
        feed: SnapshotFeed | None = None,
    ):
        self.trajectory = trajectory
        self.carrier = carrier
        self.tick_ms = tick_ms
        self.traffic = traffic
        self.is_ping = isinstance(traffic, Ping)
        self.is_speedtest = type(traffic) is Speedtest
        #: Set by the fleet for parked trajectories, which hold one
        #: position for the whole run: its loop skips their per-tick
        #: position/spot work.
        self.static = False
        self.ue = UserEquipment(
            env, server, carrier, seed=seed * 1009 + run_index, vectorized=vectorized
        )
        #: The trajectory's location and snapshot feed; fleet lanes on
        #: one trajectory and carrier pass in a shared one.
        self.feed = (
            feed
            if feed is not None
            else SnapshotFeed(env, trajectory, carrier, tick_ms, self.ue.meas.radius_m)
        )
        # The listener closes over the writer, not the lane: a lane ->
        # UE -> listener -> lane cycle would keep a finished drive's
        # state alive until the cyclic collector runs.
        writer = self.writer = DiagWriter.in_memory()
        self.ue.add_listener(lambda t, message, direction: writer.write(t, message))
        self.throughput = ThroughputModel(
            rng=np.random.default_rng((seed, run_index, 0x7A))
        )
        self.samples: list[TickSample] | None = [] if keep_samples else None
        self.ping_rtts: list[tuple[int, float | None]] = []
        self.delivered_bits = 0.0
        self.interrupted_ticks = 0
        self.n_ticks = 0
        # Fleet batching state: whether the lane is in the batch, whose
        # measurement matrices hold it in row ``row``.
        self.row = -1
        self.batched = False
        # Ground-truth serving measurement and capacity memos: a parked
        # UE's (snapshot, serving) pair and load-share epoch repeat for
        # many consecutive ticks, and both lookups are pure given them.
        self._gt_snap = None
        self._gt_serving = None
        self._gt_rsrp = -140.0
        self._gt_sinr = -20.0
        self._cap_serving = None
        self._cap_sinr = 0.0
        self._cap_epoch = -1
        self._cap_value = 0.0
        # Serving-cell occupancy as run lengths (flushed on change).
        self._occupancy: Counter = Counter()
        self._occ_cell = None
        self._occ_run = 0
        self.location = self.feed.location(0)
        self.ue.initial_camp(self.location, 0)
        if traffic.generates_user_traffic:
            self.ue.connect(0)

    def tick(self, now_ms: int) -> None:
        """The UE's step at the already-assigned ``location``."""
        self.ue.tick(now_ms, self.location)

    def quiet_tick(self, now_ms: int, serving_rsrp: float, serving_rsrq: float) -> None:
        """The UE's step on a tick the fleet's batched pass proved a no-op.

        Only the round counters and a due PHY emission happen
        (:meth:`UserEquipment.quiet_tick`); ``serving_rsrp`` and
        ``serving_rsrq`` are this round's filtered serving metrics.
        """
        ue = self.ue
        if len(ue._listeners) == 1 and ue._phy_meas_due(now_ms):
            # Due PHY serving measurement, written directly: the lane's
            # writer is the device's only listener, so the notify ->
            # dataclass -> encode dispatch chain reduces to the writer's
            # template splice, with bytes identical to quiet_tick's
            # (the quiet path is connected, with sinr 0.0).
            meas = ue.meas
            meas.intra_freq_rounds += 1
            meas.non_intra_freq_rounds += 1
            ue._last_phy_meas_ms = now_ms
            self.writer.write_phy_serving(now_ms, ue.serving, serving_rsrp, serving_rsrq)
        else:
            ue.quiet_tick(now_ms, serving_rsrp, serving_rsrq)

    def sample(self, now_ms: int) -> None:
        """Ground truth, delivered traffic and ping probes of this tick."""
        ue = self.ue
        serving = ue.serving
        # The UE's tick (or, on a fleet's quiet tick, the spots pass or
        # a parked lane's initial camp) left this tick's snapshot in the
        # engine memo.
        snap = ue.meas._snap
        if snap is self._gt_snap and serving is self._gt_serving:
            rsrp, sinr = self._gt_rsrp, self._gt_sinr
        else:
            if serving in snap:
                measurement = snap.measure(serving)
                rsrp, sinr = measurement.rsrp_dbm, measurement.sinr_db
            else:
                rsrp, sinr = -140.0, -20.0
            self._gt_snap, self._gt_serving = snap, serving
            self._gt_rsrp, self._gt_sinr = rsrp, sinr
        if now_ms < ue.interrupted_until_ms:
            interrupted = True
            capacity = 0.0
            self.interrupted_ticks += 1
        else:
            interrupted = False
            epoch = now_ms // 4000
            if (
                serving is self._cap_serving
                and sinr == self._cap_sinr
                and epoch == self._cap_epoch
            ):
                capacity = self._cap_value
            else:
                capacity = self.throughput.capacity_bps(serving, sinr, now_ms)
                self._cap_serving, self._cap_sinr = serving, sinr
                self._cap_epoch, self._cap_value = epoch, capacity
        if self.is_speedtest:
            delivered_bits = capacity * self.tick_ms / 1000.0
        else:
            delivered_bits = self.traffic.delivered_bits(capacity, self.tick_ms, now_ms)
        self.delivered_bits += delivered_bits
        if serving is self._occ_cell:
            self._occ_run += 1
        else:
            if self._occ_run:
                self._occupancy[self._occ_cell.cell_id] += self._occ_run
            self._occ_cell = serving
            self._occ_run = 1
        self.n_ticks += 1
        if self.samples is not None:
            self.samples.append(
                TickSample(
                    t_ms=now_ms,
                    serving=serving.cell_id,
                    rsrp_dbm=rsrp,
                    sinr_db=sinr,
                    capacity_bps=capacity,
                    delivered_bps=delivered_bits * 1000.0 / self.tick_ms,
                    interrupted=interrupted,
                )
            )
        if self.is_ping and self.traffic.probe_due(now_ms, self.tick_ms):
            if self.throughput.ping_lost(sinr, interrupted):
                self.ping_rtts.append((now_ms, None))
            else:
                self.ping_rtts.append((now_ms, self.throughput.rtt_ms(sinr)))

    def occupancy(self) -> Counter:
        """Ticks served so far, per serving cell id."""
        if self._occ_run:
            self._occupancy[self._occ_cell.cell_id] += self._occ_run
            self._occ_run = 0
        return self._occupancy


class DriveSimulator:
    """Runs Type-II drives against one deployment.

    Args:
        env: Radio environment.
        server: Configuration oracle for the deployment.
        carrier: Carrier the device subscribes to.
        seed: Seeds the UE, the network controller and traffic noise.
        tick_ms: Simulation step (the paper bins throughput at 100 ms;
            200 ms keeps long sweeps fast while preserving shapes).
        config_lint: Preflight-audit the carrier's configurations before
            the first drive and surface findings as a
            :class:`~repro.lint.engine.ConfigLintWarning`.  The audit is
            cached per (server, carrier), so fleets pay for it once.
        vectorized: Run the UE's array-resident hot path, fed by the
            look-ahead :class:`SnapshotFeed` (default), or the scalar
            reference loop with its own per-tick one-spot snapshot;
            drives are bit-identical either way, so comparing the two
            also checks the feed's batched rows against one-spot
            passes.
    """

    def __init__(
        self,
        env: RadioEnvironment,
        server: ConfigServer,
        carrier: str,
        seed: int = 0,
        tick_ms: int = 200,
        config_lint: bool = True,
        vectorized: bool = True,
    ):
        self.env = env
        self.server = server
        self.carrier = carrier
        self.seed = seed
        self.tick_ms = tick_ms
        self.config_lint = config_lint
        self.vectorized = vectorized

    def run(
        self,
        trajectory: Trajectory,
        traffic: TrafficModel | None = None,
        run_index: int = 0,
    ) -> DriveResult:
        """Simulate one drive; returns the full result bundle.

        With a traffic model that generates user traffic the UE runs RRC
        connected (active-state handoffs); with ``NoTraffic`` it stays
        idle (idle-state handoffs), matching the paper's two Type-II
        modes.
        """
        if self.config_lint:
            # Imported here: repro.lint reaches repro.core, whose package
            # init imports this module back (core.server drives fleets).
            from repro.lint.engine import warn_before_run

            warn_before_run(self.env, self.server, self.carrier)
        lane = DriveLane(
            self.env,
            self.server,
            self.carrier,
            trajectory,
            traffic if traffic is not None else NoTraffic(),
            self.tick_ms,
            self.seed,
            run_index,
            self.vectorized,
        )
        feed, meas, carrier = lane.feed, lane.ue.meas, self.carrier
        # The scalar oracle takes its own per-tick snapshot.
        look_ahead = meas.vectorized
        now_ms = 0
        while now_ms <= trajectory.duration_ms:
            location = lane.location = feed.location(now_ms)
            if look_ahead and (location.x, location.y, carrier) != meas._snap_key:
                meas.adopt_snapshot(location, carrier, feed.snapshot(now_ms))
            lane.tick(now_ms)
            lane.sample(now_ms)
            now_ms += self.tick_ms
        return DriveResult(
            carrier=self.carrier,
            tick_ms=self.tick_ms,
            samples=lane.samples,
            handoffs=list(lane.ue.handoffs),
            diag_log=lane.writer.getvalue(),
            ping_rtts_ms=lane.ping_rtts,
        )
