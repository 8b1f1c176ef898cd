"""Fleet-scale multi-UE simulation: batched numpy state, shared physics.

One :class:`DriveSimulator` reproduces one Type-II drive; a *fleet*
simulates hundreds to thousands of devices living in the same deployed
world at once — the population view behind handoff-rate, ping-pong and
handoff-storm statistics.  Ticking that many UEs one by one would repeat
the same physics and measurement work per device; the fleet instead
runs all UEs in lockstep and batches the per-tick hot path:

* **Shared radio snapshots** — UEs standing at the same spot (parked
  clusters, transit riders on one line) share a single physics pass per
  tick.  Movers take theirs from their trajectory's look-ahead
  :class:`~repro.simulate.runner.SnapshotFeed`, the same feed a solo
  drive uses, shared by every lane on one trajectory and carrier.
  Neighborhoods come from the environment's prepared-cell LRU, whose
  capacity is grown to the fleet's working set
  (:meth:`~repro.cellnet.world.RadioEnvironment.reserve_snapshot_capacity`).
* **Batched measurement rounds** — the L3 filter state of every
  batched UE, whatever neighborhood it lives in, is promoted to
  persistent (UE x cell) matrices updated in place each tick
  (:class:`~repro.ue.measurement.BatchMeasurementState`); rounds are
  materialized only for lanes whose tick consumes one.
* **Batched event evaluation** — lanes are grouped by armed-event
  signature and each event's entry condition is evaluated as one
  masked (UE x cell) pass of the solo path's own
  :func:`~repro.config.events.entry_mask`, fed per-member parameter
  columns; ticks proven no-ops take
  :meth:`~repro.ue.device.UserEquipment.quiet_tick`, skipping the
  per-lane event machinery entirely.
* **Sharding** — fleets split into :class:`FleetShardUnit` work units
  over :mod:`repro.pipeline` workers; per-UE seeds come from
  ``numpy.random.SeedSequence.spawn``, so every UE's seed and profile
  are independent of fleet size, shard boundaries and worker count.
  A UE's outputs still depend on which earlier queries warmed its
  process's prepared-cell LRU, so a pool of cold workers can differ
  from a serial run (a ROADMAP open item).

Each fleet member is a :class:`~repro.simulate.runner.DriveLane`, the
same per-UE run body a solo :class:`DriveSimulator` drive ticks; the
fleet only front-loads work the lane's tick would otherwise compute
itself.  Batching never changes a single bit of any UE's outputs: every
batched operation is the elementwise twin of the per-UE path (same
ufuncs, same order, same RNG streams), and parity tests assert UE *k*
of a fleet equals a solo :class:`DriveSimulator` run bit for bit.  Any
lane in an unusual state (idle, scalar oracle, a handover due this
tick) simply takes the lane's own path.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.cellnet.rat import RAT
from repro.config.events import EventColumns, entry_mask
from repro.pipeline import WorkUnit, default_workers, resolve_backend
from repro.simulate.mobility import Trajectory, grid_drive, parked_position
from repro.simulate.runner import (
    DriveLane,
    DriveResult,
    SnapshotFeed,
    TickSample,
    profile_enabled,
)
from repro.simulate.scenarios import DriveScenario, ScenarioSpec
from repro.simulate.traffic import (
    ConstantRate,
    NoTraffic,
    Ping,
    Speedtest,
    TrafficModel,
)
from repro.ue.device import HandoffEvent, RrcState
from repro.ue.measurement import BatchMeasurementState, MeasurementRound

#: Default population mix: mostly parked devices, a transit-riding
#: share, some pedestrians and drivers — a plausible daytime urban mix.
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("parked", 0.55),
    ("transit", 0.25),
    ("pedestrian", 0.10),
    ("vehicle", 0.10),
)

_PROFILE_SPEEDS_KMH = {"pedestrian": 5.0, "vehicle": 40.0, "transit": 30.0}

#: Lattice block per profile: walkers turn at street corners, drivers
#: at arterial blocks.  Keeping blocks proportionate to speed also
#: keeps every profile's trajectory duration close to ``duration_s``
#: (a 450 m minimum leg at walking pace would last 5 minutes).
_PROFILE_BLOCK_M = {"pedestrian": 100.0, "vehicle": 450.0, "transit": 450.0}

#: Ping-pong window: an A->B->A pair within this span counts (Fig. 12).
PING_PONG_WINDOW_MS = 10_000


def _monitor_batch_info(meas_config) -> tuple:
    """Grouping key and parameter matrix for the batched event pass.

    Returns ``(signature, params, s_measure, periodic)`` where
    ``signature`` is the armed ``(event, metric)`` tuple — the batch
    groups lanes by it — and ``params`` is an ``(events, 4)`` float
    matrix of ``[hysteresis, threshold1, threshold2, offset]`` rows, the
    layout of :meth:`EventColumns.from_matrix` (absent thresholds as
    0.0; their events never read them).
    """
    events = meas_config.events
    signature = tuple((c.event, c.metric) for c in events)
    params = np.array(
        [
            [
                c.hysteresis,
                0.0 if c.threshold1 is None else c.threshold1,
                0.0 if c.threshold2 is None else c.threshold2,
                c.offset,
            ]
            for c in events
        ],
        dtype=np.float64,
    ).reshape(len(events), 4)
    return signature, params, meas_config.s_measure, meas_config.periodic


def make_traffic(name: str) -> TrafficModel:
    """A fresh traffic-model instance by service name."""
    if name == "speedtest":
        return Speedtest()
    if name == "iperf":
        return ConstantRate()
    if name == "ping":
        return Ping()
    if name == "idle":
        return NoTraffic()
    raise ValueError(f"unknown traffic model {name!r}")


@dataclass(frozen=True)
class FleetOptions:
    """Recipe of one fleet simulation (picklable, shard-safe).

    Attributes:
        scenario: World recipe; shards rebuild (and process-cache) it.
        fleet_seed: Root of the per-UE ``SeedSequence.spawn`` tree and
            of every trajectory's RNG.
        n_ues: Fleet population.
        duration_s: Per-UE simulated duration.
        tick_ms: Simulation step.
        carriers: Subscriptions, assigned round-robin by UE index.
        mix: (profile, weight) population mix; expanded into a 20-slot
            repeating pattern so a UE's profile depends only on its
            index, never on the fleet size.
        transit_lines: Number of shared transit trajectories; riders of
            one line are co-located every tick and share physics.
        traffic: Data service name ("speedtest", "iperf", "ping",
            "idle").
        keep_samples: Retain per-tick samples and raw diag bytes per UE
            (memory-heavy; aggregates never need it).
        shard_size: UEs per work unit (fixed, so the unit list is
            independent of the worker count).
        config_lint: Preflight-audit carrier configurations.
    """

    scenario: ScenarioSpec = ScenarioSpec()
    fleet_seed: int = 2024
    n_ues: int = 100
    duration_s: float = 600.0
    tick_ms: int = 200
    carriers: tuple[str, ...] = ("A",)
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX
    transit_lines: int = 8
    traffic: str = "speedtest"
    keep_samples: bool = False
    shard_size: int = 64
    config_lint: bool = False

    def __post_init__(self) -> None:
        if self.tick_ms <= 0:
            raise ValueError(f"tick_ms must be positive, got {self.tick_ms}")
        if self.n_ues < 0:
            raise ValueError(f"n_ues must be non-negative, got {self.n_ues}")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(
                f"duration_s must be positive and finite, got {self.duration_s}"
            )


@dataclass(frozen=True)
class UESpec:
    """One fleet member: identity, seed, behaviour profile."""

    index: int
    seed: int
    profile: str
    carrier: str


def mix_pattern(mix: tuple[tuple[str, float], ...]) -> tuple[str, ...]:
    """Expand a (profile, weight) mix into a 20-slot repeating pattern.

    Largest-remainder apportionment over 20 slots, then profiles
    interleaved round-robin; ``pattern[index % 20]`` assigns a UE its
    profile as a pure function of its index.
    """
    slots = 20
    total = sum(w for _, w in mix)
    if total <= 0:
        raise ValueError("mix weights must sum to a positive value")
    counts: dict[str, int] = {}
    remainders: list[tuple[float, str]] = []
    assigned = 0
    for name, weight in mix:
        exact = weight / total * slots
        base = int(exact)
        counts[name] = counts.get(name, 0) + base
        assigned += base
        remainders.append((exact - base, name))
    for _, name in sorted(remainders, key=lambda r: (-r[0], r[1]))[: slots - assigned]:
        counts[name] += 1
    pattern: list[str] = []
    remaining = dict(counts)
    while len(pattern) < slots:
        progressed = False
        for name, _ in mix:
            if remaining.get(name, 0) > 0:
                pattern.append(name)
                remaining[name] -= 1
                progressed = True
        if not progressed:  # pragma: no cover - all weights rounded to 0
            raise ValueError("mix produced an empty pattern")
    return tuple(pattern)


def ue_specs(options: FleetOptions, start: int = 0, count: int | None = None) -> list[UESpec]:
    """Specs of UEs ``start .. start+count`` of the fleet.

    Per-UE seeds are the spawned children of
    ``SeedSequence(fleet_seed)``; child *k* is a pure function of
    (fleet_seed, k), so UE *k* is the same device in a 10-UE fleet, a
    2000-UE fleet, or any shard split.
    """
    if count is None:
        count = options.n_ues - start
    children = np.random.SeedSequence(options.fleet_seed).spawn(start + count)
    pattern = mix_pattern(options.mix)
    specs = []
    for k in range(start, start + count):
        seed = int(children[k].generate_state(1, np.uint64)[0])
        specs.append(
            UESpec(
                index=k,
                seed=seed,
                profile=pattern[k % len(pattern)],
                carrier=options.carriers[k % len(options.carriers)],
            )
        )
    return specs


def transit_trajectory(
    scenario: DriveScenario, options: FleetOptions, line: int
) -> Trajectory:
    """The shared trajectory of one transit line (pure in its inputs)."""
    city = scenario.cities[line % len(scenario.cities)]
    rng = np.random.default_rng((options.fleet_seed, 0x7128, line))
    return grid_drive(
        city,
        rng,
        duration_s=options.duration_s,
        speed_kmh=_PROFILE_SPEEDS_KMH["transit"],
    )


def trajectory_for(
    scenario: DriveScenario, options: FleetOptions, spec: UESpec
) -> Trajectory:
    """The trajectory UE ``spec`` drives; depends only on (options, index)."""
    cities = scenario.cities
    city = cities[spec.index % len(cities)]
    if spec.profile == "parked":
        rng = np.random.default_rng((options.fleet_seed, 0xF1EE, spec.index))
        extent = city.rings * city.site_spacing_m * 0.62
        location = city.origin.offset(
            float(rng.uniform(-extent, extent)), float(rng.uniform(-extent, extent))
        )
        return parked_position(location, duration_s=options.duration_s)
    if spec.profile == "transit":
        return transit_trajectory(scenario, options, spec.index % options.transit_lines)
    speed = _PROFILE_SPEEDS_KMH[spec.profile]
    rng = np.random.default_rng((options.fleet_seed, 0xD81, spec.index))
    return grid_drive(
        city,
        rng,
        duration_s=options.duration_s,
        speed_kmh=speed,
        block_m=_PROFILE_BLOCK_M[spec.profile],
    )


@dataclass
class UEResult:
    """Per-UE outcome of a fleet run (DriveResult-compatible).

    Always carries handoffs, ping RTTs, aggregate counters and a SHA-256
    digest of the diag log (the cheap cross-worker parity witness);
    per-tick samples and raw diag bytes are retained only under
    ``keep_samples``.
    """

    index: int
    profile: str
    carrier: str
    seed: int
    tick_ms: int
    n_ticks: int
    handoffs: list[HandoffEvent]
    ping_rtts_ms: list[tuple[int, float | None]]
    diag_sha256: str
    diag_len: int
    delivered_bits: float
    interrupted_ticks: int
    occupancy: dict[str, int]
    intra_freq_rounds: int
    non_intra_freq_rounds: int
    samples: list[TickSample] | None = None
    diag_log: bytes | None = None

    def to_drive_result(self) -> DriveResult:
        """This UE's run as a :class:`DriveResult` (needs keep_samples)."""
        result = DriveResult(carrier=self.carrier, tick_ms=self.tick_ms)
        result.samples = list(self.samples or [])
        result.handoffs = list(self.handoffs)
        result.diag_log = self.diag_log if self.diag_log is not None else b""
        result.ping_rtts_ms = list(self.ping_rtts_ms)
        return result

    @property
    def ping_pongs(self) -> int:
        """This UE's ping-pongs (:func:`count_ping_pongs` of its handoffs)."""
        return count_ping_pongs((h.source, h.target, h.time_ms) for h in self.handoffs)

    def summary_row(self) -> dict:
        """Deterministic per-UE summary (the CLI's JSON row)."""
        return {
            "index": self.index,
            "profile": self.profile,
            "carrier": self.carrier,
            "n_ticks": self.n_ticks,
            "handoffs": len(self.handoffs),
            "ping_pongs": self.ping_pongs,
            "delivered_mbit": round(self.delivered_bits / 1e6, 6),
            "interrupted_ticks": self.interrupted_ticks,
            "diag_sha256": self.diag_sha256,
            "diag_len": self.diag_len,
        }


def count_ping_pongs(hops: Iterable[tuple]) -> int:
    """A->B->A returns within :data:`PING_PONG_WINDOW_MS` (inclusive).

    ``hops`` are one device's time-ordered ``(source, target, time_ms)``
    handoffs; each hop that undoes the previous one within the window
    counts.  The fleet's aggregates and the trace analysis of
    :mod:`repro.core.analysis.instability` both count through here.
    """
    hops = list(hops)
    return sum(
        1
        for (source, target, t0), (back_source, back_target, t1) in zip(hops, hops[1:])
        if back_source == target and back_target == source and t1 - t0 <= PING_PONG_WINDOW_MS
    )


@dataclass
class FleetAggregates:
    """Fleet-level statistics over all UE results."""

    n_ues: int
    total_ticks: int
    total_handoffs: int
    handoffs_per_ue_hour: float
    ping_pong_count: int
    ping_pong_rate: float
    mean_delivered_mbps: float
    interrupted_tick_fraction: float
    occupancy: dict[str, int]
    storm_peak: int
    storm_peak_cell: str | None
    storm_peak_minute: int | None

    def to_dict(self) -> dict:
        return {
            "n_ues": self.n_ues,
            "total_ticks": self.total_ticks,
            "total_handoffs": self.total_handoffs,
            "handoffs_per_ue_hour": round(self.handoffs_per_ue_hour, 6),
            "ping_pong_count": self.ping_pong_count,
            "ping_pong_rate": round(self.ping_pong_rate, 6),
            "mean_delivered_mbps": round(self.mean_delivered_mbps, 6),
            "interrupted_tick_fraction": round(self.interrupted_tick_fraction, 6),
            "occupancy": dict(sorted(self.occupancy.items())),
            "storm_peak": self.storm_peak,
            "storm_peak_cell": self.storm_peak_cell,
            "storm_peak_minute": self.storm_peak_minute,
        }


def aggregate(results: list[UEResult], tick_ms: int) -> FleetAggregates:
    """Fleet statistics from per-UE results (deterministic)."""
    total_ticks = sum(r.n_ticks for r in results)
    total_handoffs = sum(len(r.handoffs) for r in results)
    hours = total_ticks * tick_ms / 3_600_000.0
    ping_pongs = sum(r.ping_pongs for r in results)
    occupancy: Counter = Counter()
    storms: Counter = Counter()
    delivered = 0.0
    interrupted = 0
    for r in results:
        occupancy.update(r.occupancy)
        delivered += r.delivered_bits
        interrupted += r.interrupted_ticks
        for handoff in r.handoffs:
            storms[(str(handoff.target), handoff.time_ms // 60_000)] += 1
    if storms:
        peak_key = max(storms, key=lambda k: (storms[k], k))
        storm_peak = storms[peak_key]
        storm_cell, storm_minute = peak_key
    else:
        storm_peak, storm_cell, storm_minute = 0, None, None
    seconds = total_ticks * tick_ms / 1000.0
    return FleetAggregates(
        n_ues=len(results),
        total_ticks=total_ticks,
        total_handoffs=total_handoffs,
        handoffs_per_ue_hour=(total_handoffs / hours) if hours else 0.0,
        ping_pong_count=ping_pongs,
        ping_pong_rate=(ping_pongs / total_handoffs) if total_handoffs else 0.0,
        mean_delivered_mbps=(delivered / seconds / 1e6) if seconds else 0.0,
        interrupted_tick_fraction=(interrupted / total_ticks) if total_ticks else 0.0,
        occupancy=dict(sorted((str(k), v) for k, v in occupancy.items())),
        storm_peak=storm_peak,
        storm_peak_cell=storm_cell,
        storm_peak_minute=storm_minute,
    )


def _ue_result(spec: UESpec, lane: DriveLane, keep_samples: bool) -> UEResult:
    """The :class:`UEResult` of fleet member ``spec``'s finished lane."""
    diag = lane.writer.getvalue()
    meas = lane.ue.meas
    return UEResult(
        index=spec.index,
        profile=spec.profile,
        carrier=spec.carrier,
        seed=spec.seed,
        tick_ms=lane.tick_ms,
        n_ticks=lane.n_ticks,
        handoffs=list(lane.ue.handoffs),
        ping_rtts_ms=lane.ping_rtts,
        diag_sha256=hashlib.sha256(diag).hexdigest(),
        diag_len=len(diag),
        delivered_bits=lane.delivered_bits,
        interrupted_ticks=lane.interrupted_ticks,
        occupancy={str(k): v for k, v in sorted(lane.occupancy().items())},
        intra_freq_rounds=meas.intra_freq_rounds,
        non_intra_freq_rounds=meas.non_intra_freq_rounds,
        samples=lane.samples,
        diag_log=diag if keep_samples else None,
    )


@dataclass
class _ShardResult:
    """Picklable outcome of one :class:`FleetShardUnit`."""

    ues: list[UEResult]
    cache: dict
    profile: dict | None = None


class FleetSimulator:
    """Runs a slice of a fleet in lockstep with batched per-tick passes."""

    def __init__(self, scenario: DriveScenario, options: FleetOptions):
        self.scenario = scenario
        self.options = options
        self._transit_cache: dict[int, Trajectory] = {}
        self.profile: dict[str, float] | None = {} if profile_enabled() else None

    def _trajectory(self, spec: UESpec) -> Trajectory:
        if spec.profile == "transit":
            line = spec.index % self.options.transit_lines
            trajectory = self._transit_cache.get(line)
            if trajectory is None:
                trajectory = transit_trajectory(self.scenario, self.options, line)
                self._transit_cache[line] = trajectory
            return trajectory
        return trajectory_for(self.scenario, self.options, spec)

    def simulate_shard(self, start: int, count: int) -> _ShardResult:
        """Simulate UEs ``start .. start+count`` and report cache deltas."""
        env = self.scenario.env
        hits0, misses0 = env.snapshot_cache_hits, env.snapshot_cache_misses
        ues = self.simulate(start, count)
        cache = env.snapshot_cache_stats()
        cache["hits"] -= hits0
        cache["misses"] -= misses0
        total = cache["hits"] + cache["misses"]
        cache["hit_rate"] = (cache["hits"] / total) if total else 0.0
        return _ShardResult(ues=ues, cache=cache, profile=self.profile)

    def simulate(self, start: int = 0, count: int | None = None) -> list[UEResult]:
        """Lockstep-simulate UEs ``start .. start+count`` of the fleet."""
        options = self.options
        if options.config_lint:
            # Imported here: repro.lint reaches repro.core, whose package
            # init imports simulate back.
            from repro.lint.engine import warn_before_run

            for carrier in options.carriers:
                warn_before_run(self.scenario.env, self.scenario.server, carrier)
        specs = ue_specs(options, start, count)
        env = self.scenario.env
        lanes = []
        # One look-ahead feed per (trajectory, carrier): transit riders
        # of one line share its chunks.
        feeds: dict[tuple, SnapshotFeed] = {}
        for spec in specs:
            trajectory = self._trajectory(spec)
            key = (id(trajectory), spec.carrier)
            lane = DriveLane(
                env,
                self.scenario.server,
                spec.carrier,
                trajectory,
                make_traffic(options.traffic),
                options.tick_ms,
                spec.seed,
                keep_samples=options.keep_samples,
                feed=feeds.get(key),
            )
            feeds.setdefault(key, lane.feed)
            lane.static = spec.profile == "parked"
            lanes.append(lane)
        profile = self.profile
        now_ms = 0
        tick_index = 0
        active = list(lanes)
        # Parked lanes hold one position (and one warm snapshot memo,
        # left by their initial camp) for the whole run: only movers
        # need the per-tick position/spot passes.
        movers = [lane for lane in active if not lane.static]
        n_static_spots = len(active) - len(movers)
        # Persistent (UE x cell) measurement matrices; each lane owns
        # one row for the whole lockstep run.
        batch_state = BatchMeasurementState(len(lanes))
        batch_state.profile = profile
        for row, lane in enumerate(lanes):
            lane.row = row
        while active:
            t0 = perf_counter() if profile is not None else 0.0
            # Snapshot sharing: one physics pass per occupied
            # (location, carrier) spot; co-located lanes adopt it.
            spots: dict[tuple, list[DriveLane]] = {}
            for lane in movers:
                location = lane.location = lane.feed.location(now_ms)
                spots.setdefault((location.x, location.y, lane.carrier), []).append(lane)
            if tick_index % 128 == 0:
                env.reserve_snapshot_capacity(len(spots) + n_static_spots)
            # Spots whose first lane already holds this tick's snapshot
            # reuse it; the rest draw theirs from the first lane's feed.
            for group in spots.values():
                first = group[0]
                meas = first.ue.meas
                location = first.location
                if (location.x, location.y, first.carrier) == meas._snap_key:
                    snap = meas._snap
                    adopters = group[1:]
                else:
                    snap = first.feed.snapshot(now_ms)
                    adopters = group
                for lane in adopters:
                    lane.ue.meas.adopt_snapshot(lane.location, lane.carrier, snap)
            if profile is not None:
                now = perf_counter()
                profile["fleet_physics"] = profile.get("fleet_physics", 0.0) + now - t0
                t0 = now
            # One batched measurement + event pass over all eligible
            # lanes, whatever neighborhood each lives in.  A previously
            # batched lane that drops out (handover due, idle, RLF) is
            # detached first: the batch matrices update in place, so its
            # engine must own private arrays before the batch steps on
            # without it.
            batch: list[DriveLane] = []
            for lane in active:
                ue = lane.ue
                command = ue.pending_handover
                if (
                    ue.state is RrcState.CONNECTED
                    and ue.serving is not None
                    and ue.serving.rat is RAT.LTE
                    and ue.meas.vectorized
                    and not (command is not None and now_ms >= command.execute_at_ms)
                ):
                    # The spots pass above (or the initial camp, for
                    # parked lanes) set every lane's snapshot memo, so
                    # _batch_step can read meas._snap directly.
                    batch.append(lane)
                    lane.batched = True
                elif lane.batched:
                    lane.batched = False
                    batch_state.detach(ue.meas)
            if batch:
                self._batch_step(now_ms, batch, batch_state)
            if profile is not None:
                now = perf_counter()
                profile["fleet_batch"] = profile.get("fleet_batch", 0.0) + now - t0
                t0 = now
            # Per-lane tick: consumes the pending rounds and injected
            # masks; lanes outside the batch take the normal path.
            for lane in active:
                lane.tick(now_ms)
                lane.sample(now_ms)
            if profile is not None:
                profile["fleet_lanes"] = profile.get("fleet_lanes", 0.0) + perf_counter() - t0
            now_ms += options.tick_ms
            tick_index += 1
            if any(now_ms > lane.trajectory.duration_ms for lane in active):
                active = [
                    lane for lane in active if now_ms <= lane.trajectory.duration_ms
                ]
                movers = [lane for lane in active if not lane.static]
                n_static_spots = len(active) - len(movers)
                # Compact the batch matrices when the fleet shrinks: the
                # ufunc phase runs over every allocated row, so a long
                # mover tail after the parked lanes finish would keep
                # paying full-fleet matrix passes.  A fresh state's
                # identity checks refresh each surviving row from its
                # engine (whose old row views stay valid — the abandoned
                # buffers are never written again), so rebuilding changes
                # no UE-visible value.
                if active and len(active) < 0.7 * batch_state.n_rows:
                    batch_state = BatchMeasurementState(len(active))
                    batch_state.profile = profile
                    for row, lane in enumerate(active):
                        lane.row = row
        return [
            _ue_result(spec, lane, options.keep_samples)
            for spec, lane in zip(specs, lanes)
        ]

    def _batch_step(
        self, now_ms: int, group: list[DriveLane], state: BatchMeasurementState
    ) -> None:
        """Advance every batched UE of this tick in matrix form."""
        snaps = [lane.ue.meas._snap for lane in group]
        engines = [lane.ue.meas for lane in group]
        servings = [lane.ue.serving for lane in group]
        # Matrices are indexed by each lane's persistent row, not its
        # position in this tick's batch: ``rows[gi]`` maps between them.
        rows = [lane.row for lane in group]
        profile = self.profile
        t0 = perf_counter() if profile is not None else 0.0
        filt_rsrp, filt_rsrq, eligible = state.step(rows, engines, snaps, servings)
        if profile is not None:
            now = perf_counter()
            profile["fb_state"] = profile.get("fb_state", 0.0) + now - t0
            t0 = now
        # Event pass.  Lanes are grouped by armed-event *signature* (the
        # tuple of (event, metric) pairs the monitor armed), not by
        # neighborhood: parked UEs scatter over ~50 distinct prepared
        # lists per tick, so neighborhood subgroups degenerate into
        # singletons, while a carrier arms only a handful of signatures.
        # Per-config parameters (hysteresis, thresholds, offset) become
        # per-member columns of one entry_mask call per event; row k is
        # bit-identical to member k's own scalar call, while one masked
        # pass covers nearly the whole batch.
        serving_memo = state._serving_memo
        rat_lte = state._rat_lte
        # Rounds are materialized lazily: only lanes whose tick actually
        # consumes one (non-quiet members, and every batched lane the
        # member loop below does not cover — their ue.tick would
        # otherwise recompute the round and re-draw RNG) get one.
        def make_round(gi: int):
            prepared = snaps[gi].prepared
            r = rows[gi]
            n = len(prepared.cells)
            round_ = MeasurementRound(
                prepared, filt_rsrp[r, :n], filt_rsrq[r, :n], eligible[r, :n]
            )
            engines[gi]._pending_round = round_
            return round_

        groups: dict[tuple, list[tuple]] = {}
        for gi, lane in enumerate(group):
            ue = lane.ue
            lane.quiet = False
            monitor = ue.monitor
            if monitor is None or ue.pending_handover is not None:
                make_round(gi)
                continue
            # state.step just refreshed the (serving, prepared, index)
            # memo for this row; reuse it instead of re-hashing the id.
            serving_i = serving_memo[rows[gi]][2]
            if serving_i is None:
                # Serving inaudible: the lane's own path handles RLF.
                make_round(gi)
                continue
            info = monitor._batch_info
            if info is None:
                info = _monitor_batch_info(monitor.meas_config)
                monitor._batch_info = info
            groups.setdefault(info[0], []).append((gi, serving_i, monitor, info))
        if profile is not None:
            now = perf_counter()
            profile["fb_group"] = profile.get("fb_group", 0.0) + now - t0
            t0 = now
        arange_cache: np.ndarray | None = None
        for signature, members in groups.items():
            m = len(members)
            mrows = np.fromiter((rows[t[0]] for t in members), dtype=np.intp, count=m)
            scols = np.fromiter((t[1] for t in members), dtype=np.intp, count=m)
            params = np.stack([t[3][1] for t in members])  # (m, events, 4)
            gates = np.fromiter((t[3][2] for t in members), dtype=np.float64, count=m)
            sv_rsrp = filt_rsrp[mrows, scols]
            sv_rsrq = filt_rsrq[mrows, scols]
            # The s-Measure gate, one comparison for the whole group
            # (exactly the scalar per-lane check).
            gate_open = sv_rsrp <= gates
            if arange_cache is None or len(arange_cache) < m:
                arange_cache = np.arange(m)
            # Neighbor candidates: eligibility minus the serving column,
            # zeroed wholesale for gate-closed members (step_round hands
            # them no candidates, so their neighbor events never fire).
            base = eligible[mrows]  # fancy indexing copies
            base[arange_cache[:m], scols] = False
            base &= gate_open[:, None]
            ratm = rat_lte[mrows]
            intra = base & ratm
            inter = base & ~ratm
            values = {"rsrp": filt_rsrp[mrows], "rsrq": filt_rsrq[mrows]}
            serving_values = {"rsrp": sv_rsrp[:, None], "rsrq": sv_rsrq[:, None]}
            #: Per-member: does ANY armed event's entry condition hold?
            any_entry = np.zeros(m, dtype=bool)
            entries: list = [None] * len(signature)
            for e_i, (event, metric) in enumerate(signature):
                entry = entry_mask(
                    EventColumns.from_matrix(event, params[:, e_i]),
                    serving_values[metric],
                    values[metric],
                )
                if not event.needs_neighbor:  # A1/A2: one (m, 1) column
                    any_entry |= entry[:, 0]
                    continue
                entry &= inter if event.is_inter_rat else intra
                hot = entry.any(axis=1)
                if hot.any():
                    any_entry |= hot
                    entries[e_i] = (entry, hot)
            if profile is not None:
                now = perf_counter()
                profile["fb_vector"] = profile.get("fb_vector", 0.0) + now - t0
                t0 = now
            for o_i in range(m):
                gi, serving_i, monitor, info = members[o_i]
                periodic = info[3]
                open_ = gate_open[o_i]
                # Quiet iff no entry holds, every event's TTT/report
                # state is empty, and no periodic report is due — then
                # step_round would mutate nothing, and the lane takes
                # the no-op fast path (UserEquipment.quiet_tick).
                quiet = not any_entry[o_i]
                if quiet:
                    for event_state in monitor._states:
                        if event_state.entry_since or event_state.reported:
                            quiet = False
                            break
                if quiet and periodic is not None and open_:
                    last = monitor._last_periodic_ms
                    if last is None or now_ms - last >= periodic.report_interval_ms:
                        quiet = False
                lane = group[gi]
                if quiet:
                    # No round: quiet_tick only bumps counters — plus a
                    # due PHY emission, whose serving metrics are lifted
                    # out of the batch matrices here.
                    lane.quiet = True
                    ue = lane.ue
                    last = ue._last_phy_meas_ms
                    if last is None or now_ms - last >= ue.phy_meas_interval_ms:
                        lane.quiet_fm = (float(sv_rsrp[o_i]), float(sv_rsrq[o_i]))
                    else:
                        lane.quiet_fm = None
                else:
                    round_ = make_round(gi)
                    if open_:
                        ue = lane.ue
                        n = len(snaps[gi].prepared.cells)
                        round_._masks[ue.serving.cell_id] = (
                            intra[o_i, :n],
                            inter[o_i, :n],
                        )
                        monitor._injected_entries = [
                            e[0][o_i] if e is not None and e[1][o_i] else None
                            for e in entries
                        ]
            if profile is not None:
                now = perf_counter()
                profile["fb_members"] = profile.get("fb_members", 0.0) + now - t0
                t0 = now


@dataclass(frozen=True)
class FleetShardUnit(WorkUnit):
    """One shard of a fleet: UEs ``start .. start+count``.

    Self-contained and self-seeded: the worker rebuilds the scenario
    from the options' :class:`ScenarioSpec` (process-cached) and every
    UE's seed derives from (fleet_seed, index), however the fleet is
    sharded.
    """

    unit_id: int
    options: FleetOptions
    start: int
    count: int

    def run(self) -> _ShardResult:
        scenario = self.options.scenario.build()
        simulator = FleetSimulator(scenario, self.options)
        return simulator.simulate_shard(self.start, self.count)


@dataclass
class FleetResult:
    """Everything one fleet run produces."""

    options: FleetOptions
    ues: list[UEResult]
    aggregates: FleetAggregates
    elapsed_s: float
    snapshot_cache: dict = field(default_factory=dict)
    profile: dict | None = None

    @property
    def ue_ticks_per_s(self) -> float:
        """Aggregate simulation throughput (UE-ticks per wall second)."""
        return self.aggregates.total_ticks / self.elapsed_s if self.elapsed_s else 0.0


def run_fleet(options: FleetOptions, workers: int | None = None) -> FleetResult:
    """Simulate a whole fleet, sharded over pipeline workers.

    ``workers`` defaults to ``REPRO_WORKERS`` (else 1).  Shards are
    merged in ``unit_id`` order and every UE is self-seeded, but a UE's
    outputs depend on the prepared-cell LRU its process warmed before
    it, so a pool of cold workers can differ from a serial run.
    """
    if workers is None:
        workers = default_workers()
    shard_size = max(options.shard_size, 1)
    units = [
        FleetShardUnit(
            unit_id=i,
            options=options,
            start=start,
            count=min(shard_size, options.n_ues - start),
        )
        for i, start in enumerate(range(0, options.n_ues, shard_size))
    ]
    started = perf_counter()
    ues: list[UEResult] = []
    cache = {"hits": 0, "misses": 0}
    profile: dict[str, float] = {}
    for shard in resolve_backend(workers).run(units):
        ues.extend(shard.ues)
        cache["hits"] += shard.cache.get("hits", 0)
        cache["misses"] += shard.cache.get("misses", 0)
        if shard.profile:
            for stage, seconds in shard.profile.items():
                profile[stage] = profile.get(stage, 0.0) + seconds
    elapsed = perf_counter() - started
    total = cache["hits"] + cache["misses"]
    cache["hit_rate"] = (cache["hits"] / total) if total else 0.0
    return FleetResult(
        options=options,
        ues=ues,
        aggregates=aggregate(ues, options.tick_ms),
        elapsed_s=elapsed,
        snapshot_cache=cache,
        profile=profile or None,
    )
