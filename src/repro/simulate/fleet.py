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
  persistent (metric x UE x cell) matrices updated in place each tick
  (:class:`~repro.ue.measurement.BatchMeasurementState`); rounds are
  materialized only for lanes whose tick consumes one.
* **One batch-wide event pass** — every batched UE's armed events are
  columns of one :class:`~repro.config.events.EventTable`, refreshed
  only when a UE's monitor changes, and one pass of the solo path's
  own :func:`~repro.config.events.entry_mask` per armed event type,
  fed each UE's candidate maxima, proves which ticks are no-ops.
  Those take :meth:`~repro.ue.device.UserEquipment.quiet_tick`,
  skipping the per-lane event machinery entirely; the rest run
  :meth:`~repro.ue.reporting.EventMonitor.step_round` themselves.
* **Steady lanes** — a batched lane whose last tick was quiet skips
  the batch-membership check and the per-row validity checks: a quiet
  tick changes nothing they re-derive.  Of a steady lane's row, only a
  mover's raw metrics are refreshed, and a mover that enters another
  prepared neighbourhood takes the full check again.
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
of a fleet equals a solo :class:`DriveSimulator` run bit for bit,
vectorized or scalar.  Any lane in an unusual state (idle, a handover
due this tick) simply takes the lane's own path.
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
from repro.config.events import EventTable
from repro.pipeline import WorkUnit, default_workers, resolve_backend
from repro.simulate.mobility import Trajectory, grid_drive, parked_position
from repro.simulate.runner import DriveLane, DriveResult, SnapshotFeed, TickSample
from repro.simulate.scenarios import (
    SCENARIO_CARRIERS,
    DriveScenario,
    ScenarioSpec,
    scenario_cities,
)
from repro.simulate.traffic import (
    ConstantRate,
    NoTraffic,
    Ping,
    Speedtest,
    TrafficModel,
)
from repro.ue.device import HandoffEvent, RrcState
from repro.ue.measurement import BatchMeasurementState

#: Default population mix: mostly parked devices, a transit-riding
#: share, some pedestrians and drivers — a plausible daytime urban mix.
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("parked", 0.55),
    ("transit", 0.25),
    ("pedestrian", 0.10),
    ("vehicle", 0.10),
)

#: Behaviour profiles a population mix may name.
_PROFILES = ("parked", "transit", "pedestrian", "vehicle")

_PROFILE_SPEEDS_KMH = {"pedestrian": 5.0, "vehicle": 40.0, "transit": 30.0}

#: Lattice block per profile: walkers turn at street corners, drivers
#: at arterial blocks.  Keeping blocks proportionate to speed also
#: keeps every profile's trajectory duration close to ``duration_s``
#: (a 450 m minimum leg at walking pace would last 5 minutes).
_PROFILE_BLOCK_M = {"pedestrian": 100.0, "vehicle": 450.0, "transit": 450.0}

#: Ping-pong window: an A->B->A pair within this span counts (Fig. 12).
PING_PONG_WINDOW_MS = 10_000


#: Data services by name (``FleetOptions.traffic``).
TRAFFIC_MODELS: dict[str, type[TrafficModel]] = {
    "speedtest": Speedtest,
    "iperf": ConstantRate,
    "ping": Ping,
    "idle": NoTraffic,
}


def make_traffic(name: str) -> TrafficModel:
    """A fresh traffic-model instance by service name."""
    model = TRAFFIC_MODELS.get(name)
    if model is None:
        raise ValueError(f"unknown traffic model {name!r}")
    return model()


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

    def __post_init__(self) -> None:
        if self.tick_ms <= 0:
            raise ValueError(f"tick_ms must be positive, got {self.tick_ms}")
        if self.n_ues < 0:
            raise ValueError(f"n_ues must be non-negative, got {self.n_ues}")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(
                f"duration_s must be positive and finite, got {self.duration_s}"
            )
        if self.transit_lines < 1:
            raise ValueError(f"transit_lines must be at least 1, got {self.transit_lines}")
        try:
            scenario_cities(self.scenario.name)
        except ValueError as error:
            raise ValueError(f"scenario: {error}") from None
        if not self.carriers:
            raise ValueError("carriers must name at least one carrier")
        for carrier in self.carriers:
            if carrier not in SCENARIO_CARRIERS:
                raise ValueError(
                    f"carriers must be deployed in drive scenarios "
                    f"({', '.join(SCENARIO_CARRIERS)}), got {carrier!r}"
                )
        for profile, weight in self.mix:
            if profile not in _PROFILES:
                raise ValueError(
                    f"mix profiles must be {', '.join(_PROFILES)}, got {profile!r}"
                )
            if not 0 <= weight < math.inf:
                raise ValueError(f"mix weights must be non-negative and finite, got {weight!r}")
        mix_pattern(self.mix)
        if self.traffic not in TRAFFIC_MODELS:
            raise ValueError(
                f"traffic must be one of {', '.join(TRAFFIC_MODELS)}, got {self.traffic!r}"
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


class FleetSimulator:
    """Runs a slice of a fleet in lockstep with batched per-tick passes."""

    def __init__(self, scenario: DriveScenario, options: FleetOptions):
        self.scenario = scenario
        self.options = options
        self._transit_cache: dict[int, Trajectory] = {}

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
        return _ShardResult(ues=ues, cache=cache)

    def simulate(self, start: int = 0, count: int | None = None) -> list[UEResult]:
        """Lockstep-simulate UEs ``start .. start+count`` of the fleet."""
        options = self.options
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
        now_ms = 0
        tick_index = 0
        active = list(lanes)
        # Parked lanes hold one position (and one warm snapshot memo,
        # left by their initial camp) for the whole run: only movers
        # need the per-tick position/spot passes.
        movers = [lane for lane in active if not lane.static]
        n_static_spots = len(active) - len(movers)
        # Persistent batch rows; each lane owns one for the whole run.
        batch = _Batch(len(lanes))
        for row, lane in enumerate(lanes):
            lane.row = row
        # Lanes whose last tick was not quiet: their batch membership
        # and row facts are re-derived this tick.  Every other lane is
        # *steady* — batched, and quiet last tick — and a quiet tick
        # changes nothing those checks re-derive, so steady lanes skip
        # them; of their rows, only movers' raw metrics are refreshed.
        unsettled = list(lanes)
        steady_movers: list[DriveLane] = []
        next_end = min((lane.trajectory.duration_ms for lane in active), default=0)
        while active:
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
            # Batch membership of the unsettled lanes.  A batched lane
            # that drops out (handover due, idle, RLF) is detached first:
            # the batch matrices update in place, so its engine must own
            # private arrays before the batch steps on without it.
            state = batch.state
            checked: list[DriveLane] = []
            # A steady mover that drove into another prepared
            # neighbourhood takes the full check: whether its serving
            # cell is audible there is a fact of place, which a quiet
            # tick does not keep.
            neighborhoods = batch.neighborhoods
            mover_rows: list[int] = []
            for lane in steady_movers:
                if lane.ue.meas._snap.prepared is neighborhoods[lane.row]:
                    mover_rows.append(lane.row)
                else:
                    checked.append(lane)
            for lane in unsettled:
                ue = lane.ue
                command = ue.pending_handover
                if (
                    ue.state is RrcState.CONNECTED
                    and ue.serving is not None
                    and ue.serving.rat is RAT.LTE
                    and not (command is not None and now_ms >= command.execute_at_ms)
                ):
                    lane.batched = True
                    checked.append(lane)
                elif lane.batched:
                    lane.batched = False
                    state.detach(lane.row)
            quiet: list = []
            if checked or state.n_attached:
                # One batched measurement round over every batched lane,
                # whatever neighborhood each lives in.  The spots pass
                # above (or the initial camp, for parked lanes) set every
                # lane's snapshot memo.
                filtered, _ = state.step(
                    [lane.row for lane in checked],
                    [lane.ue.meas for lane in checked],
                    [lane.ue.meas._snap for lane in checked],
                    [lane.ue.serving for lane in checked],
                    mover_rows,
                )
                for lane in checked:
                    batch.refresh(lane)
                quiet, serving_rsrp, serving_rsrq = batch.quiet_rows(now_ms, filtered)
            # Per-lane tick.  A quiet lane only bumps counters (plus a
            # due PHY emission); a batched lane that is not quiet takes
            # the UE's full step over the batch's round, which its
            # engine consumes instead of measuring again.
            unsettled = []
            steady_movers = []
            for lane in active:
                if lane.batched:
                    row = lane.row
                    if quiet[row]:
                        lane.quiet_tick(now_ms, serving_rsrp[row], serving_rsrq[row])
                        if not lane.static:
                            steady_movers.append(lane)
                    else:
                        lane.ue.meas._pending_round = state.round_at(row)
                        lane.tick(now_ms)
                        unsettled.append(lane)
                else:
                    lane.tick(now_ms)
                    unsettled.append(lane)
                lane.sample(now_ms)
            now_ms += options.tick_ms
            tick_index += 1
            if now_ms <= next_end:
                continue
            finished = {lane.row for lane in active if now_ms > lane.trajectory.duration_ms}
            for lane in active:
                if lane.row in finished:
                    batch.release(lane.row)
            active = [lane for lane in active if lane.row not in finished]
            movers = [lane for lane in active if not lane.static]
            n_static_spots = len(active) - len(movers)
            unsettled = [lane for lane in unsettled if lane.row not in finished]
            steady_movers = [lane for lane in steady_movers if lane.row not in finished]
            next_end = min((lane.trajectory.duration_ms for lane in active), default=0)
            # Compact the batch rows when the fleet shrinks: the ufunc
            # phase runs over every allocated row, so a long mover tail
            # after the parked lanes finish would keep paying full-fleet
            # matrix passes.  Closing the old state detaches every row
            # (engines keep their filter state), so every lane takes its
            # full check in the new one and no UE-visible value changes.
            if active and len(active) < 0.7 * state.n_rows:
                state.close()
                batch = _Batch(len(active))
                for row, lane in enumerate(active):
                    lane.row = row
                    lane.batched = False
                unsettled = list(active)
                steady_movers = []
        return [
            _ue_result(spec, lane, options.keep_samples)
            for spec, lane in zip(specs, lanes)
        ]


class _Batch:
    """The batch rows of a lockstep shard: one per lane.

    Holds the shard's :class:`~repro.ue.measurement.BatchMeasurementState`
    and :class:`~repro.config.events.EventTable` plus the per-row facts a
    quiet-tick proof needs beyond this round's entry conditions:
    ``calm`` (a monitor armed, no handover pending, the serving cell
    audible, every event's TTT and report state empty) and the time a
    periodic report falls due.  A quiet tick changes none of them, so
    :meth:`refresh` re-derives them only for lanes whose last tick was
    not quiet, and for movers that left the prepared neighbourhood
    (``neighborhoods``) the facts were derived in: the serving cell's
    audibility belongs to the place, not to the lane.  The rows refer
    to lanes' engines and monitors, never the other way round, so
    nothing outlives the run in a cycle.
    """

    def __init__(self, n_rows: int):
        self.state = BatchMeasurementState(n_rows)
        self.events = EventTable(n_rows)
        self.monitors: list = [None] * n_rows
        #: The prepared cell list each row's facts were derived in.
        self.neighborhoods: list = [None] * n_rows
        self.calm = np.zeros(n_rows, dtype=bool)
        self.periodic_at = np.full(n_rows, np.inf)

    def refresh(self, lane: DriveLane) -> None:
        """Re-derive the row facts of a lane that just took its full check."""
        row, ue = lane.row, lane.ue
        self.neighborhoods[row] = ue.meas._snap.prepared
        monitor = ue.monitor
        if monitor is not self.monitors[row]:
            # A new EventMonitor object: a new measConfig to lay out.
            self.monitors[row] = monitor
            self.events.set_row(row, None if monitor is None else monitor.meas_config)
        if monitor is None:
            self.calm[row] = False
            return
        self.calm[row] = (
            ue.pending_handover is None
            and self.state.serving_index(row) is not None
            and not any(s.entry_since or s.reported for s in monitor._states)
        )
        periodic = monitor.meas_config.periodic
        last = monitor._last_periodic_ms
        if periodic is None:
            self.periodic_at[row] = np.inf
        elif last is None:
            self.periodic_at[row] = -np.inf
        else:
            self.periodic_at[row] = last + periodic.report_interval_ms

    def quiet_rows(self, now_ms: int, filtered: np.ndarray) -> tuple[list, list, list]:
        """``(quiet, serving RSRP, serving RSRQ)`` per row, as lists.

        A row is quiet when it is calm, no armed event's entry condition
        holds for any candidate, and no periodic report is due behind an
        open s-Measure gate: :meth:`EventMonitor.step_round` would then
        mutate nothing, and the lane takes
        :meth:`~repro.simulate.runner.DriveLane.quiet_tick`.  Only rows
        of batched lanes are meaningful.
        """
        state = self.state
        serving = state.serving_values()
        entered, gate_open = self.events.entry_rows(serving, filtered, state.candidates())
        due = self.periodic_at <= now_ms
        due &= gate_open
        entered |= due
        quiet = self.calm & ~entered
        serving_rsrp, serving_rsrq = serving.tolist()
        return quiet.tolist(), serving_rsrp, serving_rsrq

    def release(self, row: int) -> None:
        """Drop a finished lane's row and everything it refers to."""
        self.state.detach(row)
        self.events.clear_row(row)
        self.monitors[row] = None
        self.neighborhoods[row] = None


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
    for shard in resolve_backend(workers).run(units):
        ues.extend(shard.ues)
        cache["hits"] += shard.cache.get("hits", 0)
        cache["misses"] += shard.cache.get("misses", 0)
    elapsed = perf_counter() - started
    total = cache["hits"] + cache["misses"]
    cache["hit_rate"] = (cache["hits"] / total) if total else 0.0
    return FleetResult(
        options=options,
        ues=ues,
        aggregates=aggregate(ues, options.tick_ms),
        elapsed_s=elapsed,
        snapshot_cache=cache,
    )
