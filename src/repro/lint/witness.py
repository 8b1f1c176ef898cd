"""Replayable counterexample witnesses for coverage findings (HC4xx).

Every finding of the signal-space coverage analyzer
(:mod:`repro.lint.coverage`) carries a :class:`CoverageWitness`: a
concrete, synthesized serving-RSRP trajectory that — replayed through
:class:`~repro.simulate.runner.DriveSimulator` — exhibits the predicted
failure.  This is the analyzer's soundness cross-check, in the spirit of
the loop-fixture canary of :mod:`repro.lint.fixtures`: a static claim
("no event rescues a UE in this RSRP region") is backed by a dynamic
demonstration ("this drive through that region suffers an outage/RLF").

The witness world is built with a *shadowing-free* radio model
(``RadioModel(shadowing_sigma_db=0)``), which makes RSRP an exactly
invertible function of distance:

    RSRP(d) = tx - 62 - 35 * log10(d / 10 m) - 21 * log10(f / 700 MHz)

so a target serving level translates deterministically into a waypoint.
Two cells suffice: the serving cell at the witness origin and one
neighbor placed so it offers a comfortable handoff target
(:data:`NEIGHBOR_ADVANTAGE_DB` above serving) at the level where a sane
configuration would hand off — the witness's *failing* configuration
does not, which is exactly what the replay demonstrates.  Replaying the
same world with a corrected configuration (the "corrected twin") hands
off before the outage and the failure disappears.

Batched replay shards over :mod:`repro.pipeline` work units
(:class:`WitnessReplayUnit`) rather than :mod:`repro.simulate.fleet`:
fleet scenarios rebuild their world from a named-city
:class:`~repro.simulate.scenarios.ScenarioSpec` in each worker, and
witness worlds are synthetic two-cell deployments no catalog names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.cellnet.bands import earfcn_to_frequency_mhz
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT
from repro.config.lte import LteCellConfig
from repro.lint.snapshot import decode_value, encode_value
from repro.pipeline import WorkUnit, resolve_backend

if TYPE_CHECKING:
    from repro.cellnet.world import RadioEnvironment
    from repro.lint.fixtures import StaticConfigServer
    from repro.simulate.mobility import Trajectory
    from repro.simulate.runner import DriveResult

#: Serving RSRP below which service is considered unacceptable (outage);
#: the top of the coverage analyzer's critical band.  -115 dBm sits at
#: the weak edge of usable LTE coverage — SINR-limited cells deliver
#: next to nothing below it.
ACCEPTABLE_SERVICE_DBM = -115.0

#: Serving RSRP at which the radio link is effectively lost; the bottom
#: of the critical band.  Below this the UE declares RLF long before any
#: slow event completes its time-to-trigger.
RLF_RSRP_DBM = -128.0

#: UE speed of synthesized walk witnesses (vehicular, ~54 km/h).
WITNESS_SPEED_MPS = 15.0

#: Seed of the witness world's (shadowing-free) radio model.
WITNESS_SEED = 7

#: Headroom above the outage level where a well-configured network would
#: hand off; the witness neighbor is placed to be attractive there.
HANDOFF_HEADROOM_DB = 8.0

#: Neighbor advantage over serving at the intended handoff point.
NEIGHBOR_ADVANTAGE_DB = 3.0

#: Initial level asymmetry of ping-pong park witnesses (the controller
#: prefers the stronger cell first; the window must exceed this for the
#: reverse trigger to re-arm).
PINGPONG_ASYMMETRY_DB = 0.5

#: Outage run (in ticks) a missed-handoff replay must exhibit; 25 ticks
#: at the default 200 ms tick is 5 s of continuous unacceptable service.
MIN_OUTAGE_RUN_TICKS = 25

#: Witness plane origin, far from every catalogued city and fixture.
_ORIGIN = Point(6_000_000.0, 6_000_000.0)

#: City label of witness worlds (never in the deployment catalog).
WITNESS_CITY = "CoverageWitness"

#: Radio-model constants the inversion relies on (matching the defaults
#: of :class:`repro.cellnet.radio.RadioModel`).
_TX_POWER_DBM = 30.0
_REF_LOSS_DB = 62.0
_PATH_LOSS_SLOPE_DB = 35.0  # 10 * path_loss_exponent
_REF_DISTANCE_M = 10.0
_REF_FREQUENCY_MHZ = 700.0
_FREQ_SLOPE_DB = 21.0


def rsrp_at_distance(distance_m: float, channel: int, rat: RAT = RAT.LTE) -> float:
    """Shadowing-free RSRP at ``distance_m`` from a default-power cell."""
    frequency = earfcn_to_frequency_mhz(channel, rat)
    freq_term = _FREQ_SLOPE_DB * math.log10(frequency / _REF_FREQUENCY_MHZ)
    distance = max(distance_m, _REF_DISTANCE_M)
    return (
        _TX_POWER_DBM
        - _REF_LOSS_DB
        - _PATH_LOSS_SLOPE_DB * math.log10(distance / _REF_DISTANCE_M)
        - freq_term
    )


def distance_for_rsrp(level_dbm: float, channel: int, rat: RAT = RAT.LTE) -> float:
    """Distance (m) at which a default-power cell measures ``level_dbm``.

    Exact inverse of :func:`rsrp_at_distance` — the witness builder's
    level-to-waypoint translation.
    """
    frequency = earfcn_to_frequency_mhz(channel, rat)
    freq_term = _FREQ_SLOPE_DB * math.log10(frequency / _REF_FREQUENCY_MHZ)
    exponent = (_TX_POWER_DBM - _REF_LOSS_DB - freq_term - level_dbm) / _PATH_LOSS_SLOPE_DB
    return _REF_DISTANCE_M * 10.0 ** exponent


@dataclass(frozen=True)
class CoverageWitness:
    """A synthesized, simulator-replayable counterexample.

    Attributes:
        code: The HC4xx rule that produced the witness.
        kind: Failure mode the replay checks for — "missed-handoff"
            (walk witnesses: outage/RLF with no rescuing handoff),
            "ping-pong" (park witnesses: repeated A<->B flips) or
            "shadowed-event" (walk witnesses: another event fires,
            the subject event never does).
        carrier: Carrier of the originating cell.
        gci: Cell the finding is about.
        channel: Serving-cell EARFCN of the witness world.
        neighbor_channel: Neighbor-cell EARFCN.
        config: The failing configuration under test (both cells of the
            witness world broadcast it unless a replay overrides).
        neighbor_config: Neighbor's configuration (usually ``config``).
        entry_dbm: Serving RSRP at the start of the synthesized walk
            (equals ``exit_dbm`` for park witnesses).
        exit_dbm: Serving RSRP at the end of the walk.
        hold_s: Park duration for ping-pong witnesses (0 for walks).
        speed_mps: Walk speed.
        subject_event: Label of the event the finding is about (e.g.
            "A5[0]"); shadowed-event detection keys on its type.
        note: Human-readable account of what the replay demonstrates.
    """

    code: str
    kind: str
    carrier: str
    gci: int
    channel: int
    neighbor_channel: int
    config: LteCellConfig
    neighbor_config: LteCellConfig
    entry_dbm: float
    exit_dbm: float
    hold_s: float = 0.0
    speed_mps: float = WITNESS_SPEED_MPS
    subject_event: str = ""
    note: str = ""

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (config codec of the drift store).

        When ``neighbor_config`` is ``config`` (as every synthesized
        witness has it), the one encoded tree serves both keys.
        """
        config = encode_value(self.config)
        neighbor_config = (
            config if self.neighbor_config is self.config
            else encode_value(self.neighbor_config)
        )
        return {
            "code": self.code,
            "kind": self.kind,
            "carrier": self.carrier,
            "gci": self.gci,
            "channel": self.channel,
            "neighbor_channel": self.neighbor_channel,
            "config": config,
            "neighbor_config": neighbor_config,
            "entry_dbm": self.entry_dbm,
            "exit_dbm": self.exit_dbm,
            "hold_s": self.hold_s,
            "speed_mps": self.speed_mps,
            "subject_event": self.subject_event,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "CoverageWitness":
        config = decode_value(payload["config"])
        neighbor_config = decode_value(payload["neighbor_config"])
        assert isinstance(config, LteCellConfig)
        assert isinstance(neighbor_config, LteCellConfig)
        return cls(
            code=str(payload["code"]),
            kind=str(payload["kind"]),
            carrier=str(payload["carrier"]),
            gci=int(payload["gci"]),  # type: ignore[call-overload]
            channel=int(payload["channel"]),  # type: ignore[call-overload]
            neighbor_channel=int(payload["neighbor_channel"]),  # type: ignore[call-overload]
            config=config,
            neighbor_config=neighbor_config,
            entry_dbm=float(payload["entry_dbm"]),  # type: ignore[arg-type]
            exit_dbm=float(payload["exit_dbm"]),  # type: ignore[arg-type]
            hold_s=float(payload["hold_s"]),  # type: ignore[arg-type]
            speed_mps=float(payload["speed_mps"]),  # type: ignore[arg-type]
            subject_event=str(payload.get("subject_event", "")),
            note=str(payload.get("note", "")),
        )


@dataclass
class WitnessWorld:
    """A built witness world, ready to drive."""

    env: "RadioEnvironment"
    server: "StaticConfigServer"
    carrier: str
    trajectory: "Trajectory"


def build_witness_world(
    witness: CoverageWitness,
    serving_config: LteCellConfig | None = None,
    neighbor_config: LteCellConfig | None = None,
) -> WitnessWorld:
    """Materialize a witness's two-cell world and trajectory.

    ``serving_config``/``neighbor_config`` override the witness's
    (failing) configurations — the corrected-twin replay passes the
    fixed configuration into the *identical* geometry.
    """
    from repro.cellnet.cell import Cell, CellId
    from repro.cellnet.deployment import DeploymentPlan
    from repro.cellnet.radio import RadioModel
    from repro.cellnet.world import RadioEnvironment
    from repro.lint.fixtures import StaticConfigServer
    from repro.simulate.mobility import Trajectory, _timed

    serving_cfg = serving_config if serving_config is not None else witness.config
    neighbor_cfg = (
        neighbor_config if neighbor_config is not None else witness.neighbor_config
    )
    if witness.kind == "ping-pong":
        # Park where the serving cell sits at entry level and the
        # neighbor slightly above it: both levels inside the overlap
        # window, so forward and reverse triggers stay armed.
        park_m = distance_for_rsrp(witness.entry_dbm, witness.channel)
        neighbor_gap_m = distance_for_rsrp(
            witness.entry_dbm + PINGPONG_ASYMMETRY_DB, witness.neighbor_channel
        )
        neighbor_x = park_m + neighbor_gap_m
        park = _ORIGIN.offset(park_m, 0.0)
        hold_ms = max(int(witness.hold_s * 1000.0), 1)
        trajectory = Trajectory(waypoints=(park, park), times_ms=(0, hold_ms))
    else:
        # Walk outward through the failing region.  The neighbor is
        # placed to be NEIGHBOR_ADVANTAGE_DB stronger than serving at
        # the level where a sane configuration would hand off.
        start_m = distance_for_rsrp(witness.entry_dbm, witness.channel)
        end_m = distance_for_rsrp(witness.exit_dbm, witness.channel)
        handoff_dbm = min(
            ACCEPTABLE_SERVICE_DBM + HANDOFF_HEADROOM_DB, witness.entry_dbm - 2.0
        )
        handoff_m = distance_for_rsrp(handoff_dbm, witness.channel)
        neighbor_x = handoff_m + distance_for_rsrp(
            handoff_dbm + NEIGHBOR_ADVANTAGE_DB, witness.neighbor_channel
        )
        trajectory = _timed(
            [_ORIGIN.offset(start_m, 0.0), _ORIGIN.offset(end_m, 0.0)],
            witness.speed_mps,
        )
    plan = DeploymentPlan()
    serving_cell = Cell(
        cell_id=CellId(witness.carrier, plan.next_gci(witness.carrier)),
        rat=RAT.LTE,
        channel=witness.channel,
        pci=210,
        location=_ORIGIN,
        city=WITNESS_CITY,
    )
    neighbor_cell = Cell(
        cell_id=CellId(witness.carrier, plan.next_gci(witness.carrier)),
        rat=RAT.LTE,
        channel=witness.neighbor_channel,
        pci=211,
        location=_ORIGIN.offset(neighbor_x, 0.0),
        city=WITNESS_CITY,
    )
    plan.registry.add(serving_cell)
    plan.registry.add(neighbor_cell)
    env = RadioEnvironment(
        plan, radio=RadioModel(seed=WITNESS_SEED, shadowing_sigma_db=0.0)
    )
    server = StaticConfigServer(env, {
        serving_cell.cell_id: serving_cfg,
        neighbor_cell.cell_id: neighbor_cfg,
    })
    return WitnessWorld(
        env=env, server=server, carrier=witness.carrier, trajectory=trajectory
    )


@dataclass(frozen=True)
class ReplayOutcome:
    """What replaying one witness through the simulator observed.

    ``reproduced`` is the soundness verdict: the replay exhibited the
    failure the witness predicts.  The counters let tests (and the CI
    canary) assert the corrected twin is failure-free, not merely
    "different".
    """

    reproduced: bool
    kind: str
    rlf_count: int
    outage_ticks: int
    max_outage_run_ticks: int
    handoffs: int
    flips: int
    first_outage_ms: int
    first_handoff_ms: int
    detail: str


def _radio_link_failures(result: "DriveResult") -> int:
    """Serving changes in the tick samples with no handoff in between.

    The simulator re-camps silently after a radio-link failure — a
    serving-cell change between consecutive samples that no
    :class:`~repro.ue.device.HandoffEvent` explains is exactly an RLF.
    """
    handoff_times = [h.time_ms for h in result.handoffs]
    count = 0
    for prev, sample in zip(result.samples, result.samples[1:]):
        if sample.serving == prev.serving:
            continue
        if not any(prev.t_ms < t <= sample.t_ms for t in handoff_times):
            count += 1
    return count


def _flip_count(result: "DriveResult") -> int:
    """Back-and-forth handoffs (each hop undoes the previous one)."""
    flips = 0
    for prev, hop in zip(result.handoffs, result.handoffs[1:]):
        if hop.target == prev.source and hop.source == prev.target:
            flips += 1
    return flips


def classify_replay(witness: CoverageWitness, result: "DriveResult") -> ReplayOutcome:
    """Judge one finished replay against the witness's predicted failure."""
    rlf_count = _radio_link_failures(result)
    flips = _flip_count(result)
    outage_ticks = 0
    max_run = run = 0
    first_outage_ms = -1
    for sample in result.samples:
        if sample.rsrp_dbm <= ACCEPTABLE_SERVICE_DBM and not sample.interrupted:
            outage_ticks += 1
            run += 1
            max_run = max(max_run, run)
            if first_outage_ms < 0:
                first_outage_ms = sample.t_ms
        else:
            run = 0
    first_handoff_ms = result.handoffs[0].time_ms if result.handoffs else -1
    if witness.kind == "ping-pong":
        reproduced = flips >= 2
        detail = f"{flips} back-and-forth handoffs in {witness.hold_s:g} s"
    elif witness.kind == "shadowed-event":
        subject_type = witness.subject_event.split("[", 1)[0]
        subject_fired = any(
            h.decisive_event == subject_type for h in result.handoffs
        )
        other_fired = any(
            h.decisive_event not in (None, subject_type) for h in result.handoffs
        )
        reproduced = other_fired and not subject_fired
        detail = (
            f"subject {witness.subject_event} fired: {subject_fired}; "
            f"dominating event fired: {other_fired}"
        )
    else:  # missed-handoff
        rescued_first = 0 <= first_handoff_ms and (
            first_outage_ms < 0 or first_handoff_ms < first_outage_ms
        )
        reproduced = rlf_count >= 1 or (
            max_run >= MIN_OUTAGE_RUN_TICKS and not rescued_first
        )
        detail = (
            f"{rlf_count} RLFs, longest outage run {max_run} ticks, "
            f"first handoff at {first_handoff_ms} ms, "
            f"first outage at {first_outage_ms} ms"
        )
    return ReplayOutcome(
        reproduced=reproduced,
        kind=witness.kind,
        rlf_count=rlf_count,
        outage_ticks=outage_ticks,
        max_outage_run_ticks=max_run,
        handoffs=len(result.handoffs),
        flips=flips,
        first_outage_ms=first_outage_ms,
        first_handoff_ms=first_handoff_ms,
        detail=detail,
    )


def replay_witness(
    witness: CoverageWitness,
    serving_config: LteCellConfig | None = None,
    neighbor_config: LteCellConfig | None = None,
    seed: int = 0,
) -> ReplayOutcome:
    """Drive one witness through the simulator and judge the outcome.

    The drive runs with ``config_lint=False`` — witnesses exist because
    the configuration is broken; the preflight warning would only
    restate the finding under replay.
    """
    from repro.simulate.runner import DriveSimulator
    from repro.simulate.traffic import ConstantRate

    world = build_witness_world(
        witness, serving_config=serving_config, neighbor_config=neighbor_config
    )
    simulator = DriveSimulator(
        world.env, world.server, world.carrier, seed=seed, config_lint=False
    )
    result = simulator.run(world.trajectory, ConstantRate())
    return classify_replay(witness, result)


def corrected_twin(config: LteCellConfig, corrected: LteCellConfig) -> LteCellConfig:
    """Convenience: the corrected configuration with ``config``'s layers.

    Keeps deployment-shaped fields (inter-frequency layers) from the
    failing configuration so the twin differs only in event policy.
    """
    return replace(corrected, inter_freq_layers=config.inter_freq_layers)


@dataclass(frozen=True)
class WitnessReplayUnit(WorkUnit):
    """One witness replay as a :mod:`repro.pipeline` work unit."""

    unit_id: int
    witness: CoverageWitness
    seed: int = 0

    def run(self) -> ReplayOutcome:
        return replay_witness(self.witness, seed=self.seed)


def replay_witnesses(
    witnesses: list[CoverageWitness],
    workers: int | None = None,
    seed: int = 0,
) -> list[ReplayOutcome]:
    """Replay a batch of witnesses, sharded over pipeline workers.

    Outcomes come back in witness order regardless of worker count (the
    pipeline's ordered merge), so batch verdicts are deterministic.
    """
    units = [
        WitnessReplayUnit(unit_id=i, witness=w, seed=seed)
        for i, w in enumerate(witnesses)
    ]
    outcomes: list[ReplayOutcome] = []
    for outcome in resolve_backend(workers).run(units):
        assert isinstance(outcome, ReplayOutcome)
        outcomes.append(outcome)
    return outcomes
