"""The user equipment: state, camping, connection and the tick loop.

``UserEquipment`` wires the measurement engine, event monitor,
reselection engine and network controller into the paper's five-step
procedure.  Two design points keep the reproduction honest:

* The UE learns configurations only from *messages*: when it camps on a
  cell it receives the SIB sequence and rebuilds its ``LteCellConfig``
  from those messages, never by peeking at the profile generators.
* Every message the UE sends or receives flows through registered
  listeners; MMLab's collector is just such a listener writing a diag
  log — the same vantage point a rooted phone gives MobileInsight.

The paper studies 4G -> 4G handoffs; the UE therefore runs the full LTE
state machines, with a minimal "return to LTE" behaviour when an
inter-RAT reselection parks it on a legacy cell.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.rat import RAT
from repro.cellnet.world import RadioEnvironment
from repro.config.lte import LteCellConfig, MeasurementConfig
from repro.rrc.broadcast import ConfigServer
from repro.rrc.messages import (
    MeasResult,
    MeasurementReport,
    Message,
    PhyServingMeas,
    RrcConnectionReconfiguration,
    Sib3,
    Sib4,
    Sib5,
    Sib6,
    Sib7,
    Sib8,
)
from repro.ue.handover import HandoverCommand, NetworkController
from repro.ue.measurement import (
    FilteredMeasurement,
    MeasurementEngine,
    MeasurementRound,
)
from repro.ue.reporting import EventMonitor
from repro.ue.legacy_reselection import LegacyReselectionEngine
from repro.ue.reselection import (
    ReselectionColumns,
    ReselectionEngine,
    measurement_gates,
    rank_candidates,
)
from repro.util import stable_hash


class RrcState(enum.Enum):
    """RRC connection state (idle vs active in the paper's terms)."""

    IDLE = "idle"
    CONNECTED = "connected"


@dataclass(frozen=True)
class HandoffEvent:
    """Ground-truth record of one executed handoff (simulator-side).

    The crawler re-derives equivalent instances from the diag log; the
    ground truth exists so tests can check the crawler's work.
    """

    time_ms: int
    kind: str  # "active" or "idle"
    source: CellId
    target: CellId
    decisive_event: str | None
    old_rsrp_dbm: float
    new_rsrp_dbm: float
    intra_freq: bool
    priority_class: str | None = None  # idle handoffs: higher/equal/lower


def lte_config_from_sibs(messages: list[Message]) -> LteCellConfig:
    """Rebuild a cell's configuration from its broadcast SIB sequence."""
    serving = None
    intra = None
    inter_freq = ()
    utra = ()
    geran = ()
    cdma = ()
    for message in messages:
        if isinstance(message, Sib3):
            serving = message.config
        elif isinstance(message, Sib4):
            intra = message.config
        elif isinstance(message, Sib5):
            inter_freq = message.layers
        elif isinstance(message, Sib6):
            utra = message.layers
        elif isinstance(message, Sib7):
            geran = message.layers
        elif isinstance(message, Sib8):
            cdma = message.layers
    if serving is None:
        raise ValueError("SIB sequence is missing SIB3")
    kwargs = {}
    if intra is not None:
        kwargs["intra_neighbors"] = intra
    return LteCellConfig(
        serving=serving,
        inter_freq_layers=inter_freq,
        utra_layers=utra,
        geran_layers=geran,
        cdma_layers=cdma,
        **kwargs,
    )


class UserEquipment:
    """One simulated device on one carrier subscription.

    Args:
        env: Radio environment.
        server: Configuration oracle (the "network" side of broadcast).
        carrier: Subscribed carrier acronym.
        seed: Seeds the UE's RNG (measurement noise, timers).
        network: Network controller for active-state decisions; built
            with a derived RNG when omitted.
        phy_meas_interval_ms: Cadence of PhyServingMeas diag records.
        sib_obs_rng: Optional RNG driving configuration *observation*
            effects (temporal churn) when reading SIBs; None reads the
            base configuration (used for controlled Type-II drives).
        vectorized: Run the array-resident measurement/event hot path
            (default) or the scalar reference loop; both produce
            bit-identical drives (parity-tested).
    """

    def __init__(
        self,
        env: RadioEnvironment,
        server: ConfigServer,
        carrier: str,
        seed: int = 0,
        network: NetworkController | None = None,
        phy_meas_interval_ms: int = 500,
        sib_obs_rng: np.random.Generator | None = None,
        vectorized: bool = True,
    ):
        self.env = env
        self.server = server
        self.carrier = carrier
        self.rng = np.random.default_rng((seed, stable_hash(carrier) & 0xFFFF, 0x0E))
        self.network = network or NetworkController(
            env, server, np.random.default_rng((seed, 0x9E7, 1))
        )
        self.meas = MeasurementEngine(env, self.rng, vectorized=vectorized)
        self.reselection = ReselectionEngine()
        #: Eq. 3 columns of the vectorized idle ranking, rebuilt when the
        #: serving config, the prepared cell set or the serving cell
        #: changes.
        self._rank_columns: ReselectionColumns | None = None
        self.legacy_reselection = LegacyReselectionEngine()
        self.monitor: EventMonitor | None = None
        self.state = RrcState.IDLE
        self.serving: Cell | None = None
        self.serving_config: LteCellConfig | None = None
        self.serving_legacy_config = None
        self.pending_handover: HandoverCommand | None = None
        self.interrupted_until_ms = -1
        self.phy_meas_interval_ms = phy_meas_interval_ms
        self._last_phy_meas_ms: int | None = None
        self.sib_obs_rng = sib_obs_rng
        self.days_since_epoch = 0.0
        self._listeners: list = []
        self.handoffs: list[HandoffEvent] = []
        self._pre_handover_rsrp = -140.0
        self._pre_handover_target_rsrp = -140.0
        #: Cadence of higher-priority layer measurement while the
        #: non-intra S-gate is closed (TS 36.304).
        self.higher_meas_period_ms = 60_000
        self._last_higher_meas_ms = -(10**9)
        #: The most recent measurement round (a cell id -> filtered
        #: measurement mapping); exposed for shadow consumers like the
        #: handoff predictor, which must see exactly what the device sees.
        self.last_measurements: dict[CellId, FilteredMeasurement] | MeasurementRound | None = None

    # -- message plumbing -------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register ``listener(now_ms, message, direction)``.

        Direction is "down" (network to UE) or "up" (UE to network).
        """
        self._listeners.append(listener)

    def _notify(self, now_ms: int, message: Message, direction: str) -> None:
        for listener in self._listeners:
            listener(now_ms, message, direction)

    # -- camping / connection ----------------------------------------------

    def camp_on(self, cell: Cell, now_ms: int) -> None:
        """Camp on ``cell``: read its SIBs and adopt its configuration."""
        sibs = self.server.sib_messages(
            cell, obs_rng=self.sib_obs_rng, days_since_first=self.days_since_epoch
        )
        for sib in sibs:
            self._notify(now_ms, sib, "down")
        self.serving = cell
        if cell.rat is RAT.LTE:
            self.serving_config = lte_config_from_sibs(sibs)
            self.serving_legacy_config = None
        else:
            self.serving_config = None
            # Legacy cells broadcast one system-information message; the
            # device rebuilds the typed config from it, message-first as
            # for LTE.
            self.serving_legacy_config = sibs[0].to_config() if sibs else None
        self.meas.reset()
        self.reselection.reset()
        self.legacy_reselection.reset()
        self._last_phy_meas_ms = None

    def initial_camp(self, location, now_ms: int = 0) -> Cell:
        """Power-on cell selection: camp on the strongest LTE cell."""
        snap = self.meas.snapshot(location, self.carrier)
        best = snap.strongest(rat=RAT.LTE) or snap.strongest()
        if best is None:
            raise RuntimeError(f"no {self.carrier} coverage at {location}")
        self.camp_on(best, now_ms)
        return best

    def connect(self, now_ms: int) -> None:
        """Enter RRC connected: receive and arm the cell's measConfig."""
        if self.serving is None:
            raise RuntimeError("cannot connect before camping")
        reconfiguration = self.server.connection_reconfiguration(
            self.serving, obs_rng=self.sib_obs_rng
        )
        self._notify(now_ms, reconfiguration, "down")
        self.state = RrcState.CONNECTED
        self._arm(reconfiguration.meas_config)

    def release(self, now_ms: int) -> None:
        """Return to RRC idle."""
        self.state = RrcState.IDLE
        self.monitor = None
        self.pending_handover = None

    def _arm(self, meas_config: MeasurementConfig | None) -> None:
        self.monitor = EventMonitor(meas_config) if meas_config is not None else None

    # -- helpers -------------------------------------------------------------

    def is_interrupted(self, now_ms: int) -> bool:
        """Whether the user plane is down (handover execution)."""
        return now_ms < self.interrupted_until_ms

    def _phy_meas_due(self, now_ms: int) -> bool:
        last = self._last_phy_meas_ms
        return last is None or now_ms - last >= self.phy_meas_interval_ms

    def _emit_phy(self, now_ms: int, cell: Cell, rsrp_dbm: float, rsrq_db: float) -> None:
        """Notify a PhyServingMeas record of ``cell`` when one is due."""
        if not self._phy_meas_due(now_ms):
            return
        self._last_phy_meas_ms = now_ms
        self._notify(
            now_ms,
            PhyServingMeas(
                carrier=cell.carrier,
                gci=cell.cell_id.gci,
                channel=cell.channel,
                rat=cell.rat.value,
                rsrp_dbm=rsrp_dbm,
                rsrq_db=rsrq_db,
                sinr_db=0.0,
                rrc_connected=self.state is RrcState.CONNECTED,
            ),
            "down",
        )

    def _emit_phy_meas(self, now_ms: int, serving_meas: FilteredMeasurement) -> None:
        self._emit_phy(now_ms, serving_meas.cell, serving_meas.rsrp_dbm, serving_meas.rsrq_db)

    @staticmethod
    def _meas_result(fm: FilteredMeasurement) -> MeasResult:
        cell = fm.cell
        return MeasResult(
            carrier=cell.carrier,
            gci=cell.cell_id.gci,
            pci=cell.pci,
            channel=cell.channel,
            rat=cell.rat.value,
            rsrp_dbm=fm.rsrp_dbm,
            rsrq_db=fm.rsrq_db,
        )

    # -- the tick loop ---------------------------------------------------------

    def tick(self, now_ms: int, location) -> list[HandoffEvent]:
        """Advance the device by one simulation step at ``location``.

        Returns handoffs executed during this tick.
        """
        if self.serving is None:
            self.initial_camp(location, now_ms)
        events: list[HandoffEvent] = []
        command = self.pending_handover
        if command is not None and now_ms >= command.execute_at_ms:
            events.append(self._execute_handover(now_ms, command))
        if self.state is RrcState.CONNECTED:
            self._connected_step(now_ms, location)
        else:
            idle_event = self._idle_step(now_ms, location)
            if idle_event is not None:
                events.append(idle_event)
        self.handoffs.extend(events)
        return events

    def quiet_tick(self, now_ms: int, serving_rsrp: float, serving_rsrq: float) -> None:
        """Bookkeeping for a tick the batched pass proved a no-op.

        The fleet's batched event pass calls this instead of
        :meth:`tick` when it has already established every fact the
        full path would discover: the device is connected with a
        monitor armed, no handover is pending, the serving cell was
        measured this round, no armed event's entry condition holds
        anywhere, every event's TTT/report state is empty, and no
        periodic report is due.  Under those facts
        :meth:`_connected_step` changes nothing besides the round
        counters and (possibly) the periodic PHY serving-measurement
        emission — so only those happen here, bit-identically, from the
        serving cell's filtered metrics the caller passes in.  No
        measurement round is materialized, so ``last_measurements`` is
        not updated on quiet ticks.
        """
        meas = self.meas
        meas.intra_freq_rounds += 1
        meas.non_intra_freq_rounds += 1
        self._emit_phy(now_ms, self.serving, serving_rsrp, serving_rsrq)

    # -- connected mode -----------------------------------------------------

    def _connected_step(self, now_ms: int, location) -> None:
        serving = self.serving
        assert serving is not None
        measured = self.meas.step(location, self.carrier, serving)
        self.last_measurements = measured
        serving_meas = measured.get(serving.cell_id)
        if serving_meas is None:
            # Out of the serving cell's audible range: radio link failure;
            # re-establish on the strongest cell.
            self._radio_link_failure(now_ms, location)
            return
        self._emit_phy_meas(now_ms, serving_meas)
        if self.monitor is None or self.pending_handover is not None:
            return
        if isinstance(measured, MeasurementRound):
            triggers = self.monitor.step_round(now_ms, measured, serving_meas)
        else:
            intra_rat, inter_rat = self.meas.split_neighbors(measured, serving)
            triggers = self.monitor.step(now_ms, serving_meas, intra_rat, inter_rat)
        for trigger in triggers:
            report = MeasurementReport(
                event=trigger.event.value,
                metric=trigger.config.metric,
                serving=self._meas_result(serving_meas),
                neighbors=tuple(self._meas_result(n) for n in trigger.neighbors[:8]),
            )
            self._notify(now_ms, report, "up")
            command = self.network.on_measurement_report(now_ms, serving, report)
            if command is not None:
                self.pending_handover = command
                self._pre_handover_rsrp = serving_meas.rsrp_dbm
                self._pre_handover_target_rsrp = next(
                    (n.rsrp_dbm for n in trigger.neighbors
                     if n.cell.cell_id == command.mobility.target_cell_id),
                    serving_meas.rsrp_dbm,
                )
                break

    def _execute_handover(self, now_ms: int, command: HandoverCommand) -> HandoffEvent:
        source = self.serving
        assert source is not None
        target = self.env.get_cell(command.mobility.target_cell_id)
        # The handover command reaches the device at decision time — the
        # paper's 80-230 ms report-to-handover latency lives between the
        # measurement report and this message.
        self._notify(
            command.execute_at_ms,
            RrcConnectionReconfiguration(mobility=command.mobility),
            "down",
        )
        self.pending_handover = None
        self.interrupted_until_ms = now_ms + command.interruption_ms
        self.camp_on(target, now_ms)
        self.connect(now_ms)
        return HandoffEvent(
            time_ms=now_ms,
            kind="active",
            source=source.cell_id,
            target=target.cell_id,
            decisive_event=command.decisive_event.value,
            old_rsrp_dbm=self._pre_handover_rsrp,
            new_rsrp_dbm=self._pre_handover_target_rsrp,
            intra_freq=source.is_intra_frequency(target),
        )

    def _radio_link_failure(self, now_ms: int, location) -> None:
        """Re-establishment: camp + reconnect on the strongest cell."""
        self.pending_handover = None
        self.interrupted_until_ms = now_ms + 200
        self.initial_camp(location, now_ms)
        self.connect(now_ms)

    # -- idle mode ------------------------------------------------------------

    def _idle_step(self, now_ms: int, location) -> HandoffEvent | None:
        serving = self.serving
        assert serving is not None
        if serving.rat is not RAT.LTE or self.serving_config is None:
            return self._legacy_idle_step(now_ms, location)
        snap = self.meas.snapshot(location, self.carrier)
        if serving not in snap:
            # Lost coverage entirely: reselect from scratch.
            self.initial_camp(location, now_ms)
            return None
        raw_serving_rsrp = snap.rsrp(serving)
        measure_intra, measure_non_intra = measurement_gates(
            self.serving_config, raw_serving_rsrp
        )
        # Even with the non-intra S-gate closed, higher-priority layers
        # are measured periodically (TS 36.304's T_higherPrioritySearch;
        # the paper's Eq. 1 discussion: "only the measurement for those
        # higher priority cells is performed periodically").
        higher_priority_round = False
        if not measure_non_intra and (
            now_ms - self._last_higher_meas_ms >= self.higher_meas_period_ms
        ):
            measure_non_intra = True
            higher_priority_round = True
            self._last_higher_meas_ms = now_ms
        measured = self.meas.step(
            location,
            self.carrier,
            serving,
            measure_intra=measure_intra,
            measure_non_intra=measure_non_intra,
        )
        serving_meas = measured[serving.cell_id]
        self._emit_phy_meas(now_ms, serving_meas)
        config = self.serving_config
        if isinstance(measured, MeasurementRound):
            columns = self._rank_columns
            if (
                columns is None
                or columns.config is not config
                or columns.prepared is not measured.prepared
                or columns.serving_cell is not serving
            ):
                columns = ReselectionColumns(config, measured.prepared, serving)
                self._rank_columns = columns
            ranked = columns.rank(serving_meas, measured)
        else:
            neighbors = [m for cid, m in measured.items() if cid != serving.cell_id]
            ranked = rank_candidates(config, serving_meas, neighbors)
        if higher_priority_round:
            candidate = next((r for r in ranked if r.priority_class == "higher"), None)
        else:
            candidate = self.reselection.step(now_ms, config, ranked)
        if candidate is None:
            return None
        target = candidate.cell
        event = HandoffEvent(
            time_ms=now_ms,
            kind="idle",
            source=serving.cell_id,
            target=target.cell_id,
            decisive_event=None,
            old_rsrp_dbm=serving_meas.rsrp_dbm,
            new_rsrp_dbm=candidate.measurement.rsrp_dbm,
            intra_freq=serving.is_intra_frequency(target),
            priority_class=candidate.priority_class,
        )
        self.camp_on(target, now_ms)
        return event

    def _legacy_idle_step(self, now_ms: int, location) -> HandoffEvent | None:
        """Idle camping on a 3G/2G cell: per-RAT reselection rules.

        UMTS runs the SIB19 absolute-priority return to E-UTRA plus
        intra-UMTS ranking; GSM the C2 criterion; the CDMA family the
        pilot-comparison rule (see :mod:`repro.ue.legacy_reselection`).
        """
        serving = self.serving
        assert serving is not None
        measured = self.meas.step(location, self.carrier, serving)
        serving_meas = measured.get(serving.cell_id)
        if serving_meas is None or self.serving_legacy_config is None:
            # Lost the serving cell (or its broadcast): full reselection.
            self.initial_camp(location, now_ms)
            return None
        self._emit_phy_meas(now_ms, serving_meas)
        neighbors = [m for cid, m in measured.items() if cid != serving.cell_id]
        decision = self.legacy_reselection.step(
            now_ms, serving_meas, self.serving_legacy_config, neighbors
        )
        if decision is None:
            return None
        target = decision.cell
        event = HandoffEvent(
            time_ms=now_ms,
            kind="idle",
            source=serving.cell_id,
            target=target.cell_id,
            decisive_event=None,
            old_rsrp_dbm=serving_meas.rsrp_dbm,
            new_rsrp_dbm=decision.target.rsrp_dbm,
            intra_freq=serving.is_intra_frequency(target),
            priority_class=decision.priority_class,
        )
        self.camp_on(target, now_ms)
        return event
