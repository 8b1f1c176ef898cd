"""Configuration broadcast: what a camped device hears from each cell.

``ConfigServer`` is the network side of configuration distribution.  For
any cell it can produce the SIB sequence the cell broadcasts (SIB1 +
SIB3-8 for LTE, a system-information wrapper for legacy RATs) and the
measConfig a connected UE would be sent.  It derives each cell's
:class:`~repro.config.profiles.ConfigContext` from the actual deployment
(which other layers exist nearby), so SIB5/6/7/8 describe real
neighbor layers rather than made-up ones.
"""

from __future__ import annotations

import numpy as np

from repro.cellnet.bands import earfcn_to_band
from repro.cellnet.cell import Cell
from repro.cellnet.rat import RAT
from repro.cellnet.world import RadioEnvironment
from repro.config.lte import LteCellConfig
from repro.config.profiles import ConfigContext, profile_for_carrier
from repro.rrc.messages import (
    LegacySystemInfo,
    Message,
    RrcConnectionReconfiguration,
    Sib1,
    Sib3,
    Sib4,
    Sib5,
    Sib6,
    Sib7,
    Sib8,
)

#: Radius within which other layers of the carrier count as "present"
#: for the purpose of building SIB5/6/7/8 layer lists.
_CONTEXT_RADIUS_M = 4000.0


class ConfigServer:
    """Per-deployment configuration oracle.

    Args:
        env: The radio environment whose cells are being configured.
        seed: Profile seed shared by all carriers in this deployment.
    """

    def __init__(self, env: RadioEnvironment, seed: int = 2018):
        self.env = env
        self.seed = seed
        self._contexts: dict = {}
        self._base_configs: dict = {}
        # Time-zero broadcasts are deterministic per cell; messages are
        # frozen, so the same objects can be handed to every camping UE.
        self._sib_cache: dict = {}
        self._reconfig_cache: dict = {}

    def context_for(self, cell: Cell) -> ConfigContext:
        """Deployment context of one cell.

        Cached per site: the context is a function of the carrier, the
        location (the layers within ``_CONTEXT_RADIUS_M``) and the city
        alone, so the cells of one site share it.
        """
        key = (cell.carrier, cell.location, cell.city)
        context = self._contexts.get(key)
        if context is None:
            layers = self.env.layer_channels(cell.location, cell.carrier, _CONTEXT_RADIUS_M)
            context = ConfigContext(
                city=cell.city,
                lte_channels=layers.get(RAT.LTE, ()),
                utra_channels=layers.get(RAT.UMTS, ()),
                geran_channels=layers.get(RAT.GSM, ()),
                cdma_bands=tuple(sorted({
                    earfcn_to_band(channel, rat).number
                    for rat in (RAT.EVDO, RAT.CDMA1X)
                    for channel in layers.get(rat, ())
                })),
            )
            self._contexts[key] = context
        return context

    def lte_config(self, cell: Cell) -> LteCellConfig:
        """The base (time-zero) configuration of an LTE cell (cached)."""
        if cell.rat is not RAT.LTE:
            raise ValueError(f"{cell.cell_id} is not an LTE cell")
        if cell.cell_id not in self._base_configs:
            profile = profile_for_carrier(cell.carrier, seed=self.seed)
            self._base_configs[cell.cell_id] = profile.lte_config(cell, self.context_for(cell))
        return self._base_configs[cell.cell_id]

    def observed_lte_config(
        self, cell: Cell, obs_rng: np.random.Generator, days_since_first: float = 0.0
    ) -> LteCellConfig:
        """One observation of an LTE cell's configuration (may churn)."""
        profile = profile_for_carrier(cell.carrier, seed=self.seed)
        return profile.observed_lte_config(
            cell, self.lte_config(cell), obs_rng, days_since_first=days_since_first
        )

    def sib_messages(
        self,
        cell: Cell,
        obs_rng: np.random.Generator | None = None,
        days_since_first: float = 0.0,
    ) -> list[Message]:
        """The system-information sequence ``cell`` broadcasts.

        For LTE this is SIB1 plus SIB3-8 (SIB5-8 only when layers of
        that kind exist nearby, as real cells omit empty SIBs).  For
        legacy RATs it is one :class:`LegacySystemInfo`.
        """
        if obs_rng is None:
            cached = self._sib_cache.get(cell.cell_id)
            if cached is not None:
                return list(cached)
            sibs = self._sib_messages(cell, None, days_since_first)
            self._sib_cache[cell.cell_id] = tuple(sibs)
            return sibs
        return self._sib_messages(cell, obs_rng, days_since_first)

    def _sib_messages(
        self,
        cell: Cell,
        obs_rng: np.random.Generator | None,
        days_since_first: float,
    ) -> list[Message]:
        if cell.rat is not RAT.LTE:
            profile = profile_for_carrier(cell.carrier, seed=self.seed)
            config = profile.legacy_config(cell)
            return [
                LegacySystemInfo.from_config(
                    cell.carrier, cell.cell_id.gci, cell.channel, cell.rat, config, city=cell.city
                )
            ]
        if obs_rng is None:
            config = self.lte_config(cell)
        else:
            config = self.observed_lte_config(cell, obs_rng, days_since_first=days_since_first)
        sibs: list[Message] = [
            Sib1(
                carrier=cell.carrier,
                gci=cell.cell_id.gci,
                pci=cell.pci,
                channel=cell.channel,
                rat=cell.rat.value,
                q_rx_lev_min=config.serving.q_rx_lev_min,
                city=cell.city,
            ),
            Sib3(config=config.serving),
            Sib4(config=config.intra_neighbors),
        ]
        if config.inter_freq_layers:
            sibs.append(Sib5(layers=config.inter_freq_layers))
        if config.utra_layers:
            sibs.append(Sib6(layers=config.utra_layers))
        if config.geran_layers:
            sibs.append(Sib7(layers=config.geran_layers))
        if config.cdma_layers:
            sibs.append(Sib8(layers=config.cdma_layers))
        return sibs

    def connection_reconfiguration(
        self, cell: Cell, obs_rng: np.random.Generator | None = None
    ) -> RrcConnectionReconfiguration:
        """The measConfig message a UE connecting to ``cell`` receives.

        With ``obs_rng`` given, one observation of it, churned from the
        cell's cached base message.
        """
        profile = profile_for_carrier(cell.carrier, seed=self.seed)
        message = self._reconfig_cache.get(cell.cell_id)
        if message is None:
            # A cached base configuration already holds the base measConfig.
            base = self._base_configs.get(cell.cell_id)
            meas = base.measurement if base is not None else profile.measurement_config(cell)
            message = RrcConnectionReconfiguration(meas_config=meas)
            self._reconfig_cache[cell.cell_id] = message
        if obs_rng is None:
            return message
        observed = profile.observed_measurement(cell, message.meas_config, obs_rng)
        return RrcConnectionReconfiguration(meas_config=observed)
