"""Tests for the carrier configuration profiles."""

from collections import Counter

import numpy as np
import pytest

from repro.cellnet.cell import Cell, CellId
from repro.cellnet.geo import Point
from repro.cellnet.rat import RAT
from repro.config.events import EventType
from repro.config.profiles import (
    CARRIER_STYLES,
    CarrierProfile,
    ConfigContext,
    profile_for_carrier,
)
from repro.config.validation import validate_config


def _cell(gci, carrier="A", channel=850, city="Indianapolis", rat=RAT.LTE):
    return Cell(
        cell_id=CellId(carrier, gci), rat=rat, channel=channel, pci=gci % 504,
        location=Point(gci * 37.0, gci * 11.0), city=city,
    )


CTX = ConfigContext(
    city="Indianapolis",
    lte_channels=(850, 1975, 5110, 9820),
    utra_channels=(4385,),
    geran_channels=(128,),
)


def test_profile_cached():
    assert profile_for_carrier("A") is profile_for_carrier("A")
    assert profile_for_carrier("A") is not profile_for_carrier("T")


def test_base_config_deterministic():
    profile = profile_for_carrier("A")
    cell = _cell(5)
    assert profile.lte_config(cell, CTX) == profile.lte_config(cell, CTX)


def test_generated_configs_validate():
    profile = profile_for_carrier("A")
    for gci in range(1, 30):
        config = profile.lte_config(_cell(gci), CTX)
        assert validate_config(config, RAT.LTE) == [], gci


def test_att_event_policy_mix():
    """Fig. 5: AT&T arms A3 on ~2/3 of cells, A5 on ~1/4."""
    profile = profile_for_carrier("A")
    policies = Counter()
    for gci in range(1, 500):
        meas = profile.measurement_config(_cell(gci))
        events = {e.event for e in meas.events}
        if EventType.A3 in events:
            policies["A3"] += 1
        elif EventType.A5 in events:
            policies["A5"] += 1
        elif meas.periodic is not None:
            policies["P"] += 1
        else:
            policies["other"] += 1
    total = sum(policies.values())
    assert 0.55 < policies["A3"] / total < 0.80
    assert 0.15 < policies["A5"] / total < 0.38


def test_att_a3_offsets_in_paper_range():
    """AT&T Delta_A3 in [0, 5] dB, dominated by 3 dB (Fig. 5a)."""
    profile = profile_for_carrier("A")
    offsets = []
    for gci in range(1, 400):
        meas = profile.measurement_config(_cell(gci))
        for event in meas.events:
            if event.event is EventType.A3:
                offsets.append(event.offset)
    assert offsets
    assert min(offsets) >= 0.0
    assert max(offsets) <= 5.0
    assert Counter(offsets).most_common(1)[0][0] == 3.0


def test_tmobile_a3_offsets_wider_and_may_be_negative():
    """T-Mobile Delta_A3 in [-1, 15] dB (Fig. 5b).

    T-Mobile configures per (city, channel), so diversity only appears
    across those keys; the style table itself carries the paper's range.
    """
    profile = profile_for_carrier("T")
    assert min(profile.style.a3_offsets) == -1.0
    assert max(profile.style.a3_offsets) == 15.0
    offsets = set()
    cities = ("Chicago", "LA", "Indianapolis", "Columbus", "Lafayette",
              "Springfield", "Gary", "Peoria", "Aurora", "Naperville")
    for city in cities:
        for channel in (5035, 5110, 66486, 66661, 1950, 675, 2000, 9820):
            meas = profile.measurement_config(
                _cell(1, carrier="T", channel=channel, city=city)
            )
            for event in meas.events:
                if event.event is EventType.A3:
                    offsets.add(event.offset)
    assert len(offsets) >= 4
    assert max(offsets) >= 6.0


def test_sk_telecom_single_valued():
    """SK Telecom: the paper's zero-diversity outlier (Fig. 15/17)."""
    profile = profile_for_carrier("SK")
    configs = {
        profile.lte_config(_cell(gci, carrier="SK", channel=1550, city="Seoul"),
                           ConfigContext(city="Seoul", lte_channels=(1550, 2600)))
        .serving
        for gci in range(1, 40)
    }
    assert len(configs) == 1


def test_grid_mode_carrier_identical_within_city_channel():
    """T-Mobile configures per (city, channel): zero proximity diversity."""
    profile = profile_for_carrier("T")
    ctx = ConfigContext(city="Chicago", lte_channels=(5035, 5110))
    a = profile.lte_config(_cell(1, carrier="T", channel=5035, city="Chicago"), ctx)
    b = profile.lte_config(_cell(999, carrier="T", channel=5035, city="Chicago"), ctx)
    assert a.serving == b.serving


def test_cell_mode_carrier_varies_per_cell():
    profile = profile_for_carrier("A")
    servings = {
        profile.lte_config(_cell(gci), CTX).serving for gci in range(1, 25)
    }
    assert len(servings) > 1


def test_band30_gets_top_priority():
    """Fig. 18: the 2300 MHz WCS channel is the most preferred."""
    profile = profile_for_carrier("A")
    rng = np.random.default_rng(0)
    p30 = profile.priority_for_channel(9820, "Indianapolis", rng)
    p12 = profile.priority_for_channel(5110, "Indianapolis", rng)
    assert p30 >= 4
    assert p12 <= 3


def test_priority_conflicts_are_rare_but_exist():
    profile = profile_for_carrier("A")
    values = set()
    for i in range(400):
        rng = np.random.default_rng(i)
        values.add(profile.priority_for_channel(9820, "Indianapolis", rng))
    assert len(values) == 2  # dominant value plus the rare conflict


def test_chicago_priorities_shifted_on_some_channels():
    """Fig. 20: C1 (Chicago) differs from other cities — via a subset
    of city-sensitive channels."""
    profile = profile_for_carrier("A")
    from repro.cellnet.carrier import carrier_by_acronym

    shifted = 0
    for channel in carrier_by_acronym("A").lte_channels:
        chicago = profile.priority_for_channel(channel, "Chicago",
                                               np.random.default_rng(1))
        indy = profile.priority_for_channel(channel, "Indianapolis",
                                            np.random.default_rng(1))
        if chicago != indy:
            shifted += 1
            assert chicago == indy + 1
    assert shifted > 0  # some channels are market-dependent...
    assert shifted < len(carrier_by_acronym("A").lte_channels)  # ...not all


def test_observed_config_active_churn():
    """Repeated observations sometimes carry a different measConfig."""
    profile = profile_for_carrier("A")
    cell = _cell(77)
    obs_rng = np.random.default_rng(5)
    base = profile.measurement_config(cell)
    seen_different = False
    for _ in range(60):
        observed = profile.measurement_config(cell, obs_rng=obs_rng)
        if observed.events != base.events or observed.periodic != base.periodic:
            seen_different = True
            break
    assert seen_different


def test_observed_idle_config_stable_within_epoch():
    profile = profile_for_carrier("A")
    cell = _cell(42)
    base = profile.lte_config(cell, CTX)
    rng = np.random.default_rng(3)
    a = profile.observed_lte_config(cell, base, rng, days_since_first=10.0)
    b = profile.observed_lte_config(cell, base, rng, days_since_first=60.0)
    assert a.serving == b.serving  # same 90-day epoch


def test_observed_config_across_idle_churn_epochs(server):
    """Observations built on the server's cached base equal a fresh
    profile's regeneration in every epoch, and the idle config changes
    only from the flip epoch on."""
    days = (0.0, 89.0, 90.0, 400.0)

    def observe(cell, day):
        return server.observed_lte_config(
            cell, np.random.default_rng(11), days_since_first=day
        )

    lte_cells = [c for c in server.env.registry.all_cells() if c.rat is RAT.LTE]
    # A cell whose idle config flips in epoch 1 (days 90-179).
    cell = next(c for c in lte_cells if observe(c, 89.0).serving != observe(c, 90.0).serving)
    fresh = CarrierProfile(cell.carrier, seed=server.seed)
    fresh_base = fresh.lte_config(cell, server.context_for(cell))
    observed = {day: observe(cell, day) for day in days}
    for day in days:
        assert observed[day] == fresh.observed_lte_config(
            cell, fresh_base, np.random.default_rng(11), days_since_first=day
        )
    base = server.lte_config(cell).serving
    assert observed[0.0].serving == observed[89.0].serving == base
    assert observed[90.0].serving != base
    assert observed[400.0].serving != base


def test_legacy_dispatch():
    profile = profile_for_carrier("A")
    umts = _cell(9, rat=RAT.UMTS, channel=4385)
    gsm = _cell(10, rat=RAT.GSM, channel=128)
    assert profile.legacy_config(umts).__class__.__name__ == "UmtsCellConfig"
    assert profile.legacy_config(gsm).__class__.__name__ == "GsmCellConfig"
    with pytest.raises(ValueError):
        profile.legacy_config(_cell(11))


def test_thresh_x_low_rides_above_serving_low():
    """Paper: Theta(c)_lower > Theta(s)_lower."""
    profile = profile_for_carrier("A")
    for gci in range(1, 40):
        config = profile.lte_config(_cell(gci), CTX)
        for layer in config.inter_freq_layers:
            assert layer.thresh_x_low_p > config.serving.thresh_serving_low_p


def test_styles_exist_for_named_carriers():
    for acronym in ("A", "T", "V", "S", "CM", "SK", "MO", "CH", "CW"):
        assert acronym in CARRIER_STYLES
