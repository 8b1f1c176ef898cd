"""Tests for the parameter registry (Table 2 / Table 4 counts)."""

import pytest

from repro.cellnet.rat import RAT
from repro.config.parameters import (
    REGISTRY,
    active_state_parameters,
    idle_state_parameters,
    parameter_count,
    parameters_for,
    spec_by_name,
)


def test_paper_parameter_counts():
    """Table 4: 66 LTE; 64+9+14+4 = 91 for the 3G/2G RATs."""
    assert parameter_count(RAT.LTE) == 66
    assert parameter_count(RAT.UMTS) == 64
    assert parameter_count(RAT.GSM) == 9
    assert parameter_count(RAT.EVDO) == 14
    assert parameter_count(RAT.CDMA1X) == 4
    legacy_total = sum(
        parameter_count(r) for r in (RAT.UMTS, RAT.GSM, RAT.EVDO, RAT.CDMA1X)
    )
    assert legacy_total == 91


def test_names_unique_per_rat():
    for rat, specs in REGISTRY.items():
        names = [s.name for s in specs]
        assert len(names) == len(set(names)), rat


def test_spec_by_name():
    spec = spec_by_name(RAT.LTE, "a3_offset")
    assert spec.message == "meas_config"
    assert "reporting" in spec.used_for
    assert spec.paper_symbol == "Delta_A3"


def test_spec_by_name_resolves_every_registered_spec():
    for rat, specs in REGISTRY.items():
        for spec in specs:
            assert spec_by_name(rat, spec.name) is spec


def test_spec_by_name_unknown_raises():
    with pytest.raises(KeyError, match="unknown LTE parameter 'nonexistent_parameter'"):
        spec_by_name(RAT.LTE, "nonexistent_parameter")


def test_idle_plus_active_partition():
    idle = idle_state_parameters(RAT.LTE)
    active = active_state_parameters(RAT.LTE)
    assert len(idle) + len(active) == 66
    assert not {s.name for s in idle} & {s.name for s in active}
    assert len(active) == 26  # 7 events + common reporting config


def test_every_spec_has_valid_category():
    for specs in REGISTRY.values():
        for spec in specs:
            assert spec.category in ("cell_priority", "radio_signal", "timer", "misc")


def test_every_spec_has_valid_used_for():
    allowed = {"measurement", "reporting", "decision", "calibration"}
    for specs in REGISTRY.values():
        for spec in specs:
            assert spec.used_for
            assert set(spec.used_for) <= allowed


def test_sib_messages_cover_table2():
    messages = {s.message for s in parameters_for(RAT.LTE)}
    for sib in ("SIB3", "SIB4", "SIB5", "SIB6", "SIB7", "SIB8", "meas_config"):
        assert sib in messages


def test_table2_symbols_present():
    symbols = {s.paper_symbol for s in parameters_for(RAT.LTE) if s.paper_symbol}
    for symbol in ("Ps", "Pc", "Hs", "Delta_A3", "Theta_A5_S", "Theta_A5_C",
                   "T_reselect", "List_forbid"):
        assert symbol in symbols


def test_priorities_appear_in_every_sib_layer():
    names = {s.name for s in parameters_for(RAT.LTE)}
    for name in (
        "cell_reselection_priority",
        "cell_reselection_priority_inter",
        "cell_reselection_priority_utra",
        "cell_reselection_priority_geran",
        "cell_reselection_priority_cdma",
    ):
        assert name in names
