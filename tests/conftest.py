"""Shared fixtures: one small world and tiny dataset builds per session.

The simulation-backed fixtures are deliberately small (Lafayette, few
drives/volunteers): unit tests check mechanisms, not statistics; the
statistical shape checks live in the integration tests and use slightly
larger builds.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cellnet.world import RadioEnvironment
from repro.datasets.d1 import D1Options, build_d1
from repro.datasets.d2 import D2Options, build_d2
from repro.rrc.broadcast import ConfigServer
from repro.simulate.scenarios import drive_scenario


@pytest.fixture(scope="session")
def scenario():
    """A small Type-II world (Lafayette: fewest cells of the paper's cities)."""
    return drive_scenario("lafayette", seed=7, config_seed=2018)


@pytest.fixture(scope="session")
def env(scenario) -> RadioEnvironment:
    return scenario.env


@pytest.fixture(scope="session")
def server(scenario) -> ConfigServer:
    return scenario.server


@pytest.fixture(scope="session")
def lte_cell(scenario):
    """One AT&T LTE cell of the session world."""
    from repro.cellnet.rat import RAT

    return next(c for c in scenario.plan.registry.by_carrier("A") if c.rat is RAT.LTE)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_d1():
    """A small D1 build shared by dataset/analysis tests."""
    return build_d1(
        D1Options(
            active_drives=2,
            idle_drives=2,
            drive_duration_s=360.0,
            carriers=("A", "T"),
            scenario="lafayette",
            highway_drives=0,
        )
    )


@pytest.fixture(scope="session")
def tiny_d2():
    """A small D2 build shared by dataset/analysis tests."""
    return build_d2(D2Options(n_volunteers=5, include_dense=True))


@pytest.fixture(scope="session")
def run_cold():
    """Run a code string in a fresh interpreter and return its stdout.

    The interpreter starts with no warm caches: no process-cached
    scenario, no prepared-cell LRU.
    """
    src = str(Path(repro.__file__).resolve().parents[1])

    def run(code: str, *args: str) -> str:
        return subprocess.run(
            [sys.executable, "-W", "ignore", "-c", code, *args],
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
        ).stdout

    return run
