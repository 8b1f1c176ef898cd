"""Property tests: the cached-CDF ``_draw`` is ``Generator.choice``.

Every configuration value a profile generates is a ``_draw`` from a
{value: weight} table.  The draw must return the value
``values[rng.choice(n, p=weights)]`` returns and leave the generator in
the same state, or every dataset, lint report and digest downstream
shifts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.profiles import _draw

_keys = st.one_of(
    st.integers(min_value=-200, max_value=200),
    st.floats(min_value=-150.0, max_value=150.0, allow_nan=False),
    st.text(max_size=3),
)
_weights = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.just(0),
    st.just(0.0),
)
_tables = st.dictionaries(_keys, _weights, min_size=1, max_size=12).filter(
    lambda table: math.fsum(float(w) for w in table.values()) > 0.0
)


def _reference(rng: np.random.Generator, table: dict) -> object:
    """The draw as ``Generator.choice`` makes it."""
    values = list(table)
    weights = np.array([table[v] for v in values], dtype=float)
    weights /= weights.sum()
    return values[int(rng.choice(len(values), p=weights))]


@settings(max_examples=300, deadline=None)
@given(
    table=_tables,
    seed=st.integers(min_value=0, max_value=2**63),
    draws=st.integers(min_value=1, max_value=8),
)
def test_draw_matches_generator_choice(table, seed, draws):
    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    for _ in range(draws):
        got = _draw(rng, table)
        want = _reference(ref, table)
        assert got is want
        assert rng.bit_generator.state == ref.bit_generator.state


def test_draw_keeps_key_types_apart():
    """``{1: w}`` and ``{1.0: w}`` share a CDF, never a value."""
    rng = np.random.default_rng(0)
    assert type(_draw(rng, {1: 3, 2: 1})) is int
    assert type(_draw(rng, {1.0: 3, 2.0: 1})) is float


@pytest.mark.parametrize(
    "table",
    [
        {1.0: 2.0, 2.0: -1.0},
        {1.0: float("nan"), 2.0: 1.0},
        {1.0: 0, 2.0: 0.0},
        {},
    ],
    ids=["negative", "nan", "all-zero", "empty"],
)
def test_draw_rejects_what_choice_rejects(table):
    for draw in (_reference, _draw):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            draw(rng, table)
        assert rng.bit_generator.state == state
