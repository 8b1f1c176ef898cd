"""Property tests: a built-table ``_draw`` through the block reader is
``Generator.choice``.

Every configuration value a profile generates is a ``_draw`` from a
{value: weight} table built once (``_table``), on a per-cell stream read
16 doubles at a time (``_DoubleReader``).  The draw must return the
value ``values[rng.choice(n, p=weights)]`` returns on a fresh generator,
and the stream must stay where successive ``Generator.random()`` calls
would leave it, or every dataset, lint report and digest downstream
shifts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.profiles import _DoubleReader, _draw, _table

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
    tables=st.lists(_tables, min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**63),
    data=st.data(),
)
def test_draw_matches_generator_choice(tables, seed, data):
    """1-80 draws from the tables, interleaved with raw ``random()``
    reads (``None``), cross the reader's block boundaries; each returns
    what ``choice`` or ``random()`` returns on a fresh generator."""
    ops = data.draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=len(tables) - 1)),
            min_size=1,
            max_size=80,
        ).filter(lambda ops: any(op is not None for op in ops))
    )
    built = [_table(table) for table in tables]
    reader = _DoubleReader(np.random.default_rng(seed))
    ref = np.random.default_rng(seed)
    for op in ops:
        if op is None:
            assert reader.random() == ref.random()
        else:
            assert _draw(reader, built[op]) is _reference(ref, tables[op])
    # The stream sits where the reference left it.
    assert reader.random() == ref.random()


def test_draw_keeps_key_types_apart():
    """``{1: w}`` and ``{1.0: w}`` share a CDF, never a value."""
    rng = _DoubleReader(np.random.default_rng(0))
    assert type(_draw(rng, _table({1: 3, 2: 1}))) is int
    assert type(_draw(rng, _table({1.0: 3, 2.0: 1}))) is float


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
    """A table ``choice`` would reject raises its ``ValueError`` when it
    is built, before any draw."""
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            _reference(rng, table)
        with pytest.raises(ValueError):
            _table(table)
    assert rng.bit_generator.state == state


def test_reader_offers_uniform_doubles_only():
    """Any draw but ``random()`` fails on a reader instead of reading
    the stream some other way."""
    reader = _DoubleReader(np.random.default_rng(3))
    for name in ("integers", "choice", "normal", "uniform", "bit_generator"):
        with pytest.raises(AttributeError):
            getattr(reader, name)
