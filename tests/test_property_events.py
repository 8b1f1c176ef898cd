"""Property-based tests for event semantics and reselection invariants."""

import numpy as np
from hypothesis import given, strategies as st

from repro.config.events import (
    METRIC_AXIS,
    EventColumns,
    EventConfig,
    EventTable,
    EventType,
    entry_mask,
    evaluate_entry,
    evaluate_leave,
)
from repro.config.lte import MeasurementConfig
from repro.core.analysis.diversity import simpson_index

_rsrp = st.floats(min_value=-140.0, max_value=-44.0)
_hys = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
_offset = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0, 5.0, 12.0])


@given(serving=_rsrp, neighbor=_rsrp, offset=_offset, hysteresis=_hys)
def test_entry_and_leave_never_both_true(serving, neighbor, offset, hysteresis):
    """An event cannot simultaneously satisfy entry and leave (A3)."""
    config = EventConfig(event=EventType.A3, offset=offset, hysteresis=hysteresis)
    entry = evaluate_entry(config, serving, neighbor)
    leave = evaluate_leave(config, serving, neighbor)
    assert not (entry and leave)


@given(serving=_rsrp, neighbor=_rsrp,
       t1=_rsrp, t2=_rsrp, hysteresis=_hys)
def test_a5_entry_leave_exclusive(serving, neighbor, t1, t2, hysteresis):
    config = EventConfig(event=EventType.A5, threshold1=t1, threshold2=t2,
                         hysteresis=hysteresis)
    assert not (
        evaluate_entry(config, serving, neighbor)
        and evaluate_leave(config, serving, neighbor)
    )


@given(serving=_rsrp, threshold=_rsrp, hysteresis=_hys)
def test_a1_a2_mutually_consistent(serving, threshold, hysteresis):
    """A1 (better than) and A2 (worse than) with the same threshold can
    never both hold at once."""
    a1 = EventConfig(event=EventType.A1, threshold1=threshold, hysteresis=hysteresis)
    a2 = EventConfig(event=EventType.A2, threshold1=threshold, hysteresis=hysteresis)
    assert not (
        evaluate_entry(a1, serving, None) and evaluate_entry(a2, serving, None)
    )


@given(serving=_rsrp, neighbor=_rsrp, offset=_offset)
def test_a3_entry_monotone_in_neighbor(serving, neighbor, offset):
    """A stronger neighbor never un-triggers A3."""
    config = EventConfig(event=EventType.A3, offset=offset, hysteresis=1.0)
    if evaluate_entry(config, serving, neighbor):
        assert evaluate_entry(config, serving, neighbor + 1.0)


@given(serving=_rsrp, neighbor=_rsrp, offset=_offset, boost=st.floats(min_value=0.0, max_value=30.0))
def test_a3_entry_monotone_in_serving(serving, neighbor, offset, boost):
    """A stronger serving cell never newly triggers A3."""
    config = EventConfig(event=EventType.A3, offset=offset, hysteresis=1.0)
    if not evaluate_entry(config, serving, neighbor):
        assert not evaluate_entry(config, serving + boost, neighbor)


#: Half-dB grid values: sums and differences of them are exact doubles,
#: so draws land on the strict ``>``/``<`` boundaries often.
_grid = st.sampled_from([x / 2 for x in range(-202, -186)])
_value = st.one_of(_grid, _rsrp)
_ENTRY_EVENTS = [
    EventType.A1, EventType.A2, EventType.A3, EventType.A4,
    EventType.A5, EventType.A6, EventType.B1, EventType.B2,
]


@st.composite
def _members(draw):
    """One event type armed by m members, each with its own parameters."""
    event = draw(st.sampled_from(_ENTRY_EVENTS))
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5))
    configs = [
        EventConfig(
            event=event, threshold1=draw(_value), threshold2=draw(_value),
            offset=draw(st.one_of(_offset, st.sampled_from([-1.5, 0.5, 2.5]))),
            hysteresis=draw(_hys),
        )
        for _ in range(m)
    ]
    serving = np.array([draw(_value) for _ in range(m)])
    neighbors = np.array([[draw(_value) for _ in range(n)] for _ in range(m)])
    return event, configs, serving, neighbors


@given(_members())
def test_entry_mask_columns_match_scalar_and_evaluator(drawn):
    """Row k of the per-member-column call is member k's scalar call,
    and both equal :func:`evaluate_entry` element by element."""
    event, configs, serving, neighbors = drawn
    params = np.array(
        [[c.hysteresis, c.threshold1, c.threshold2, c.offset] for c in configs]
    )
    columns = entry_mask(EventColumns(event, *params.T[:, :, None]), serving[:, None], neighbors)
    for k, config in enumerate(configs):
        s = float(serving[k])
        scalar = np.atleast_1d(entry_mask(config, s, neighbors[k]))
        if event.needs_neighbor:
            expected = [evaluate_entry(config, s, float(v)) for v in neighbors[k]]
        else:
            expected = [evaluate_entry(config, s, None)]
        assert columns[k].tolist() == scalar.tolist() == expected


_event_config = st.builds(
    EventConfig,
    event=st.sampled_from(_ENTRY_EVENTS),
    metric=st.sampled_from(["rsrp", "rsrq"]),
    threshold1=_value,
    threshold2=_value,
    offset=st.one_of(_offset, st.sampled_from([-1.5, 0.5, 2.5])),
    hysteresis=_hys,
)
#: -44 leaves the gate open; the grid and -140 close it for many rows.
_s_measure = st.one_of(st.sampled_from([-44.0, -97.0, -140.0]), _grid)


@st.composite
def _event_rows(draw):
    """Rows of mixed measConfigs with their round's values and candidates."""
    n_rows = draw(st.integers(min_value=1, max_value=5))
    n_cells = draw(st.integers(min_value=0, max_value=5))
    configs = [
        MeasurementConfig(
            events=tuple(draw(st.lists(_event_config, max_size=4))),
            s_measure=draw(_s_measure),
        )
        for _ in range(n_rows)
    ]
    serving = np.array([[draw(_value) for _ in range(n_rows)] for _ in range(2)])
    values = np.array(
        [[[draw(_value) for _ in range(n_cells)] for _ in range(n_rows)] for _ in range(2)]
    ).reshape(2, n_rows, n_cells)
    candidates = np.array(
        [[[draw(st.booleans()) for _ in range(n_cells)] for _ in range(n_rows)] for _ in range(2)],
        dtype=bool,
    ).reshape(2, n_rows, n_cells)
    rearm = draw(st.lists(_event_config, max_size=4))
    return configs, serving, values, candidates, rearm


@given(_event_rows())
def test_event_table_entry_rows_match_per_candidate_masks(drawn):
    """A row has entered exactly when some armed event's per-candidate
    :func:`entry_mask` holds (a closed s-Measure gate leaving neighbor
    events no candidates), although the table only reads each row's
    candidate maximum."""
    configs, serving, values, candidates, rearm = drawn
    table = EventTable(len(configs))
    for row, config in enumerate(configs):
        # Arm something else first: re-arming must clear every old slot.
        table.set_row(row, MeasurementConfig(events=tuple(rearm)))
        table.set_row(row, config)
    entered, gate = table.entry_rows(serving, values, candidates)
    for row, config in enumerate(configs):
        open_ = serving[0, row] <= config.s_measure
        expected = False
        for event in config.events:
            metric = METRIC_AXIS[event.metric]
            s = float(serving[metric, row])
            if not event.event.needs_neighbor:
                expected |= bool(entry_mask(event, s, None))
                continue
            mask = candidates[int(event.event.is_inter_rat), row]
            neighbors = values[metric, row][mask] if open_ else np.zeros(0)
            expected |= bool(entry_mask(event, s, neighbors).any())
        assert gate[row] == open_
        assert entered[row] == expected


@given(values=st.lists(st.sampled_from([1, 2, 3, 4, 5]), max_size=200))
def test_simpson_index_bounds(values):
    index = simpson_index(values)
    assert 0.0 <= index < 1.0


@given(values=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=100))
def test_simpson_invariant_under_duplication(values):
    """Duplicating the whole population leaves Simpson unchanged."""
    assert simpson_index(values) == simpson_index(values * 2)


@given(values=st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=50))
def test_simpson_increases_with_new_unique_value(values):
    """Appending a never-seen value cannot reduce diversity."""
    extended = values + [999]
    assert simpson_index(extended) >= simpson_index(values) - 1e-9
