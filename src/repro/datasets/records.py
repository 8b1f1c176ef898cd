"""Dataset record types.

``ConfigSample`` is D2's unit ("we treat each parameter observed as one
sample", Section 5): one parameter value observed at one cell at one
time.  ``HandoffInstance`` is D1's unit: one handoff with its decisive
context and the performance series around it.

Both are slotted: builds hold them by the hundred thousand, and none
needs a per-instance ``__dict__``.  They still pickle, which the
pipelines rely on to ship them between processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

#: The encoder ``json.dumps(obj, separators=(",", ":"))`` builds on every
#: call, built once: the row encoders below produce the same bytes.
_encode = json.JSONEncoder(separators=(",", ":")).encode
#: Decodes one JSONL line.  ``parse_constant=float`` gives every ``NaN``
#: and ``Infinity`` token its own float object: ``json.loads`` returns
#: one module-wide NaN, which equals itself by identity, so containers
#: holding it would merge NaNs that a built store keeps apart.
_decode = json.JSONDecoder(parse_constant=float).decode


@dataclass(frozen=True, slots=True)
class ConfigSample:
    """One observed configuration parameter value at one cell.

    Attributes:
        carrier: Carrier acronym.
        gci: Global cell identity within the carrier.
        rat: RAT name ("LTE", "UMTS", ...).
        channel: The cell's channel number.
        city: City where the observation was made.
        parameter: Registry parameter name.
        value: Observed value (scalar, or list for list parameters).
        observed_day: Collection day (days since the study epoch).
        round_index: Which collection round/session produced it.
    """

    carrier: str
    gci: int
    rat: str
    channel: int
    city: str
    parameter: str
    value: object
    observed_day: float = 0.0
    round_index: int = 0

    def to_json(self) -> str:
        # The fields in field order: the same dict the generic
        # dataclass-to-dict conversion builds, without its deepcopy of
        # every value.
        return _encode({name: getattr(self, name) for name in _SAMPLE_KEYS})

    @classmethod
    def from_json(cls, line: str) -> "ConfigSample":
        """Parse one JSONL line; ``sample_fields`` states its rules."""
        return cls(*sample_fields(line))

    @property
    def value_key(self) -> object:
        """Hashable form of the value (lists become tuples)."""
        if isinstance(self.value, list):
            return tuple(self.value)
        return self.value


#: ``ConfigSample``'s keys in field order: the one key sequence a JSONL
#: line may have.
_SAMPLE_KEYS = tuple(f.name for f in fields(ConfigSample))
#: The fields whose type a line must match exactly (``type(x) is t``, so
#: a bool is no int): the types ``to_json`` writes for them.
_FIELD_TYPES = {
    "carrier": str, "gci": int, "rat": str, "channel": int, "city": str,
    "parameter": str, "round_index": int,
}


def _tuples(items: list) -> tuple:
    """A decoded JSON array as a tuple, nested arrays included."""
    return tuple(_tuples(item) if type(item) is list else item for item in items)


def sample_fields(line: str) -> tuple:
    """The ``ConfigSample`` field values of one JSONL line.

    The line must be one JSON object with exactly ``ConfigSample``'s
    keys, in field order, holding strings for carrier, rat, city and
    parameter and non-bool ints for gci, channel and round_index;
    anything else raises ``ValueError``.  A list value becomes a tuple,
    nested lists included, so a saved tuple reloads equal and hashable.
    """
    data = _decode(line)
    if type(data) is not dict or tuple(data) != _SAMPLE_KEYS:
        got = list(data) if type(data) is dict else type(data).__name__
        raise ValueError(f"expected an object with keys {list(_SAMPLE_KEYS)}, got {got}")
    carrier, gci, rat, channel, city, parameter, value, day, round_index = data.values()
    if not (
        type(carrier) is str and type(rat) is str and type(city) is str
        and type(parameter) is str and type(gci) is int and type(channel) is int
        and type(round_index) is int
    ):
        for name, kind in _FIELD_TYPES.items():
            if type(data[name]) is not kind:
                raise ValueError(
                    f"{name} must be {kind.__name__}, got {data[name]!r}"
                )
    if type(value) is list:
        value = _tuples(value)
    return carrier, gci, rat, channel, city, parameter, value, day, round_index


@dataclass(frozen=True, slots=True)
class HandoffInstance:
    """One handoff instance in D1, as extracted from a device trace.

    Attributes:
        kind: "active" or "idle".
        carrier: Carrier acronym.
        time_ms: Trace-relative handoff execution time.
        source_gci / target_gci: Cell identities.
        source_channel / target_channel: Channel numbers.
        intra_freq: Same-RAT same-channel handoff.
        decisive_event: Last reporting event before the handover command
            (active only): "A1".."A5", "P".
        decisive_metric: Trigger quantity of the decisive event.
        decisive_config: Main parameters of the decisive event config,
            e.g. {"offset": 3.0, "hysteresis": 1.0} for A3.
        priority_class: higher/equal/lower (idle only).
        rsrp_before / rsrp_after: Serving RSRP just before the handoff
            and just after (new serving), from PHY measurement records.
        rsrq_before / rsrq_after: Same for RSRQ.
        min_throughput_before_bps: Minimum 1 s throughput in the window
            before the handoff (active drives with traffic; None
            otherwise) — the paper's Fig. 8 metric.
        report_to_handover_ms: Latency from the decisive measurement
            report to the handover command (active only).
    """

    kind: str
    carrier: str
    time_ms: int
    source_gci: int
    target_gci: int
    source_channel: int
    target_channel: int
    intra_freq: bool
    decisive_event: str | None = None
    decisive_metric: str | None = None
    decisive_config: dict = field(default_factory=dict)
    priority_class: str | None = None
    rsrp_before: float | None = None
    rsrp_after: float | None = None
    rsrq_before: float | None = None
    rsrq_after: float | None = None
    min_throughput_before_bps: float | None = None
    report_to_handover_ms: int | None = None

    @property
    def delta_rsrp(self) -> float | None:
        """RSRP change across the handoff (Fig. 6/10's delta)."""
        if self.rsrp_before is None or self.rsrp_after is None:
            return None
        return self.rsrp_after - self.rsrp_before

    def to_json(self) -> str:
        return _encode({name: getattr(self, name) for name in _INSTANCE_KEYS})

    @classmethod
    def from_json(cls, line: str) -> "HandoffInstance":
        """Parse one JSONL line.

        The line must be one JSON object with exactly
        ``HandoffInstance``'s keys, in field order, each holding a type
        ``to_json`` writes for its field (``_INSTANCE_TYPES``); anything
        else raises ``ValueError``.
        """
        data = _decode(line)
        if type(data) is not dict or tuple(data) != _INSTANCE_KEYS:
            got = list(data) if type(data) is dict else type(data).__name__
            raise ValueError(f"expected an object with keys {list(_INSTANCE_KEYS)}, got {got}")
        values = tuple(data.values())
        for name, kinds, value in zip(_INSTANCE_KEYS, _INSTANCE_TYPES, values):
            if type(value) not in kinds:
                names = " or ".join(kind.__name__ for kind in kinds)
                raise ValueError(f"{name} must be {names}, got {value!r}")
        return cls(*values)


#: ``HandoffInstance``'s keys in field order: the one key sequence a D1
#: line may have.
_INSTANCE_KEYS = tuple(f.name for f in fields(HandoffInstance))
#: The exact JSON types (so a bool is no int) a line may hold for a field
#: of each annotation: the types ``to_json`` writes for it.  A float field
#: may hold an int, which it writes as one.
_ANNOTATION_TYPES: dict[str, tuple[type, ...]] = {
    "str": (str,),
    "int": (int,),
    "bool": (bool,),
    "dict": (dict,),
    "str | None": (str, type(None)),
    "int | None": (int, type(None)),
    "float | None": (int, float, type(None)),
}
_INSTANCE_TYPES = tuple(_ANNOTATION_TYPES[f.type] for f in fields(HandoffInstance))
