"""Value domains and quantization for configuration parameters.

3GPP encodes most radio thresholds as small integers over fixed grids
(e.g. RSRP thresholds in 1 dB steps, hysteresis in 0.5 dB steps,
time-to-trigger from a 16-value enumeration).  Encoding the grids here
keeps the synthetic configuration populations on the same lattice as
real networks — which matters for the diversity analyses, where the
number of *distinct* values is itself a measurand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Allowed time-to-trigger values in milliseconds (TS 36.331
#: TimeToTrigger).  The paper observes the [40, 1280] sub-range for
#: T_reportTrigger (Fig. 14).
TIME_TO_TRIGGER_MS = (
    0, 40, 64, 80, 100, 128, 160, 256, 320, 480, 512, 640, 1024, 1280, 2560, 5120,
)

#: Allowed report-interval values in milliseconds (TS 36.331
#: ReportInterval, subset used for handoff-relevant reporting).
REPORT_INTERVAL_MS = (120, 240, 480, 640, 1024, 2048, 5120, 10240)

#: Allowed report amounts (number of periodic reports; -1 = infinity).
REPORT_AMOUNT = (1, 2, 4, 8, 16, 32, 64, -1)

#: Allowed hysteresis values in dB (0..30 in 0.5 dB steps).
HYSTERESIS_STEP_DB = 0.5

#: Cell reselection priority range (0..7, 7 most preferred).
PRIORITY_RANGE = (0, 7)

#: q-offset / a3-offset range in dB (-30..30 in 0.5 dB steps).
OFFSET_RANGE_DB = (-30.0, 30.0)

#: Treselection range in seconds (0..7, 1 s steps).
T_RESELECTION_RANGE_S = (0, 7)


def quantize_half_db(value: float) -> float:
    """Snap a dB value to the 0.5 dB grid used by hysteresis/offsets."""
    return round(value * 2.0) / 2.0


def nearest_time_to_trigger(value_ms: float) -> int:
    """The allowed TimeToTrigger value closest to ``value_ms``."""
    return min(TIME_TO_TRIGGER_MS, key=lambda v: abs(v - value_ms))


#: Cap on each domain's memo of membership answers.  An audit of the
#: full D2 world meets a few dozen distinct values per domain; past the
#: cap a domain answers new values without storing them.
DOMAIN_MEMO_CAP = 1024


@dataclass(frozen=True)
class Domain:
    """Value domain of one configuration parameter.

    Attributes:
        kind: "int", "float", "enum" or "list".
        low: Inclusive lower bound (numeric kinds).
        high: Inclusive upper bound (numeric kinds).
        step: Grid step for numeric kinds (None = continuous).
        choices: Allowed values for "enum".

    Each domain memoizes its :meth:`contains` answers, up to
    :data:`DOMAIN_MEMO_CAP` of them, for ints, bools, strings and floats
    other than NaN.  The key is the value's exact type and the value, a
    float zero also its sign, so ``True``, ``1`` and ``1.0`` or ``0.0``
    and ``-0.0`` never share an answer.  Any other value (a list, a NaN)
    is evaluated on every call.
    """

    kind: str
    low: float | None = None
    high: float | None = None
    step: float | None = None
    choices: tuple | None = None
    _memo: dict[tuple, bool] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def contains(self, value) -> bool:
        """Whether ``value`` is a member of this domain."""
        kind = type(value)
        if kind is float:
            if value != value:
                return self._evaluate(value)
            key: tuple = (kind, value) if value else (kind, value, math.copysign(1.0, value))
        elif kind is int or kind is str or kind is bool:
            key = (kind, value)
        else:
            return self._evaluate(value)
        memo = self._memo
        found = memo.get(key)
        if found is None:
            found = self._evaluate(value)
            if len(memo) < DOMAIN_MEMO_CAP:
                memo[key] = found
        return found

    def _evaluate(self, value) -> bool:
        """The membership test :meth:`contains` memoizes."""
        if self.kind == "enum":
            return self.choices is not None and value in self.choices
        if self.kind == "list":
            return isinstance(value, (list, tuple))
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        if self.step:
            offset = (value - (self.low or 0.0)) / self.step
            if abs(offset - round(offset)) > 1e-6:
                return False
        return True


# Shared domains for the registry.
DBM_THRESHOLD = Domain("int", low=-140, high=-44, step=1)
#: Event thresholds configurable in either trigger quantity: RSRP
#: (-140..-44 dBm) or RSRQ (-19.5..-3 dB) share one encoded field.
METRIC_THRESHOLD = Domain("float", low=-140, high=-3, step=0.5)
DB_QUALITY_THRESHOLD = Domain("float", low=-19.5, high=-3.0, step=0.5)
RELATIVE_DB = Domain("float", low=0, high=62, step=2)
#: UMTS event 1a/1b reporting range (TS 25.331): 0-14.5 dB, 0.5 dB steps
#: -- finer than the even-step S-criterion thresholds above.
REPORTING_RANGE_DB = Domain("float", low=0, high=14.5, step=0.5)
OFFSET_DB = Domain("float", low=-30, high=30, step=0.5)
HYSTERESIS_DB = Domain("float", low=0, high=15, step=0.5)
PRIORITY = Domain("int", low=0, high=7, step=1)
T_RESELECTION_S = Domain("int", low=0, high=7, step=1)
TTT_MS = Domain("enum", choices=TIME_TO_TRIGGER_MS)
REPORT_INTERVAL = Domain("enum", choices=REPORT_INTERVAL_MS)
REPORT_AMOUNT_DOMAIN = Domain("enum", choices=REPORT_AMOUNT)
CHANNEL_NUMBER = Domain("int", low=0, high=70000, step=1)
POWER_DBM = Domain("int", low=-30, high=33, step=1)
BANDWIDTH_PRB = Domain("enum", choices=(6, 15, 25, 50, 75, 100))
CELL_LIST = Domain("list")
