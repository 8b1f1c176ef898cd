"""MMLab's on-device trace collector.

Plays MobileInsight's role in the paper's architecture (Fig. 4): it sits
on the device, sees every signaling message the modem exchanges, and
appends them to a binary diag log.  Two collection modes mirror the
paper's measurement types:

* **Type-I** (configuration collection only): logs system information
  and RRC configuration messages — cheap, what volunteers run.
* **Type-II** (performance assessment): logs everything, including
  measurement reports and PHY measurement records, so handoff instances
  can be extracted and aligned with traffic logs.
"""

from __future__ import annotations

import io

from repro.rrc.diag import DiagWriter
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

#: Messages a Type-I collector keeps: configuration carriers only.
_TYPE1_MESSAGES = (
    Sib1, Sib3, Sib4, Sib5, Sib6, Sib7, Sib8,
    LegacySystemInfo, RrcConnectionReconfiguration,
)


class MMLabCollector:
    """Collects a device's signaling into a diag log.

    Use as a UE listener::

        collector = MMLabCollector(mode="type2")
        ue.add_listener(collector)
        ...
        log_bytes = collector.log_bytes()

    Args:
        mode: "type1" (configuration only) or "type2" (everything).
    """

    def __init__(self, mode: str = "type2"):
        if mode not in ("type1", "type2"):
            raise ValueError(f"unknown collection mode {mode!r}")
        self.mode = mode
        self._writer = DiagWriter(io.BytesIO())
        self.messages_seen = 0
        self.messages_logged = 0

    def __call__(self, now_ms: int, message: Message, direction: str) -> None:
        """Listener entry point: maybe log one message."""
        self.messages_seen += 1
        if self.mode == "type1" and not isinstance(message, _TYPE1_MESSAGES):
            return
        if self.mode == "type1" and isinstance(message, RrcConnectionReconfiguration):
            # Type-I keeps the measConfig (it is configuration) but the
            # handover command adds nothing configuration-wise.
            if message.meas_config is None:
                return
        self._writer.write(now_ms, message)
        self.messages_logged += 1

    def log_bytes(self) -> bytes:
        """The diag log collected so far."""
        return self._writer.getvalue()

    def save(self, path) -> None:
        """Write the diag log to a file."""
        with open(path, "wb") as f:
            f.write(self.log_bytes())
