"""Versioned configuration snapshots: the unit the drift analyzer diffs.

The paper's longitudinal findings (Section 5.3, Fig. 22) are about how
carrier configurations *evolve* — parameters retuned over months, RAT
layers retired, measurement profiles migrated.  A single audit cannot
see any of that; a :class:`ConfigSnapshot` freezes one crawled (or
deployed) population to disk so two captures can be compared
semantically by :mod:`repro.lint.diff`.

Design points:

* **Content-digested per cell** — every member cell carries the same
  sha256 digest the PR 4 graph verifier caches on
  (:func:`repro.lint.graph.snapshot_digest`), so "this cell changed"
  means exactly the same thing to the differ and to the incremental
  re-verification pass.
* **Versioned file format** — a ``version`` field is checked on load,
  like :class:`repro.lint.baseline.Baseline` files.
* **Atomic saves** — temp file in the target directory + ``os.replace``
  (the :mod:`repro.datasets.store` discipline): a crashed capture never
  leaves a torn snapshot behind.
* **Typed codec, not pickles** — configurations are recursively encoded
  from their frozen dataclasses into tagged JSON and rebuilt through
  the dataclass constructors (re-running their validation) on load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.config.events import EventConfig, EventType, PeriodicConfig
from repro.config.legacy import (
    Cdma1xCellConfig,
    EvdoCellConfig,
    GsmCellConfig,
    UmtsCellConfig,
)
from repro.config.lte import (
    InterFreqLayerConfig,
    InterRatCdmaConfig,
    InterRatGeranConfig,
    InterRatUtraConfig,
    IntraFreqNeighborConfig,
    LteCellConfig,
    MeasurementConfig,
    ServingCellConfig,
)
from repro.core.crawler import CellConfigSnapshot
from repro.lint.graph import snapshot_digest
from repro.lint.jsontext import write_json

if TYPE_CHECKING:
    from repro.cellnet.world import RadioEnvironment
    from repro.rrc.broadcast import ConfigServer

SNAPSHOT_VERSION = 1
SNAPSHOT_TOOL = "repro.lint"

#: Every dataclass the codec may encounter inside a cell snapshot,
#: keyed by class name (the ``__type__`` tag in the file).
_CONFIG_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        CellConfigSnapshot,
        LteCellConfig,
        ServingCellConfig,
        IntraFreqNeighborConfig,
        InterFreqLayerConfig,
        InterRatUtraConfig,
        InterRatGeranConfig,
        InterRatCdmaConfig,
        MeasurementConfig,
        EventConfig,
        PeriodicConfig,
        UmtsCellConfig,
        GsmCellConfig,
        EvdoCellConfig,
        Cdma1xCellConfig,
    )
}


#: Each registered class's encoded field names, in field order.  Fields
#: declared ``repr=False`` (the crawler's transient SIB buffer) are not
#: part of a configuration and are left out.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if f.repr)
    for cls in _CONFIG_TYPES.values()
}


def encode_value(value: object) -> object:
    """Recursively encode a config value into tagged, JSON-safe data.

    Dataclasses become ``{"__type__": name, ...fields...}`` (fields with
    ``repr=False`` — the crawler's transient SIB buffer — are dropped),
    enums become ``{"__enum__": ..., "value": ...}``, tuples are tagged
    so decode can restore them (config sequence fields are tuples).

    A dataclass is encodable only if its exact class is registered in
    ``_CONFIG_TYPES``; its fields come from a name table built once per
    class, not from ``dataclasses.fields`` per node.
    """
    kind = type(value)
    if kind is int or kind is float or kind is str or kind is bool or value is None:
        return value
    names = _FIELD_NAMES.get(kind)
    if names is not None:
        payload: dict[str, object] = {"__type__": kind.__name__}
        for name in names:
            payload[name] = encode_value(getattr(value, name))
        return payload
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if is_dataclass(value) and not isinstance(value, type):
        raise TypeError(f"unregistered config type {kind.__name__}")
    if isinstance(value, EventType):
        return {"__enum__": "EventType", "value": value.value}
    if isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {kind.__name__} value {value!r}")


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value` (constructors re-validate)."""
    if isinstance(value, dict):
        if "__enum__" in value:
            return EventType(value["value"])
        if "__tuple__" in value:
            raw = value["__tuple__"]
            assert isinstance(raw, list)
            return tuple(decode_value(v) for v in raw)
        tag = value.get("__type__")
        if tag is not None:
            cls = _CONFIG_TYPES.get(str(tag))
            if cls is None:
                raise ValueError(f"unknown config type tag {tag!r}")
            kwargs = {
                str(k): decode_value(v) for k, v in value.items() if k != "__type__"
            }
            return cls(**kwargs)
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


@dataclass(frozen=True)
class ConfigSnapshot:
    """One captured configuration state of a fleet, ready to diff.

    Attributes:
        label: Human-readable capture label (e.g. ``"round-003"``).
        captured_day: Observation day of the capture (timeline axis for
            the longitudinal drift rules).
        cells: Member cell snapshots in canonical (carrier, gci,
            channel) order.
    """

    label: str
    captured_day: float
    cells: tuple[CellConfigSnapshot, ...]

    @classmethod
    def capture(
        cls,
        snapshots: Sequence[CellConfigSnapshot],
        label: str,
        captured_day: float = 0.0,
    ) -> "ConfigSnapshot":
        """Freeze an audit population into a snapshot (canonical order)."""
        ordered = sorted(snapshots, key=lambda s: (s.carrier, s.gci, s.channel))
        return cls(label=label, captured_day=captured_day, cells=tuple(ordered))

    @classmethod
    def capture_world(
        cls,
        env: "RadioEnvironment",
        server: "ConfigServer",
        label: str,
        carriers: tuple[str, ...] | None = None,
        max_cells_per_carrier: int = 0,
        captured_day: float = 0.0,
    ) -> "ConfigSnapshot":
        """Capture a deployed world straight from its config server."""
        from repro.lint.engine import world_snapshots

        return cls.capture(
            world_snapshots(
                env, server, carriers=carriers,
                max_cells_per_carrier=max_cells_per_carrier,
            ),
            label=label,
            captured_day=captured_day,
        )

    @cached_property
    def digests(self) -> tuple[str, ...]:
        """Each member cell's :func:`snapshot_digest`, in cell order.

        Hashed once per capture: a drift audit hands these to the graph
        pass and to the cell differ.
        """
        return tuple(snapshot_digest(c) for c in self.cells)

    def cell_digests(self) -> dict[tuple[str, int], str]:
        """Per-cell content digests, keyed by (carrier, gci).

        The same digests the graph verifier's component cache is keyed
        on — the differ's fast path for unchanged cells.
        """
        return {(c.carrier, c.gci): d for c, d in zip(self.cells, self.digests)}

    @property
    def fleet_digest(self) -> str:
        """Digest over every member cell digest (order-independent)."""
        joined = "\n".join(
            digest for _, digest in sorted(self.cell_digests().items())
        )
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.cells)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the snapshot atomically (temp file + ``os.replace``)."""
        payload = {
            "version": SNAPSHOT_VERSION,
            "tool": SNAPSHOT_TOOL,
            "label": self.label,
            "captured_day": self.captured_day,
            "fleet_digest": self.fleet_digest,
            "cells": [encode_value(cell) for cell in self.cells],
        }
        write_json(path, payload)

    @classmethod
    def load(cls, path: str | Path) -> "ConfigSnapshot":
        """Read a snapshot file, validating its version."""
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported snapshot version {payload.get('version')!r} "
                f"in {path} (expected {SNAPSHOT_VERSION})"
            )
        cells = []
        for raw in payload.get("cells", []):
            cell = decode_value(raw)
            assert isinstance(cell, CellConfigSnapshot)
            cells.append(cell)
        return cls.capture(
            cells,
            label=str(payload.get("label", "")),
            captured_day=float(payload.get("captured_day", 0.0)),
        )
