"""Modem diag log format.

MMLab (via MobileInsight) reads signaling messages from the baseband's
diagnostic interface on rooted Android phones.  We reproduce the shape
of that interface as a binary record log: the simulated modem appends
records, the collector stores the file, and the crawler parses it back
— configurations are only ever learned *through this format*, never by
peeking at simulator objects.

Record layout (little-endian)::

    magic     2 bytes   0xD1A6
    length    4 bytes   payload byte count
    timestamp 8 bytes   milliseconds since the trace epoch
    checksum  2 bytes   sum of payload bytes mod 65536
    payload   N bytes   one encoded signaling message

A reader validates magic and checksum per record; corruption raises
:class:`DiagError` with the record index for debuggability.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator

from repro.rrc import messages as msg
from repro.rrc.codec import (
    PACK_DOUBLE,
    decode_message,
    encode_message,
    phy_serving_template,
)

_MAGIC = 0xD1A6
_HEADER = struct.Struct("<HIqH")
_HEADER_PACK = _HEADER.pack


class DiagError(ValueError):
    """Raised when a diag log is corrupt or truncated."""


@dataclass(frozen=True)
class DiagRecord:
    """One parsed diag record: when the modem saw which message."""

    timestamp_ms: int
    message: msg.Message


class DiagWriter:
    """Appends signaling messages to a binary diag log.

    Works over any binary stream; :meth:`in_memory` gives a writer
    backed by a fresh buffer, which the simulation uses per drive.
    """

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self.records_written = 0
        # Serving cell of the last PHY record and its template parts.
        self._phy_cell = None
        self._phy_parts: tuple = ()

    @classmethod
    def in_memory(cls) -> "DiagWriter":
        return cls(io.BytesIO())

    def write(self, timestamp_ms: int, message: msg.Message) -> None:
        """Append one record."""
        payload = encode_message(message)
        checksum = sum(payload) & 0xFFFF
        self._stream.write(_HEADER.pack(_MAGIC, len(payload), int(timestamp_ms), checksum))
        self._stream.write(payload)
        self.records_written += 1

    def write_phy_serving(
        self, timestamp_ms: int, cell, rsrp_dbm: float, rsrq_db: float
    ) -> None:
        """Append a connected UE's PhyServingMeas record for ``cell``.

        The bytes equal ``write(timestamp_ms, PhyServingMeas(...,
        sinr_db=0.0, rrc_connected=True))``.  They are spliced from the
        codec's template instead: serving measurements dominate a
        drive's diag stream, and only the two doubles change between
        records of one serving cell, whose template parts and checksum
        contribution are memoized.
        """
        if cell is not self._phy_cell:
            head, mid, tail = phy_serving_template(
                cell.carrier, cell.cell_id.gci, cell.channel, cell.rat.value, 0.0, True
            )
            self._phy_cell = cell
            self._phy_parts = (
                head, mid, tail, sum(head) + sum(mid) + sum(tail),
                len(head) + len(mid) + len(tail) + 16,
            )
        head, mid, tail, base_sum, length = self._phy_parts
        p1 = PACK_DOUBLE(rsrp_dbm)
        p2 = PACK_DOUBLE(rsrq_db)
        stream = self._stream
        stream.write(
            _HEADER_PACK(
                _MAGIC, length, timestamp_ms, (base_sum + sum(p1) + sum(p2)) & 0xFFFF
            )
        )
        stream.write(b"".join((head, p1, mid, p2, tail)))
        self.records_written += 1

    def getvalue(self) -> bytes:
        """The log bytes so far (in-memory writers only)."""
        if not isinstance(self._stream, io.BytesIO):
            raise TypeError("getvalue() requires an in-memory writer")
        return self._stream.getvalue()


class DiagReader:
    """Parses a binary diag log back into :class:`DiagRecord` items."""

    def __init__(self, data: bytes):
        self._data = data

    @classmethod
    def from_file(cls, path) -> "DiagReader":
        with open(path, "rb") as f:
            return cls(f.read())

    def __iter__(self) -> Iterator[DiagRecord]:
        data = self._data
        pos = 0
        index = 0
        while pos < len(data):
            if pos + _HEADER.size > len(data):
                raise DiagError(f"record {index}: truncated header at byte {pos}")
            magic, length, timestamp, checksum = _HEADER.unpack_from(data, pos)
            if magic != _MAGIC:
                raise DiagError(f"record {index}: bad magic {magic:#x} at byte {pos}")
            pos += _HEADER.size
            if pos + length > len(data):
                raise DiagError(f"record {index}: truncated payload")
            payload = data[pos : pos + length]
            pos += length
            if sum(payload) & 0xFFFF != checksum:
                raise DiagError(f"record {index}: checksum mismatch")
            message = decode_message(payload)
            yield DiagRecord(timestamp_ms=timestamp, message=message)
            index += 1

    def records(self) -> list[DiagRecord]:
        """All records as a list (convenience for small logs)."""
        return list(self)
