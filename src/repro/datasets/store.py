"""JSONL-backed dataset stores with the filters the analyses need.

The stores are deliberately simple append-and-scan containers: the
paper's analyses are all full-population statistics (distributions,
diversity indices, CDFs), so the useful operations are filtering and
grouping, not point lookup.  Four concessions to scale:

* ``ConfigSampleStore`` keeps one lazy index per filtered field
  (carrier, RAT, city, parameter), so the ``for_*`` filters and the
  per-parameter reads (``unique_values``, ``samples_per_cell``,
  ``parameters``) stop rescanning millions of rows on every call; every
  mutation drops all indexes, and each is rebuilt on demand.
* ``save`` writes atomically (``repro.util.atomic_write``: temp file +
  ``os.replace``) so a crashed build never leaves a torn JSONL behind.
* ``ConfigSampleStore.load`` shares equal field values: it interns the
  category strings and passes the other fields through one table per
  load, so millions of reloaded samples point at a few thousand value
  objects instead of each owning its own copies.
* D2 lines repeat: each is a *head* (carrier to city), a *mid*
  (parameter and value) and a *tail* (observed_day and round_index), and
  a store holds far fewer distinct fragments than lines.  ``save``
  encodes each distinct fragment once and ``load`` decodes each once;
  ``ConfigSample.to_json`` and ``records.sample_fields`` stay the
  definitions, and any line or fragment the memos cannot key exactly
  goes through them instead.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.datasets.records import (
    ConfigSample,
    HandoffInstance,
    _decode,
    _encode,
    _tuples,
    sample_fields,
)
from repro.util import atomic_write


def _write_jsonl(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` atomically (``atomic_write``), each
    ended by a newline."""
    with atomic_write(path) as f:
        write = f.write
        for line in lines:
            write(line)
            write("\n")


def _share_key(value: object) -> object:
    """The key under which the loader shares ``value``, or None if never.

    Keys tell exact types apart, so only values equal *and* of one type
    share an object: ints and strings key as themselves (no int equals a
    string), floats as ``float.hex`` (``0.0`` and ``-0.0`` stay apart,
    and ``1.0`` apart from ``1``), bools and None tagged with their type,
    tuples by their elements' keys.  A NaN, and any tuple holding one, is
    never shared: a shared NaN equals itself by identity, so sharing it
    would merge NaNs that ``unique_values`` counts apart.  Dicts are
    unhashable and never shared either.
    """
    kind = type(value)
    if kind is int or kind is str:
        return value
    if kind is float:
        return None if value != value else (float, value.hex())
    if kind is tuple:
        keys = tuple(map(_share_key, value))
        return None if None in keys else (tuple, keys)
    if kind is bool or value is None:
        return (kind, value)
    return None


#: Where a D2 line's mid and tail start.  A bare ``"`` cannot occur
#: inside a JSON string, so in a valid line the first occurrence of each
#: marker separates two top-level members.
_MID = ',"parameter":'
_TAIL = ',"observed_day":'
#: ``ConfigSample``'s fields, in order, split into the three fragments.
_HEAD_KEYS = ("carrier", "gci", "rat", "channel", "city")
_HEAD_TYPES = [str, int, str, int, str]
_MID_KEYS = ("parameter", "value")
_TAIL_KEYS = ("observed_day", "round_index")


def _sample_lines(samples: Iterable[ConfigSample]) -> Iterator[str]:
    """``sample.to_json()`` of each sample, from memoized fragments.

    The encoder writes each member of a dict on its own, so a line is
    its head, mid and tail sub-dicts encoded and trimmed where they join
    (the head's closing brace, both of the mid's, the tail's opening
    one).  Each fragment is encoded once per call, memoized under a
    key that tells exact types and float bits apart (``1``, ``1.0`` and
    ``True`` apart, ``0.0`` apart from ``-0.0``).  A fragment without
    such a key (a NaN, a dict value, a value of a non-exact type) is
    encoded for its own line.
    """
    heads: dict[object, str] = {}
    mids: dict[object, str] = {}
    tails: dict[object, str] = {}
    for s in samples:
        carrier, gci, rat, channel, city = s.carrier, s.gci, s.rat, s.channel, s.city
        key: object = (carrier, gci, rat, channel, city)
        if list(map(type, key)) != _HEAD_TYPES:
            key = None
        head = heads.get(key)
        if head is None:
            head = _encode({
                "carrier": carrier, "gci": gci, "rat": rat, "channel": channel,
                "city": city,
            })[:-1] + ","
            if key is not None:
                heads[key] = head
        parameter, value = s.parameter, s.value
        key = _share_key(value)
        key = None if key is None or type(parameter) is not str else (parameter, key)
        mid = mids.get(key)
        if mid is None:
            mid = _encode({"parameter": parameter, "value": value})[1:-1] + ","
            if key is not None:
                mids[key] = mid
        day, round_index = s.observed_day, s.round_index
        key = _share_key(day)
        key = None if key is None or type(round_index) is not int else (key, round_index)
        tail = tails.get(key)
        if tail is None:
            tail = _encode({"observed_day": day, "round_index": round_index})[1:]
            if key is not None:
                tails[key] = tail
        yield head + mid + tail


def _fragment(text: str, keys: tuple[str, ...]) -> list | None:
    """The values of ``text``, or None unless it is an object with ``keys``."""
    try:
        data = _decode(text)
    except ValueError:
        return None
    if type(data) is not dict or tuple(data) != keys:
        return None
    return list(data.values())


class ConfigSampleStore:
    """All configuration samples of one D2 build."""

    def __init__(self, samples: Iterable[ConfigSample] = ()):
        self._samples: list[ConfigSample] = list(samples)
        self._indexes: dict[str, dict[object, list[ConfigSample]]] = {}

    def add(self, sample: ConfigSample) -> None:
        self._samples.append(sample)
        self._indexes.clear()

    def extend(self, samples: Iterable[ConfigSample]) -> None:
        # Invalidate in a finally: ``list.extend`` keeps the elements it
        # consumed before a mid-iteration exception, so bailing out
        # before the invalidation would leave a stale index over a
        # mutated sample list.
        try:
            self._samples.extend(samples)
        finally:
            self._indexes.clear()

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[ConfigSample]:
        return iter(self._samples)

    def _index(self, field: str) -> dict[object, list[ConfigSample]]:
        """Samples partitioned by one field's value, each in store order.

        Built on first use per field; every mutation drops all of them.
        """
        index = self._indexes.get(field)
        if index is None:
            groups: dict[object, list[ConfigSample]] = defaultdict(list)
            key = attrgetter(field)
            for sample in self._samples:
                groups[key(sample)].append(sample)
            index = self._indexes[field] = dict(groups)
        return index

    def _partition(self, field: str, value: object) -> "ConfigSampleStore":
        # The sub-store copies the partition, so mutating it leaves this
        # store's index intact.
        return ConfigSampleStore(self._index(field).get(value, ()))

    def filter(self, predicate: Callable[[ConfigSample], bool]) -> "ConfigSampleStore":
        """A new store holding only samples matching ``predicate``."""
        return ConfigSampleStore(s for s in self._samples if predicate(s))

    def for_carrier(self, carrier: str) -> "ConfigSampleStore":
        return self._partition("carrier", carrier)

    def for_rat(self, rat: str) -> "ConfigSampleStore":
        return self._partition("rat", rat)

    def for_parameter(self, parameter: str) -> "ConfigSampleStore":
        return self._partition("parameter", parameter)

    def for_city(self, city: str) -> "ConfigSampleStore":
        return self._partition("city", city)

    def unique_cells(self) -> set[tuple[str, int]]:
        """(carrier, gci) pairs present in the store."""
        return {(s.carrier, s.gci) for s in self._samples}

    def parameters(self) -> list[str]:
        """Distinct parameter names, sorted."""
        return sorted(self._index("parameter"))

    def unique_values(
        self, parameter: str, deduplicate_cells: bool = True
    ) -> list[object]:
        """Observed values of one parameter.

        With ``deduplicate_cells`` (the paper's "we consider unique
        samples, so as not to tip distributions in favor of cells with
        many same samples"), each (cell, value) pair counts once.
        """
        samples = self._index("parameter").get(parameter, ())
        if deduplicate_cells:
            seen = {(s.carrier, s.gci, s.value_key): s.value_key for s in samples}
            return list(seen.values())
        return [s.value_key for s in samples]

    def group_by(
        self, key: Callable[[ConfigSample], object]
    ) -> dict[object, "ConfigSampleStore"]:
        """Partition into sub-stores by an arbitrary key function."""
        groups: dict[object, list[ConfigSample]] = defaultdict(list)
        for sample in self._samples:
            groups[key(sample)].append(sample)
        return {k: ConfigSampleStore(v) for k, v in sorted(groups.items(), key=lambda kv: str(kv[0]))}

    def samples_per_cell(self, parameter: str) -> dict[tuple[str, int], int]:
        """How many samples each cell contributed for one parameter."""
        counts: dict[tuple[str, int], int] = defaultdict(int)
        for s in self._index("parameter").get(parameter, ()):
            counts[(s.carrier, s.gci)] += 1
        return dict(counts)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the store as JSONL (atomically: temp file + rename).

        The bytes are ``sample.to_json()`` plus a newline per sample,
        built from memoized fragments (``_sample_lines``).
        """
        _write_jsonl(path, _sample_lines(self._samples))

    @classmethod
    def load(cls, path: str | Path) -> "ConfigSampleStore":
        """Read a store from JSONL, sharing equal field values.

        Every non-blank line must be what ``ConfigSample.to_json`` writes
        (``records.sample_fields`` states the rules); any other line
        raises ``ValueError`` naming the file and line.  Carrier, RAT,
        city and parameter are interned; gci, channel, value,
        observed_day and round_index pass through one table per load
        (see ``_share_key``), so equal values share one object.

        A line is split at the first ``_MID`` and the first ``_TAIL``
        after it, and each distinct fragment is decoded once, completed
        to an object (``head + "}"``, ``"{" + mid + "}"``, ``"{" +
        tail``) and checked by ``sample_fields``' rules.  If all three
        hold exactly their keys, the line is one object with the nine
        members in order and the same values, so the fragment path
        accepts a subset of what ``sample_fields`` accepts.  A fragment
        holding a NaN, or a value ``_share_key`` refuses, is decoded for
        its own line and never memoized, so every NaN token stays its
        own float.  Any line the split cannot take (no marker, a
        fragment failing a check, a non-canonical spelling) goes to
        ``sample_fields``, which raises the error.
        """
        store = cls()
        append = store._samples.append
        share = {}.setdefault
        intern = sys.intern
        heads: dict[str, tuple] = {}
        mids: dict[str, tuple] = {}
        tails: dict[str, tuple] = {}

        def shared(value: object) -> object:
            key = _share_key(value)
            return value if key is None else share(key, value)

        def split(line: str) -> tuple | None:
            """The line's fields from memoized fragments, or None."""
            mid_at = line.find(_MID)
            tail_at = line.find(_TAIL, mid_at + len(_MID)) if mid_at >= 0 else -1
            if tail_at < 0:
                return None
            text = line[:mid_at]
            head = heads.get(text)
            if head is None:
                values = _fragment(text + "}", _HEAD_KEYS)
                if values is None or list(map(type, values)) != _HEAD_TYPES:
                    return None
                carrier, gci, rat, channel, city = values
                head = heads[text] = (
                    intern(carrier), share(gci, gci), intern(rat),
                    share(channel, channel), intern(city),
                )
            text = line[mid_at + 1 : tail_at]
            mid = mids.get(text)
            if mid is None:
                values = _fragment("{" + text + "}", _MID_KEYS)
                if values is None or type(values[0]) is not str:
                    return None
                parameter, value = values
                if type(value) is list:
                    value = _tuples(value)
                key = _share_key(value)
                mid = (intern(parameter), value if key is None else share(key, value))
                if key is not None:
                    mids[text] = mid
            text = line[tail_at + 1 :]
            tail = tails.get(text)
            if tail is None:
                values = _fragment("{" + text, _TAIL_KEYS)
                if values is None or type(values[1]) is not int:
                    return None
                day, round_index = values
                key = _share_key(day)
                tail = (day if key is None else share(key, day), share(round_index, round_index))
                if key is not None:
                    tails[text] = tail
            return head + mid + tail

        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                fields = split(line)
                if fields is None:
                    try:
                        carrier, gci, rat, channel, city, parameter, value, day, round_index = (
                            sample_fields(line)
                        )
                    except ValueError as error:
                        raise ValueError(f"{path}:{lineno}: {error}") from error
                    # gci, channel and round_index are checked ints,
                    # which key as themselves.
                    fields = (
                        intern(carrier), share(gci, gci), intern(rat),
                        share(channel, channel), intern(city), intern(parameter),
                        shared(value), shared(day), share(round_index, round_index),
                    )
                append(ConfigSample(*fields))
        return store


class HandoffInstanceStore:
    """All handoff instances of one D1 build."""

    def __init__(self, instances: Iterable[HandoffInstance] = ()):
        self._instances: list[HandoffInstance] = list(instances)

    def add(self, instance: HandoffInstance) -> None:
        self._instances.append(instance)

    def extend(self, instances: Iterable[HandoffInstance]) -> None:
        self._instances.extend(instances)

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[HandoffInstance]:
        return iter(self._instances)

    def filter(
        self, predicate: Callable[[HandoffInstance], bool]
    ) -> "HandoffInstanceStore":
        return HandoffInstanceStore(i for i in self._instances if predicate(i))

    def active(self) -> "HandoffInstanceStore":
        return self.filter(lambda i: i.kind == "active")

    def idle(self) -> "HandoffInstanceStore":
        return self.filter(lambda i: i.kind == "idle")

    def for_carrier(self, carrier: str) -> "HandoffInstanceStore":
        return self.filter(lambda i: i.carrier == carrier)

    def for_event(self, event: str) -> "HandoffInstanceStore":
        return self.filter(lambda i: i.decisive_event == event)

    def save(self, path: str | Path) -> None:
        """Write the store as JSONL (atomically: temp file + rename)."""
        _write_jsonl(path, (i.to_json() for i in self._instances))

    @classmethod
    def load(cls, path: str | Path) -> "HandoffInstanceStore":
        """Read a store from JSONL; a bad line raises ``ValueError`` naming it."""
        store = cls()
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    store.add(HandoffInstance.from_json(line))
                except ValueError as error:
                    raise ValueError(f"{path}:{lineno}: {error}") from error
        return store
