"""Indented JSON text: the lint reports', baselines' and snapshots' writer.

:func:`dumps_indented` returns exactly ``json.dumps(obj, indent=2)``.
CPython uses its C encoder only when ``indent`` is None; with an indent
every value goes through a chain of pure-Python generators, one
resumption per container level per chunk.  Reports carry thousands of
findings and every coverage witness's two configuration trees, so that
chain was the largest cost of rendering them.  This writer walks the
tree by plain recursion instead: each item appends one string to a
list that is joined once, with the stdlib's own pieces
(``encode_basestring_ascii`` for strings and keys, ``int.__repr__``,
``float.__repr__``), its key coercions and its ``TypeError`` messages.
The stdlib encoder is its oracle in ``tests/test_lint_jsontext.py``.

The walkers are module-level functions that pass the parts list down.
Recursing through a nested closure instead ties the closure, its cell
and the parts list into a reference cycle that outlives the call until
the cyclic collector runs, which can raise the peak memory of the next
render.

One difference is deliberate: the walk keeps no markers, so a circular
structure exhausts the recursion limit (``RecursionError``) where the
stdlib raises ``ValueError("Circular reference detected")``.  Every
caller renders a freshly built tree.

:func:`write_json` saves such text atomically
(:func:`repro.util.atomic_write`), so a crash mid-save leaves the
previous file as it was, and writes it item by item, so a save's memory
does not grow with the file.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, TextIO

from repro.util import atomic_write

_STEP = "  "
_isfinite = math.isfinite
_int_repr = int.__repr__
_float_repr = float.__repr__
#: ``float.__repr__`` of the non-finite values -> their JSON tokens.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: How many container levels a save writes item by item: a snapshot's
#: cells and a baseline's suppressions are the second level.
_SAVE_DEPTH = 2


def dumps_indented(obj: object) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without generators."""
    parts: list[str] = []
    _value(obj, parts, "\n", "")
    return "".join(parts)


def write_json(path: str | Path, obj: object) -> None:
    """Write ``dumps_indented(obj)`` plus a newline to ``path`` atomically
    (``atomic_write``).

    The text goes out item by item (``_write_items``), so a save holds
    one item's text at a time, not the whole file's.
    """
    with atomic_write(path) as f:
        _write_items(f, obj, "\n", "", _SAVE_DEPTH)
        f.write("\n")


def _write_items(f: TextIO, obj: object, nl: str, head: str, depth: int) -> None:
    """Write ``obj``'s text, taking containers ``depth`` levels deep item
    by item; each item below that is rendered whole by ``_value``."""
    if depth and isinstance(obj, (list, tuple, dict)) and obj:
        inner = nl + _STEP
        comma = "," + inner
        if isinstance(obj, dict):
            sep = head + "{" + inner
            for key, value in obj.items():
                key_head = sep + _quote(_key_text(key)) + ": "
                _write_items(f, value, inner, key_head, depth - 1)
                sep = comma
            f.write(nl + "}")
        else:
            sep = head + "[" + inner
            for value in obj:
                _write_items(f, value, inner, sep, depth - 1)
                sep = comma
            f.write(nl + "]")
        return
    parts: list[str] = []
    _value(obj, parts, nl, head)
    f.write("".join(parts))


def _float_text(value: float) -> str:
    text = _float_repr(value)
    return _NON_FINITE.get(text, text)


def _key_text(key: object) -> str:
    """The stdlib's coercion of a non-``str`` dict key (before quoting)."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return _int_repr(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _value(obj: object, parts: list[str], nl: str, head: str) -> None:
    """Any value, in the stdlib's ``isinstance`` order (subclasses too).

    ``nl`` is a newline plus the indentation of the line the value
    starts on, and ``head`` the text before it on that line (separator
    and key), which goes into the value's first part.
    """
    if isinstance(obj, str):
        parts.append(head + _quote(obj))
    elif obj is None:
        parts.append(head + "null")
    elif obj is True:
        parts.append(head + "true")
    elif obj is False:
        parts.append(head + "false")
    elif isinstance(obj, int):
        parts.append(head + _int_repr(obj))
    elif isinstance(obj, float):
        parts.append(head + _float_text(obj))
    elif isinstance(obj, (list, tuple)):
        _array(obj, parts, nl, head)
    elif isinstance(obj, dict):
        _object(obj, parts, nl, head)
    else:
        raise TypeError(
            f"Object of type {obj.__class__.__name__} is not JSON serializable"
        )


# The two container walkers test exact types first, most frequent first
# (an exact int or float formats as its ``__repr__``); anything else,
# subclasses included, goes through ``_value``.


def _object(obj: dict[Any, Any], parts: list[str], nl: str, head: str) -> None:
    if not obj:
        parts.append(head + "{}")
        return
    inner = nl + _STEP
    comma = "," + inner
    sep = head + "{" + inner
    for key, value in obj.items():
        if type(key) is not str:
            key = _key_text(key)
        kind = type(value)
        if kind is str:
            parts.append(f"{sep}{_quote(key)}: {_quote(value)}")
        elif kind is int:
            parts.append(f"{sep}{_quote(key)}: {value}")
        elif kind is float and _isfinite(value):
            parts.append(f"{sep}{_quote(key)}: {value!r}")
        elif kind is dict:
            _object(value, parts, inner, f"{sep}{_quote(key)}: ")
        elif kind is list or kind is tuple:
            _array(value, parts, inner, f"{sep}{_quote(key)}: ")
        elif value is None:
            parts.append(f"{sep}{_quote(key)}: null")
        else:
            _value(value, parts, inner, f"{sep}{_quote(key)}: ")
        sep = comma
    parts.append(nl + "}")


def _array(
    obj: list[Any] | tuple[Any, ...], parts: list[str], nl: str, head: str
) -> None:
    if not obj:
        parts.append(head + "[]")
        return
    inner = nl + _STEP
    comma = "," + inner
    sep = head + "[" + inner
    for value in obj:
        kind = type(value)
        if kind is str:
            parts.append(sep + _quote(value))
        elif kind is int:
            parts.append(f"{sep}{value}")
        elif kind is float and _isfinite(value):
            parts.append(f"{sep}{value!r}")
        elif kind is dict:
            _object(value, parts, inner, sep)
        elif kind is list or kind is tuple:
            _array(value, parts, inner, sep)
        elif value is None:
            parts.append(sep + "null")
        else:
            _value(value, parts, inner, sep)
        sep = comma
    parts.append(nl + "]")
