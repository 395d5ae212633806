"""The JSON form of the config and run-log dataclasses, and every file's encoding.

``to_json`` writes a dataclass as plain JSON data: fields in declaration
order, enums as their values, tuples as lists. ``from_json`` reads it back
by the field annotations. A field with a default is optional, one without
is required, and any other key is rejected. An int takes a JSON number
with no fraction (3.0 reads as 3) in [-2**63, 2**64), the range of numpy's
64-bit integers and of the lab's seeds, a float any finite JSON number, a
bool only ``true`` or ``false``, an enum one of its values, a tuple a list
of its length, and ``X | None`` also ``null``. Every bad value raises
``SchemaError`` naming its dotted key, such as ``learner.learning_rate``;
so does a value the class's own checks refuse, prefixed with the key of
the object that holds it.

A field flagged ``omit_default`` in its metadata is left out of
``to_json`` while it equals its default, so adding one changes no earlier
output; ``from_json`` reads it as any other field with a default.

Every input file is read here too, by ``text_lines``, ``json_lines`` and
``read_json``: bytes that are not UTF-8, malformed JSON, nesting past the
recursion limit and integers past Python's 4300-digit limit raise
``AlolError`` naming ``path:line``, or ``path`` for a whole file's JSON.

Every output file is written here too, by ``write_lines`` as UTF-8 with LF
endings: a JSON file as one indented ``json_text``, a JSON-lines file one
compact ``json_line`` per line, a CSV one ``csv_row`` per line, with each
float to 9 significant digits.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import re
import sys
import types
import typing

from .errors import AlolError, SchemaError

# "surrogateescape" reads each byte that is not UTF-8 as one of these.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
_EXPECTED = {
    int: "an integer in [-2**63, 2**64)",
    float: "a finite number",
    bool: "true or false",
    str: "a string",
}
# The most floats one numpy array can hold: its byte count must be an intp.
MAX_FLOATS = sys.maxsize // 8
# ``json.dumps`` with ``separators`` builds a new encoder on every call.
_COMPACT = json.JSONEncoder(separators=(",", ":")).encode
# A class's field annotations, their strings compiled once per class.
_type_hints = functools.cache(typing.get_type_hints)


def to_json(obj):
    """``obj`` as JSON data: dataclasses as dicts in field order, enums as
    their values, tuples as lists."""
    if dataclasses.is_dataclass(obj):
        return {
            f.name: to_json(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not (f.metadata.get("omit_default") and getattr(obj, f.name) == f.default)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [to_json(v) for v in obj]
    return obj


def from_json(cls, data, key: str = ""):
    """The ``cls`` instance that the JSON object ``data`` describes; ``key``
    is the dotted key of ``data`` itself, empty at the top level."""
    where = f"{key}: " if key else ""
    if not isinstance(data, dict):
        raise SchemaError(f"{where}expected a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise SchemaError(f"{where}unknown keys {unknown}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in data]
    if missing:
        raise SchemaError(f"{where}missing keys {missing}")
    hints = _type_hints(cls)
    prefix = f"{key}." if key else ""
    values = {name: _decode(hints[name], v, prefix + name) for name, v in data.items()}
    try:
        return cls(**values)
    except AlolError as exc:
        raise SchemaError(f"{where}{exc}") from None


def _decode(hint, value, key: str):
    """``value`` read as the annotation ``hint``; ``key`` names it in errors."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _decode(inner, value, key)
    if origin is tuple:
        if not isinstance(value, list):
            raise SchemaError(f"{key}={value!r} is not a list")
        kinds = args[:1] * len(value) if args[1:] == (...,) else args
        if len(value) != len(kinds):
            raise SchemaError(f"{key} needs {len(kinds)} entries, got {len(value)}")
        return tuple(_decode(k, v, f"{key}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, key)
    if issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError:
            choices = [m.value for m in hint]
            raise SchemaError(f"{key}={value!r} is not one of {choices}") from None
    if isinstance(value, bool):
        if hint is bool:
            return value
    elif hint is int:
        whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if whole and -(2**63) <= value < 2**64:
            return int(value)
    elif hint is float:
        if isinstance(value, (int, float)):
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if math.isfinite(number):
                return number
    elif hint is str and isinstance(value, str):
        return value
    raise SchemaError(f"{key}={value!r} is not {_EXPECTED[hint]}")


def _lines(path):
    """Yields ``(line number, line)`` for every line of the file at
    ``path``, newlines read as ``\\n``."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii() and _NOT_UTF8.search(line):
                raise AlolError(f"{path}:{lineno}: not UTF-8 text")
            yield lineno, line


def _loads(text: str, where: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or too many digits
        raise AlolError(f"{where}: bad JSON ({exc})") from None


def text_lines(path):
    """Yields ``(line number, line)`` for each non-blank line of the file at
    ``path``, stripped, numbered as the file's lines are."""
    for lineno, line in _lines(path):
        line = line.strip()
        if line:
            yield lineno, line


def json_lines(path):
    """Yields ``(line number, value)`` for each non-blank line of the file at
    ``path``, each line decoded as one JSON value."""
    return ((lineno, _loads(line, f"{path}:{lineno}")) for lineno, line in text_lines(path))


def read_json(path):
    """The JSON value that the whole file at ``path`` holds."""
    return _loads("".join(line for _, line in _lines(path)), str(path))


def write_lines(path, lines) -> None:
    """Write each of ``lines`` and a ``\\n`` after it to the file at
    ``path``, as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(line + "\n" for line in lines)


def json_line(value) -> str:
    """``value`` as one line of compact JSON."""
    return _COMPACT(value)


def json_text(value) -> str:
    """``value`` as JSON indented by two spaces, for a whole ``.json`` file."""
    return json.dumps(value, indent=2)


def csv_row(*cells) -> str:
    """``cells`` joined by commas: floats to 9 significant digits, the rest by ``str``."""
    return ",".join(f"{cell:.9g}" if isinstance(cell, float) else str(cell) for cell in cells)
