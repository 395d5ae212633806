"""The JSON form of the config and run-log dataclasses, derived from their fields.

``to_json`` writes a dataclass as plain JSON data: fields in declaration
order, enums as their values, tuples as lists. ``from_json`` reads it back
by the field annotations. A field with a default is optional, one without
is required, and any other key is rejected. An int takes a JSON number
with no fraction (3.0 reads as 3), a float any finite JSON number, a bool
only ``true`` or ``false``, an enum one of its values, a tuple a list of
its length, and ``X | None`` also ``null``. Every bad value raises
``SchemaError`` naming its dotted key, such as ``learner.learning_rate``;
so does a value the class's own checks refuse, prefixed with the key of
the object that holds it.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import types
import typing

from .errors import AlolError, SchemaError

_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def to_json(obj):
    """``obj`` as JSON data: dataclasses as dicts in field order, enums as
    their values, tuples as lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
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
    hints = typing.get_type_hints(cls)
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
        if isinstance(value, int) or isinstance(value, float) and value.is_integer():
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
