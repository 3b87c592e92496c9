"""Config dataclasses from JSON objects; the defaults live on the dataclasses."""

from __future__ import annotations

import dataclasses
import typing

from .errors import InvalidConfig


def config_from_dict(cls, obj: dict):
    """Build the config dataclass ``cls`` from a JSON object.

    Missing keys take the field defaults. Values are coerced to each field's
    annotated type, so ``2.0`` serves an int field, ``"3e-3"`` a float field
    and a nested object a dataclass field. An unknown key, a bad value or a
    failed field check raises InvalidConfig.
    """
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{cls.__name__} needs a JSON object, got {obj!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise InvalidConfig(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    try:
        return cls(**{name: _coerce(hints[name], value) for name, value in obj.items()})
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad {cls.__name__}: {exc}") from None


def _coerce(hint, value):
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _coerce(args[0], value)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...] or tuple[X, X]
        return tuple(_coerce(args[0], v) for v in value)
    if dataclasses.is_dataclass(hint):
        return config_from_dict(hint, value)
    return hint(value)
