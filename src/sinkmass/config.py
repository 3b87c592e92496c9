"""The JSON layer: files into values, objects into config dataclasses and
back, and the one writer every output file goes through. The defaults live
on the dataclasses."""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from enum import Enum
from pathlib import Path

from .errors import InputError, InvalidConfig


def read_json(path, what: str):
    """The JSON value in the file at ``path``; a file that cannot be read,
    is not UTF-8, is not JSON or holds an integer literal too long for
    ``int`` raises InputError naming ``what``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None


def write_files(pairs) -> None:
    """Write each ``(path, content)`` pair, in order, as ``pairs`` yields it.

    ``bytes`` content is written as it is and ``str`` content as UTF-8; any
    other value as its canonical JSON text (sorted keys, two-space indent,
    dataclasses through ``config_to_dict``, a final newline). Each parent
    directory is made once. A directory or file that cannot be made or
    written raises InputError naming its path.
    """
    made = set()
    for path, content in pairs:
        directory = os.path.dirname(path)
        if directory not in made:
            parent = Path(path).parent
            try:
                parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise InputError(f"cannot make output directory {parent}: {exc}") from None
            made.add(directory)
        if isinstance(content, str):
            content = content.encode()
        elif not isinstance(content, bytes):
            text = json.dumps(content, sort_keys=True, indent=2, default=config_to_dict)
            content = (text + "\n").encode()
        try:
            with open(path, "wb") as fh:
                fh.write(content)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from None


def config_from_dict(cls, obj: dict):
    """Build the config dataclass ``cls`` from a JSON object.

    Missing keys take the field defaults. Values are coerced to each field's
    annotated type, so ``2.0`` serves an int field, ``"3e-3"`` a float field
    and a nested object a dataclass field; a fixed-length tuple field takes
    exactly its number of values. An unknown key, a missing
    required key, a bad value or a failed field check raises InvalidConfig.
    """
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{cls.__name__} needs a JSON object, got {obj!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise InvalidConfig(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    missing = [
        f.name
        for f in dataclasses.fields(cls)
        if f.name not in obj
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise InvalidConfig(f"missing {cls.__name__} keys: {', '.join(missing)}")
    try:
        return cls(**{name: _coerce(hints[name], value) for name, value in obj.items()})
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad {cls.__name__}: {exc}") from None


def config_to_dict(obj) -> dict:
    """The JSON object ``config_from_dict`` reads back into ``obj``."""
    return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _coerce(hint, value):
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _coerce(args[0], value)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...] or tuple[X, Y]
        values = list(value)
        types = args[:1] * len(values) if args[-1] is Ellipsis else args
        if len(values) != len(types):
            raise ValueError(f"expected {len(types)} values, got {values}")
        return tuple(map(_coerce, types, values))
    if dataclasses.is_dataclass(hint):
        return config_from_dict(hint, value)
    return hint(value)


def _plain(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value):
        return config_to_dict(value)
    return value
