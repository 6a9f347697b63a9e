"""The rules for reading the files the pipeline passes between stages.

A reader runs its checks inside ``naming(path)``, so that every ValueError
starts with the path of the file at fault. JSON is read as UTF-8, and its
objects and numbers are checked here, for files and constructors alike.
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def naming(path: Path):
    """Start the message of a ValueError raised in the block with ``path``."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def read_json(path: Path):
    """The value in the JSON file ``path``; a UTF-8 or JSON decoding error is a ValueError."""
    return json.loads(path.read_text(encoding="utf-8"))


def json_object(name: str, value, required=(), allowed=None) -> dict:
    """``value`` if it is a dict holding every ``required`` key, and, unless
    ``allowed`` is None, no key outside ``required`` and ``allowed``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{name} lacks {missing}")
    unknown = [] if allowed is None else sorted(set(value) - {*required, *allowed})
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    return value


def number(name: str, value, integral: bool = False) -> int | float:
    """``value`` as a Python int if ``integral``, else as a float.

    A bool is refused: Python counts it an int, but JSON's true is no
    number. So is a real too large for a float.
    """
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integral else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}, "
                         f"got {value!r}")
    try:
        return int(value) if integral else float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
