"""JSON field lookups for the loaders: a missing or mistyped field is
invalid input (``ValueError``) that names the object and the field."""
from __future__ import annotations

from collections.abc import Mapping


def _json_field(obj: Mapping, key: str, what: str):
    """``obj[key]``; a missing key is invalid input naming the object
    (``what``) and the field."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{what} has no field {key!r}") from None


def _json_int(obj: Mapping, key: str, what: str) -> int:
    """``obj[key]`` if it is a JSON integer: no bool, no number int()
    would truncate."""
    v = _json_field(obj, key, what)
    if type(v) is not int:
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return v


def _json_id(obj: Mapping, key: str, what: str) -> str:
    """``obj[key]`` if it is a JSON string."""
    v = _json_field(obj, key, what)
    if type(v) is not str:
        raise ValueError(f"{key} must be a string, got {v!r}")
    return v


def _json_object(v, what: str) -> Mapping:
    """``v`` if it is a JSON object.

    A ``dict`` is accepted before the ``Mapping`` test: the first
    ``isinstance`` against an ABC in a fresh process walks its subclass
    tree (about 0.1 ms), and every object ``json.load`` returns is a dict.
    """
    if type(v) is not dict and not isinstance(v, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {v!r}")
    return v


def _json_list(obj: Mapping, key: str, what: str, default=None) -> list:
    """``obj[key]`` (or ``default`` when it is absent) if it is a JSON list
    of JSON objects."""
    v = (_json_field(obj, key, what) if default is None
         else obj.get(key, default))
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {v!r}")
    for n, x in enumerate(v):
        _json_object(x, f"{key}[{n}]")
    return v
