"""Flat key-value text configs: `key = value` lines, '#' comments.

One format serves training hyperparameters, run options and paths, so runs
stay diffable. `loads` (a config file) and `overrides` (`key=value` items)
return each value as its raw text; `read` types it as the command declares.
"""

from __future__ import annotations

_BOOLS = {"true": True, "yes": True, "false": False, "no": False}


def _split(item: str):
    """(key, raw value) of a `key=value` item, or None without '=' or a key."""
    key, sep, raw = item.partition("=")
    key = key.strip()
    return (key, raw.strip()) if sep and key else None


def loads(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        pair = _split(stripped)
        if pair is None:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        out[pair[0]] = pair[1]
    return out


def overrides(items) -> dict:
    out = {}
    for item in items:
        pair = _split(item)
        if pair is None:
            raise ValueError(f"override must look like key=value, got {item!r}")
        out[pair[0]] = pair[1]
    return out


def read(key: str, raw: str, kind: type):
    """`raw` read as `kind`: str, bool, int or float. It raises ValueError,
    naming `key`, on a bool other than true/yes/false/no, on a number that
    does not parse, on an int that would drop a fraction (1e2 reads as 100),
    and on an int too large for a float."""
    if kind is str:
        return raw
    if kind is bool and raw.lower() in _BOOLS:
        return _BOOLS[raw.lower()]
    if kind in (int, float):
        try:
            return kind(int(raw))
        except OverflowError:
            raise ValueError(f"config key {key!r} is too large for a {kind.__name__}") from None
        except ValueError:
            pass
        try:
            number = float(raw)
        except ValueError:
            number = None
        if number is not None and (kind is float or number % 1 == 0):
            return kind(number)
    raise ValueError(f"config key {key!r} must be of type {kind.__name__}, got {raw!r}")
