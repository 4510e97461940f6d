"""Flat key-value text configs: `key = value` lines, '#' comments.

One format serves coefficient sets, training hyperparameters, and run options,
so runs stay diffable. Values are parsed as int, then float, then bool, then
kept as strings.
"""

from __future__ import annotations

import dataclasses

from .training import TrainConfig


def parse_value(raw: str):
    raw = raw.strip()
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "yes"):
        return True
    if raw.lower() in ("false", "no"):
        return False
    return raw


def loads(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        out[key.strip()] = parse_value(raw)
    return out


def apply_overrides(values: dict, overrides: list) -> dict:
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        out[key.strip()] = parse_value(raw)
    return out


def cast(key: str, value, kind):
    """`value` read as `kind`. For a bool, int or float kind it raises
    ValueError, naming `key`, on a string, on a bool read as a number or a
    number as a bool, on an int that would drop a fraction (1e2 reads as
    100), and on an int too large for a float."""
    if kind in (bool, int, float) and (
            isinstance(value, str) or isinstance(value, bool) != (kind is bool)
            or (kind is int and value % 1 != 0)):
        raise ValueError(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"config key {key!r} is too large for a {kind.__name__}") from None


# every TrainConfig field, with the type of its default as the value's kind
TRAIN_KEYS = {field.name: type(field.default) for field in dataclasses.fields(TrainConfig)}


def train_config_from(values: dict) -> TrainConfig:
    return TrainConfig(**{key: cast(key, values[key], kind)
                          for key, kind in TRAIN_KEYS.items() if key in values})
