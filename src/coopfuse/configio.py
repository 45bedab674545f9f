"""Scenario configuration files: YAML in, validated dataclasses out.

The config dataclasses are the schema, and their constructors are the one
rule for values: loading adds only type checks. Each YAML value is read
through the type of the field it fills: nested dataclasses are mappings,
tuples are lists, enums are their values, an int field takes only an int, a
float field an int or a float, and a bool field only a bool. An unknown or
ill-typed key fails with its full key path, a refused value with its section.

The file puts ``ScenarioConfig``'s plain fields under ``scenario:`` and
each field that holds config dataclasses (``agents``, ``channel``,
``pipeline``, ``pose_noise``) in a top-level section of its own.
"""

from __future__ import annotations

import enum
import functools
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any

import yaml

from .simulator import ScenarioConfig


class ConfigError(ValueError):
    """A configuration file problem, with the offending key in the message."""


@functools.cache
def _hints(cls) -> dict[str, Any]:
    """The resolved type of each constructor field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


def _is_section(tp) -> bool:
    return any(is_dataclass(t) for t in (tp, *typing.get_args(tp)))


def _require_mapping(value: Any, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return dict(value)


def _read(value: Any, tp, path: str) -> Any:
    """``value`` read as type ``tp``; ``path`` is its key in messages."""
    args = typing.get_args(tp)
    if type(None) in args:  # Optional[X]
        return None if value is None else _read(value, args[0], path)
    if is_dataclass(tp):
        return _build(tp, value, path)
    if typing.get_origin(tp) is tuple:
        if args[-1] is Ellipsis:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
            args = (args[0],) * len(value)
        elif not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ConfigError(f"{path}: expected a [low, high] pair")
        return tuple(_read(v, t, f"{path}[{i}]") for i, (v, t) in enumerate(zip(value, args)))
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if tp is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if type(value) is not tp:
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")
    return value


def _build(cls, data: Any, path: str, key_paths: dict[str, str] | None = None):
    """Construct config dataclass ``cls`` from a mapping named ``path``.

    ``key_paths`` overrides the message path of some keys.
    """
    data = _require_mapping(data, path)
    hints = _hints(cls)
    key_paths = key_paths or {}
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    kwargs = {
        key: _read(value, hints[key], key_paths.get(key, f"{path}.{key}"))
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        message = str(exc)  # one starting with a section path (``agents[1]: ...``) names its place
        raise ConfigError(message if message.startswith(tuple(key_paths.values())) else f"{path}: {message}") from exc


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Assemble a ScenarioConfig from a parsed YAML mapping."""
    raw = _require_mapping(raw, "config")
    sections = {name for name, tp in _hints(ScenarioConfig).items() if _is_section(tp)}
    unknown = set(raw) - sections - {"scenario"}
    if unknown:
        raise ConfigError(f"config.{sorted(unknown)[0]}: unknown key")
    data = _require_mapping(raw.pop("scenario", None), "scenario")
    clash = set(data) & sections
    if clash:
        raise ConfigError(f"scenario.{sorted(clash)[0]}: unknown key")
    return _build(ScenarioConfig, {**data, **raw}, "scenario", {s: s for s in sections})


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario YAML file.

    Raises:
        ConfigError: naming the missing file or offending key.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with path.open() as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty config")
    return scenario_from_dict(raw)


def _dump(value: Any) -> Any:
    if is_dataclass(value):
        dumped = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: _dump(v) for name, v in dumped if v is not None}
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """The YAML-ready mapping for a scenario (inverse of scenario_from_dict)."""
    data = _dump(cfg)
    sections = {
        name: data.pop(name)
        for name, tp in _hints(ScenarioConfig).items()
        if _is_section(tp) and name in data
    }
    return {"scenario": data, **sections}


def dump_scenario(cfg: ScenarioConfig, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        yaml.safe_dump(scenario_to_dict(cfg), fh, sort_keys=False)
