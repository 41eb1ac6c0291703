"""Exception types shared across the package, and ``parse``: the one place
a config value's type is checked. Each config section is built by a
dataclass or function, and ``parse`` reads the type of each of its keys
off that builder's annotations."""

import inspect
import numbers
import types
import typing
from dataclasses import is_dataclass


class ShapeError(ValueError):
    """Array widths or shapes do not match what an operation requires."""


class NumericError(RuntimeError):
    """A value that must be finite is NaN or infinite (training blow-up)."""


class EmptyBufferError(RuntimeError):
    """Sampling was requested from a buffer that holds no transitions."""


class DatasetFormatError(ValueError):
    """A dataset directory is damaged: a file is missing, or its columns or
    manifest disagree."""


class ConfigError(ValueError):
    """An experiment or fine-tune configuration is invalid."""


class MissingInputError(FileNotFoundError):
    """A required pipeline input (earlier stage output) is absent."""


def parse(fn, data, section: str = "", builders: dict | None = None):
    """``fn(**data)`` for a dataclass or function ``fn``, each value typed
    by its parameter's annotation (see ``_typed``); ``**kwargs`` of ``fn``
    take the keys it does not name, untyped. ``section`` is the dotted name
    of ``data``; ``builders`` maps a key whose JSON form is not its
    annotation to the function that builds it. An unknown or missing key,
    or a value of another type, is a ConfigError that names it."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section or 'the config'} must be an object, got {data!r}")
    where = f" in {section}" if section else ""
    params = inspect.signature(fn).parameters
    named = [n for n, p in params.items() if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    hints = typing.get_type_hints(fn)
    kwargs = {}
    for key, value in data.items():
        if builders and key in builders:
            kwargs[key] = builders[key](value)
        elif key in named:
            kwargs[key] = _typed(hints[key], value, f"{section}.{key}" if section else key)
        elif any(p.kind is p.VAR_KEYWORD for p in params.values()):
            kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}{where}")
    for key in named:
        if key not in data and params[key].default is inspect.Parameter.empty:
            raise ConfigError(f"missing config key {key!r}{where}")
    return fn(**kwargs)


def _typed(tp, value, name: str):
    """``value``, named ``name``, as a ``tp``: ``int`` takes an integral
    number and ``float`` any number but a bool, converted; ``bool`` takes
    only true or false and ``str`` only a string; ``tuple[X, ...]`` takes a
    list of X, ``X | None`` also null, and a dataclass an object."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        tp = next(arg for arg in typing.get_args(tp) if arg is not type(None))
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_typed(typing.get_args(tp)[0], item, name) for item in value)
    if is_dataclass(tp):
        return parse(tp, value, name)
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if tp is int and number and (isinstance(value, numbers.Integral) or value.is_integer()):
        return int(value)
    if tp is float and number:
        return float(value)
    if tp in (bool, str) and isinstance(value, tp):
        return value
    expected = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
    raise ConfigError(f"{name} must be {expected[tp]}, got {value!r}")
