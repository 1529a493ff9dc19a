"""Exception types shared across the package, and the field-type check of configs and values."""

import dataclasses


class QsannError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(QsannError, ValueError):
    """Invalid configuration, dimension mismatch, or out-of-range setting."""


class EmptySequenceError(QsannError, ValueError):
    """An operation received an empty token sequence."""


class ParseError(QsannError, ValueError):
    """A data or checkpoint file could not be parsed."""


class TrainingAborted(QsannError, RuntimeError):
    """Training stopped because of a non-finite loss or gradient."""


# builtin types only: json writes them, and a fixed-width numpy int could wrap in arithmetic
_SCALAR_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _fits(value, annotation: str) -> bool:
    if annotation.endswith(" | None"):
        return value is None or _fits(value, annotation[: -len(" | None")])
    if annotation.startswith("list["):
        return isinstance(value, list) and all(_fits(v, annotation[5:-1]) for v in value)
    if isinstance(value, bool) != (annotation == "bool"):
        return False
    return isinstance(value, _SCALAR_TYPES[annotation])


def check_field(name: str, value, annotation: str) -> None:
    """Refuse a value that does not fit its annotation, such as ``list[int] | None``: an int
    takes a Python int and a float an int or a float (numpy's float64 is one), and neither
    takes a bool or another numpy scalar."""
    if not _fits(value, annotation):
        raise ConfigurationError(f"{name} must be {annotation}, got {value!r}")


def check_field_types(config) -> None:
    """Refuse a dataclass config whose field values do not fit their annotations."""
    for f in dataclasses.fields(config):
        check_field(f.name, getattr(config, f.name), f.type)
