"""Exception types shared across the package, and the configs' field-type check."""

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


def check_field_types(config) -> None:
    """Refuse a dataclass config whose field values do not fit their annotations, such as
    ``list[int] | None``: an int field takes a Python int and a float field an int or a
    float (numpy's float64 is one), and neither takes a bool or another numpy scalar."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _fits(value, f.type):
            raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
