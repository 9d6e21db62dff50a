"""Exception types shared across the library, and the field type check that
every parameter dataclass runs at construction."""
from __future__ import annotations

import functools
import typing
from dataclasses import fields
from numbers import Integral, Real


class VolkeyError(Exception):
    """Base class for all library errors."""


class RejectedInputError(VolkeyError, ValueError):
    """Input violates a documented precondition."""


class NoOrientationError(VolkeyError, RuntimeError):
    """Gradient field too weak to define an orientation frame."""


class AmbiguousFrameError(VolkeyError, RuntimeError):
    """Structure too symmetric to define unique frame axes."""


class InitializationFailureError(VolkeyError, RuntimeError):
    """Pose voting found no transform cluster with enough support."""


class DegenerateCorrespondenceError(VolkeyError, RuntimeError):
    """Correspondence probabilities sum to numerically zero."""


class DegenerateGeometryError(VolkeyError, RuntimeError):
    """Point configuration does not constrain the transform."""


class ParseError(VolkeyError, ValueError):
    """Malformed file; the message carries the byte offset when known."""


@functools.cache
def _annotated_kinds(cls) -> dict[str, tuple]:
    """Field name -> the types its annotation admits, NoneType when optional."""
    hints = typing.get_type_hints(cls)
    return {name: typing.get_args(hint) or (hint,) for name, hint in hints.items()}


def check_field_types(config) -> None:
    """Reject a dataclass instance whose fields do not hold their annotated
    types, and store each float field's number as a float.

    A bool field takes only a bool, and no number field takes a bool; an int
    field takes any integer and a float field any real number; None fits
    only an optional field.  The error names the field.
    """
    annotated = _annotated_kinds(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        kinds = annotated[f.name]
        if value is None and type(None) in kinds:
            continue
        kind = kinds[0]
        if kind is bool:
            fits = isinstance(value, bool)
        else:
            accepted = {float: Real, int: Integral}.get(kind, kind)
            fits = isinstance(value, accepted) and not isinstance(value, bool)
        if not fits:
            raise RejectedInputError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
        if kind is float:
            setattr(config, f.name, float(value))
