"""Exception types shared across the library, the one number check that
every scalar argument and parameter dataclass field goes through, and the
type check of the library's object arguments."""
from __future__ import annotations

import functools
import math
import typing
from dataclasses import fields
from numbers import Integral, Real

import numpy as np

# open ranges closed at the nearest float: lo=POSITIVE is > 0, hi=FINITE < inf, hi=BELOW_ONE < 1
POSITIVE, FINITE, BELOW_ONE = math.ulp(0.0), float(np.finfo(float).max), math.nextafter(1.0, 0.0)


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


def _rule(kind, lo, hi) -> str:
    """[lo, hi] in words: 'a nonnegative integer', 'a number in [-1.0, 2.0]'."""
    low = {0: "nonnegative ", POSITIVE: "positive "}.get(lo)
    low = "positive " if kind is int and lo == 1 else low
    high = {FINITE: "finite ", math.inf: ""}.get(hi)
    noun = "integer" if kind is int else "number"
    if low is None or high is None:
        return f"{'an' if kind is int else 'a'} {noun} in [{lo!r}, {hi!r}]"
    return f"a {low}{high}{noun}"


def check_number(name: str, value, kind=float, lo=-math.inf, hi=math.inf, optional=False):
    """value, if it is a number of kind in the closed range [lo, hi] (or None
    when optional); else RejectedInputError naming the argument.

    No bool is a number; kind int takes any integer, kind float any real
    number, and both are returned as given.  NaN fails every comparison, so
    no range holds it.
    """
    if value is None and optional:
        return value
    number = value
    # int and float first: the common cases skip the abstract base classes
    if not (type(value) is int or kind is float and isinstance(value, float)):
        if isinstance(value, bool) or not isinstance(value, Real if kind is float else Integral):
            raise RejectedInputError(f"{name} must be of type {kind.__name__}, got {value!r}")
        # numpy would compare in the value's own type, to which a bound may overflow
        number = value.item() if isinstance(value, np.generic) else value
    if not lo <= number <= hi:
        raise RejectedInputError(f"{name} must be {_rule(kind, lo, hi)}, got {value!r}")
    return value


def check_type(name: str, value, kind: type):
    """value, if it is an instance of kind; else RejectedInputError naming the argument."""
    if not isinstance(value, kind):
        raise RejectedInputError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


@functools.cache
def _annotated_kinds(cls) -> dict[str, tuple]:
    """Field name -> the types its annotation admits, NoneType when optional."""
    hints = typing.get_type_hints(cls)
    return {name: typing.get_args(hint) or (hint,) for name, hint in hints.items()}


def check_field_types(config, **bounds: tuple) -> None:
    """Reject a dataclass instance whose fields do not hold their annotated
    types, or whose number fields lie outside their bounds name=(lo, hi), and
    store each float field's number as a float.  Number fields go through
    check_number, others take only their type; None fits only an optional
    field.  The error names the field.
    """
    annotated = _annotated_kinds(type(config))
    for f in fields(config):
        value, (kind, *rest) = getattr(config, f.name), annotated[f.name]  # rest: NoneType or none
        if kind is int or kind is float:
            value = check_number(f.name, value, kind, *bounds.get(f.name, ()), optional=bool(rest))
            if kind is float:
                setattr(config, f.name, float(value))
        elif not (isinstance(value, kind) or value is None and rest):
            raise RejectedInputError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
