"""Exception types shared across the library."""


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
