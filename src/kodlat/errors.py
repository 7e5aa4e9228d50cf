"""Exception hierarchy with stable machine-readable codes.

Every error raised by the library is a KodlatError subclass; ``code`` is the
string the command line interface puts into its JSON error object, and each
subclass's code is its class name.
"""

from __future__ import annotations

import sys


class KodlatError(Exception):
    """Base class for all library errors."""

    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class InvalidParams(KodlatError):
    """A curve type was requested with parameters outside its range."""


class DimensionMismatch(KodlatError):
    """A class or charge has the wrong number of components for the curve."""


class IndexOutOfRange(KodlatError):
    """A component index lies outside 1..n."""


class NotARoot(KodlatError):
    """The class does not have self-pairing -2."""


class DegenerateRadical(KodlatError):
    """The charge values on the radical do not span the plane."""


class VanishingRoot(KodlatError):
    """Some root class is sent to zero by the charge."""


class NotInP0(KodlatError):
    """The charge fails the validity conditions required by the operation."""


class DegenerateCharge(KodlatError):
    """The charge cannot be normalized because its point value is zero."""


class NotGeneral(KodlatError):
    """A wall coordinate is real with integral real part (corner point)."""


class NotPlusComponent(KodlatError):
    """Chamber reduction was asked for a charge outside the plus component."""


class StepLimitExceeded(KodlatError):
    """Chamber reduction did not land in the closed chamber in time.

    Carries the partial trace accumulated so far in ``trace``.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class CornerOnPath(KodlatError):
    """A segment crosses a wall at an integral real part."""


class EndpointOnWall(KodlatError):
    """A segment endpoint already lies on a wall."""


class ParseError(KodlatError):
    """Malformed textual input (curve label, rational, word, JSON payload)."""


class OutputTooLarge(KodlatError):
    """A result cannot be rendered: by default, a numeral past the
    interpreter's integer conversion limit, so no JSON can hold it."""

    def __init__(self, message: str | None = None):
        super().__init__(
            message
            or "an output numeral is longer than the integer conversion limit"
            f" of {sys.get_int_max_str_digits()} digits"
        )
