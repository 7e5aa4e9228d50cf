"""Exception hierarchy with stable machine-readable codes.

Every error raised by the library is a KodlatError subclass; ``code`` is the
string the command line interface puts into its JSON error object.
"""

from __future__ import annotations

import sys


class KodlatError(Exception):
    """Base class for all library errors."""

    code = "Error"


class InvalidParams(KodlatError):
    """A curve type was requested with parameters outside its range."""

    code = "InvalidParams"


class DimensionMismatch(KodlatError):
    """A class or charge has the wrong number of components for the curve."""

    code = "DimensionMismatch"


class IndexOutOfRange(KodlatError):
    """A component index lies outside 1..n."""

    code = "IndexOutOfRange"


class NotARoot(KodlatError):
    """The class does not have self-pairing -2."""

    code = "NotARoot"


class DegenerateRadical(KodlatError):
    """The charge values on the radical do not span the plane."""

    code = "DegenerateRadical"


class VanishingRoot(KodlatError):
    """Some root class is sent to zero by the charge."""

    code = "VanishingRoot"


class NotInP0(KodlatError):
    """The charge fails the validity conditions required by the operation."""

    code = "NotInP0"


class DegenerateCharge(KodlatError):
    """The charge cannot be normalized because its point value is zero."""

    code = "DegenerateCharge"


class NotGeneral(KodlatError):
    """A wall coordinate is real with integral real part (corner point)."""

    code = "NotGeneral"


class NotPlusComponent(KodlatError):
    """Chamber reduction was asked for a charge outside the plus component."""

    code = "NotPlusComponent"


class StepLimitExceeded(KodlatError):
    """Chamber reduction did not land in the closed chamber in time.

    Carries the partial trace accumulated so far in ``trace``.
    """

    code = "StepLimitExceeded"

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class CornerOnPath(KodlatError):
    """A segment crosses a wall at an integral real part."""

    code = "CornerOnPath"


class EndpointOnWall(KodlatError):
    """A segment endpoint already lies on a wall."""

    code = "EndpointOnWall"


class ParseError(KodlatError):
    """Malformed textual input (curve label, rational, word, JSON payload)."""

    code = "ParseError"


class OutputTooLarge(KodlatError):
    """A result has a numeral past the interpreter's integer conversion
    limit, so it cannot be rendered as JSON."""

    code = "OutputTooLarge"

    def __init__(self):
        super().__init__(
            "an output numeral is longer than the integer conversion limit"
            f" of {sys.get_int_max_str_digits()} digits"
        )
