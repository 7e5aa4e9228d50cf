"""Exact complex rationals.

All decision paths in the library are exact: ``fractions.Fraction``, or
integer pairs over a common denominator (``clear_denominators``).  A complex
value is a pair of fractions.  No floating point anywhere in here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import OutputTooLarge, ParseError

Rat = Union[int, Fraction]


# the rational grammar "p/q" or "p", shared by parsing and the CLI's rendering
RATIONAL_TEXT = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p", surrounding spaces allowed, into a Fraction.

    Other forms that ``Fraction`` itself reads (decimals, exponents, digit
    separators, a plus sign) raise ParseError, as do a zero denominator and
    a numeral longer than the interpreter's integer conversion limit.

    >>> parse_rational("-1/3")
    Fraction(-1, 3)
    """
    stripped = text.strip()
    if RATIONAL_TEXT.match(stripped):
        try:
            return Fraction(stripped)
        except (ZeroDivisionError, ValueError):
            pass
    raise ParseError(f"not a rational: {text!r}")


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1.

    A numeral past the interpreter's integer conversion limit raises
    OutputTooLarge.
    """
    try:
        return str(Fraction(x))
    except ValueError as exc:
        raise OutputTooLarge() from exc


def clear_denominators(values: tuple[QC, ...]) -> tuple[int, list[tuple[int, int]]]:
    """(D, pairs): D is the lcm of the denominators of the complex values,
    and pair j holds the integers D Re v_j and D Im v_j."""
    den = math.lcm(*(x.denominator for val in values for x in (val.re, val.im)))
    return den, [(int(val.re * den), int(val.im * den)) for val in values]


def from_scaled(den: int, pairs) -> tuple[QC, ...]:
    """Inverse of clear_denominators: the values (re + i im) / D."""
    return tuple(QC(Fraction(re, den), Fraction(im, den)) for re, im in pairs)


@dataclass(frozen=True)
class QC:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        return QC(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __mul__(self, other: "QC | Rat") -> "QC":
        if isinstance(other, (int, Fraction)):
            return QC(self.re * other, self.im * other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "QC | Rat") -> "QC":
        if isinstance(other, (int, Fraction)):
            return QC(self.re / other, self.im / other)
        return self * other.inverse()

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "QC":
        d = self.abs2()
        if d == 0:
            raise ZeroDivisionError("inverse of zero")
        return QC(self.re / d, -self.im / d)

    def scale(self, c: Rat) -> "QC":
        return QC(self.re * c, self.im * c)

    def to_pair(self) -> list[str]:
        return [format_rational(self.re), format_rational(self.im)]

    @classmethod
    def from_pair(cls, pair) -> "QC":
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"complex value must be a [re, im] pair, got {pair!r}")
        return cls(parse_rational(str(pair[0])), parse_rational(str(pair[1])))

    @classmethod
    def parse(cls, text: str) -> "QC":
        """Parse "re,im" with rational parts, e.g. "1/3,-1"."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(f"complex value must be re,im - got {text!r}")
        return cls(parse_rational(parts[0]), parse_rational(parts[1]))
