"""The numerical Grothendieck lattice of a reducible Kodaira curve.

A class is written in the basis (point class, degree -1 line bundle on each
component): an integer chi together with one integer rank per component.
The Euler pairing descends to the rank vector alone and is given by the
curve's Gram matrix; chi pairs trivially with everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Family, KodairaCurve
from .errors import DimensionMismatch, IndexOutOfRange, ParseError


@dataclass(frozen=True)
class KClass:
    """A lattice class: Euler characteristic and per-component ranks."""

    chi: int
    ranks: tuple[int, ...]

    def __add__(self, other: "KClass") -> "KClass":
        return KClass(self.chi + other.chi, tuple(a + b for a, b in zip(self.ranks, other.ranks)))

    def __sub__(self, other: "KClass") -> "KClass":
        return KClass(self.chi - other.chi, tuple(a - b for a, b in zip(self.ranks, other.ranks)))

    def __neg__(self) -> "KClass":
        return KClass(-self.chi, tuple(-a for a in self.ranks))

    def scale(self, c: int) -> "KClass":
        return KClass(c * self.chi, tuple(c * a for a in self.ranks))

    def is_zero(self) -> bool:
        return self.chi == 0 and not any(self.ranks)

    def to_dict(self) -> dict:
        return {"chi": self.chi, "ranks": list(self.ranks)}

    @classmethod
    def from_dict(cls, data: dict) -> "KClass":
        """Read {"chi": int, "ranks": [int, ...]}; anything but integers
        (floats, booleans, strings) raises ParseError rather than being
        coerced."""
        chi, ranks = data["chi"], data["ranks"]
        if not (_is_int(chi) and isinstance(ranks, (list, tuple)) and all(map(_is_int, ranks))):
            raise ParseError(f"class entries must be integers: {data!r}")
        return cls(chi, tuple(ranks))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_DIMENSION_MESSAGES = {
    "class": "class has {got} ranks, curve {label} has {n} components",
    "charge": "charge has {got} component values, curve {label} has {n}",
}


def check_dimension(curve: KodairaCurve, entries, kind: str = "class") -> None:
    """Raise DimensionMismatch unless ``entries`` has one item per component.

    ``kind`` is "class" for the ranks of a class and "charge" for the
    component values of a (normalized) charge; it picks the message.
    """
    if len(entries) != curve.n:
        raise DimensionMismatch(
            _DIMENSION_MESSAGES[kind].format(got=len(entries), label=curve.id.label, n=curve.n)
        )


def check_index(curve: KodairaCurve, i: int) -> None:
    """Raise IndexOutOfRange unless ``i`` is a component index, 1..n."""
    if not 1 <= i <= curve.n:
        raise IndexOutOfRange(f"component index {i} outside 1..{curve.n}")


def pair(curve: KodairaCurve, v: KClass, w: KClass) -> int:
    """Euler pairing <v, w> = ranks(v)^T gram ranks(w); chi is immaterial."""
    check_dimension(curve, v.ranks)
    check_dimension(curve, w.ranks)
    total = 0
    for i, ri in enumerate(v.ranks):
        if ri:
            row = curve.gram[i]
            total += ri * sum(g * rj for g, rj in zip(row, w.ranks))
    return total


def gram_apply(curve: KodairaCurve, v: KClass) -> tuple[int, ...]:
    """The vector gram . ranks(v); entry i is <v, e_i> for component i."""
    check_dimension(curve, v.ranks)
    return tuple(
        sum(curve.gram[i][j] * v.ranks[j] for j in range(curve.n)) for i in range(curve.n)
    )


@dataclass(frozen=True)
class RadicalBasis:
    """Basis of the pairing radical.

    skyscraper: class of a point, (chi, ranks) = (1, 0).
    cycle: the primitive fiber cycle, ranks = marks (gcd 1), chi = 0.
    fiber: the full fiber class, multiplicity times cycle (equal to cycle
    except for the multiple fibers mI_N).
    """

    skyscraper: KClass
    cycle: KClass
    fiber: KClass


def radical_basis(curve: KodairaCurve) -> RadicalBasis:
    g = math.gcd(*curve.marks)
    cycle = KClass(0, tuple(a // g for a in curve.marks))
    mult = curve.id.m if curve.id.family is Family.MI else 1
    return RadicalBasis(
        skyscraper=KClass(1, (0,) * curve.n),
        cycle=cycle,
        fiber=cycle.scale(mult),
    )


def line_bundle_class(curve: KodairaCurve, i: int, k: int) -> KClass:
    """Class of the degree-k line bundle on component i (1-based).

    On a projective line chi(O(k)) = k + 1, and the rank vector is the i-th
    unit vector.
    """
    check_index(curve, i)
    ranks = tuple(1 if j == i - 1 else 0 for j in range(curve.n))
    return KClass(k + 1, ranks)


def is_effective(curve: KodairaCurve, v: KClass) -> bool:
    """True for classes of nonzero sheaves: positive ranks, or a point-like
    class with zero ranks and positive chi."""
    check_dimension(curve, v.ranks)
    if any(r < 0 for r in v.ranks):
        return False
    if any(v.ranks):
        return True
    return v.chi > 0
