"""Reflection actions of spherical twists on classes and charges.

The twist along the degree-k line bundle on component i acts on the lattice
by the reflection s(v) = v + <v, delta> delta in the root delta = [O_i(k)],
and on charges by precomposition with s.  Each generator squares to the
identity on the lattice, so a word is undone by replaying it reversed; the
``inverse`` flag on a generator is bookkeeping for object-level semantics
and does not change the action here.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass, field

from .catalog import KodairaCurve
from .charge import CentralCharge
from .errors import ParseError
from .exact import clear_denominators, from_scaled
from .kgroup import KClass, check_dimension, check_index, gram_apply, line_bundle_class


@dataclass(frozen=True)
class TwistGenerator:
    """Twist along the degree-k line bundle of component i (1-based)."""

    i: int
    k: int
    inverse: bool = False

    def __str__(self) -> str:
        base = f"T({self.i},{self.k})"
        return base + "^-1" if self.inverse else base

    _PATTERN = _re.compile(r"^T\((-?\d+),(-?\d+)\)(\^-1)?$")

    @classmethod
    def parse(cls, text: str) -> "TwistGenerator":
        m = cls._PATTERN.match(text.strip())
        if m:
            try:
                return cls(int(m.group(1)), int(m.group(2)), m.group(3) is not None)
            except ValueError:  # a numeral past the integer conversion limit
                pass
        raise ParseError(f"bad twist generator: {text!r}")


@dataclass(frozen=True)
class TwistWord:
    """A finite word of twist generators, applied left to right."""

    generators: tuple[TwistGenerator, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        return ";".join(str(g) for g in self.generators)

    def to_list(self) -> list[str]:
        return [str(g) for g in self.generators]

    def reversed(self) -> "TwistWord":
        return TwistWord(tuple(reversed(self.generators)))

    @classmethod
    def parse(cls, text: str) -> "TwistWord":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(TwistGenerator.parse(p) for p in text.split(";") if p.strip()))

    @classmethod
    def from_list(cls, items) -> "TwistWord":
        return cls(tuple(TwistGenerator.parse(str(p)) for p in items))


def reflect_class(curve: KodairaCurve, i: int, k: int, v: KClass) -> KClass:
    """s(v) = v + <v, delta> delta for delta = [O_i(k)]."""
    check_index(curve, i)
    check_dimension(curve, v.ranks)
    delta = line_bundle_class(curve, i, k)
    coeff = gram_apply(curve, v)[i - 1]  # <v, delta> depends on ranks only
    return v + delta.scale(coeff)


def reflect_scaled(
    curve: KodairaCurve, i: int, k: int, z0: tuple[int, int], zs: list[tuple[int, int]]
) -> None:
    """Z o s on integer (re, im) pairs over a common denominator, in place:
    z0 is fixed and component j moves by gram[j][i] ((k+1) z0 + z_i), which
    for normalized z0 = -1 is the familiar z_j + gram[j][i] (z_i - (k+1))."""
    dx = (k + 1) * z0[0] + zs[i - 1][0]
    dy = (k + 1) * z0[1] + zs[i - 1][1]
    for j, row in enumerate(curve.gram):
        if row[i - 1]:
            zs[j] = (zs[j][0] + row[i - 1] * dx, zs[j][1] + row[i - 1] * dy)


def dual_reflect_charge(
    curve: KodairaCurve, i: int, k: int, zc: CentralCharge
) -> CentralCharge:
    """The charge Z o s for the single generator T(i, k)."""
    return apply_word(curve, TwistWord((TwistGenerator(i, k),)), zc)


def apply_word(curve: KodairaCurve, word: TwistWord, target):
    """Apply a word left to right to a KClass or a CentralCharge, checking
    its dimension once first; a charge moves as integer pairs over D."""
    if isinstance(target, KClass):
        check_dimension(curve, target.ranks)
        for g in word.generators:
            target = reflect_class(curve, g.i, g.k, target)
        return target
    if isinstance(target, CentralCharge):
        check_dimension(curve, target.z, "charge")
        den, (z0, *zs) = clear_denominators((target.z0, *target.z))
        for g in word.generators:
            check_index(curve, g.i)
            reflect_scaled(curve, g.i, g.k, z0, zs)
        return CentralCharge(target.z0, from_scaled(den, zs))
    raise TypeError(f"cannot apply a twist word to {type(target).__name__}")
