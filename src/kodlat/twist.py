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
from .errors import IndexOutOfRange, ParseError
from .exact import QC
from .kgroup import KClass, check_dimension, gram_apply, line_bundle_class


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
        if not m:
            raise ParseError(f"bad twist generator: {text!r}")
        return cls(int(m.group(1)), int(m.group(2)), m.group(3) is not None)


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


def _check_index(curve: KodairaCurve, i: int) -> None:
    if not 1 <= i <= curve.n:
        raise IndexOutOfRange(f"component index {i} outside 1..{curve.n}")


def reflect_class(curve: KodairaCurve, i: int, k: int, v: KClass) -> KClass:
    """s(v) = v + <v, delta> delta for delta = [O_i(k)]."""
    _check_index(curve, i)
    check_dimension(curve, v.ranks)
    delta = line_bundle_class(curve, i, k)
    coeff = gram_apply(curve, v)[i - 1]  # <v, delta> depends on ranks only
    return v + delta.scale(coeff)


def dual_reflect_charge(
    curve: KodairaCurve, i: int, k: int, zc: CentralCharge
) -> CentralCharge:
    """The charge Z o s.  z0 is fixed; component j moves by
    gram[j][i] ((k+1) z0 + z_i), which for normalized z0 = -1 is the familiar
    z_j + gram[j][i] (z_i - (k+1))."""
    _check_index(curve, i)
    check_dimension(curve, zc.z, "charge")
    zdelta = zc.z0.scale(k + 1) + zc.z[i - 1]
    new_z = tuple(
        zj + zdelta.scale(curve.gram[j][i - 1]) for j, zj in enumerate(zc.z)
    )
    return CentralCharge(zc.z0, new_z)


def apply_word(curve: KodairaCurve, word: TwistWord, target):
    """Apply a word left to right to a KClass or a CentralCharge."""
    if isinstance(target, KClass):
        for g in word.generators:
            target = reflect_class(curve, g.i, g.k, target)
        return target
    if isinstance(target, CentralCharge):
        for g in word.generators:
            target = dual_reflect_charge(curve, g.i, g.k, target)
        return target
    raise TypeError(f"cannot apply a twist word to {type(target).__name__}")
