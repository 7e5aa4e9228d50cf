"""Fundamental chamber tests, greedy reduction, and wall data.

Charges are normalized so the point class takes the value -1; the
fundamental chamber is where every component value has positive imaginary
part.  Its walls come in families indexed by a component i and an integer
k: a wall charge has Im z_i = 0 with k+1 < Re z_i < k+2, and integral real
part is a corner where the wall type is undefined.  Greedy reduction
reflects at the most violated component until the closed chamber is
reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .catalog import KodairaCurve
from .charge import CentralCharge, Component, membership
from .errors import (
    CornerOnPath,
    DegenerateCharge,
    EndpointOnWall,
    IndexOutOfRange,
    NotGeneral,
    NotPlusComponent,
    StepLimitExceeded,
)
from .exact import QC, format_rational, nearest_int_half_down
from .kgroup import KClass, check_dimension, line_bundle_class
from .twist import TwistGenerator, TwistWord, dual_reflect_charge


@dataclass(frozen=True)
class NormalizedCharge:
    """Component values of a charge scaled so the point value is -1."""

    z: tuple[QC, ...]

    def as_charge(self) -> CentralCharge:
        return CentralCharge(QC(-1), self.z)

    def to_dict(self) -> dict:
        return {"z": [v.to_pair() for v in self.z]}

    @classmethod
    def from_dict(cls, data: dict) -> "NormalizedCharge":
        return cls(tuple(QC.from_pair(p) for p in data["z"]))


def normalize(curve: KodairaCurve, zc: CentralCharge) -> NormalizedCharge:
    """Multiply all values by -1/z0; requires z0 != 0."""
    check_dimension(curve, zc.z, "charge")
    if not zc.z0:
        raise DegenerateCharge("point value is zero, cannot normalize")
    factor = QC(-1) / zc.z0
    return NormalizedCharge(tuple(v * factor for v in zc.z))


class Position(str, Enum):
    INSIDE = "inside"
    ON_WALL = "on_wall"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ChamberVerdict:
    position: Position
    walls: tuple[tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        return {"position": self.position.value, "walls": [list(w) for w in self.walls]}


def _wall_index(re: Fraction) -> int:
    """The k with k+1 < re < k+2; re must not be an integer."""
    return math.floor(re) - 1


def in_fundamental_chamber(
    curve: KodairaCurve, zn: NormalizedCharge, closed: bool = False
) -> ChamberVerdict:
    """Chamber test for a normalized charge.

    Open test: inside iff Im z_i > 0 for all i, otherwise outside.  Closed
    test additionally reports each Im z_i = 0 as the wall (i, k) its real
    part selects; an integral real part there is a corner and raises
    NotGeneral.
    """
    check_dimension(curve, zn.z, "charge")
    if all(v.im > 0 for v in zn.z):
        return ChamberVerdict(Position.INSIDE)
    if not closed or any(v.im < 0 for v in zn.z):
        return ChamberVerdict(Position.OUTSIDE)
    walls = []
    for idx, v in enumerate(zn.z):
        if v.im == 0:
            if v.re.denominator == 1:
                raise NotGeneral(
                    f"component {idx + 1} sits at the corner Re = {v.re}"
                )
            walls.append((idx + 1, _wall_index(v.re)))
    return ChamberVerdict(Position.ON_WALL, tuple(walls))


@dataclass(frozen=True)
class ReductionStep:
    generator: TwistGenerator
    charge_after: NormalizedCharge

    def to_dict(self) -> dict:
        return {"generator": str(self.generator), "charge_after": self.charge_after.to_dict()}


@dataclass(frozen=True)
class ReductionTrace:
    """Word of reflections driving a charge into the closed chamber.

    Replaying ``word`` on the normalized input reproduces ``final`` exactly;
    replaying the reversed word on ``final`` recovers the input, since every
    generator is an involution.
    """

    steps: tuple[ReductionStep, ...]
    word: TwistWord
    final: NormalizedCharge
    terminated: bool

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "word": self.word.to_list(),
            "final": self.final.to_dict(),
            "terminated": self.terminated,
        }


def _reflect_normalized(
    curve: KodairaCurve, i: int, k: int, zn: NormalizedCharge
) -> NormalizedCharge:
    # the dual reflection fixes z0, so normalized charges stay normalized
    return NormalizedCharge(dual_reflect_charge(curve, i, k, zn.as_charge()).z)


def reduce_to_fundamental(
    curve: KodairaCurve, zc: CentralCharge, max_steps: int = 10000
) -> ReductionTrace:
    """Greedy chamber reduction of a plus-component charge.

    At each step the component with the most negative imaginary part is
    reflected (ties to the smallest index); the degree is chosen so k+1 is
    the nearest integer to Re z_i, ties rounding down.  Stops as soon as the
    closed chamber test is not outside.  The strictly positive level
    Im Z(cycle) is preserved by every step, which is what forces the walk to
    terminate; a step cap and exact-state cycle detection guard it anyway.
    """
    report = membership(curve, zc)
    if report.component is not Component.PLUS:
        raise NotPlusComponent(f"charge component is {report.component.value}")
    zn = normalize(curve, zc)
    steps: list[ReductionStep] = []
    seen = {zn}

    def trace(final: NormalizedCharge, terminated: bool) -> ReductionTrace:
        return ReductionTrace(
            steps=tuple(steps),
            word=TwistWord(tuple(s.generator for s in steps)),
            final=final,
            terminated=terminated,
        )

    while True:
        if not any(v.im < 0 for v in zn.z):
            # inside or on a wall; NotGeneral propagates from corner points
            in_fundamental_chamber(curve, zn, closed=True)
            return trace(zn, True)
        if len(steps) >= max_steps:
            raise StepLimitExceeded(
                f"no termination within {max_steps} steps", trace(zn, False)
            )
        worst = min(range(curve.n), key=lambda idx: (zn.z[idx].im, idx))
        i = worst + 1
        k = nearest_int_half_down(zn.z[worst].re) - 1
        gen = TwistGenerator(i, k)
        zn = _reflect_normalized(curve, i, k, zn)
        steps.append(ReductionStep(gen, zn))
        if zn in seen:
            raise StepLimitExceeded("state revisited: walk cycles", trace(zn, False))
        seen.add(zn)


@dataclass(frozen=True)
class WallEvent:
    """A wall crossing along a straight segment of normalized charges."""

    t: Fraction
    i: int
    k: int
    re_at_wall: Fraction

    def to_dict(self) -> dict:
        return {
            "t": format_rational(self.t),
            "i": self.i,
            "k": self.k,
            "re_at_wall": format_rational(self.re_at_wall),
        }


def wall_crossings_on_segment(
    curve: KodairaCurve, za: NormalizedCharge, zb: NormalizedCharge
) -> tuple[WallEvent, ...]:
    """All wall crossings of Z(t) = (1-t) Za + t Zb for t in (0, 1).

    Each component contributes at most one crossing, where its imaginary
    part changes sign; events are sorted by (t, i).  Endpoints on a wall and
    crossings at integral real part (corners) are rejected.
    """
    for zn in (za, zb):
        check_dimension(curve, zn.z, "charge")
    events = []
    for idx in range(curve.n):
        a, b = za.z[idx], zb.z[idx]
        if a.im == 0 or b.im == 0:
            raise EndpointOnWall(f"endpoint lies on a wall at component {idx + 1}")
        if (a.im > 0) == (b.im > 0):
            continue
        t = a.im / (a.im - b.im)
        re = a.re + t * (b.re - a.re)
        if re.denominator == 1:
            raise CornerOnPath(
                f"segment hits the corner Re = {re} at component {idx + 1}"
            )
        events.append(WallEvent(t=t, i=idx + 1, k=_wall_index(re), re_at_wall=re))
    return tuple(sorted(events, key=lambda e: (e.t, e.i)))


def jh_of_skyscraper(curve: KodairaCurve, i: int, k: int) -> tuple[KClass, KClass]:
    """Classes of the two stable factors of a point class on wall (i, k).

    The factors are [O_i(k+1)] and its complement: they sum to the point
    class.
    """
    first = line_bundle_class(curve, i, k + 1)
    second = KClass(1, (0,) * curve.n) - first
    return first, second


@dataclass(frozen=True)
class TorsionPairData:
    """Symbolic description of the heart rotation attached to wall (i, k):
    the free part is generated by the line bundles of degree at most k on
    component i, the torsion part is its left orthogonal."""

    i: int
    k: int

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "k": self.k,
            "f_generators": {"i": self.i, "degrees": f"<= {self.k}"},
            "t": "left-orthogonal",
        }


def torsion_pair_data(curve: KodairaCurve, i: int, k: int) -> TorsionPairData:
    if not 1 <= i <= curve.n:
        raise IndexOutOfRange(f"component index {i} outside 1..{curve.n}")
    return TorsionPairData(i=i, k=k)
