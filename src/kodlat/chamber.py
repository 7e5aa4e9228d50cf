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

from .catalog import KodairaCurve
from .charge import CentralCharge, Component, _root_scan, membership
from .errors import (
    CornerOnPath,
    DegenerateCharge,
    EndpointOnWall,
    InvalidParams,
    NotGeneral,
    NotPlusComponent,
    StepLimitExceeded,
)
from .exact import QC, clear_denominators, format_rational, from_scaled
from .kgroup import KClass, check_dimension, check_index, line_bundle_class, radical_basis
from .roots import positive_roots
from .twist import TwistGenerator, TwistWord, reflect_scaled


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


def _normalized_pairs(pairs) -> tuple[int, list[tuple[int, int]]]:
    """(D, pairs) of the values -z_j / z0 from integer pairs (z0 first, nonzero)
    over any denominator, which cancels: z_j = (x, y) and z0 = (a, b) give
    (-(xa + yb), -(ya - xb)) over a^2 + b^2, and dividing all by their gcd
    gives the lcm D and the pairs of ``clear_denominators``."""
    (a, b), *zs = pairs
    nums = [(-(x * a + y * b), -(y * a - x * b)) for x, y in zs]
    g = math.gcd(a * a + b * b, *(v for pair in nums for v in pair))
    return (a * a + b * b) // g, [(x // g, y // g) for x, y in nums]


def normalize(curve: KodairaCurve, zc: CentralCharge) -> NormalizedCharge:
    """Multiply all values by -1/z0, on integers; requires z0 != 0."""
    check_dimension(curve, zc.z, "charge")
    if not zc.z0:
        raise DegenerateCharge("point value is zero, cannot normalize")
    _, pairs = clear_denominators((zc.z0, *zc.z))
    return NormalizedCharge(from_scaled(*_normalized_pairs(pairs)))


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


def _walk_length(curve: KodairaCurve, zs: list[tuple[int, int]]) -> int:
    """Steps of the greedy walk from the integer pairs of a normalized plus
    charge: one per positive affine root with Im Z < 0.  With s = Im Z(r)
    for a positive root r and level = Im Z(cycle) > 0, r + m cycle counts
    for 0 <= m < -s / level and -r + m cycle for 1 <= m < s / level."""
    ys = [y for _, y in zs]
    level = sum(c * y for c, y in zip(radical_basis(curve).cycle.ranks, ys))
    roots = positive_roots(curve)
    sums = [0] * (len(roots) + 1)  # a parent p = -1 reads the last slot, 0
    count = 0
    for i, (_, p, j) in enumerate(roots):
        sums[i] = s = sums[p] + ys[j]
        count += -(s // level) if s <= 0 else (s - 1) // level
    return count


def reduce_to_fundamental(
    curve: KodairaCurve, zc: CentralCharge, max_steps: int = 10000
) -> ReductionTrace:
    """Greedy chamber reduction of a plus-component charge.

    At each step the component with the most negative imaginary part is
    reflected (ties to the smallest index); the degree is chosen so k+1 is
    the nearest integer to Re z_i, ties rounding down.  Stops as soon as the
    closed chamber test is not outside.  Each step removes one positive
    affine root with Im Z < 0, so ``_walk_length`` counts the steps before
    the walk; past ``max_steps`` it raises StepLimitExceeded with the partial
    trace.  A negative cap raises InvalidParams before any work.
    """
    if max_steps < 0:
        raise InvalidParams(f"max_steps must be >= 0, got {max_steps}")
    report = membership(curve, zc)
    if report.component is not Component.PLUS:
        raise NotPlusComponent(f"charge component is {report.component.value}")
    den, zs = _normalized_pairs(_root_scan(curve, zc).pairs)  # membership's scan
    z0 = (-den, 0)  # z0 = -1 over D, fixed by every step
    length = _walk_length(curve, zs)
    zn = NormalizedCharge(from_scaled(den, zs))
    steps: list[ReductionStep] = []
    for _ in range(min(length, max_steps)):
        worst = min(range(curve.n), key=lambda idx: (zs[idx][1], idx))
        assert zs[worst][1] < 0, "the walk went past its counted length"
        # k + 1 = ceil(x/D - 1/2), the nearest integer with ties rounded down
        k = -((den - 2 * zs[worst][0]) // (2 * den)) - 1
        reflect_scaled(curve, worst + 1, k, z0, zs)
        zn = NormalizedCharge(from_scaled(den, zs))
        steps.append(ReductionStep(TwistGenerator(worst + 1, k), zn))
    word = TwistWord(tuple(s.generator for s in steps))
    trace = ReductionTrace(tuple(steps), word, zn, terminated=length <= max_steps)
    if not trace.terminated:
        raise StepLimitExceeded(f"no termination within {max_steps} steps", trace)
    # inside or on a wall; NotGeneral propagates from corner points
    verdict = in_fundamental_chamber(curve, zn, closed=True)
    assert verdict.position is not Position.OUTSIDE, "the walk stopped short of its length"
    return trace


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
    check_index(curve, i)
    return TorsionPairData(i=i, k=k)
