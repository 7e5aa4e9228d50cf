"""Central charges on the curve lattice, with exact validity tests.

A central charge assigns a complex rational to the point class (z0) and to
each degree -1 component line bundle (z_i); it extends linearly.  A charge
is valid when its values on the radical span the plane over the reals and
no root class is sent to zero.  Valid charges fall into two connected
components; "plus" is the one containing the reference charge z0 = -1,
z_i = i, detected by the sign of the span determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, wraps
from fractions import Fraction
from typing import NamedTuple, Optional

from .catalog import KodairaCurve
from .errors import (
    DegenerateRadical,
    DimensionMismatch,
    NotInP0,
    ParseError,
    VanishingRoot,
)
from .exact import QC, clear_denominators, format_rational
from .kgroup import KClass, check_dimension, radical_basis
from .ratlinalg import lagrange_reduce, nearest_corner, psd_pivots
from .roots import fundamental_roots, positive_roots


@dataclass(frozen=True)
class CentralCharge:
    """Values of the charge on the lattice basis: z0 on the point class,
    z[i] on the degree -1 line bundle of component i+1."""

    z0: QC
    z: tuple[QC, ...]

    def to_dict(self) -> dict:
        return {"z0": self.z0.to_pair(), "z": [v.to_pair() for v in self.z]}

    @classmethod
    def from_dict(cls, data: dict) -> "CentralCharge":
        try:
            z0 = QC.from_pair(data["z0"])
            z = tuple(QC.from_pair(p) for p in data["z"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed charge payload: {data!r}") from exc
        return cls(z0, z)


def reference_charge(curve: KodairaCurve) -> CentralCharge:
    """The classical point: z0 = -1 and z_i = i for every component."""
    return CentralCharge(QC(-1), tuple(QC(0, 1) for _ in range(curve.n)))


def evaluate(curve: KodairaCurve, zc: CentralCharge, v: KClass) -> QC:
    """Z(v) = chi(v) z0 + sum_i ranks_i(v) z_i."""
    check_dimension(curve, zc.z, "charge")
    check_dimension(curve, v.ranks)
    total = zc.z0.scale(v.chi)
    for r, zi in zip(v.ranks, zc.z):
        if r:
            total = total + zi.scale(r)
    return total


def cycle_value(curve: KodairaCurve, zc: CentralCharge) -> QC:
    """Z of the primitive fiber cycle."""
    return evaluate(curve, zc, radical_basis(curve).cycle)


def orientation_det(curve: KodairaCurve, zc: CentralCharge) -> Fraction:
    """det [[Re z0, Re Z(cycle)], [Im z0, Im Z(cycle)]].

    Nonzero iff the radical values span the plane; negative exactly on the
    component of the reference charge.
    """
    zr = cycle_value(curve, zc)
    return zc.z0.re * zr.im - zr.re * zc.z0.im


def radical_independence(curve: KodairaCurve, zc: CentralCharge) -> bool:
    """True when z0 and Z(cycle) are linearly independent over the reals."""
    check_dimension(curve, zc.z, "charge")
    return orientation_det(curve, zc) != 0


def _canonical_root_sign(delta: KClass) -> KClass:
    for r in delta.ranks:
        if r > 0:
            return delta
        if r < 0:
            return -delta
    return delta


@lru_cache(maxsize=None)
def _negative_roots(curve: KodairaCurve) -> tuple[tuple[KClass, int, int], ...]:
    """The fundamental roots with every rank <= 0, in lexicographic order,
    each as (root, p, j) with root = parent - e_j.

    These are the negated ``positive_roots``: -(a + e_j) = (-a) - e_j, so
    the parent of -b is -a, entry p, which comes later in the order; p is
    the length of the table when the parent is 0 (the simple root -e_j).
    Every root with all ranks <= 0 sorts before every positive one, so the
    classes are the first half of ``fundamental_roots``, shared with it.
    """
    pos = positive_roots(curve)
    neg = [tuple(-r for r in ranks) for ranks, _, _ in pos]
    order = sorted(range(len(pos)), key=neg.__getitem__)
    where = [len(pos)] * (len(pos) + 1)  # a parent p = -1 reads the last slot
    for k, i in enumerate(order):
        where[i] = k
    roots = fundamental_roots(curve)
    return tuple((roots[k], where[pos[i][1]], pos[i][2]) for k, i in enumerate(order))


class _Scan(NamedTuple):
    """A root scan's result with the charge's integer pairs (see ``_root_scan``)."""

    det: int
    msq: Optional[Fraction]
    witness: Optional[KClass]
    pairs: list[tuple[int, int]]
    best: Optional[int]


def _memo_last(scan):
    """A one-entry memo for ``scan(curve, zc)``.

    It hits when the curve is the last one (identity; ``curve_from_label``
    gives one object per label) and the charge is the last one, by identity
    or else by equality, so no ``Fraction`` is hashed.  ``cache_clear``
    empties it.
    """
    last = (None, None, None)  # curve, charge, result: replaced whole, read once

    @wraps(scan)
    def memo(curve: KodairaCurve, zc: CentralCharge) -> _Scan:
        nonlocal last
        last_curve, last_zc, result = last
        if curve is last_curve and (zc is last_zc or zc == last_zc):
            return result
        result = scan(curve, zc)
        last = curve, zc, result
        return result

    def cache_clear() -> None:
        nonlocal last
        last = (None, None, None)

    memo.cache_clear = cache_clear
    return memo


@_memo_last
def _root_scan(curve: KodairaCurve, zc: CentralCharge) -> _Scan:
    """(det, M^2, witness): least squared modulus of Z over all roots, in one
    pass, with the charge's integer pairs.

    Pair j holds D times value j (z0 first), with D the common denominator
    of the charge's values.  det is D^2 times ``orientation_det``; when it
    is 0 nothing is scanned and M^2, the witness and best are None.
    Otherwise best = M^2 D^2 is the scan's integer minimum.

    Every root is c ox + w0 + m cycle with w0 fundamental, so its values are
    the translates of Z(w0) by the rank-2 lattice spanned by z0 and
    Z(cycle), and per fundamental root the minimum is one closest-vector
    problem in the plane, solved on integers with the basis reduced once.
    That lattice is symmetric and Z(-w0) = -Z(w0), so w0 and -w0 are at the
    same distance; every finite root has all ranks >= 0 or all <= 0, and -p
    comes before p in lexicographic order.  The first root in that order to
    reach the minimum is therefore one with ranks <= 0, and only those are
    scanned, in the same order: a strictly smaller distance replaces the
    best one, and a distance of 0 (a vanishing root) stops the scan.  The
    witness is built once, from the winning root and lattice point.

    The reduced basis's Gram entries and determinant are computed once per
    charge.  The targets Z(-w0) are filled from the ``_negative_roots``
    parents, two integer additions per root, and so are the floor numerators
    of ``ratlinalg.nearest_corner``, which are linear in the target.

    The last scan is memoized (see ``_memo_last``): ``support_form`` and
    the chamber walk read the scan of the charge their caller has usually
    just checked, integer pairs included.
    """
    check_dimension(curve, zc.z, "charge")
    den, zs = clear_denominators((zc.z0, *zc.z))
    rad = radical_basis(curve)
    z0 = zs[0]
    zrho = (
        sum(r * x for r, (x, _) in zip(rad.cycle.ranks, zs[1:])),
        sum(r * y for r, (_, y) in zip(rad.cycle.ranks, zs[1:])),
    )
    det = z0[0] * zrho[1] - zrho[0] * z0[1]
    if det == 0:
        return _Scan(0, None, None, zs, None)
    (ux, uy), (vx, vy), umat = lagrange_reduce(z0, zrho)
    guu, guv, gvv = ux * ux + uy * uy, ux * vx + uy * vy, vx * vx + vy * vy
    gdet = guu * gvv - guv * guv
    # a target t's floor numerators are t.(ru, rv) and t.(su, sv)
    ru, rv = ux * gvv - vx * guv, uy * gvv - vy * guv
    su, sv = guu * vx - guv * ux, guu * vy - guv * uy
    steps = [(x, y, x * ru + y * rv, x * su + y * sv) for x, y in zs[1:]]
    table = _negative_roots(curve)
    fill = [(0, 0, 0, 0)] * (len(table) + 1)  # the last one is Z(0)
    for i in range(len(table) - 1, -1, -1):
        _, p, j = table[i]
        (tx, ty, nx, ny), (x, y, mx, my) = fill[p], steps[j]
        fill[i] = (tx + x, ty + y, nx + mx, ny + my)
    fill.pop()
    best: Optional[int] = None
    for i, (tx, ty, nx, ny) in enumerate(fill):
        dist, x, y = nearest_corner(ux, uy, vx, vy, gdet, tx, ty, nx, ny)
        if best is None or dist < best:
            best, win = dist, (i, x, y)
            if dist == 0:
                break
    i, x, y = win
    # back to (z0, Z(cycle)) coordinates: reduced rows are umat times those
    c = x * umat[0][0] + y * umat[1][0]
    m = x * umat[0][1] + y * umat[1][1]
    witness = rad.skyscraper.scale(c) + table[i][0] + rad.cycle.scale(m)
    return _Scan(det, Fraction(best, den * den), witness, zs, best)


def _scan_radical(curve: KodairaCurve, zc: CentralCharge) -> tuple[Fraction, KClass]:
    """(M^2, witness) of the scan; raises DegenerateRadical when there is none."""
    scan = _root_scan(curve, zc)
    if scan.det == 0:
        raise DegenerateRadical("radical values do not span the plane")
    return scan.msq, scan.witness


def vanishing_root(curve: KodairaCurve, zc: CentralCharge) -> Optional[KClass]:
    """A root delta with Z(delta) = 0, or None.

    The witness comes from the first fundamental root, in lexicographic
    order, whose translates reach 0, and is sign-normalized (first nonzero
    rank positive), which makes the result deterministic.
    """
    msq, witness = _scan_radical(curve, zc)
    return _canonical_root_sign(witness) if msq == 0 else None


def min_root_modulus_witness(
    curve: KodairaCurve, zc: CentralCharge
) -> tuple[Fraction, KClass]:
    """(M^2, argmin): least squared modulus of Z over all roots, exactly.

    Raises VanishingRoot when some root is sent to zero.
    """
    msq, witness = _scan_radical(curve, zc)
    if msq == 0:
        raise VanishingRoot(
            f"charge vanishes on the root {witness.to_dict()}"
        )
    return msq, witness


def min_root_modulus(curve: KodairaCurve, zc: CentralCharge) -> Fraction:
    """Least squared modulus M^2 = min |Z(delta)|^2 over all roots."""
    return min_root_modulus_witness(curve, zc)[0]


class Component(str, Enum):
    PLUS = "plus"
    MINUS = "minus"
    NOT_IN_P0 = "not_in_p0"


@dataclass(frozen=True)
class MembershipReport:
    """Validity report for a charge.

    in_p0 holds exactly when the radical values are independent and no root
    vanishes; min_modulus_sq is present exactly in that case.
    """

    in_p0: bool
    independent: bool
    vanishing: Optional[KClass]
    component: Component
    min_modulus_sq: Optional[Fraction]

    def to_dict(self) -> dict:
        return {
            "in_p0": self.in_p0,
            "independent": self.independent,
            "vanishing": None if self.vanishing is None else self.vanishing.to_dict(),
            "component": self.component.value,
            "min_modulus_sq": (
                None if self.min_modulus_sq is None else format_rational(self.min_modulus_sq)
            ),
        }


def membership(curve: KodairaCurve, zc: CentralCharge) -> MembershipReport:
    """Assemble the validity report; never raises on a well-formed charge."""
    scan = _root_scan(curve, zc)
    if scan.det == 0:
        return MembershipReport(False, False, None, Component.NOT_IN_P0, None)
    if scan.best == 0:
        return MembershipReport(
            False, True, _canonical_root_sign(scan.witness), Component.NOT_IN_P0, None
        )
    component = Component.PLUS if scan.det < 0 else Component.MINUS
    return MembershipReport(True, True, None, component, scan.msq)


@dataclass(frozen=True)
class SupportForm:
    """The support quadratic form Q(v) = <v,v> + (2/M^2) |Z(v)|^2.

    ``matrix`` is symmetric rational in the basis (point class, component
    unit classes); ``kernel_pivots`` are the positive LDL^T pivots of -Q
    restricted to the kernel of Z, computed fraction-free; they certify
    negative definiteness there.
    Z vanishes on that kernel, so Q equals the Euler pairing there, and the
    certificate is the Euler pairing restricted to ker Z.  The kernel basis
    is the reduced-row-echelon one of the 2 x dim system Re Z = Im Z = 0,
    found by Cramer's rule on its two pivot columns.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    kernel_pivots: tuple[Fraction, ...]

    def value(self, v: KClass) -> Fraction:
        if len(v.ranks) + 1 != len(self.matrix):
            raise DimensionMismatch(
                f"class has {len(v.ranks)} ranks, the form has {len(self.matrix) - 1} components"
            )
        coords = (v.chi,) + v.ranks
        return sum(
            ci * sum(q * cj for q, cj in zip(row, coords))
            for ci, row in zip(coords, self.matrix)
        )

    def to_dict(self) -> dict:
        return {"matrix": [[format_rational(x) for x in row] for row in self.matrix]}


def support_form(curve: KodairaCurve, zc: CentralCharge) -> SupportForm:
    """Build Q for a valid charge and certify its two defining properties.

    Q is negative definite on the kernel of Z (fraction-free LDL^T pivots)
    and nonnegative on every root, which holds by construction since M^2 is
    the exact minimum of |Z|^2 on roots.  Raises NotInP0 on invalid charges.

    The work runs on the charge's integer form, read from the root scan
    with its integer minimum: values times their common denominator D, and
    best = M^2 D^2.  Each kernel vector comes from
    Cramer's rule on the pivot columns 0 (z0 != 0) and q: for every other
    column f it is u_f = det e_f - cross(f, q) e_0 + a_f e_q, det times the
    echelon one, with det = cross(0, q) and a_f = -cross(0, f).  The point
    class pairs trivially with everything, so with G the Gram matrix the
    restricted pairing is the integer matrix

        R[f][g] = det (det G[f][g] + a_g G[f][q]) + a_f (det G[q][g] + a_g G[q][q]).

    det and every a_f are first divided by their gcd, which scales u_f
    alike, R by its square and the pivots with it: the pivots of R over
    (det / gcd)^2 are those of the echelon basis, on shorter integers.
    """
    scan = _root_scan(curve, zc)
    if not scan.best:  # radical values dependent (None), or a vanishing root (0)
        raise NotInP0(f"charge is not valid: component {Component.NOT_IN_P0.value}")
    zs, best = scan.pairs, scan.best
    # coordinates: (chi, ranks); the point class pairs trivially with everything
    gram = [[0] * (curve.n + 1)] + [[0, *row] for row in curve.gram]
    mat = [
        [Fraction(g * best + 2 * (ra * rb + ia * ib), best) for g, (rb, ib) in zip(row, zs)]
        for row, (ra, ia) in zip(gram, zs)
    ]

    def cross(a: int, b: int) -> int:
        return zs[a][0] * zs[b][1] - zs[a][1] * zs[b][0]

    # ker Z by Cramer's rule: z0 != 0 is the first pivot column, q the second
    q = next(j for j in range(1, len(zs)) if cross(0, j))
    free = [(f, -cross(0, f)) for f in range(1, len(zs)) if f != q]
    det = cross(0, q)
    g = math.gcd(det, *(a for _, a in free))
    det //= g
    free = [(f, a // g) for f, a in free]
    # Z vanishes on its kernel, so there Q is the Euler pairing alone; ker Z meets
    # the radical only in 0, so that pairing is negative definite on it
    gq = gram[q]
    neg_restricted = [
        [
            -det * (det * gram[f][h] + ah * gram[f][q]) - af * (det * gq[h] + ah * gq[q])
            for h, ah in free
        ]
        for f, af in free
    ]
    pivots = psd_pivots(neg_restricted)
    assert all(pivots)
    return SupportForm(
        matrix=tuple(tuple(row) for row in mat),
        kernel_pivots=tuple(Fraction(d, det * det) for d in pivots),
    )


def is_stability_function(curve: KodairaCurve, zc: CentralCharge) -> bool:
    """True iff z0 = -1 and every z_i lies in the open upper half plane."""
    check_dimension(curve, zc.z, "charge")
    if zc.z0 != QC(-1):
        return False
    return all(v.im > 0 for v in zc.z)
