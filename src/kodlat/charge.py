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
from fractions import Fraction
from typing import Optional

from .catalog import KodairaCurve
from .errors import (
    DegenerateRadical,
    NotInP0,
    ParseError,
    VanishingRoot,
)
from .exact import QC, format_rational
from .kgroup import KClass, check_dimension, radical_basis
from .ratlinalg import closest_lattice_point, lagrange_reduce, nullspace, psd_pivots
from .roots import fundamental_roots


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


def _root_scan(curve: KodairaCurve, zc: CentralCharge) -> tuple[Fraction, KClass]:
    """(M^2, witness): least squared modulus of Z over all roots, in one pass.

    Every root is c ox + w0 + m cycle with w0 fundamental, so its values are
    the translates of Z(w0) by the rank-2 lattice spanned by z0 and
    Z(cycle), and per fundamental root the minimum is one closest-vector
    problem in the plane.  Denominators are cleared once, so the scan runs
    on integers scaled by their lcm D, and the lattice basis is reduced once.
    Fundamental roots go in lexicographic order, a strictly smaller distance
    replaces the witness, and a distance of 0 (a vanishing root) stops it.
    """
    check_dimension(curve, zc.z, "charge")
    values = (zc.z0,) + zc.z
    den = math.lcm(*(x.denominator for val in values for x in (val.re, val.im)))
    z0, *zs = [(int(val.re * den), int(val.im * den)) for val in values]

    def scaled_value(ranks: tuple[int, ...]) -> tuple[int, int]:
        re = im = 0
        for r, (x, y) in zip(ranks, zs):
            if r:
                re += r * x
                im += r * y
        return re, im

    rad = radical_basis(curve)
    zrho = scaled_value(rad.cycle.ranks)
    if z0[0] * zrho[1] - zrho[0] * z0[1] == 0:
        raise DegenerateRadical("radical values do not span the plane")
    u, v, umat = lagrange_reduce(z0, zrho)
    best: Optional[int] = None
    witness: Optional[KClass] = None
    for w0 in fundamental_roots(curve):
        re, im = scaled_value(w0.ranks)
        dist, (x, y) = closest_lattice_point(u, v, (-re, -im))
        if best is None or dist < best:
            best = dist
            # back to (z0, Z(cycle)) coordinates: reduced rows are umat times those
            c = x * umat[0][0] + y * umat[1][0]
            m = x * umat[0][1] + y * umat[1][1]
            witness = rad.skyscraper.scale(c) + w0 + rad.cycle.scale(m)
            if best == 0:
                break
    assert best is not None and witness is not None
    return Fraction(best, den * den), witness


def vanishing_root(curve: KodairaCurve, zc: CentralCharge) -> Optional[KClass]:
    """A root delta with Z(delta) = 0, or None.

    The witness comes from the first fundamental root, in lexicographic
    order, whose translates reach 0, and is sign-normalized (first nonzero
    rank positive), which makes the result deterministic.
    """
    msq, witness = _root_scan(curve, zc)
    return _canonical_root_sign(witness) if msq == 0 else None


def min_root_modulus_witness(
    curve: KodairaCurve, zc: CentralCharge
) -> tuple[Fraction, KClass]:
    """(M^2, argmin): least squared modulus of Z over all roots, exactly.

    Raises VanishingRoot when some root is sent to zero.
    """
    msq, witness = _root_scan(curve, zc)
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
    check_dimension(curve, zc.z, "charge")
    det = orientation_det(curve, zc)
    if det == 0:
        return MembershipReport(False, False, None, Component.NOT_IN_P0, None)
    msq, witness = _root_scan(curve, zc)
    if msq == 0:
        return MembershipReport(
            False, True, _canonical_root_sign(witness), Component.NOT_IN_P0, None
        )
    component = Component.PLUS if det < 0 else Component.MINUS
    return MembershipReport(True, True, None, component, msq)


@dataclass(frozen=True)
class SupportForm:
    """The support quadratic form Q(v) = <v,v> + (2/M^2) |Z(v)|^2.

    ``matrix`` is symmetric rational in the basis (point class, component
    unit classes); ``kernel_pivots`` are the positive LDL^T pivots of -Q
    restricted to the kernel of Z, certifying negative definiteness there.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    kernel_pivots: tuple[Fraction, ...]

    def value(self, v: KClass) -> Fraction:
        coords = (v.chi,) + v.ranks
        return sum(
            ci * sum(q * cj for q, cj in zip(row, coords))
            for ci, row in zip(coords, self.matrix)
        )

    def to_dict(self) -> dict:
        return {"matrix": [[format_rational(x) for x in row] for row in self.matrix]}


def support_form(curve: KodairaCurve, zc: CentralCharge) -> SupportForm:
    """Build Q for a valid charge and certify its two defining properties.

    Q is negative definite on the kernel of Z (rational LDL^T certificate)
    and nonnegative on every root, which holds by construction since M^2 is
    the exact minimum of |Z|^2 on roots.  Raises NotInP0 on invalid charges.
    """
    report = membership(curve, zc)
    if not report.in_p0:
        raise NotInP0(f"charge is not valid: component {report.component.value}")
    msq = report.min_modulus_sq
    n = curve.n
    dim = n + 1
    # coordinates: (chi, ranks); Z coefficients per basis vector
    zvals = [zc.z0] + list(zc.z)
    re = [v.re for v in zvals]
    im = [v.im for v in zvals]
    scale = Fraction(2) / msq
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            g = Fraction(curve.gram[a - 1][b - 1]) if a >= 1 and b >= 1 else Fraction(0)
            mat[a][b] = g + scale * (re[a] * re[b] + im[a] * im[b])
    # kernel of Z: two real conditions on the coefficient vector
    kernel = nullspace([re, im])
    assert len(kernel) == dim - 2
    restricted = [
        [
            sum(u[a] * mat[a][b] * v[b] for a in range(dim) for b in range(dim))
            for v in kernel
        ]
        for u in kernel
    ]
    try:
        pivots = psd_pivots([[-x for x in row] for row in restricted])
    except ValueError as exc:  # pragma: no cover - impossible for valid charges
        raise NotInP0(f"support form not negative definite on ker Z: {exc}") from exc
    if not all(p > 0 for p in pivots):  # pragma: no cover
        raise NotInP0("support form degenerate on ker Z")
    return SupportForm(
        matrix=tuple(tuple(row) for row in mat),
        kernel_pivots=tuple(pivots),
    )


def is_stability_function(curve: KodairaCurve, zc: CentralCharge) -> bool:
    """True iff z0 = -1 and every z_i lies in the open upper half plane."""
    check_dimension(curve, zc.z, "charge")
    if zc.z0 != QC(-1):
        return False
    return all(v.im > 0 for v in zc.z)
