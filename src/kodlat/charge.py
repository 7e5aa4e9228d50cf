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
from .ratlinalg import lagrange_reduce, nearest_corner
from .roots import positive_roots


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
    charge.  The targets Z(w), for the roots w of ``positive_roots``, are
    filled forward from their parents, two integer additions per root, and
    so are the floor numerators of ``ratlinalg.nearest_corner``, which are
    linear in the target; the lattice point nearest Z(w) is the one that
    makes Z(-w) + it least.  That table is in increasing lexicographic
    order and negation reverses it, so the reversed targets visit the roots
    -w in the scan's order.  Only the winning root becomes a ``KClass``.

    The last scan is memoized (see ``_memo_last``): ``support_form`` and
    the chamber walk read the scan of the charge their caller has usually
    just checked, integer pairs included.
    """
    check_dimension(curve, zc.z, "charge")
    den, zs = clear_denominators((zc.z0, *zc.z))
    z0 = zs[0]
    zrho = (  # the cycle's ranks are the marks
        sum(r * x for r, (x, _) in zip(curve.marks, zs[1:])),
        sum(r * y for r, (_, y) in zip(curve.marks, zs[1:])),
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
    table = positive_roots(curve)
    fill = [(0, 0, 0, 0)] * (len(table) + 1)  # a parent p = -1 reads the last slot, Z(0)
    for i, (_, p, j) in enumerate(table):
        (tx, ty, nx, ny), (x, y, mx, my) = fill[p], steps[j]
        fill[i] = (tx + x, ty + y, nx + mx, ny + my)
    fill.pop()
    fill.reverse()  # entry i is now Z(w) for the i-th root -w of the ranks <= 0 half
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
    # the witness c ox + w0 + m cycle, with w0 the negated i-th root
    witness = KClass(c, tuple(m * a - r for a, r in zip(curve.marks, table[-1 - i][0])))
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
    restricted to the kernel of Z; they certify negative definiteness
    there.  Z vanishes on that kernel, so Q equals the Euler pairing there,
    and the certificate is the Euler pairing restricted to ker Z.  The
    kernel basis is the reduced-row-echelon one of the 2 x dim system
    Re Z = Im Z = 0, found by Cramer's rule on its two pivot columns, and
    pivot k is the ratio of the certificate's leading minors of sizes k
    and k - 1, each found from a per-curve factorization by the matrix
    determinant lemma (see ``support_form``).
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


@lru_cache(maxsize=None)
def _kernel_factor(curve: KodairaCurve, q: int) -> tuple[tuple, ...]:
    """The per-curve half of the support form's kernel pivots, for the
    second Cramer pivot column q (1-based, as in ``support_form``).

    With N = -G the negated Gram matrix and F the components other than
    q, in order, N_F is positive definite: F misses a node of an affine
    diagram.  Let Delta_k be its leading minors (Delta_0 = 1), L its unit
    lower LDL^T factor and n = N_{F,q}.  For a vector x on F the integer
    minors Delta_{k-1} (L^-1 x)_k come by forward substitution along
    the rows of L.  The result holds one step per position k of F:

        (Delta_k, nu_k, S_nn(k) - N_qq Delta_k, r_k, c_k, ((i, c_ki), ...)),

    and the minor at k is (c_k x_k + sum_i c_ki minor_i) / r_k, exact on
    integers, with i over the nonzero entries of row k of L.  nu_k is that
    minor for x = n, and the integer S_nn(k) = Delta_k n_k^T N_k^-1 n_k is
    (Delta_k S_nn(k-1) + nu_k^2) / Delta_{k-1}.

    L comes from a sparse elimination over the graph in F's order, with
    ``Fraction`` entries: an eliminated node updates only its later
    neighbours.  On the catalog's node orders that fills at most one
    column: none on a path or a D~ diagram, and one on a cycle cut at a
    node other than its first or last, and on the E~ diagrams, whose third
    arm is numbered after the chain.
    """
    free = [j for j in range(curve.n) if j != q - 1]
    where = {j: k for k, j in enumerate(free)}
    # N is 2 on its diagonal and minus the intersection count off it
    diag = [Fraction(2)] * len(free)
    # upper[k][l] = the current entry (k, l) for l > k; lower[k][i] = L[k][i]
    upper = [{} for _ in free]
    for k, j in enumerate(free):
        for l in (where.get(h, -1) for h in curve.neighbours[j]):
            if l > k:
                upper[k][l] = upper[k].get(l, 0) - 1
    lower: list[dict[int, Fraction]] = [{} for _ in free]
    for i, row in enumerate(upper):
        later = sorted(row.items())
        for a, (k, x) in enumerate(later):
            lk = x / diag[i]
            lower[k][i] = lk
            diag[k] -= lk * x
            for l, y in later[a + 1 :]:
                upper[k][l] = upper[k].get(l, 0) - lk * y
    minors = [1]
    for d in diag:
        minors.append(int(minors[-1] * d))
    steps, nus, snn = [], [], 0
    for k, j in enumerate(free):
        d0, d1 = minors[k], minors[k + 1]
        coeffs = [(i, -d0 * lki / minors[i]) for i, lki in sorted(lower[k].items())]
        r = math.lcm(*(c.denominator for _, c in coeffs))
        terms = tuple((i, int(c * r)) for i, c in coeffs)
        nu = (-d0 * r * curve.neighbours[j].count(q - 1) + sum(c * nus[i] for i, c in terms)) // r
        nus.append(nu)
        snn = (d1 * snn + nu * nu) // d0
        steps.append((d1, nu, snn - 2 * d1, r, d0 * r, terms))  # N_qq = 2
    return tuple(steps)


def support_form(curve: KodairaCurve, zc: CentralCharge) -> SupportForm:
    """Build Q for a valid charge and certify its two defining properties.

    Q is negative definite on the kernel of Z (positive LDL^T pivots of -Q
    there) and nonnegative on every root, which holds by construction
    since M^2 is the exact minimum of |Z|^2 on roots.  Raises NotInP0 on
    invalid charges.

    The work runs on the charge's integer form, read from the root scan
    with its integer minimum: values times their common denominator D, and
    best = M^2 D^2.  Each kernel vector comes from Cramer's rule on the
    pivot columns 0 (z0 != 0) and q: for every other column f the echelon
    vector is v_f = e_f - (cross(f, q) / det) e_0 + (a_f / det) e_q, with
    det = cross(0, q) and a_f = -cross(0, f), and det and every a_f are
    first divided by their gcd.  The point class pairs trivially with
    everything, so with N = -G on the components, F the columns other than
    q, in order, and n = N_{F,q}, the certificate -G on the v_f is the
    rank-2 update

        V = N_F + B C B^T,  B = [a / det, n],  C = [[N_qq, 1], [1, 0]],

    and so is its leading k x k block.  N_F's block N_k is positive
    definite, so the matrix determinant lemma gives det V_k from the
    quadratic forms of a and n in N_k^-1.  On integers, with Delta_k,
    nu_k and S_nn(k) from ``_kernel_factor`` and alpha_k = Delta_{k-1}
    (L^-1 a)_k found by the same forward substitution:

        S_aa(k) = (Delta_k S_aa(k-1) + alpha_k^2) / Delta_{k-1},
        S_an(k) = (Delta_k S_an(k-1) + alpha_k nu_k) / Delta_{k-1},
        J_k = S_aa(k) (S_nn(k) - N_qq Delta_k) - (det Delta_k + S_an(k))^2,

    every division exact and J_0 = -det^2.  Then det V_k = -J_k / (det^2
    Delta_k), so pivot k is J_k Delta_{k-1} / (J_{k-1} Delta_k): O(n)
    integer work and one ``Fraction`` per pivot.
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
    avec = [-cross(0, f) for f in range(1, len(zs)) if f != q]
    det = cross(0, q)
    g = math.gcd(det, *avec)
    det //= g
    avec = [a // g for a in avec]
    # Z vanishes on its kernel, so there Q is the Euler pairing alone; ker Z meets
    # the radical only in 0, so that pairing is negative definite on it
    alphas, pivots = [], []
    saa = san = 0
    d0, j0 = 1, -det * det
    for a, (d1, nu, tnn, r, c, terms) in zip(avec, _kernel_factor(curve, q)):
        alpha = (c * a + sum(ci * alphas[i] for i, ci in terms)) // r
        alphas.append(alpha)
        saa = (d1 * saa + alpha * alpha) // d0
        san = (d1 * san + alpha * nu) // d0
        j1 = saa * tnn - (det * d1 + san) ** 2
        assert j1 < 0  # det V_k > 0: the pivots are positive
        pivots.append(Fraction(j1 * d0, j0 * d1))
        d0, j0 = d1, j1
    return SupportForm(matrix=tuple(tuple(row) for row in mat), kernel_pivots=tuple(pivots))


def is_stability_function(curve: KodairaCurve, zc: CentralCharge) -> bool:
    """True iff z0 = -1 and every z_i lies in the open upper half plane."""
    check_dimension(curve, zc.z, "charge")
    if zc.z0 != QC(-1):
        return False
    return all(v.im > 0 for v in zc.z)
