"""Small exact linear algebra helpers.

The semidefiniteness certificate (LDL^T pivots) works on lists of lists of
Fractions; matrices never exceed a few dozen entries, so clarity beats
asymptotics.  No kernel bases are computed here: the support form's kernel
has a closed form on integers (see ``charge.support_form``).  The
two-dimensional lattice reduction and closest-vector search behind the root
scan work on plain integer pairs: callers clear denominators first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = list[Fraction]
Mat = list[list[Fraction]]
IVec = tuple[int, int]


def _as_mat(a: Sequence[Sequence]) -> Mat:
    return [[Fraction(x) for x in row] for row in a]


def ldlt_psd(a: Sequence[Sequence]) -> tuple[Mat, Vec]:
    """Pivotless LDL^T factorization of a symmetric PSD matrix.

    Returns (L, d) with L unit lower triangular and a = L diag(d) L^T,
    all pivots d[j] >= 0.  For a PSD matrix a zero pivot forces the whole
    remaining column to vanish; a negative pivot or a nonzero column under a
    zero pivot raises ValueError, which makes this a semidefiniteness
    certificate.
    """
    m = _as_mat(a)
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    lmat = [[Fraction(0)] * n for _ in range(n)]
    d: Vec = [Fraction(0)] * n
    for j in range(n):
        lmat[j][j] = Fraction(1)
        s = m[j][j] - sum(lmat[j][k] * lmat[j][k] * d[k] for k in range(j))
        if s < 0:
            raise ValueError(f"negative pivot {s} at index {j}: not PSD")
        d[j] = s
        for i in range(j + 1, n):
            t = m[i][j] - sum(lmat[i][k] * lmat[j][k] * d[k] for k in range(j))
            if s == 0:
                if t != 0:
                    raise ValueError(f"zero pivot with nonzero column at {j}: not PSD")
                lmat[i][j] = Fraction(0)
            else:
                lmat[i][j] = t / s
    return lmat, d


def psd_pivots(a: Sequence[Sequence]) -> Vec:
    """Pivots of the LDL^T factorization; raises ValueError if not PSD."""
    return ldlt_psd(a)[1]


def lagrange_reduce(b1: IVec, b2: IVec) -> tuple[IVec, IVec, list[list[int]]]:
    """Gauss-Lagrange reduction of a rank-2 integer lattice basis in the plane.

    Returns (c1, c2, U) with (c1, c2) = U (b1, b2) as rows, U unimodular,
    |c1| <= |c2| and |<c1,c2>| <= |c1|^2 / 2.
    """
    (ux, uy), (vx, vy) = b1, b2
    umat = [[1, 0], [0, 1]]
    while True:
        nu, nv = ux * ux + uy * uy, vx * vx + vy * vy
        if nu > nv:
            ux, uy, vx, vy = vx, vy, ux, uy
            umat.reverse()
            nu = nv
        if nu == 0:
            raise ZeroDivisionError("basis vector is zero: lattice not rank 2")
        # mu = floor(<u,v>/|u|^2 + 1/2), the nearest integer with ties up
        mu = (2 * (ux * vx + uy * vy) + nu) // (2 * nu)
        if mu == 0:
            break
        vx, vy = vx - mu * ux, vy - mu * uy
        umat[1] = [x - mu * y for x, y in zip(umat[1], umat[0])]
    return (ux, uy), (vx, vy), umat


def closest_lattice_point(u: IVec, v: IVec, target: IVec) -> tuple[int, tuple[int, int]]:
    """Exact closest-vector search in the lattice Z u + Z v.

    The basis must be Lagrange-reduced (see ``lagrange_reduce``).  Returns
    (min squared distance, (x, y)) with x u + y v the minimizer, the least
    (x, y) among ties.  With a reduced basis the minimizer's coefficients
    differ from the real least-squares solution by less than 2 in each
    coordinate, so scanning a window of integer offsets around it is
    exhaustive.
    """
    (ux, uy), (vx, vy), (tx, ty) = u, v, target
    guu, guv, gvv = ux * ux + uy * uy, ux * vx + uy * vy, vx * vx + vy * vy
    tu, tv = tx * ux + ty * uy, tx * vx + ty * vy
    det = guu * gvv - guv * guv  # positive for independent u, v
    fx = (tu * gvv - tv * guv) // det
    fy = (guu * tv - guv * tu) // det
    best: int | None = None
    arg = (0, 0)
    # (x, y) runs in increasing order, so a strict improvement keeps the least
    for x in range(fx - 2, fx + 4):
        for y in range(fy - 2, fy + 4):
            dx, dy = x * ux + y * vx - tx, x * uy + y * vy - ty
            dist = dx * dx + dy * dy
            if best is None or dist < best:
                best, arg = dist, (x, y)
    assert best is not None
    return best, arg
