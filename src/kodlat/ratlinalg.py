"""Small exact linear algebra on integers.

The semidefiniteness certificate (``psd_pivots``) is a fraction-free
symmetric elimination on an integer matrix; only its pivots are
``Fraction``s.  It is no longer on the support form's path: that form's
kernel and its pivots have a closed form on integers, from a per-curve
factorization (see ``charge.support_form``), and ``psd_pivots`` remains for
certifying a whole Gram matrix.  The two-dimensional lattice reduction and
closest-vector search behind the root scan work on plain integer pairs:
callers clear denominators first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

IVec = tuple[int, int]


def psd_pivots(a: Sequence[Sequence]) -> list[Fraction]:
    """LDL^T pivots of a symmetric PSD integer matrix, fraction-free.

    Symmetric Bareiss elimination on the lower triangle keeps every entry
    an integer; pivot k is the ratio of successive nonzero leading pivots.
    A zero pivot must have a zero column below it: the step is skipped and
    the pivot is 0.  A negative pivot, a nonzero column under a zero pivot
    or a non-integer entry raises ValueError, so this certifies PSD.
    """
    m = [[int(x) for x in row] for row in a]
    n = len(m)
    if any(len(row) != n for row in m) or m != [list(row) for row in a]:
        raise ValueError("matrix must be square, with integer entries")
    pivots = []
    prev = 1  # the last nonzero leading pivot, a leading principal minor
    for k in range(n):
        p = m[k][k]
        if p < 0:
            raise ValueError(f"negative pivot {Fraction(p, prev)} at index {k}: not PSD")
        pivots.append(Fraction(p, prev))
        if p == 0:
            if any(m[i][k] for i in range(k + 1, n)):
                raise ValueError(f"zero pivot with nonzero column at {k}: not PSD")
            continue
        for i in range(k + 1, n):
            row, c = m[i], m[i][k]
            for j in range(k + 1, i + 1):
                row[j] = (p * row[j] - c * m[j][k]) // prev
        prev = p
    return pivots


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


def nearest_corner(
    ux: int, uy: int, vx: int, vy: int, det: int, tx: int, ty: int, nx: int, ny: int
) -> tuple[int, int, int]:
    """(min squared distance, x, y): the closest point x u + y v to the target
    (tx, ty), the least (x, y) among ties, for a Lagrange-reduced basis u, v.

    det is the Gram determinant |u|^2 |v|^2 - <u,v>^2 (positive for
    independent u, v), and (nx, ny) are the target's floor numerators
    <t,u> |v|^2 - <t,v> <u,v> and |u|^2 <t,v> - <u,v> <t,u>: its coordinates
    in the basis are (nx, ny) / det.  They are linear in the target, so a
    caller with many targets can fill them by additions.

    A reduced basis makes the angle between u and v 60 to 120 degrees, so
    each cell {x, x+1} x {y, y+1} splits along its shorter diagonal into two
    non-obtuse Delaunay triangles.  Each holds its circumcenter, so every
    point of it is nearest to one of its corners.  The target lies in the
    cell of its floors (fx, fy), so its nearest points, ties included, are
    among that cell's four corners.  They are visited in increasing (x, y)
    order, and only a strictly smaller distance replaces the best one.
    """
    fx, fy = nx // det, ny // det
    ox, oy = fx * ux + fy * vx - tx, fx * uy + fy * vy - ty  # corner (fx, fy) - target
    best, x, y = ox * ox + oy * oy, fx, fy
    px, py = ox + vx, oy + vy
    dist = px * px + py * py
    if dist < best:
        best, y = dist, fy + 1
    px, py = ox + ux, oy + uy
    dist = px * px + py * py
    if dist < best:
        best, x, y = dist, fx + 1, fy
    px, py = px + vx, py + vy
    dist = px * px + py * py
    if dist < best:
        best, x, y = dist, fx + 1, fy + 1
    return best, x, y
