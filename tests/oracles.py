"""Independent brute-force oracles and seeded generators for the tests.

Everything here recomputes library quantities by a different route: the
reflection closure of the simple roots, naive product scans of rank boxes,
integer grid scans over root translates, and plain quadratic minimization.
All exact; numpy is used only on int64 grids whose magnitudes are checked
against overflow first.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from kodlat import (
    CentralCharge,
    KClass,
    KodairaCurve,
    QC,
    evaluate,
    fundamental_roots,
    pair,
    radical_basis,
)

GRID_GUARD = 3_000_000_000  # squares stay < 2^63 with two-term sums


def closure_roots(curve: KodairaCurve) -> tuple[KClass, ...]:
    """All fundamental roots, lexicographically sorted by rank vector.

    Closure of the simple roots (unit classes away from the affine node)
    under the simple reflections v -> v + <v, e_j> e_j.  Reflections in
    non-affine nodes never touch the affine coordinate, so the closure stays
    inside the affine-coordinate-zero slice.
    """
    n = curve.n
    affine = curve.affine_node
    simple = [j for j in range(n) if j != affine]
    seen: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = []
    for j in simple:
        for sign in (1, -1):
            v = tuple(sign if t == j else 0 for t in range(n))
            seen.add(v)
            frontier.append(v)
    while frontier:
        v = frontier.pop()
        for j in simple:
            coeff = sum(curve.gram[j][t] * v[t] for t in range(n))
            if coeff == 0:
                continue
            w = list(v)
            w[j] += coeff
            wt = tuple(w)
            if wt not in seen:
                seen.add(wt)
                frontier.append(wt)
    return tuple(KClass(0, v) for v in sorted(seen))


def naive_box_roots(curve: KodairaCurve, bound: int) -> set[tuple[int, ...]]:
    """Full product scan over the rank box; only viable for small curves."""
    out = set()
    for ranks in itertools.product(range(-bound, bound + 1), repeat=curve.n):
        v = KClass(0, ranks)
        if any(ranks) and pair(curve, v, v) == -2:
            out.add(ranks)
    return out


def coset_box_roots(curve: KodairaCurve, bound: int) -> set[tuple[int, ...]]:
    """All fundamental-root translates w0 + m * cycle inside the box."""
    cycle = radical_basis(curve).cycle.ranks
    out = set()
    for w0 in fundamental_roots(curve):
        spread = max(abs(r) for r in w0.ranks)
        limit = bound + spread  # |w0_j + m c_j| <= bound needs |m| <= bound + spread
        for m in range(-limit, limit + 1):
            ranks = tuple(r + m * c for r, c in zip(w0.ranks, cycle))
            if max(abs(r) for r in ranks) <= bound:
                out.add(ranks)
    return out


def _common_denominator(fracs) -> int:
    d = 1
    for f in fracs:
        d = d * f.denominator // math.gcd(d, f.denominator)
    return d


def charge_grid_scan(
    curve: KodairaCurve, zc: CentralCharge, c_bound: int, m_bound: int
):
    """Exhaustive scan of |Z(delta)|^2 over delta = c ox + w0 + m cycle with
    |c| <= c_bound, |m| <= m_bound.

    Returns (min squared modulus as a Fraction, set of zero locations
    (c, m, w0.ranks)).  Uses an integer grid: all charge values are scaled by
    a common denominator so the scan is exact.
    """
    roots = fundamental_roots(curve)
    values = [evaluate(curve, zc, w0) for w0 in roots]
    zrho = evaluate(curve, zc, radical_basis(curve).cycle)
    fracs = [zc.z0.re, zc.z0.im, zrho.re, zrho.im]
    for v in values:
        fracs += [v.re, v.im]
    den = _common_denominator(fracs)

    def scaled(x: Fraction) -> int:
        return int(x * den)

    a, b = scaled(zc.z0.re), scaled(zc.z0.im)
    p, q = scaled(zrho.re), scaled(zrho.im)
    cs = np.arange(-c_bound, c_bound + 1, dtype=np.int64)[:, None]
    ms = np.arange(-m_bound, m_bound + 1, dtype=np.int64)[None, :]
    guard = (
        (abs(a) + abs(b) + abs(p) + abs(q)) * max(c_bound, m_bound)
        + max(abs(scaled(v.re)) + abs(scaled(v.im)) for v in values)
    )
    assert guard < GRID_GUARD, "grid values too large for int64"
    best = None
    zeros = set()
    for w0, val in zip(roots, values):
        re = cs * a + ms * p + scaled(val.re)
        im = cs * b + ms * q + scaled(val.im)
        sq = re * re + im * im
        local = int(sq.min())
        if best is None or local < best:
            best = local
        if local == 0:
            for ci, mi in zip(*np.nonzero(sq == 0)):
                zeros.add((int(cs[ci, 0]), int(ms[0, mi]), w0.ranks))
    return Fraction(best, den * den), zeros


def brute_closest(b1, b2, target) -> tuple[Fraction, tuple[int, int]]:
    """Closest lattice point by an exhaustive coefficient scan: (squared
    distance, (x, y)) with x b1 + y b2 the minimizer, the least (x, y)
    among ties.

    The origin is a lattice point, so the minimizer p satisfies |p| <= 2|t|;
    Cramer bounds its coefficients by |p| |b_other| / |det|, which gives a
    finite box that provably contains the minimizer.  Denominators are
    cleared so the scan runs on plain integers.
    """
    den = _common_denominator([Fraction(x) for x in (*b1, *b2, *target)])
    a, b = int(b1[0] * den), int(b1[1] * den)
    c, d = int(b2[0] * den), int(b2[1] * den)
    tx, ty = int(target[0] * den), int(target[1] * den)
    det = a * d - b * c
    assert det != 0
    p_sq = 4 * (tx * tx + ty * ty)
    xmax = math.isqrt(p_sq * (c * c + d * d) // (det * det)) + 2
    ymax = math.isqrt(p_sq * (a * a + b * b) // (det * det)) + 2
    best = None
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            dx = x * a + y * c - tx
            dy = x * b + y * d - ty
            dist = dx * dx + dy * dy
            if best is None or dist < best:  # increasing (x, y): keeps the least
                best, arg = dist, (x, y)
    return Fraction(best, den * den), arg


def gauss_reduce(b1, b2):
    """Gauss-Lagrange reduction of a plane lattice basis over Fraction, with
    the library's conventions: swap while |b1| > |b2|, subtract the nearest
    integer multiple (ties up), and track the unimodular U with
    (c1, c2) = U (b1, b2) as rows.  These conventions fix the reduced basis,
    and so the tie-break "least reduced coordinates" of the root scan."""
    u, v = [Fraction(x) for x in b1], [Fraction(x) for x in b2]
    rows = [[1, 0], [0, 1]]
    while True:
        if u[0] ** 2 + u[1] ** 2 > v[0] ** 2 + v[1] ** 2:
            u, v = v, u
            rows.reverse()
        mu = math.floor((u[0] * v[0] + u[1] * v[1]) / (u[0] ** 2 + u[1] ** 2) + Fraction(1, 2))
        if mu == 0:
            return tuple(u), tuple(v), rows
        v = [b - mu * a for a, b in zip(u, v)]
        rows[1] = [b - mu * a for a, b in zip(rows[0], rows[1])]


def full_root_scan(curve: KodairaCurve, zc: CentralCharge) -> tuple[Fraction, KClass]:
    """(M^2, witness) over every fundamental root of ``closure_roots``,
    both signs, in lexicographic order: each root's translates are searched
    exhaustively (``brute_closest`` in the reduced basis), a strictly
    smaller distance replaces the witness, and a distance of 0 stops the
    scan.  The charge must be radical independent."""
    rad = radical_basis(curve)
    zrho = evaluate(curve, zc, rad.cycle)
    u, v, rows = gauss_reduce((zc.z0.re, zc.z0.im), (zrho.re, zrho.im))
    best = witness = None
    for w0 in closure_roots(curve):
        val = evaluate(curve, zc, w0)
        dist, (x, y) = brute_closest(u, v, (-val.re, -val.im))
        if best is None or dist < best:
            best = dist
            c = x * rows[0][0] + y * rows[1][0]
            m = x * rows[0][1] + y * rows[1][1]
            witness = rad.skyscraper.scale(c) + w0 + rad.cycle.scale(m)
            if best == 0:
                break
    return best, witness


def cramer_kernel_pivots(curve: KodairaCurve, zc: CentralCharge) -> tuple[Fraction, ...]:
    """The support form's kernel pivots, term by term: the Cramer kernel
    vectors of Re Z = Im Z = 0 on the charge's integer form (no common
    factor removed), the Euler pairing summed over their entries, and the
    ``ldlt_psd`` pivots of its negative divided by det^2."""
    values = (zc.z0, *zc.z)
    den = _common_denominator([x for val in values for x in (val.re, val.im)])
    zs = [(int(val.re * den), int(val.im * den)) for val in values]
    gram = [[0] * len(zs)] + [[0, *row] for row in curve.gram]

    def cross(a, b):
        return zs[a][0] * zs[b][1] - zs[a][1] * zs[b][0]

    q = next(j for j in range(1, len(zs)) if cross(0, j))
    det = cross(0, q)
    kernel = [
        ((f, det), (0, -cross(f, q)), (q, -cross(0, f))) for f in range(1, len(zs)) if f != q
    ]
    restricted = [
        [sum(x * gram[a][b] * y for a, x in u for b, y in w) for w in kernel] for u in kernel
    ]
    _, pivots = ldlt_psd([[-x for x in row] for row in restricted])
    return tuple(d / (det * det) for d in pivots)


def rational_text(x: Fraction) -> str:
    """"p/q", or "p" when the denominator is 1, spelled out from the parts."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def random_fraction(rng: random.Random, num: int = 12, den: int = 12) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_qc(rng: random.Random, num: int = 12, den: int = 12) -> QC:
    return QC(random_fraction(rng, num, den), random_fraction(rng, num, den))


def random_charge(
    curve: KodairaCurve, rng: random.Random, num: int = 12, den: int = 12
) -> CentralCharge:
    return CentralCharge(
        random_qc(rng, num, den), tuple(random_qc(rng, num, den) for _ in range(curve.n))
    )


def random_class(curve: KodairaCurve, rng: random.Random, size: int = 9) -> KClass:
    return KClass(
        rng.randint(-size, size),
        tuple(rng.randint(-size, size) for _ in range(curve.n)),
    )


def random_normalized_plus_charge(
    curve: KodairaCurve, rng: random.Random, num: int = 6, den: int = 100
) -> CentralCharge:
    """Rejection-sample a normalized charge on the plus component.

    Denominators stay <= den.  Plus needs Im Z(cycle) > 0 after z0 = -1 and
    no vanishing root; nonzero imaginary parts make vanishing rare, so the
    loop exits quickly.
    """
    from kodlat import Component, membership

    while True:
        z = []
        for _ in range(curve.n):
            re = Fraction(rng.randint(-num * den, num * den), den)
            im = Fraction(rng.randint(-num * den, num * den), den)
            z.append(QC(re, im))
        zc = CentralCharge(QC(-1), tuple(z))
        if membership(curve, zc).component is Component.PLUS:
            return zc


def vanishing_charge(
    curve: KodairaCurve, rng: random.Random
) -> tuple[CentralCharge, KClass]:
    """A radical-independent charge that kills a random small root, plus
    that root."""
    from kodlat import radical_independence

    roots = fundamental_roots(curve)
    rad = radical_basis(curve)
    while True:
        w0 = roots[rng.randrange(len(roots))]
        c = rng.randint(-5, 5)
        m = rng.randint(-5, 5)
        delta = rad.skyscraper.scale(c) + w0 + rad.cycle.scale(m)
        j = next(t for t, r in enumerate(delta.ranks) if r)
        z0 = random_qc(rng)
        z = [random_qc(rng) for _ in range(curve.n)]
        partial = z0.scale(delta.chi)
        for t, r in enumerate(delta.ranks):
            if t != j and r:
                partial = partial + z[t].scale(r)
        z[j] = partial.scale(-1) / Fraction(delta.ranks[j])
        zc = CentralCharge(z0, tuple(z))
        if radical_independence(curve, zc):
            return zc, delta


def precompose_word(curve: KodairaCurve, zc: CentralCharge, generators) -> CentralCharge:
    """The charge Z o s_1 o ... o s_m, evaluated on the lattice basis.

    Each basis class is pushed through the generators (i, k), the last one
    first, by s(v) = v + <v, d> d with d = (k + 1, e_i) and <v, d> read off
    the Gram matrix; Z is then evaluated on the image.
    """
    values = []
    for b in range(curve.n + 1):
        chi, ranks = int(b == 0), [int(b == j + 1) for j in range(curve.n)]
        for i, k in reversed(generators):
            c = sum(r * row[i - 1] for r, row in zip(ranks, curve.gram))
            chi += c * (k + 1)
            ranks[i - 1] += c
        re = chi * zc.z0.re + sum(r * z.re for r, z in zip(ranks, zc.z))
        im = chi * zc.z0.im + sum(r * z.im for r, z in zip(ranks, zc.z))
        values.append(QC(re, im))
    return CentralCharge(values[0], tuple(values[1:]))


def gram_column_combination(curve: KodairaCurve, target) -> list[Fraction] | None:
    """Coefficients a with gram . a = target and a_j0 = 0, or None.

    j0 is a node of mark 1, so gram . a' = target has an integral solution
    a' exactly when this one is integral (a' - a is a multiple of the
    cycle).  Plain Gauss-Jordan elimination over Fraction on the other
    columns, which are independent, augmented by target.
    """
    n = curve.n
    j0 = list(curve.marks).index(1)
    cols = [j for j in range(n) if j != j0]
    rows = [[Fraction(row[j]) for j in cols] + [Fraction(t)] for row, t in zip(curve.gram, target)]
    for r in range(n - 1):
        p = next(q for q in range(r, n) if rows[q][r] != 0)
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][r] for x in rows[r]]
        for q in range(n):
            if q != r and rows[q][r] != 0:
                rows[q] = [x - rows[q][r] * y for x, y in zip(rows[q], rows[r])]
    if rows[n - 1][n - 1] != 0:
        return None
    coeffs = [Fraction(0)] * n
    for r, j in enumerate(cols):
        coeffs[j] = rows[r][n - 1]
    return coeffs


def count_negative_positive_roots(curve: KodairaCurve, y) -> int | None:
    """Number of positive real affine roots beta + m cycle with sum of
    beta_j y_j + m level < 0, where level = sum cycle_j y_j > 0.

    The finite roots beta are those of the diagram with one mark-1 node
    deleted, found by closing its simple roots under simple reflections; a
    positive affine root has m >= 1, or m = 0 and beta positive.  Returns
    None when some root takes the value 0 on y.
    """
    g = math.gcd(*curve.marks)
    cycle = [a // g for a in curve.marks]
    j0 = cycle.index(1)
    level = sum(c * x for c, x in zip(cycle, y))
    assert level > 0
    nodes = [j for j in range(curve.n) if j != j0]
    simple = [tuple(int(j == t) for t in range(curve.n)) for j in nodes]
    finite, frontier = set(simple), list(simple)
    while frontier:
        root = frontier.pop()
        for i in nodes:
            c = sum(r * row[i] for r, row in zip(root, curve.gram))
            image = tuple(r + c * (t == i) for t, r in enumerate(root))
            if c and image not in finite:
                finite.add(image)
                frontier.append(image)
    total = 0
    for beta in finite:
        m_min = 0 if min(beta) >= 0 else 1
        bound = Fraction(-sum(b * x for b, x in zip(beta, y))) / level  # m < bound
        if bound.denominator == 1 and bound >= m_min:
            return None
        total += max(0, math.ceil(bound) - m_min)
    return total


def nullspace(a) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix (RREF back-substitution)."""
    m = [[Fraction(x) for x in row] for row in a]
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    basis = []
    for fc in (c for c in range(cols) if c not in pivot_cols):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def ldlt_psd(a) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Pivotless LDL^T factorization of a symmetric PSD matrix over Fraction.

    Returns (L, d) with L unit lower triangular and a = L diag(d) L^T, all
    pivots d[j] >= 0; reads the lower triangle only.  A zero pivot forces
    the whole remaining column to vanish; a negative pivot or a nonzero
    column under a zero pivot raises ValueError.
    """
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    assert all(len(row) == n for row in m)
    lmat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        s = m[j][j] - sum(lmat[j][k] * lmat[j][k] * d[k] for k in range(j))
        if s < 0:
            raise ValueError(f"negative pivot {s} at index {j}: not PSD")
        d[j] = s
        for i in range(j + 1, n):
            t = m[i][j] - sum(lmat[i][k] * lmat[j][k] * d[k] for k in range(j))
            if s == 0:
                if t != 0:
                    raise ValueError(f"zero pivot with nonzero column at {j}: not PSD")
            else:
                lmat[i][j] = t / s
    return lmat, d


def determinant(a) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination with
    row swaps; 1 for the empty matrix."""
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det
